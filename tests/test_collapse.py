"""Elementary collapses: stepping, search, removal decisions, verification."""

import random
import re
import sys
from dataclasses import replace
from functools import partial
from itertools import chain, combinations

import pytest

from shellsat import (
    CollapseCertificate,
    CollapseStep,
    apply_collapse,
    collapsible_after_removing,
    decide_wsat_eq_treesize,
    free_faces,
    from_facets,
    is_collapsible,
    verify_collapse,
    wsat_number,
)
from shellsat.collapse import (
    collapse_violation,
    core_components,
    edge_rows,
    format_collapse,
    least_deletion,
    least_deletions,
    least_removal,
    parse_collapse,
    peel,
)
from shellsat.complexes import clique_triangles
from shellsat.errors import (
    ConnectivityError,
    MalformedCertificateError,
    NotFreeError,
    ParameterError,
    PurityError,
    UnsupportedDimensionError,
)
from shellsat.harness import (
    enumerate_connected_graphs,
    enumerate_pure2,
    flag_dunce_hat,
    oracle_collapsible,
    sample_connected_graph,
    sample_pure2,
)
from shellsat.outcomes import (
    Budget,
    BudgetExceeded,
    Impossible,
    NotCollapsible,
    NotSaturated,
    OutOfBudget,
)
from shellsat.wsat import SaturationCertificate
from conftest import (
    all_faces,
    chain_reports,
    maximal_faces,
    outcome,
    reference_peel,
    shows_an_id_tuple,
)


def step_of(K, free_labels, facet_labels):
    return CollapseStep(K.face_from_labels(free_labels.split()),
                        K.face_from_labels(facet_labels.split()))


# -- apply ---------------------------------------------------------------------

def test_collapse_triangle_along_edge(triangle):
    K = apply_collapse(triangle, step_of(triangle, "b c", "a b c"))
    assert K == from_facets(["a b", "a c"])


def test_collapse_path_leaf():
    path = from_facets(["a b", "b c"])
    K = apply_collapse(path, step_of(path, "c", "b c"))
    assert K == from_facets(["a b"])


def test_collapse_shared_edge_is_illegal(two_triangles):
    with pytest.raises(NotFreeError) as exc:
        apply_collapse(two_triangles, step_of(two_triangles, "b c", "a b c"))
    assert exc.value.blocking_facet == two_triangles.face_from_labels(["b", "c", "d"])


def test_collapse_empty_face_is_illegal(triangle):
    with pytest.raises(NotFreeError):
        apply_collapse(triangle, CollapseStep((), triangle.facets[0]))


def test_collapse_preserves_euler_characteristic():
    for K in enumerate_pure2(5, 4):
        current = K
        while True:
            steps = free_faces(current)
            if not steps:
                break
            nxt = apply_collapse(current, steps[0])
            assert (nxt.reduced_euler_characteristic()
                    == current.reduced_euler_characteristic())
            if nxt.dim == 0 and nxt.n_vertices == 1:
                break
            current = nxt


# -- free faces --------------------------------------------------------------------

def test_free_faces_of_solid_triangle(triangle):
    # Every proper nonempty face lies in the unique facet abc, so every one
    # of the 3 vertices and 3 edges is free.
    steps = free_faces(triangle)
    assert [s.free_face for s in steps] == [
        (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert all(s.facet == (0, 1, 2) for s in steps)


def test_free_faces_of_three_cycle(three_cycle):
    assert free_faces(three_cycle) == []


def test_free_faces_of_single_edge():
    edge = from_facets(["a b"])
    assert [(s.free_face, s.facet) for s in free_faces(edge)] == [
        ((0,), (0, 1)), ((1,), (0, 1))]


# -- collapsibility search ------------------------------------------------------------

def test_trees_are_collapsible():
    for facets in (["a b"], ["a b", "b c"], ["a b", "a c", "a d", "d e"]):
        tree = from_facets(facets)
        cert = is_collapsible(tree)
        assert isinstance(cert, CollapseCertificate)
        assert verify_collapse(tree, cert)


def test_three_cycle_not_collapsible(three_cycle):
    assert is_collapsible(three_cycle) == NotCollapsible()


def test_triangle_collapsible(triangle):
    cert = is_collapsible(triangle)
    assert verify_collapse(triangle, cert)
    assert cert.targets_point()


def test_collapsibility_needs_connected_input():
    with pytest.raises(ConnectivityError):
        is_collapsible(from_facets(["a b", "c d"]))


def test_collapse_budget(two_triangles):
    assert is_collapsible(two_triangles, 0) == BudgetExceeded(stage="collapse")


def with_pendant(K, vertex, length):
    """K with a path of the given length hanging from one of its vertices."""
    path = [K.labels[vertex]] + [f"p{i}" for i in range(length)]
    return from_facets([K.label_face(f) for f in K.facets]
                       + [path[i:i + 2] for i in range(length)])


def test_search_agrees_with_oracle_small_corpus():
    """Exhaustive agreement on every instance with at most 12 nonempty faces.

    Besides pure complexes and graphs, the corpus has non-pure inputs,
    which the peel must prune after (not instead of) their triangles: pure
    complexes with a pendant edge or a pendant path of two edges, and
    graphs with one 3-cycle filled in.
    """
    pure = [K for K in enumerate_pure2(5, 10) if sum(K.f_vector()[1:]) <= 12]
    graphs = [G for n in range(1, 7) for G in enumerate_connected_graphs(n)
              if sum(G.f_vector()[1:]) <= 12]
    corpus = pure + graphs
    corpus += [with_pendant(K, v, length) for K in pure
               for v in range(K.n_vertices) for length in (1, 2)]
    corpus += [from_facets([G.label_face(e) for e in G.edges] + [G.label_face(t)])
               for G in graphs for t in combinations(range(G.n_vertices), 3)
               if all(e in G.face_ids() for e in combinations(t, 2))]
    corpus = [K for K in corpus if sum(K.f_vector()[1:]) <= 12]
    assert len(corpus) >= 40
    assert sum(not K.is_pure() for K in corpus) >= 20
    for K in corpus:
        result = is_collapsible(K)
        found = isinstance(result, CollapseCertificate)
        assert found == oracle_collapsible(K), K.facets
        if found:
            assert verify_collapse(K, result)


def greedy_collapse(K, budget):
    """The peel's reference, through the public step API: take the least
    free face by ``(-len, face)``, one budget node each, until one vertex
    is left.  Every complex numbers its vertices in sorted label order, so
    the steps are recorded by their labels."""
    steps = []
    while K.dim > 0 or K.n_vertices > 1:
        free = free_faces(K)
        if not free:
            return NotCollapsible()
        step = min(free, key=lambda s: (-len(s.free_face), s.free_face))
        budget.spend()
        steps.append((K.label_face(step.free_face), K.label_face(step.facet)))
        K = apply_collapse(K, step)
    return steps, K


def test_peel_matches_greedy_free_face_reference():
    rng = random.Random(8)
    pure = list(enumerate_pure2(5, 10)) + [
        sample_pure2(rng, n, t)[0] for n in (6, 7, 8) for t in range(2, 9)
        for _ in range(6)]
    graphs = [G for n in range(1, 6) for G in enumerate_connected_graphs(n)]
    strips = [from_facets([[f"v{i + j}" for j in range(3)] for i in range(m)])
              for m in range(1, 13)]
    pendants = [with_pendant(K, v, 3) for K in pure[::4] + strips
                for v in (0, K.n_vertices - 1)]
    corpus = pure + graphs + strips + pendants
    collapsible = 0
    for K in corpus:
        expected_budget, budget = Budget(None), Budget(None)
        expected = greedy_collapse(K, expected_budget)
        result = is_collapsible(K, budget)
        assert budget.used == expected_budget.used, K.facets
        if expected == NotCollapsible():
            assert result == expected, K.facets
        else:
            steps, target = expected
            assert [(K.label_face(s.free_face), K.label_face(s.facet))
                    for s in result.steps] == steps, K.facets
            assert [K.label_face(f) for f in result.target] == [target.labels]
            collapsible += 1
        if budget.used:
            assert is_collapsible(K, budget.used - 1) == BudgetExceeded(stage="collapse")
    assert collapsible >= 100 and len(corpus) - collapsible >= 50


def peel_cases():
    """(simplices, ridge ids of each, ridge tuple of each id, vertex count):
    the triangles of the 5-vertex classes and of their sd over sorted edge
    ids, then graph edges over vertex ids: the classes' 1-skeletons, the
    connected 5-vertex graphs, and seeded trees and forests."""
    classes = list(enumerate_pure2(5, 10))
    for K in classes + [K.barycentric_subdivision() for K in classes]:
        yield K.triangles, edge_rows(K.triangles, K.edges), K.edges, K.n_vertices
    graphs = [(K.edges, K.n_vertices) for K in classes + list(enumerate_connected_graphs(5))]
    rng = random.Random(35)
    for n in range(1, 40):
        tree = [tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)]
        graphs += [(tree, n), (sorted(rng.sample(tree, len(tree) // 2)), n)]
    for edges, n in graphs:
        yield edges, edges, list(zip(range(n))), n


def test_peel_matches_the_tuple_reference():
    """The id peel, its steps mapped back to tuples, gives the tuple peel's
    steps and core, on every simplex and on a seeded two thirds of them.
    Largest first is the reference on reversed ids (v -> n-1-v, each tuple
    kept in its order), under which tuples compare in reverse."""
    rng = random.Random(36)
    cases = 0
    for simplices, rows, ridge, n in peel_cases():
        flip = [tuple(n - 1 - v for v in s) for s in simplices]
        for alive in (range(len(simplices)),
                      rng.sample(range(len(simplices)), 2 * len(simplices) // 3)):
            for largest_first, named in ((False, simplices), (True, flip)):
                steps, core = peel(rows, alive, len(ridge), largest_first)
                expected, left = reference_peel(named, alive)
                if largest_first:
                    expected = [(tuple(n - 1 - v for v in r), tuple(n - 1 - v for v in s))
                                for r, s in expected]
                assert [(ridge[r], simplices[i]) for r, i in steps] == expected
                assert core == left
                cases += 1
    assert cases > 700


def test_long_strip_collapses_without_recursion():
    K = from_facets([[f"v{i + j}" for j in range(3)] for i in range(2000)])
    cert = is_collapsible(K)
    assert isinstance(cert, CollapseCertificate) and cert.targets_point()
    assert verify_collapse(K, cert)


@pytest.mark.parametrize("facets", [
    # annulus with 6 triangles between the 3-cycles 0 1 2 and 3 4 5
    ["0 1 3", "1 3 4", "1 2 4", "2 4 5", "0 2 5", "0 3 5"],
    # Mobius strips on 5 and 7 vertices: consecutive triples mod n
    [f"{i} {(i + 1) % 5} {(i + 2) % 5}" for i in range(5)],
    [f"{i} {(i + 1) % 7} {(i + 2) % 7}" for i in range(7)],
])
def test_non_collapsible_strips_refuted_within_face_count(facets):
    K = from_facets(facets)
    assert K.reduced_euler_characteristic() == -1
    assert is_collapsible(K, len(all_faces(K))) == NotCollapsible()


def test_collapse_search_needs_dimension_at_most_two():
    with pytest.raises(UnsupportedDimensionError):
        is_collapsible(from_facets(["a b c d"]))


# -- collapsible after removing k triangles ---------------------------------------------

def test_triangle_removal_zero(triangle):
    cert = collapsible_after_removing(triangle, 0)
    assert cert.removed_triangles == frozenset()
    assert verify_collapse(triangle, cert)


def test_triangle_removal_one_impossible(triangle):
    # Euler gate: chi = 0 != 1.
    assert collapsible_after_removing(triangle, 1) == Impossible()


def test_two_triangles_removal_zero(two_triangles):
    cert = collapsible_after_removing(two_triangles, 0)
    assert cert.removed_triangles == frozenset()
    assert verify_collapse(two_triangles, cert)
    assert cert.targets_point()


def test_tetra_boundary_removal_one(tetra_boundary):
    assert tetra_boundary.reduced_euler_characteristic() == 1
    cert = collapsible_after_removing(tetra_boundary, 1)
    assert len(cert.removed_triangles) == 1
    assert verify_collapse(tetra_boundary, cert)
    assert cert.targets_point()


def test_removal_count_must_match_chi():
    for K in enumerate_pure2(4, 4):
        chi = K.reduced_euler_characteristic()
        result = collapsible_after_removing(K, chi, 200000)
        if isinstance(result, CollapseCertificate):
            assert len(result.removed_triangles) == chi
        for k in (chi - 1, chi + 1):
            if k >= 0:
                assert collapsible_after_removing(K, k) == Impossible()


def test_impossible_names_the_test_that_decided_it():
    """``decided_by`` names what ruled every removal out, with the nodes
    spent: the Euler gate (an annulus and a Moebius strip, chi~ = -1, at
    k = 0) none; b1 != 0 at k = chi~ (the 6-vertex projective plane, and an
    annulus with a tetrahedron boundary at one vertex, chi~ = 0) the one
    node of the core; a core that no deletion of chi~ = 0 triangles
    empties (the flag dunce hat) one more for that search."""
    annulus = [f"a{i} a{(i + 1) % 4} b{i}" for i in range(4)]
    annulus += [f"a{(i + 1) % 4} b{i} b{(i + 1) % 4}" for i in range(4)]
    mobius = [f"v{i} v{(i + 1) % 5} v{(i + 2) % 5}" for i in range(5)]
    rp2 = ["1 2 3", "1 3 4", "1 4 5", "1 5 6", "1 6 2",
           "2 3 5", "3 4 6", "4 5 2", "5 6 3", "6 2 4"]
    sphere = [" ".join(f) for f in combinations(["a0", "x", "y", "z"], 3)]
    cases = [(from_facets(annulus), 0, "euler", 0),
             (from_facets(mobius), 0, "euler", 0),
             (from_facets(rp2), 0, "betti1", 1),
             (from_facets(annulus + sphere), 0, "betti1", 1),
             (flag_dunce_hat(), 0, "core", 2)]
    for K, k, test, nodes in cases:
        assert K.reduced_euler_characteristic() == (-1 if test == "euler" else k)
        budget = Budget(None)
        result = collapsible_after_removing(K, k, budget)
        assert result == Impossible() and result.decided_by == test, K.facets
        assert budget.used == nodes, K.facets


def global_removal_scan(K, k):
    """The removal search the core engine replaced: every k-subset of the
    sorted triangles in ``combinations`` order, one collapse search each."""
    for removed in combinations(K.triangles, k):
        # K minus R keeps every vertex, so it keeps K's ids as well.
        rest = from_facets([K.label_face(f) for f in K.face_ids() if f not in removed])
        cert = is_collapsible(rest)
        if isinstance(cert, CollapseCertificate):
            return CollapseCertificate(frozenset(removed), cert.steps, cert.target)
    return Impossible()


def test_removal_matches_global_scan():
    rng = random.Random(66)
    corpus = list(enumerate_pure2(5, 10)) + list(enumerate_pure2(6, 6)) + [
        sample_pure2(rng, 6, t)[0] for t in range(3, 9) for _ in range(30)]
    for K in corpus:
        chi = K.reduced_euler_characteristic()
        for k in range(max(chi - 1, 0), chi + 2):
            expected = global_removal_scan(K, k)
            result = collapsible_after_removing(K, k)
            if isinstance(expected, CollapseCertificate):
                assert result.removed_triangles == expected.removed_triangles
                assert format_collapse(K, result) == format_collapse(K, expected)
            else:
                assert result == Impossible(), (K.facets, k)
    # Three spheres on one vertex: the global scan spends about 61k nodes
    # before its first success; one component at a time needs a few hundred.
    spheres = from_facets(
        [f"o {a}{i} {b}{i}" for i in range(3) for a, b in combinations("abc", 2)]
        + [f"a{i} b{i} c{i}" for i in range(3)])
    K = spheres.barycentric_subdivision()
    cert = collapsible_after_removing(K, 3, 1000)
    assert len(cert.removed_triangles) == 3 and verify_collapse(K, cert) and cert.targets_point()


def test_least_deletion_searches_where_greedy_falls_short():
    """Each case is one core component on which the greedy misses the floor,
    checked against the first least deletion set found by brute force.

    The dunce hat needs one deletion above its floor of 0; with a few more
    triangles the greedy deletes two where one will do; a sphere on one of
    its edges raises the floor to 1 and the least count to 2.
    """
    H = flag_dunce_hat()
    hat = [H.label_face(t) for t in H.triangles]
    cases = [(hat, 0, 1),
             (hat + ["a2 x10 x11", "a1 x07 x11", "x07 x10 x11"], 1, 1),
             (hat + ["a0 x00 p", "a0 x00 q", "a0 p q", "x00 p q"], 1, 2)]
    for facets, floor, least in cases:
        K = from_facets(facets)
        triangles = K.triangles
        [(component, rows, n, bound)] = core_components(
            edge_rows(triangles, K.edges), len(K.edges), Budget(None))
        assert bound == floor
        first = next(d for size in range(len(component) + 1)
                     for d in combinations(component, size)
                     if not reference_peel(triangles, set(component) - set(d))[1])
        assert len(first) == least
        assert len(greedy_deletion(triangles, component)) > floor
        for size in range(floor, least + 1):
            budget = Budget(None)
            found = least_deletion(rows, n, size, budget)
            assert budget.used > 0
            assert found == (tuple(map(component.index, first)) if size == least else None)


# The least deletion as it was searched before the bounded search: the
# greedy set, then every subset of each size from the floor up to one below
# the greedy count, in ``combinations`` order; with ``at_floor`` only the
# floor is tried.

def greedy_deletion(triangles, component):
    """Delete the least triangle of the core and peel, until it is empty."""
    greedy, core = [], set(component)
    while core:
        greedy.append(min(core))
        core = reference_peel(triangles, core - {greedy[-1]})[1]
    return tuple(greedy)


def reference_least_deletion(triangles, component, floor, budget, at_floor=False):
    greedy = greedy_deletion(triangles, component)
    if len(greedy) == floor:
        return greedy
    for size in range(floor, floor + 1 if at_floor else len(greedy)):
        for deleted in combinations(component, size):
            budget.spend()
            if not reference_peel(triangles, set(component).difference(deleted))[1]:
                return deleted
    return None if at_floor else greedy


def reference_least_removal(triangles, chi, budget):
    components = core_components(*numbered(triangles), budget)
    if chi < sum(floor for *_, floor in components):
        return Impossible()
    removed = set()
    for component, *_, floor in components:
        deleted = reference_least_deletion(triangles, component, floor, budget, at_floor=True)
        if deleted is None:
            return Impossible()
        removed.update(deleted)
    return removed


def numbered(triangles, edges=None):
    """The engine's input for a triangle list: its rows over ``edges``, by
    default the triangles' own edges in sorted order, and the edge count."""
    if edges is None:
        edges = sorted(set(chain.from_iterable(combinations(t, 2) for t in triangles)))
    return edge_rows(triangles, edges), len(edges)


def reference_corpus():
    """Triangle lists of the exhaustive 6-vertex corpus, the subdivided
    5-vertex one, the dunce hat and the cliques of 200 seeded G(n, p)."""
    yield from (K.triangles for K in enumerate_pure2(6, 6))
    yield from (K.barycentric_subdivision().triangles for K in enumerate_pure2(5, 4))
    yield flag_dunce_hat().triangles
    for seed in range(200):
        rng = random.Random(seed)
        F = sample_connected_graph(rng, 6 + seed % 15, rng.uniform(0.2, 0.6))
        yield clique_triangles(F.n_vertices, F.edges)


def test_least_deletion_matches_the_greedy_and_scan_reference():
    """The search returns the reference's set on every core component the
    reference decides within 20 000 nodes, and, where it decides them all,
    least_removal returns the reference's at the sum of the floors and one
    above it.  Where the reference runs out, the search still finds a set
    of the size it was asked for that empties the core."""
    decided = undecided = 0
    for triangles in reference_corpus():
        rows, n = numbered(triangles)
        components = core_components(rows, n, Budget(None))
        ran_out = False
        for component, own, m, floor in components:
            budget, size = Budget(20000), floor
            while (found := least_deletion(own, m, size, budget)) is None:
                size += 1
            found = tuple(map(component.__getitem__, found))
            assert len(found) == size
            assert not reference_peel(triangles, set(component) - set(found))[1]
            try:
                expected = reference_least_deletion(triangles, component, floor, Budget(20000))
            except OutOfBudget:
                undecided += 1
                ran_out = True
                continue
            assert found == expected, (triangles, component)
            decided += 1
        if ran_out:
            continue
        b2 = sum(floor for *_, floor in components)
        for chi in (b2, b2 + 1):
            assert (least_removal(rows, n, chi, Budget(None))
                    == reference_least_removal(triangles, chi, Budget(None)))
    assert decided > 100 and undecided > 0, (decided, undecided)


def test_engine_answers_do_not_depend_on_the_edge_numbering():
    """Rows over the triangles' own sorted edges, over every pair of their
    support (a sorted superset, as a host's edges are) and over the own
    edges mapped to distinct, seeded, unsorted ids in a range twice as
    wide (as the shelling search's face ids are) give the same floors, the
    same least_removal at b2 and at b2 + 1, the same least_deletions and
    the same Budget.used, or all run out of a 20 000-node budget."""
    def answers(rows, n):
        floors = [floor for *_, floor in core_components(rows, n, Budget(None))]
        runs = [floors]
        for call in (partial(least_removal, rows, n, sum(floors)),
                     partial(least_removal, rows, n, sum(floors) + 1),
                     partial(least_deletions, rows, n)):
            budget = Budget(20000)
            try:
                result = call(budget)
            except OutOfBudget:
                result = "out of budget"
            runs.append((result, getattr(result, "decided_by", None), budget.used))
        return runs

    rng, wider, unsorted = random.Random(40), 0, 0
    for triangles in reference_corpus():
        support = sorted(set(chain.from_iterable(triangles)))
        own, every = numbered(triangles), numbered(triangles, list(combinations(support, 2)))
        ids = rng.sample(range(2 * own[1]), own[1])
        shuffled = [tuple(map(ids.__getitem__, row)) for row in own[0]], 2 * own[1]
        expected = answers(*own)
        assert answers(*every) == expected and answers(*shuffled) == expected
        wider += every[1] > own[1]
        unsorted += ids != sorted(ids)
    assert wider > 300 and unsorted > 300


def test_each_engine_call_numbers_its_edges_once(monkeypatch):
    """collapse --k and both wsat deciders number the triangles' edges
    once, on the flag dunce hat, whose core is not empty."""
    calls = []

    def counted(triangles, edges):
        calls.append(len(edges))
        return edge_rows(triangles, edges)

    monkeypatch.setattr("shellsat.collapse.edge_rows", counted)
    monkeypatch.setattr("shellsat.wsat.edge_rows", counted)
    K = flag_dunce_hat()
    F = K.skeleton(1)
    for decide, expected in ((lambda: collapsible_after_removing(K, 0), Impossible()),
                             (lambda: decide_wsat_eq_treesize(F), NotSaturated()),
                             (lambda: wsat_number(F), 17)):
        calls.clear()
        assert decide() == expected
        assert calls == [52]


def test_a_removal_on_k_and_a_tree_of_its_sd2_host_agree():
    """For every pure connected 2-complex K on at most 6 vertices with at
    most 6 triangles, some chi~(K) triangles can be removed so that K
    collapses iff some spanning tree of the 1-skeleton of sd²(K) is weakly
    K3-saturated.  The engine runs on K's own edges and on the host's.

    Only "if K, then the host" is argued.  Delete one small triangle
    inside each big triangle removed from K: each punctured disk collapses
    onto its boundary, and what is left, a subdivision of K minus the big
    ones, collapses as K minus them does.  sd²(K) is flag, so its
    triangles are the host's 3-cliques, and it has K's chi~, so by the
    identity of decide_wsat_eq_treesize a spanning tree saturates.  The
    converse is only observed, here."""
    classes = yes = 0
    for K in enumerate_pure2(6, 6):
        chi = K.reduced_euler_characteristic()
        removal = chi >= 0 and collapsible_after_removing(K, chi) != Impossible()
        L = K.barycentric_subdivision().barycentric_subdivision()
        tree = isinstance(decide_wsat_eq_treesize(L.skeleton(1)), SaturationCertificate)
        assert removal == tree, K.facets
        classes += 1
        yes += removal
    assert (classes, yes) == (168, 69)


# Seeded draws (one random.Random(n) per family, in order) on which the
# greedy deletion misses the GF(2) floor and the flat subset scan used up a
# 200 000-node budget in 16-39 s: family, draw index and wsat(F, K3).
FLOOR_GAP_GRAPHS = [(30, 0.3, {1: 35, 3: 39, 9: 39}),
                    (25, 0.35, {2: 36, 4: 31}),
                    (40, 0.25, {0: 49, 3: 58, 7: 55})]


def test_floor_gap_graphs_are_decided_under_a_small_budget():
    for n, p, pinned in FLOOR_GAP_GRAPHS:
        rng = random.Random(n)
        for draw in range(max(pinned) + 1):
            F = sample_connected_graph(rng, n, p)
            if draw not in pinned:
                continue
            triangles = clique_triangles(n, F.edges)
            components = core_components(edge_rows(triangles, F.edges), len(F.edges),
                                         Budget(None))
            base = len(F.edges) - len(triangles)
            bound = base + sum(floor for *_, floor in components)
            greedy = base + sum(len(greedy_deletion(triangles, component))
                                for component, *_ in components)
            value = wsat_number(F, Budget(1000))
            assert bound <= value <= greedy and bound < greedy, (n, draw)
            assert value == pinned[draw], (n, draw)


def test_least_removal_on_a_deep_stack_needs_no_recursion():
    """The 2-skeleton of a stack of 300 tetrahedra has floor 300, so the
    search goes 300 deep, past the recursion limit lowered here."""
    stack = from_facets([" ".join(f"v{j:03d}" for j in range(i, i + 4))
                         for i in range(300)]).skeleton(2)
    assert stack.reduced_euler_characteristic() == 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        removed = least_removal(edge_rows(stack.triangles, stack.edges), len(stack.edges),
                                300, Budget(None))
    finally:
        sys.setrecursionlimit(limit)
    assert len(removed) == 300


def test_removal_preconditions(three_cycle, triangle):
    with pytest.raises(PurityError):
        collapsible_after_removing(three_cycle, 0)
    with pytest.raises(ParameterError):
        collapsible_after_removing(triangle, -1)


# -- verification -----------------------------------------------------------------------

def test_verify_triangle_collapse_sequence(triangle):
    cert = CollapseCertificate(
        frozenset(),
        (step_of(triangle, "b c", "a b c"),
         step_of(triangle, "c", "a c"),
         step_of(triangle, "b", "a b")),
        (triangle.face_from_labels(["a"]),))
    assert verify_collapse(triangle, cert)


def test_verify_same_steps_fail_on_bowtie(bowtie):
    cert = CollapseCertificate(
        frozenset(),
        (step_of(bowtie, "b c", "a b c"),
         step_of(bowtie, "c", "a c"),
         step_of(bowtie, "b", "a b")),
        (bowtie.face_from_labels(["a"]),))
    reason = collapse_violation(bowtie, cert)
    assert reason is not None and reason.startswith("step 1")
    assert not verify_collapse(bowtie, cert)


def test_verify_empty_certificate_is_identity(two_triangles):
    cert = CollapseCertificate(frozenset(), (), two_triangles.facets)
    assert verify_collapse(two_triangles, cert)


def test_verify_wrong_target(triangle):
    cert = CollapseCertificate(
        frozenset(), (step_of(triangle, "b c", "a b c"),), (triangle.face_from_labels(["a"]),))
    assert not verify_collapse(triangle, cert)


def test_verify_rejects_alien_faces(triangle):
    cert = CollapseCertificate(frozenset(), (CollapseStep((0, 3), (0, 1, 2)),), ((0,),))
    with pytest.raises(MalformedCertificateError):
        verify_collapse(triangle, cert)
    with pytest.raises(MalformedCertificateError):
        verify_collapse(triangle, CollapseCertificate(
            frozenset({(0, 1)}), (), triangle.facets))


def test_verify_rejects_a_removed_triangle_inside_a_tetrahedron():
    # Removing abc from the solid tetrahedron leaves abcd without a face,
    # which is no complex; the steps after it would be replayed on that.
    tet = from_facets(["a b c d"])
    cert = CollapseCertificate(frozenset({tet.face_from_labels("a b c".split())}),
                               (step_of(tet, "a", "a b c d"),),
                               (tet.face_from_labels("b c d".split()),))
    with pytest.raises(MalformedCertificateError, match="not a triangle facet"):
        collapse_violation(tet, cert)


# -- the coface replay, kept as the reference -----------------------------------------
#
# The replay before ridge counts: the facets above a free face are the
# maximal faces among those left above it, and a step removes every face of
# the subject above its free face.

def reference_cofacets(faces, tau):
    return maximal_faces([g for g in faces if set(tau) < set(g)])


def reference_step_violation(K, faces, step):
    tau, sigma = step.free_face, step.facet
    if not tau:
        return "the empty face cannot be collapsed"
    if tau not in faces:
        return f"free face {K.face_name(tau)} is not a face of the current complex"
    if sigma not in faces or not set(tau) < set(sigma):
        return (f"{K.face_name(sigma)} is not a facet strictly containing "
                f"{K.face_name(tau)}")
    cofacets = reference_cofacets(faces, tau)
    if sigma not in cofacets:
        return f"{K.face_name(sigma)} is not a facet of the current complex"
    others = [g for g in cofacets if g != sigma]
    if others:
        return (f"free face {K.face_name(tau)} is also contained in facet "
                f"{K.face_name(min(others))}")
    return None


def reference_apply_step(K, faces, step):
    tau = step.free_face
    faces.difference_update([tau] + [g for g in K.face_ids() if set(tau) < set(g)])


def reference_violation(K, cert):
    faces = set(K.face_ids()) - set(cert.removed_triangles)
    for i, step in enumerate(cert.steps):
        reason = reference_step_violation(K, faces, step)
        if reason is not None:
            return f"step {i}: {reason}"
        reference_apply_step(K, faces, step)
    expected = {g for g in K.face_ids() if any(set(g) <= set(f) for f in cert.target)}
    if faces != expected:
        return "final complex does not equal the certificate target"
    return None


def reference_free_steps(K, faces):
    return [CollapseStep(tau, up[0]) for tau in sorted(faces)
            if len(up := reference_cofacets(faces, tau)) == 1]


def reference_apply(K, step):
    """apply_collapse's result, or the NotFreeError's text and blocking facet."""
    faces = set(K.face_ids())
    reason = reference_step_violation(K, faces, step)
    if reason is not None:
        tau = step.free_face
        cofacets = reference_cofacets(faces, tau) if tau in faces else []
        return reason, min((g for g in cofacets if g != step.facet), default=None)
    reference_apply_step(K, faces, step)
    return from_facets([K.label_face(f) for f in maximal_faces(faces)])


def applied(K, step):
    try:
        return apply_collapse(K, step)
    except NotFreeError as exc:
        return str(exc), exc.blocking_facet


def random_complex(rng):
    """Up to 6 random faces of dimension 0..3 on at most 7 vertices."""
    n = rng.randint(2, 7)
    facets = [rng.sample(range(n), rng.randint(1, min(4, n)))
              for _ in range(rng.randint(1, 6))]
    return from_facets([[f"v{v}" for v in facet] for facet in facets])


def test_ridge_count_replay_matches_the_coface_reference():
    """Legal steps from the reference's free faces, mixed with arbitrary
    steps on faces of the subject (the empty face among them), after the
    removal of a random set of triangle facets; every complex a legal
    prefix reaches is checked for apply_collapse and free_faces too."""
    rng = random.Random(12)
    corpus = list(enumerate_pure2(5, 4))
    corpus += [sample_pure2(rng, n, t)[0] for n in (6, 7, 8) for t in (3, 6, 9)
               for _ in range(3)]
    corpus += [random_complex(rng) for _ in range(80)]
    # Named ones too, as the ridge columns are built per size: a pure
    # 3-complex, and a solid tetrahedron with a pendant triangle and edge
    # and an isolated vertex.
    corpus += [from_facets(["a b c d", "b c d e", "c d e f"]),
               from_facets(["a b c d", "c d e", "e f", "g"])]
    assert sum(K.dim == 3 for K in corpus) >= 10
    assert sum(not K.is_pure() for K in corpus) >= 20
    illegal = checked = 0
    for K in corpus:
        pool = sorted(all_faces(K))
        triangles = [f for f in K.facets if len(f) == 3]
        for _ in range(4):
            removed = frozenset(t for t in triangles if rng.random() < 0.3)
            faces = set(K.face_ids()) - removed
            steps = []
            for _ in range(rng.randint(0, 12)):
                free = reference_free_steps(K, faces)
                if free and rng.random() < 0.8:
                    step = rng.choice(free)
                else:
                    step = CollapseStep(rng.choice(pool), rng.choice(pool))
                steps.append(step)
                if reference_step_violation(K, faces, step) is None:
                    reference_apply_step(K, faces, step)
            target = K.facets if rng.random() < 0.2 else tuple(sorted(maximal_faces(faces)))
            cert = CollapseCertificate(removed, tuple(steps), target)
            expected = reference_violation(K, cert)
            assert collapse_violation(K, cert) == expected, (K.facets, cert)
            illegal += expected is not None

        current = K
        while True:
            free = free_faces(current)
            assert free == reference_free_steps(current, set(current.face_ids()))
            pool = sorted(all_faces(current))
            for step in free[:3] + [CollapseStep(rng.choice(pool), rng.choice(pool))
                                    for _ in range(3)]:
                assert applied(current, step) == reference_apply(current, step)
                checked += 1
            if not free:
                break
            current = apply_collapse(current, rng.choice(free))
    assert illegal >= 100 and checked >= 1000


def reference_checked_violation(K, cert):
    """The structural pass over the whole certificate, then the coface replay."""
    facets = set(K.facets)
    for t in cert.removed_triangles:
        if len(t) != 3 or t not in facets:
            raise MalformedCertificateError(
                f"removed entry {K.face_name(t)} is not a triangle facet of the subject")
    faces = all_faces(K)
    for i, step in enumerate(cert.steps):
        for face in (step.free_face, step.facet):
            if face not in faces:
                raise MalformedCertificateError(
                    f"step {i}: {K.face_name(face)} is not a face of the subject")
    for face in cert.target:
        if face not in faces:
            raise MalformedCertificateError(
                f"target: {K.face_name(face)} is not a face of the subject")
    return reference_violation(K, cert)


def tampered_collapses(rng, L, cert):
    """The certificate and copies broken in one place each."""
    steps = list(cert.steps)
    i = rng.randrange(len(steps) - 1)
    # A step whose free face lies in the facet of the one before cannot go first.
    j = rng.choice([j for j in range(len(steps) - 1)
                    if set(steps[j + 1].free_face) < set(steps[j].facet)])

    def at(i, step):
        return replace(cert, steps=tuple(steps[:i] + [step] + steps[i + 1:]))

    def swapped(i):
        return replace(cert, steps=tuple(steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2:]))

    yield cert
    yield replace(cert, steps=(steps[-1], *steps[:-1]))
    yield swapped(i)
    yield swapped(j)
    for t in sorted(cert.removed_triangles)[:1]:
        yield replace(cert, removed_triangles=cert.removed_triangles - {t})
        # A step onto a removed triangle, through one of its edges.
        yield at(0, CollapseStep(t[:2], t))
    yield at(i, CollapseStep((), steps[i].facet))
    yield at(i, CollapseStep(steps[i].free_face, (0, L.n_vertices)))
    ((point,),) = cert.target
    yield replace(cert, target=((next(v for v in range(L.n_vertices) if v != point),),))
    # A step repeated right after itself.
    yield replace(cert, steps=tuple(steps[:i + 1] + steps[i:]))


def free_step_collapse(K):
    """A certificate collapsing K to a point by the reference's free steps:
    a step whose free face lies in the facet of the one before when there
    is one, else the least."""
    faces, steps = set(K.face_ids()), []
    while len(faces) > 1:
        free = reference_free_steps(K, faces)
        after = [s for s in free if steps and set(s.free_face) < set(steps[-1].facet)]
        steps.append((after or free)[0])
        reference_apply_step(K, faces, steps[-1])
    return CollapseCertificate(frozenset(), tuple(steps), tuple(sorted(faces)))


def test_id_replay_matches_the_coface_reference_on_chain_certificates():
    """The chain's own collapse certificates on sd² subjects, and greedy
    collapses of a pure 3-complex and of a non-pure one (with steps whose
    facet is more than one vertex larger), each also with its last step
    first, two adjacent steps swapped, a removed triangle dropped, a step
    onto a removed triangle, an empty free face, a face outside the
    subject, a wrong target and a step repeated right after itself: the
    same message, or the same exception and text."""
    rng = random.Random(18)
    reports = chain_reports(18)
    assert len(reports) >= 4 and any(r.collapse.removed_triangles for r in reports)
    seen = []
    for report in reports:
        L = report.subject
        for cert in tampered_collapses(rng, L, report.collapse):
            expected = outcome(reference_checked_violation, L, cert)
            assert outcome(collapse_violation, L, cert) == expected
            seen.append(expected)
    for K in (from_facets(["a b c d", "b c d e", "c d e f"]),
              from_facets(["a b c d", "d e f", "f g", "g h i"])):
        cert = free_step_collapse(K)
        assert any(len(s.facet) > len(s.free_face) + 1 for s in cert.steps)
        results = []
        for tampered in tampered_collapses(rng, K, cert):
            results.append(outcome(reference_checked_violation, K, tampered))
            assert outcome(collapse_violation, K, tampered) == results[-1]
        assert results[0] is None and results.count(None) < len(results) - 3
    assert len(reports) <= seen.count(None) < 2 * len(reports)
    assert sum(isinstance(x, tuple) for x in seen) == len(reports)
    assert sum(isinstance(x, str) and "also contained" in x for x in seen) >= len(reports)
    assert sum(isinstance(x, str) and "empty face" in x for x in seen) == len(reports)
    assert sum(x == "final complex does not equal the certificate target"
               for x in seen) >= len(reports)


def test_the_replay_takes_legal_one_vertex_steps_inline(monkeypatch):
    """A chain's collapse replays with no call of ``_Replay.take``: each of
    its steps is legal and its facet one vertex larger than its free face.
    A step repeated right after itself, and a step onto a removed triangle,
    reach take once each, which words the failure."""
    from shellsat.collapse import _Replay
    taken = []
    take = _Replay.take

    def counted(self, step, t, s):
        taken.append(step)
        return take(self, step, t, s)

    monkeypatch.setattr(_Replay, "take", counted)
    reports = chain_reports(18)
    assert any(r.collapse.removed_triangles for r in reports)
    for report in reports:
        L, cert = report.subject, report.collapse
        steps = list(cert.steps)
        assert collapse_violation(L, cert) is None and not taken
        repeated = replace(cert, steps=tuple(steps[:2] + steps[1:]))
        assert collapse_violation(L, repeated).startswith("step 2: free face ")
        assert taken == [steps[1]]
        taken.clear()
        for t in sorted(cert.removed_triangles)[:1]:
            onto = replace(cert, steps=(CollapseStep(t[:2], t), *steps[1:]))
            assert collapse_violation(L, onto).startswith("step 0: ")
            assert taken == [CollapseStep(t[:2], t)]
            taken.clear()


def test_collapse_reasons_name_faces_by_labels():
    """On tampered chain certificates, each reason and malformed text
    writes its faces quoted in the subject's labels, never by id tuples;
    an id naming no vertex shows as #id."""
    rng = random.Random(7)
    reports = chain_reports(7)
    assert reports
    named = 0
    for report in reports:
        L = report.subject
        for cert in list(tampered_collapses(rng, L, report.collapse))[1:]:
            result = outcome(collapse_violation, L, cert)
            assert not shows_an_id_tuple(result), result
            text = result[1] if isinstance(result, tuple) else result or ""
            for face in re.findall(r"'([^']*)'", text):
                assert all(v in L.labels or v[0] == "#" for v in face.split()), text
                named += 1
    assert named >= 3 * len(reports)


# -- certificate files ---------------------------------------------------------------------

def test_certificate_round_trip(tetra_boundary):
    cert = collapsible_after_removing(tetra_boundary, 1)
    text = format_collapse(tetra_boundary, cert)
    parsed = parse_collapse(text, tetra_boundary)
    assert parsed.removed_triangles == cert.removed_triangles
    assert parsed.steps == cert.steps
    assert parsed.target == cert.target
    assert verify_collapse(tetra_boundary, parsed)


def test_certificate_parse_errors(triangle):
    with pytest.raises(MalformedCertificateError):
        parse_collapse("b c  a b c\n# target:\na\n", triangle)  # missing arrow
    with pytest.raises(MalformedCertificateError):
        parse_collapse("# removed:\nb c -> a b c\n", triangle)  # no target
    with pytest.raises(MalformedCertificateError):
        parse_collapse("# removed:\nb z -> a b c\n# target:\na\n", triangle)


@pytest.mark.parametrize("index, line", [(1, "# removed: a b z"), (2, "b z -> a b c"),
                                         (-1, "z")])
def test_an_unknown_label_is_malformed_on_every_face_line(triangle, index, line):
    """A label outside the subject in a removed entry, a step or a target
    line is refused as the parser reads it, naming the line."""
    lines = format_collapse(triangle, is_collapsible(triangle)).splitlines()
    lines[index] = line
    lineno = index % len(lines) + 1
    with pytest.raises(MalformedCertificateError, match=f"^line {lineno}: unknown vertex "
                       "label 'z'$"):
        parse_collapse("\n".join(lines), triangle)


@pytest.mark.parametrize("target", ["a d", "a b c d", "a a"])
def test_a_target_of_subject_labels_outside_its_faces_is_malformed(two_triangles, target):
    lines = format_collapse(two_triangles, is_collapsible(two_triangles)).splitlines()
    cert = parse_collapse("\n".join(lines[:-1] + [target]), two_triangles)
    with pytest.raises(MalformedCertificateError,
                       match=f"^target: {two_triangles.face_name(cert.target[0])} is "
                       "not a face of the subject$"):
        verify_collapse(two_triangles, cert)


def test_target_lines_are_distinct_subject_faces(triangle):
    """Target lines are read as sorted distinct faces: the point repeated
    is still a point, the point with an edge through it is not, and both
    replay to the closure of their faces."""
    text = format_collapse(triangle, is_collapsible(triangle))
    head, point = text.splitlines()[:-1], text.splitlines()[-1]
    twice = parse_collapse("\n".join(head + [point, point]), triangle)
    assert twice.target == (triangle.face_from_labels([point]),) and twice.targets_point()
    assert verify_collapse(triangle, twice)
    edge = parse_collapse("\n".join(head + [point, f"a {point}"]), triangle)
    assert len(edge.target) == 2 and not edge.targets_point()
    assert collapse_violation(triangle, edge) == (
        "final complex does not equal the certificate target")


def test_emitted_certificates_read_back_to_their_own_text(triangle, tetra_boundary):
    certs = [(triangle, is_collapsible(triangle)),
             (tetra_boundary, collapsible_after_removing(tetra_boundary, 1))]
    certs += [(r.subject, r.collapse) for r in chain_reports(3)]
    assert len(certs) >= 4
    for K, cert in certs:
        text = format_collapse(K, cert)
        assert format_collapse(K, parse_collapse(text, K)) == text


def test_certificate_fingerprint_mismatch(triangle, two_triangles):
    cert = is_collapsible(triangle)
    text = format_collapse(triangle, cert)
    with pytest.raises(MalformedCertificateError):
        parse_collapse(text, two_triangles)
