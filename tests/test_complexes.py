"""Core complex representation: construction, predicates, sd, .sc format."""

import hashlib
import random
import re
from collections import deque
from itertools import combinations, permutations

import pytest

from shellsat import (
    apply_collapse,
    free_faces,
    from_facets,
    graph_complex,
    parse_sc,
    parse_sc_with_warnings,
    run_chain,
    wsat,
)
from shellsat.complexes import (
    LABEL_RE,
    Complex,
    clique_triangles,
    is_connected_graph,
    spanning_subgraph,
)
from shellsat.errors import (
    EmptyComplexError,
    MalformedFaceError,
    NotAFaceError,
    ParseError,
    ShellsatError,
    UnsupportedDimensionError,
)
from shellsat.harness import (
    enumerate_connected_graphs,
    enumerate_pure2,
    flag_dunce_hat,
    sample_connected_graph,
    sample_pure2,
    sample_spanning_subgraph,
)
from conftest import (
    all_faces,
    chain_reports,
    maximal_faces,
    reference_subdivision,
    table_corpus,
)


# -- construction ---------------------------------------------------------------

def test_single_triangle_closure(triangle):
    assert triangle.f_vector() == (1, 3, 3, 1)
    assert len(all_faces(triangle)) == 8  # empty face included


def test_subset_faces_are_absorbed():
    K = from_facets(["a b", "b"])
    assert K.facets == ((0, 1),)


def test_two_triangles_sharing_edge(two_triangles):
    assert two_triangles.f_vector() == (1, 4, 5, 2)


def test_duplicate_vertex_rejected():
    with pytest.raises(MalformedFaceError):
        from_facets(["a a b"])


def test_empty_input_rejected():
    with pytest.raises(EmptyComplexError):
        from_facets([])
    with pytest.raises(MalformedFaceError):
        from_facets([""])


def test_dimension_cap():
    from_facets(["a b c d"])  # dimension 3 is the cap
    with pytest.raises(UnsupportedDimensionError):
        from_facets(["a b c d e"])


def test_vertex_ids_follow_sorted_labels():
    K = from_facets(["c a", "b"])
    assert K.labels == ("a", "b", "c")
    assert K.facets == ((0, 2), (1,))


def test_face_from_labels_sorts_and_rejects_unknown_labels():
    K = from_facets(["a c e", "c g"])
    assert K.face_from_labels(["g", "a", "c"]) == (0, 1, 3)
    for unknown in ("0", "b", "d", "f", "h", "cc"):
        with pytest.raises(NotAFaceError, match=repr(unknown)):
            K.face_from_labels(["a", unknown])


# -- skeleton / induced -----------------------------------------------------------

def test_repr_names_the_first_four_facets(two_triangles):
    assert repr(two_triangles) == "Complex(a b c, b c d)"
    strip = from_facets([f"v{i} v{i + 1} v{i + 2}" for i in range(5)])
    assert repr(strip) == "Complex(v0 v1 v2, v1 v2 v3, v2 v3 v4, v3 v4 v5, ...)"
    assert repr(from_facets(["x"])) == "Complex(x)"


def test_face_texts_writes_each_face_by_its_labels():
    """The one face writer, on faces of every size, the empty face included:
    grouped by size, interleaved, and every face of the chain's sd² subjects
    and their host graphs, whose labels nest braces and bars."""
    def every_face(K):
        return [f for k in range(-1, K.dim + 1) for f in K.faces_of_dim(k)]

    for K in (from_facets(["a b c d", "b c e", "e f", "gh"]), from_facets(["xy"])):
        faces = every_face(K)
        assert {len(f) for f in faces} == set(range(K.dim + 2))
        assert K.face_texts(faces) == [" ".join(K.label_face(f)) for f in faces]
    assert from_facets(["xy"]).face_texts([(), (0,)]) == ["", "xy"]
    K = from_facets(["a b c d", "b c e", "e f", "gh"])
    faces = every_face(K) * 2
    random.Random(110).shuffle(faces)
    assert len({len(f) for f in faces[:8]}) > 2  # the sizes are mixed, not grouped
    assert K.face_texts(faces) == [" ".join(K.label_face(f)) for f in faces]
    reports = chain_reports(18)
    assert reports
    for report in reports:
        L = report.subject
        assert any("{" in label and "|" in label for label in L.labels)
        for K in (L, L.skeleton(1)):
            faces = every_face(K)
            assert K.face_texts(faces) == [" ".join(K.label_face(f)) for f in faces]
        assert L.to_sc() == "\n".join(" ".join(L.label_face(f)) for f in L.facets) + "\n"


def test_skeleton_drops_triangles(two_triangles):
    G = two_triangles.skeleton(1)
    assert G.f_vector() == (1, 4, 5)
    assert G.dim == 1
    assert two_triangles.skeleton(1) is G  # built once, then kept


def test_skeleton_identity_when_low_dim():
    edge = from_facets(["a b"])
    assert edge.skeleton(1) == edge


def test_skeleton_of_solid_tetrahedron_is_k4():
    K = from_facets(["a b c d"])
    assert K.skeleton(1).f_vector() == (1, 4, 6)


def test_skeleton_dimension_must_be_nonnegative(two_triangles):
    with pytest.raises(UnsupportedDimensionError, match="must be >= 0"):
        two_triangles.skeleton(-1)


def test_equality_and_hash_follow_labels_and_facets(two_triangles):
    same = from_facets(["b c d", "c b a", "a b"])
    assert same == two_triangles and hash(same) == hash(two_triangles)
    assert len({same, two_triangles, from_facets(["a b c"])}) == 2
    assert two_triangles.__eq__(3) is NotImplemented
    assert (two_triangles == 3) is False and two_triangles != "a b c\nb c d\n"


def test_induced_single_face(two_triangles):
    abc = two_triangles.face_from_labels(["a", "b", "c"])
    sub = two_triangles.induced([abc])
    assert sub == from_facets(["a b c"])


def test_induced_all_facets_is_identity(two_triangles):
    assert two_triangles.induced(two_triangles.facets) == two_triangles


def test_induced_absorbs_contained_faces(two_triangles):
    abc = two_triangles.face_from_labels(["a", "b", "c"])
    bc = two_triangles.face_from_labels(["b", "c"])
    assert two_triangles.induced([abc, bc]) == from_facets(["a b c"])


def test_induced_rejects_non_faces(two_triangles):
    """The first listed face that is not a nonempty face is named, in
    listing order: the empty face, a non-edge (ad), a face larger than the
    dimension and a face with an id past the last label.  None of them is
    looked up in a set of its own size, so none raises IndexError."""
    for bad in [(), (0, 3), (0, 1, 2, 3), (1, two_triangles.n_vertices),
                (two_triangles.n_vertices,)]:
        for listing in ([bad], [(0, 1), bad, (0, 3), (), (0, 1, 2, 3, 4)]):
            with pytest.raises(NotAFaceError, match=f"^{re.escape(str(bad))} is not a "
                               "nonempty face of the complex$"):
                two_triangles.induced(listing)


# -- barycentric subdivision -------------------------------------------------------

def brute_force_chains(K: Complex) -> set[frozenset]:
    """Independent sd oracle: every totally ordered set of nonempty faces."""
    faces = list(K.face_ids())
    chains = set()
    for r in range(1, len(faces) + 1):
        for combo in combinations(faces, r):
            ordered = sorted(combo, key=len)
            if all(set(a) < set(b) for a, b in zip(ordered, ordered[1:])):
                chains.add(frozenset(combo))
    return chains


def sd_faces_as_chains(K: Complex, sd: Complex) -> set[frozenset]:
    """Translate nonempty sd faces back to sets of original faces."""
    out = set()
    for face in sd.face_ids():
        labels = sd.label_face(face)
        originals = [K.face_from_labels(lab[1:-1].split("|")) for lab in labels]
        out.add(frozenset(originals))
    return out


def test_sd_point_is_point():
    pt = from_facets(["a"])
    sd = pt.barycentric_subdivision()
    assert sd.f_vector() == (1, 1)
    assert sd.labels == ("{a}",)


def test_sd_edge_is_path_of_two_edges():
    edge = from_facets(["a b"])
    sd = edge.barycentric_subdivision()
    assert sd.f_vector() == (1, 3, 2)
    assert sd_faces_as_chains(edge, sd) == brute_force_chains(edge)


def test_sd_triangle_f_vector(triangle):
    sd = triangle.barycentric_subdivision()
    assert sd.f_vector() == (1, 7, 12, 6)
    assert sd_faces_as_chains(triangle, sd) == brute_force_chains(triangle)


def test_sd_faces_match_chain_oracle(two_triangles, bowtie):
    """The faces of sd are the chains of faces; and the per-size slot
    tables give the labels, facets and barycentres of the permutation
    build, on the 5-vertex classes, a solid tetrahedron, a triangle with a
    pendant edge and an isolated vertex, and sd of sd."""
    for K in (two_triangles, bowtie):
        sd = K.barycentric_subdivision()
        assert sd_faces_as_chains(K, sd) == brute_force_chains(K)
    tetrahedron = from_facets(["a b c d"])
    pendant = from_facets(["a b c", "c d", "e"])
    corpus = list(enumerate_pure2(5, 6)) + [tetrahedron, pendant]
    corpus += [K.barycentric_subdivision() for K in corpus[-3:]]
    corpus.append(corpus[-1].barycentric_subdivision())
    for K in corpus:
        sd, vertex = reference_subdivision(K)
        assert K.barycentric_subdivision().labels == sd.labels
        assert K.barycentric_subdivision().facets == sd.facets
        assert K.barycenters() == vertex
    assert {K.dim for K in corpus} == {2, 3} and not all(K.is_pure() for K in corpus)


def test_a_label_in_no_face_is_refused():
    """Every label of a complex is a vertex.  A label in no listed face, the
    last or one in the middle, is refused by name, and so is the one label
    of a listing with no nonempty face."""
    for labels, faces, name in [(list("abcd"), [(0, 1, 2)], "d"),
                                (list("abcd"), [(0, 2, 3)], "b"),
                                (["a"], [()], "a"), (["a"], [], "a")]:
        with pytest.raises(NotAFaceError, match=f"^label '{name}' is in no face$"):
            Complex(labels, faces)


def test_a_vertex_id_outside_the_labels_is_refused():
    """A face id below 0 or past the last label names no label and is
    refused by id, also where it makes up the count of a label in no face."""
    for labels, faces, bad in [(["a", "b"], [(0, 2)], 2), (["a", "b"], [(-1, 0)], -1),
                               (["a"], [(0, 1)], 1), (["a", "b"], [(0, 1), (5,)], 5)]:
        with pytest.raises(NotAFaceError, match=f"^vertex id {bad} names no label$"):
            Complex(labels, faces)


def test_labels_out_of_order_are_refused():
    """Labels must be strictly increasing, as every package path builds
    them: a complex on unsorted labels would write faces its own parsers
    read differently, and one on a repeated label a ``.sc`` line that
    ``parse_sc`` refuses.  The first pair out of order is named."""
    for labels, faces, pair in [(["b", "a", "c"], [(0, 1, 2)], "'b' then 'a'"),
                                (["a", "a"], [(0, 1)], "'a' then 'a'"),
                                (["a", "c", "d", "b"], [(0, 1), (2, 3)], "'d' then 'b'")]:
        with pytest.raises(MalformedFaceError, match=f"^labels must be strictly increasing: {pair}$"):
            Complex(labels, faces)
    assert Complex(("a", "b", "c"), [(0, 1, 2)]) == from_facets(["a b c"])


def test_facet_rows_name_the_proper_subfaces_of_each_facet():
    """Each row of ``facet_rows`` lists the ids of its facet's nonempty
    proper subfaces in ``combinations`` order, and the subdivision built on
    the rows is the permutation build's, on complexes with facets of
    several sizes and a vertex facet, its label in the middle or last."""
    corpus = [Complex(["a", "b", "c", "d", "e", "f"], [(0, 1, 2), (2, 4, 5), (0, 5), (3,)]),
              Complex(["a", "b", "c", "d", "e", "f"], [(1, 2, 3, 5), (0, 1), (4,)]),
              from_facets(["a b c", "c d", "e"])]
    for K in corpus:
        face = {i: f for f, i in K.face_ids().items()}
        assert sorted(face) == list(range(len(face))) and set(face.values()) == all_faces(K) - {()}
        for facet, row in zip(K.facets, K.facet_rows(), strict=True):
            assert [face[i] for i in row] == [
                sub for k in range(1, len(facet)) for sub in combinations(facet, k)]
        sd, vertex = reference_subdivision(K)
        assert (K.barycentric_subdivision().labels, K.barycentric_subdivision().facets) == (
            sd.labels, sd.facets)
        assert K.barycenters() == vertex


def test_vertex_v_has_face_id_v_and_rows_begin_with_their_facet():
    """``face_ids`` numbers vertex (v,) as v, so the row of each facet of
    two or more vertices begins with its vertex slots, the facet itself:
    on every complex of ``sweep_corpus`` and ``table_corpus``, and on their
    skeletons and subdivisions."""
    checked = 0
    for base in sweep_corpus() + table_corpus():
        sd = base.barycentric_subdivision()
        for K in (base, sd, *map(base.skeleton, range(base.dim)),
                  *map(sd.skeleton, range(sd.dim))):
            ids = K.face_ids()
            assert [ids[(v,)] for v in range(K.n_vertices)] == list(range(K.n_vertices))
            for facet, row in zip(K.facets, K.facet_rows(), strict=True):
                assert len(facet) < 2 or row[:len(facet)] == facet, (K.facets, facet)
            checked += 1
    assert checked > 1000, checked


def test_sd_rejects_faces_that_serialize_alike():
    # The edge "a b" and the vertex "a|b" would both become "{a|b}".
    K = from_facets(["a b a|b", "b c y", "a c z"])
    with pytest.raises(ShellsatError, match=r"'a b' and 'a\|b'.*'\{a\|b\}'"):
        K.barycentric_subdivision()
    assert from_facets(["a b x", "b c y", "a c z"]).barycentric_subdivision(
        ).f_vector() == (1, 18, 36, 18)


def test_sd_names_the_least_of_two_label_clashes():
    # "a b" and "a|b" both become "{a|b}", "c d" and "c|d" both "{c|d}".
    # The least shared name is raised, with its two faces in id order.
    K = from_facets(["c d c|d", "a b a|b", "b c y", "a c z", "a d w"])
    with pytest.raises(ShellsatError, match=re.escape(
            "faces 'a b' and 'a|b' both subdivide to vertex '{a|b}'") + "$"):
        K.barycentric_subdivision()


def test_sd_of_parsed_sd_output_keeps_every_face(two_triangles):
    # Well-bracketed sd labels never serialize alike, so sd twice through
    # ".sc" text is sd twice in memory.
    sd = parse_sc(two_triangles.barycentric_subdivision().to_sc())
    sd2 = two_triangles.barycentric_subdivision().barycentric_subdivision()
    assert sd.barycentric_subdivision() == sd2
    assert sd2.f_vector() == (1, 45, 116, 72)


def test_sd_serialization_is_frozen(triangle):
    # The brace-and-bar naming scheme is a fixed output contract.
    assert triangle.barycentric_subdivision().to_sc() == (
        "{a|b|c} {a|b} {a}\n"
        "{a|b|c} {a|b} {b}\n"
        "{a|b|c} {a|c} {a}\n"
        "{a|b|c} {a|c} {c}\n"
        "{a|b|c} {b|c} {b}\n"
        "{a|b|c} {b|c} {c}\n")


# -- counting -----------------------------------------------------------------------

def test_reduced_euler_characteristic_point():
    assert from_facets(["a"]).reduced_euler_characteristic() == 0


def test_reduced_euler_characteristic_three_cycle(three_cycle):
    assert three_cycle.reduced_euler_characteristic() == -1


def test_reduced_euler_characteristic_triangle(triangle):
    assert triangle.reduced_euler_characteristic() == 0


def test_f_vector_k4_graph():
    k4 = from_facets(["a b", "a c", "a d", "b c", "b d", "c d"])
    assert k4.f_vector() == (1, 4, 6)


# -- predicates ----------------------------------------------------------------------

def test_purity_and_dimension(two_triangles):
    assert two_triangles.is_pure() and two_triangles.dim == 2
    mixed = from_facets(["a b c", "d e"])
    assert not mixed.is_pure()
    point = from_facets(["a"])
    assert point.is_pure() and point.dim == 0


def test_flagness(two_triangles, three_cycle):
    assert two_triangles.is_flag2()
    assert not three_cycle.is_flag2()  # abc is a clique with no 2-face
    with pytest.raises(UnsupportedDimensionError):
        from_facets(["a b c d"]).is_flag2()


def test_connectivity(bowtie):
    assert bowtie.is_connected()
    assert not from_facets(["a b", "c d"]).is_connected()
    assert from_facets(["a"]).is_connected()


# -- invariants on seeded random instances ---------------------------------------------

def random_corpus(count=25):
    rng = random.Random(1105)
    out = []
    for _ in range(count):
        n = rng.randint(4, 7)
        t = rng.randint(1, 2 * n - 4)
        K, _ = sample_pure2(rng, n, min(t, 10))
        out.append(K)
    return out


def test_maximal_faces_matches_brute_force_filter():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        pool = [f for k in range(5) for f in combinations(range(n), k)]
        faces = rng.sample(pool, rng.randint(0, min(len(pool), 25)))
        brute = [f for f in faces
                 if not any(f != g and set(f) < set(g) for g in faces)]
        assert maximal_faces(faces) == brute


def test_from_facets_idempotent_on_facets():
    for K in random_corpus():
        rebuilt = from_facets([K.label_face(f) for f in K.facets])
        assert rebuilt == K


# -- the id build against the label build -------------------------------------------
#
# Derived complexes are built on ids.  The references below build the same
# complexes the old way, from label faces through from_facets; both must
# agree as values and byte for byte.

def label_skeleton(K: Complex, k: int) -> Complex:
    return from_facets([K.label_face(f) for f in K.face_ids() if len(f) <= k + 1])


def label_induced(K: Complex, faces) -> Complex:
    return from_facets([K.label_face(f) for f in faces])


def label_sd(K: Complex) -> Complex:
    """One "{a|b}" label per face in each chain it appears in."""
    def chain_label(face):
        return "{" + "|".join(K.label_face(face)) + "}"

    return from_facets([[chain_label(tuple(sorted(order[:k + 1])))
                         for k in range(len(order))]
                        for facet in K.facets for order in permutations(facet)])


def label_collapse(K: Complex, step) -> Complex:
    tau, sigma = set(step.free_face), set(step.facet)
    left = [f for f in K.face_ids() if not tau <= set(f) <= sigma]
    return from_facets([K.label_face(f) for f in maximal_faces(left)])


def assert_same(built: Complex, reference: Complex) -> None:
    assert built == reference
    assert built.labels == reference.labels and all_faces(built) == all_faces(reference)
    assert built.to_sc() == reference.to_sc()
    assert built.fingerprint == reference.fingerprint


def id_build_corpus() -> list[Complex]:
    classes = list(enumerate_pure2(5, 5))
    tetrahedron = from_facets(["a b c d"])
    return (classes + [K.barycentric_subdivision() for K in classes]
            + [flag_dunce_hat(), tetrahedron, tetrahedron.barycentric_subdivision()]
            + list(enumerate_connected_graphs(5)))


def test_id_build_matches_label_build():
    rng = random.Random(13)
    for K in id_build_corpus():
        for k in range(K.dim + 1):
            assert_same(K.skeleton(k), label_skeleton(K, k))
        for _ in range(3):
            subset = rng.sample(K.facets, rng.randint(1, len(K.facets)))
            assert_same(K.induced(subset), label_induced(K, subset))
        assert_same(K.barycentric_subdivision(), label_sd(K))


def test_apply_collapse_matches_label_build():
    for K in id_build_corpus():
        for step in free_faces(K):
            assert_same(apply_collapse(K, step), label_collapse(K, step))


def reference_spanning_subgraph(F: Complex, edges) -> Complex:
    """The start graph through the constructor's full sweep: the edges and
    every vertex of F listed as faces on F's labels."""
    return Complex(F.labels, [*edges, *zip(range(F.n_vertices))])


def test_spanning_subgraph_matches_graph_complex():
    """The start graph built on F's kept sets against the constructor's
    build and against the graph built from labels, on every connected graph
    of 5 vertices, the 1-skeletons of the 5-vertex classes and one vertex:
    no edge, all edges, all edges with some listed twice, seeded subsets,
    and subsets that leave some vertices isolated; and on the start graphs
    of the chain's reports.  Facets, edges, f-vector, connectivity, the
    faces numbered and the fingerprint agree, the vertices keep their ids,
    and an id outside 0..n-1 raises as the constructor does."""
    rng = random.Random(17)
    graphs = [*enumerate_connected_graphs(5),
              *(K.skeleton(1) for K in enumerate_pure2(5, 3)), from_facets(["a"])]
    cases = [(report.subject.skeleton(1), report.saturation.start.edges)
             for report in chain_reports(18)]
    assert len(cases) >= 4
    for G in graphs:
        alone = rng.randrange(G.n_vertices)
        cases += [(G, ()), (G, G.edges), (G, [*G.edges, *G.edges[::2]]),
                  (G, [e for e in G.edges if alone not in e])]
        cases += [(G, {e for e in G.edges if rng.random() < 0.5}) for _ in range(4)]
    isolated = 0
    for G, edges in cases:
        built, reference = spanning_subgraph(G, edges), reference_spanning_subgraph(G, edges)
        assert_same(built, reference)
        assert built == graph_complex(G.labels, [G.label_face(e) for e in sorted(set(edges))])
        assert (built.facets, built.edges, built.dim) == (
            reference.facets, reference.edges, reference.dim)
        assert built.f_vector() == reference.f_vector()
        assert built.is_connected() == reference.is_connected()
        assert built.face_ids().keys() == reference.face_ids().keys()
        assert [built.face_ids()[v,] for v in range(G.n_vertices)] == list(range(G.n_vertices))
        assert sorted(built.face_ids().values()) == list(range(len(built.face_ids())))
        assert built.fingerprint == reference.fingerprint
        isolated += any(len(f) == 1 for f in built.facets) and bool(built.edges)
    assert isolated >= len(graphs)
    G = graphs[0]
    n = G.n_vertices
    for edges in ([(0, n)], [(-1, 0)], [(0, 1), (n, n + 2), (-3, 2)]):
        expected = outcome(lambda: reference_spanning_subgraph(G, edges))
        assert expected[0] == "NotAFaceError"
        assert outcome(lambda: spanning_subgraph(G, edges)) == expected
    assert wsat.spanning_subgraph is spanning_subgraph


# -- every derived complex keeps every label a vertex -------------------------------

def derived_corpus() -> list[Complex]:
    """The complexes the package derives, on seeded inputs: the classes of
    ``enumerate_pure2(5, 5)`` and ``sample_pure2`` draws with their sd and
    sd², the 0- and 1-skeleton of each of those, the result of every free
    collapse step of the classes, draws and their sd, the start graphs of
    ``run_chain`` reports, and the harness graphs with spanning subgraphs."""
    rng = random.Random(59)
    bases = list(enumerate_pure2(5, 5)) + [
        sample_pure2(rng, rng.randint(5, 7), rng.randint(3, 6))[0] for _ in range(20)]
    out = []
    for K in bases:
        sd = K.barycentric_subdivision()
        out += [K, sd, sd.barycentric_subdivision()]
    out += [S for K in list(out) for S in (K.skeleton(0), K.skeleton(1))]
    for K in bases:
        report = run_chain(K, budget=100_000)
        if report.complete:
            out.append(report.saturation.start)
        for L in (K, K.barycentric_subdivision()):
            out += [apply_collapse(L, step) for step in free_faces(L)]
    graphs = [*enumerate_connected_graphs(5),
              *(sample_connected_graph(rng, rng.randint(2, 8), 0.4) for _ in range(20))]
    return out + graphs + [sample_spanning_subgraph(rng, G, 0.5) for G in graphs]


def test_every_derived_complex_keeps_every_label_a_vertex():
    """Each derived complex reads back from its ".sc" text as itself, with
    its fingerprint; its vertices are its labels; and its connectivity is
    its 1-skeleton's."""
    corpus = derived_corpus()
    for K in corpus:
        back = parse_sc(K.to_sc())
        assert back == K and back.fingerprint == K.fingerprint
        assert K.n_vertices == K.f_vector()[1]
        assert K.is_connected() == K.skeleton(1).is_connected()
    connected = [K.is_connected() for K in corpus]
    assert 100 < connected.count(False) < len(corpus) - 100, connected.count(False)


# -- the one-sweep build against the earlier passes ----------------------------------
#
# Complex.__init__ builds the closure and the facets in one largest-first
# sweep, keeping the faces of each size apart, and every face listing reads
# those sets; parsing checks each distinct label once and compares absorbed
# faces as id faces, and to_sc checks each label once.  The references
# below are the earlier passes of each: full scans over every face.

def reference_build(id_faces) -> tuple[tuple, frozenset]:
    """maximal_faces for the facets, then every subface of every face."""
    listed = set(id_faces)
    facets = tuple(sorted(maximal_faces(listed)))
    faces = frozenset(sub for f in listed for k in range(len(f) + 1)
                      for sub in combinations(f, k))
    return facets, faces


def reference_to_sc(K: Complex) -> str:
    """Every label occurrence checked, facet by facet."""
    lines = []
    for facet in K.facets:
        labels = K.label_face(facet)
        for lab in labels:
            if not LABEL_RE.match(lab):
                raise ShellsatError(f"label {lab!r} is not serializable")
        lines.append(" ".join(labels))
    return "\n".join(lines) + "\n"


def reference_connected(K: Complex) -> bool:
    """Breadth-first search over the 1-skeleton from vertex 0."""
    neighbours = {v: set() for v in range(K.n_vertices)}
    for u, v in (f for f in reference_build(K.facets)[1] if len(f) == 2):
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, queue = {0}, deque([0])
    while queue:
        for w in neighbours[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == K.n_vertices


def reference_parse(text: str) -> tuple[Complex, list[str]]:
    """Line by line: every label occurrence checked, then a repeated vertex,
    then the dimension; absorbed faces compared as label tuples."""
    listed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = tuple(line.split())
        for lab in labels:
            if not LABEL_RE.match(lab):
                raise ParseError(f"bad vertex label {lab!r}", lineno)
        if len(set(labels)) != len(labels):
            raise ParseError(f"face {line!r} repeats a vertex", lineno)
        if len(labels) > 4:
            raise ParseError(f"face {line!r} has dimension {len(labels) - 1}; "
                             "the supported maximum is 3", lineno)
        listed.append((lineno, labels))
    if not listed:
        raise ParseError("no facets found; a complex must have at least one vertex")
    K = from_facets([labels for _, labels in listed])
    facet_set = {K.label_face(f) for f in K.facets}
    warnings, seen = [], set()
    for lineno, labels in listed:
        canonical = tuple(sorted(labels))
        if canonical not in facet_set or canonical in seen:
            warnings.append(f"line {lineno}: face {' '.join(labels)!r} absorbed")
        seen.add(canonical)
    return K, warnings


def outcome(compute):
    """The value of compute(), or the type and text of the error it raises."""
    try:
        return compute()
    except ShellsatError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def unused_vertices(n: int, faces) -> list[tuple[int]]:
    """The vertices 0..n-1 in none of the faces, each as a 0-face, so that
    every label of a complex built on them is a vertex."""
    used = {v for f in faces for v in f}
    return [(v,) for v in range(n) if v not in used]


def sweep_corpus() -> list[Complex]:
    """The id-build corpus, 0-dimensional complexes and 200 seeded id-face
    lists of mixed sizes with duplicates, nested faces and isolated
    vertices."""
    rng = random.Random(23)
    out = id_build_corpus()
    out += [from_facets(list("abcdefg"[:n])) for n in range(1, 8)]
    out.append(Complex(["a", "b", "c"], [(2,), (0,), (1,), (0,)]))
    for _ in range(200):
        n = rng.randint(1, 8)
        pool = [f for k in range(1, 5) for f in combinations(range(n), k)]
        faces = [rng.choice(pool) for _ in range(rng.randint(1, 20))]
        faces += rng.sample(faces, rng.randint(0, len(faces)))
        faces += [f[:k] for f in faces[:3] for k in range(1, len(f))]
        rng.shuffle(faces)
        faces += unused_vertices(n, faces)
        out.append(Complex([f"v{i}" for i in range(n)], faces))
    return out


def reference_induced(K: Complex, listing) -> tuple[tuple, tuple, frozenset]:
    """Labels, facets and faces of the subcomplex closing the listed faces:
    the vertices they use renumbered in order, then reference_build."""
    kept = sorted({v for f in listing for v in f})
    new = {v: i for i, v in enumerate(kept)}
    return (tuple(K.labels[v] for v in kept),
            *reference_build([tuple(new[v] for v in f) for f in listing]))


def skeleton_cases() -> list[Complex]:
    """A dangling edge and an isolated vertex beside a triangle, two solid
    tetrahedra on a triangle, a 2-sphere, and a complex of mixed dimension
    whose isolated vertex is in the middle of its labels."""
    return [from_facets(["a b c", "c d", "e"]), from_facets(["a b c d", "b c d e"]),
            from_facets(["a b c", "a b d", "a c d", "b c d"]),
            Complex(["a", "b", "c", "d", "e"], [(0, 1, 3), (3, 4), (1,), (2,)])]


def assert_skeleton_matches_induced(K: Complex, k: int) -> None:
    """K.skeleton(k) against the induced subcomplex on the faces of size
    1..k+1: labels, facets, faces, f-vector, connectivity, fingerprint and
    the faces it numbers, by size.  A skeleton keeps every label and numbers
    its faces as K does; skeleton(1).skeleton(0) is skeleton(0)."""
    skeleton = K.skeleton(k)
    reference = K.induced([f for f in K.face_ids() if len(f) <= k + 1])
    assert (skeleton.labels, skeleton.facets, all_faces(skeleton), skeleton.dim) == (
        reference.labels, reference.facets, all_faces(reference), reference.dim)
    assert skeleton.f_vector() == reference.f_vector()
    assert skeleton.is_connected() == reference.is_connected()
    assert skeleton.fingerprint == reference.fingerprint
    ids = skeleton.face_ids()
    assert ids.keys() == reference.face_ids().keys()
    assert sorted(ids.values()) == list(range(len(ids)))
    assert sorted(ids, key=ids.get) == sorted(ids, key=len)
    assert skeleton.labels == K.labels
    assert ids == {f: i for f, i in K.face_ids().items() if len(f) <= k + 1}
    if k <= K.dim:
        assert skeleton.faces_of_dim(k) is K.faces_of_dim(k)  # kept, not sorted again
    if k >= 1:
        assert K.skeleton(k).skeleton(0) == K.skeleton(0)


def test_one_sweep_build_matches_two_pass_build():
    """Complex, induced and skeleton(k) against the two-pass reference, on
    listings that keep every vertex (labels kept) and on listings that
    drop one (renumbered); and each face listing read from the faces kept
    by size against a full scan of the closure of K's facets, for
    k = -2..dim+1; each
    skeleton also against the induced subcomplex, on the sweep corpus and
    the skeleton cases."""
    rng, drop = random.Random(29), random.Random(37)
    identity = renumbered = 0
    for K in sweep_corpus() + skeleton_cases():
        closure = sorted(reference_build(K.facets)[1])
        listing = [f for f in closure if f and rng.random() < 0.3] + list(K.facets)
        rng.shuffle(listing)
        for faces in (K.facets, listing, listing + listing[:5]):
            built = Complex(K.labels, faces)
            assert (built.facets, all_faces(built)) == reference_build(faces)
        vertices = [f for f in closure if len(f) == 1]
        every = listing + vertices
        (dropped,) = drop.choice(vertices)
        without = [f for f in every if dropped not in f]
        for faces in (every, without) if without else (every,):
            built = K.induced(faces)
            assert (built.labels, built.facets, all_faces(built)) == reference_induced(K, faces)
            identity += built.labels == K.labels
            renumbered += built.labels != K.labels
        def scan(k):
            return tuple(f for f in closure if len(f) == k + 1)

        for k in range(-2, K.dim + 2):
            assert K.faces_of_dim(k) == scan(k)
            if k < 0:
                with pytest.raises(UnsupportedDimensionError):
                    K.skeleton(k)
                continue
            skeleton = K.skeleton(k)
            assert (skeleton.labels, skeleton.facets, all_faces(skeleton)) == reference_induced(
                K, [f for f in closure if 0 < len(f) <= k + 1])
            assert_skeleton_matches_induced(K, k)
        assert (K.edges, K.triangles) == (scan(1), scan(2))
        counts = [0] * (K.dim + 2)
        for f in closure:
            counts[len(f)] += 1
        assert K.f_vector() == tuple(counts)
        assert K.reduced_euler_characteristic() == sum(
            1 if len(f) % 2 else -1 for f in closure)
        assert K.to_sc() == reference_to_sc(K)
        assert K.fingerprint == hashlib.sha256(
            reference_to_sc(K).encode("utf-8")).hexdigest()[:16]
        assert K.is_connected() == reference_connected(K)
    assert identity > 100 and renumbered > 100, (identity, renumbered)


def test_label_checks_match_per_occurrence_checks():
    rng = random.Random(31)
    for K in sweep_corpus():
        lines = K.to_sc().splitlines()
        lines += [" ".join(reversed(line.split()))
                  for line in rng.sample(lines, min(2, len(lines)))]
        lines += [" ".join(line.split()[1:]) for line in lines[:2] if " " in line]
        rng.shuffle(lines)
        text = "\n".join(lines) + "\n"
        assert outcome(lambda: parse_sc_with_warnings(text)) == outcome(
            lambda: reference_parse(text))
        bad = rng.choice(K.labels)
        broken = text.replace(bad, bad + "!")
        assert outcome(lambda: parse_sc_with_warnings(broken)) == outcome(
            lambda: reference_parse(broken))
        relabeled = Complex([lab + "?" if rng.random() < 0.2 else lab
                             for lab in K.labels], K.facets)
        assert outcome(relabeled.to_sc) == outcome(lambda: reference_to_sc(relabeled))


# Whitespace that str.split separates labels on, and line breaks of
# str.splitlines besides "\n".
SPACES = [" ", "  ", "\t", "\xa0", " \t "]
BREAKS = ["\r\n", "\x0b", "\x0c", "\u2028", "\r"]


def noisy_text(rng: random.Random, K: Complex) -> tuple[str, set[str]]:
    """K's ".sc" lines shuffled, with absorbed and duplicate faces, comments,
    blank lines, mixed whitespace and line breaks, and at random lines some
    of the three errors (a bad label, a repeated vertex, a face of dimension
    4).  Returns the text and the error kinds put in."""
    lines = K.to_sc().splitlines()
    if rng.random() < 0.5:
        lines += [" ".join(reversed(line.split()))
                  for line in rng.sample(lines, min(2, len(lines)))]
        lines += [" ".join(line.split()[:-1]) for line in lines[:2] if " " in line]
    lines += rng.choices(["#", "  # x", "# a b c", "", "   ", "\t", "\xa0"], k=rng.randint(0, 4))
    kinds = set()
    for kind in rng.sample(["label", "repeat", "dimension"], rng.choice([0, 0, 1, 2, 3])):
        kinds.add(kind)
        at = rng.randrange(len(lines) + 1)
        lab = rng.choice(K.labels)
        if kind == "label":
            lines.insert(at, rng.choice([f"{lab} #b", f"{lab} {lab}!", f"{lab} ?"]))
        elif kind == "repeat":
            lines.insert(at, f"{lab} {rng.choice(K.labels)} {lab}")
        else:
            # Sometimes with a repeated vertex too, which is reported first.
            lines.insert(at, " ".join(rng.sample("pqrstu", rng.randint(5, 6))
                                      + rng.choice([[], ["p"]])))
    rng.shuffle(lines)
    pieces = []
    for line in lines:
        words = line.split(" ") if not line.startswith("#") else [line]
        pieces.append(rng.choice(["", " ", "\t"]) + "".join(
            w + rng.choice(SPACES) for w in words[:-1]) + words[-1] + rng.choice(["", " ", "\t"]))
    return "".join(p + rng.choice(["\n", "\n", *BREAKS]) for p in pieces), kinds


def test_parse_matches_the_line_by_line_reference():
    """Texts mixing the three error kinds at random lines with comments,
    blank lines, odd whitespace and line breaks, absorbed and duplicate
    faces give the reference's complex and warnings, or its error type,
    text and line number."""
    rng = random.Random(43)
    corpus = sweep_corpus()
    seen = {"clean": 0, "warned": 0, "label": 0, "repeat": 0, "dimension": 0}
    for _ in range(400):
        K = rng.choice(corpus)
        text, kinds = noisy_text(rng, K)
        got = outcome(lambda: parse_sc_with_warnings(text))
        assert got == outcome(lambda: reference_parse(text)), text
        if isinstance(got[0], Complex):
            assert not kinds
            seen["warned" if got[1] else "clean"] += 1
        else:
            assert got[0] == "ParseError" and got[2] is not None
            message = got[1]
            seen["label" if "bad vertex label" in message
                 else "repeat" if "repeats a vertex" in message else "dimension"] += 1
    assert min(seen.values()) >= 20, seen


def test_connectivity_matches_breadth_first_search():
    """Disconnected inputs, and a long path listed with its edges in reverse
    order (the worst case for path halving), against the BFS reference."""
    rng = random.Random(47)
    cases = [
        from_facets(["a b c", "d e f"]),
        from_facets(["a b", "c"]),
        from_facets(["a b c d", "e f"]),
        from_facets(["a", "b", "c"]),
        from_facets(["a b c", "c d", "e f g", "g h"]),
    ]
    n = 2000
    path = Complex([f"v{i:04d}" for i in range(n)], [(i, i + 1) for i in reversed(range(n - 1))])
    cases += [path, Complex(path.labels, path.facets[:n // 2] + path.facets[n // 2 + 1:])]
    for _ in range(100):
        faces = rng.sample(list(combinations(range(9), 3)), rng.randint(1, 6))
        faces += rng.sample(list(combinations(range(9), 2)), rng.randint(0, 4))
        cases.append(Complex([f"v{i}" for i in range(9)], faces + unused_vertices(9, faces)))
    truth = [reference_connected(K) for K in cases]
    assert [K.is_connected() for K in cases] == truth
    assert truth[:5] == [False] * 5 and truth[5:7] == [True, False]
    assert 20 < truth.count(False) < len(truth) - 20, truth.count(False)


def test_to_sc_names_the_first_bad_label_in_facet_order():
    # 'y?' comes first in label order, 'z!' in facet order.
    with pytest.raises(ShellsatError, match="'z!'"):
        from_facets(["a z!", "b y?"]).to_sc()
    # Labels holding the space that joins them in the one-match check.
    for labels in (("a b", "c"), ("a", " "), ("a ", "b")):
        with pytest.raises(ShellsatError, match=f"label {labels[0]!r}|label {labels[1]!r}"):
            from_facets([labels]).to_sc()


def test_bad_label_is_reported_at_its_first_line():
    with pytest.raises(ParseError, match="bad vertex label 'e!'") as exc:
        parse_sc("a b\nb c a\nc e!\ne! a\n")
    assert exc.value.line == 3


def test_absorbed_warnings_keep_order_and_text():
    cases = {
        "a b c\nc b a\n": ["line 2: face 'c b a' absorbed"],
        "b c\na b c\n": ["line 1: face 'b c' absorbed"],
        "a b\na b\na b\n": ["line 2: face 'a b' absorbed",
                             "line 3: face 'a b' absorbed"],
        "a b c\nb c\nc b a\nb c d\n": ["line 2: face 'b c' absorbed",
                                       "line 3: face 'c b a' absorbed"],
    }
    for text, expected in cases.items():
        assert parse_sc_with_warnings(text)[1] == expected


def test_sd_preserves_euler_characteristic():
    for K in random_corpus():
        sd = K.barycentric_subdivision()
        assert sd.reduced_euler_characteristic() == K.reduced_euler_characteristic()


def test_sd_f_vector_law():
    for K in random_corpus():
        _, n, m, t = K.f_vector()
        assert K.barycentric_subdivision().f_vector() == (1, n + m + t, 2 * m + 6 * t, 6 * t)


def test_sd_is_flag():
    """Every 3-clique of the 1-skeleton of sd and sd² spans a triangle, and
    the flagness a subdivision keeps is the answer a scan computes."""
    for K in random_corpus() + list(enumerate_pure2(5, 6)):
        sd = K.barycentric_subdivision()
        for L in (sd, sd.barycentric_subdivision()):
            assert all(t in L.face_ids() for t in clique_triangles(L.n_vertices, L.edges))
            assert L.is_flag2() is True
            assert Complex(L.labels, L.facets).is_flag2() is True


def test_sd_preserves_connectivity():
    connected = from_facets(["a b c", "c d e"])
    disconnected = from_facets(["a b c", "d e f"])
    for K in (connected, disconnected, *random_corpus(10)):
        assert K.barycentric_subdivision().is_connected() == K.is_connected()


def test_sd_keeps_the_pure_and_connected_answers_a_rebuild_computes():
    """sd and sd² keep their parent's is_pure and is_connected answers;
    each equals the answer of a Complex rebuilt from the same labels and
    facets, on every member of enumerate_pure2(5, 6), with a disjoint
    triangle (disconnected), a pendant edge (impure) or a lone vertex
    (both) added."""
    corpus = []
    for K in enumerate_pure2(5, 6):
        faces = [K.label_face(f) for f in K.facets]
        corpus += [K, from_facets(faces + [["x", "y", "z"]]),
                   from_facets(faces + [[K.labels[0], "x"]]), from_facets(faces + [["x"]])]
    answers = {(K.is_pure(), K.is_connected()) for K in corpus}
    assert answers == {(True, True), (True, False), (False, True), (False, False)}
    for K in corpus:
        sd = K.barycentric_subdivision()
        for L in (sd, sd.barycentric_subdivision()):
            rebuilt = Complex(L.labels, L.facets)
            assert (L.is_pure(), L.is_connected()) == (rebuilt.is_pure(), rebuilt.is_connected())
            assert (L.is_pure(), L.is_connected()) == (K.is_pure(), K.is_connected())


# -- .sc format ---------------------------------------------------------------------------

def test_sc_round_trip(two_triangles):
    text = two_triangles.to_sc()
    assert parse_sc(text) == two_triangles
    for K in random_corpus(8):
        assert parse_sc(K.to_sc()) == K


def test_sc_round_trip_survives_sd_labels(two_triangles):
    # sd labels use the braces and bars admitted by the label alphabet.
    sd2 = two_triangles.barycentric_subdivision().barycentric_subdivision()
    assert parse_sc(sd2.to_sc()) == sd2


def test_sc_comments_and_blank_lines():
    K = parse_sc("# a comment\n\na b c\n# trailing\nb c d\n")
    assert K.f_vector() == (1, 4, 5, 2)


def test_sc_absorbed_face_warning():
    K, warnings = parse_sc_with_warnings("a b\nb\n")
    assert K.facets == ((0, 1),)
    assert warnings and "absorbed" in warnings[0] and "line 2" in warnings[0]


def test_sc_duplicate_listing_warns():
    _, warnings = parse_sc_with_warnings("a b\na b\n")
    assert len(warnings) == 1


def test_sc_bad_label_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_sc("a b\nx y!\n")
    assert exc.value.line == 2


def test_sc_repeated_vertex_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_sc("a a\n")
    assert exc.value.line == 1


def test_sc_oversized_face_reports_line():
    with pytest.raises(ParseError):
        parse_sc("a b c d e\n")


def test_sc_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_sc("# nothing here\n")


def test_fingerprint_stability(two_triangles):
    same = from_facets(["b c d", "a b c"])  # listing order must not matter
    assert same.fingerprint == two_triangles.fingerprint
    other = from_facets(["a b c", "b c e"])
    assert other.fingerprint != two_triangles.fingerprint
