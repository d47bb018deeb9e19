"""Generators: determinism, exhaustiveness up to isomorphism, oracle bounds."""

import hashlib
import random
from itertools import combinations, permutations, islice

import pytest

from shellsat import (
    GeneratorSpec,
    collapsible_after_removing,
    decide_wsat_eq_treesize,
    find_shelling,
    generate,
    is_collapsible,
    wsat_number,
)
from shellsat.cli import main
from shellsat.collapse import core_components, edge_rows, free_faces
from shellsat.errors import OracleBoundError, ParameterError
from shellsat.harness import (
    canonical_triangles,
    complex_from_triangles,
    enumerate_connected_graphs,
    enumerate_pure2,
    flag_dunce_hat,
    oracle_collapsible,
    oracle_shelling,
    oracle_wsat,
    sample_pure2,
)
from shellsat.outcomes import Budget, Impossible, NotCollapsible, NotSaturated, Unshellable
from conftest import complete_graph


# -- determinism -----------------------------------------------------------------

def test_random_stream_is_deterministic():
    spec = GeneratorSpec(seed=11, n_vertices=6, n_triangles=4, mode="random-pure-2")
    first = [K.fingerprint for K in islice(generate(spec), 6)]
    second = [K.fingerprint for K in islice(generate(spec), 6)]
    assert first == second
    other = GeneratorSpec(seed=12, n_vertices=6, n_triangles=4, mode="random-pure-2")
    assert first != [K.fingerprint for K in islice(generate(other), 6)]


def test_random_instances_are_pure_connected():
    spec = GeneratorSpec(seed=5, n_vertices=7, n_triangles=5, mode="random-pure-2")
    for K in islice(generate(spec), 10):
        assert K.is_pure() and K.dim == 2 and K.is_connected()


def test_sample_records_retries():
    rng = random.Random(0)
    K, retries = sample_pure2(rng, 6, 2)
    assert K.is_connected()
    assert retries >= 0


# -- parameter validation -----------------------------------------------------------

def test_infeasible_specs_rejected():
    with pytest.raises(ParameterError):
        generate(GeneratorSpec(0, 4, 5, "random-pure-2")).__next__()  # > C(4,3)
    with pytest.raises(ParameterError):
        next(generate(GeneratorSpec(0, 5, 2, "no-such-mode")))
    with pytest.raises(ParameterError):
        next(generate(GeneratorSpec(0, 5, 2, "subdivide-depth-k", depth=-1)))


@pytest.mark.parametrize("n, t, message", [
    (2, 1, "2-complexes need at least 3 vertices"),
    (5, 0, "need at least one triangle"),
    (4, 5, r"5 triangles do not fit on 4 vertices \(max 4\)"),
])
def test_spec_validation_messages(n, t, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        GeneratorSpec(0, n, t, "enumerate-all").validate()


# -- enumerate-all ---------------------------------------------------------------------

def test_enumeration_on_4_vertices():
    # Two distinct triangles on 4 vertices always share an edge, so the
    # 2-facet classes reduce to one; the bowtie needs a 5th vertex.
    classes = list(generate(GeneratorSpec(0, 4, 2, "enumerate-all")))
    assert len(classes) == 2  # single triangle, shared-edge pair
    assert classes[0].f_vector() == (1, 3, 3, 1)
    assert classes[1].f_vector() == (1, 4, 5, 2)


def test_enumeration_on_5_vertices_contains_bowtie():
    classes = list(generate(GeneratorSpec(0, 5, 2, "enumerate-all")))
    assert len(classes) == 3
    f_vectors = {K.f_vector() for K in classes}
    assert (1, 5, 6, 2) in f_vectors  # the bowtie


def test_enumeration_matches_orbit_marking():
    """Independent exhaustiveness check via mask orbits under S_n."""
    for n, max_t in ((5, 10), (6, 5)):
        all_triangles = list(combinations(range(n), 3))
        seen = set()
        expected = 0
        for t in range(1, max_t + 1):
            for triangles in combinations(all_triangles, t):
                key = frozenset(triangles)
                if key in seen:
                    continue
                K = complex_from_triangles(triangles)
                if not K.is_connected():
                    continue
                expected += 1
                for perm in permutations(range(n)):
                    image = frozenset(tuple(sorted((perm[a], perm[b], perm[c])))
                                      for a, b, c in triangles)
                    seen.add(image)
        got = list(enumerate_pure2(n, max_t))
        assert len(got) == expected
        assert len({canonical_triangles(K.facets) for K in got}) == len(got)
        assert all(K.facets == canonical_triangles(K.facets) for K in got)


def test_enumeration_is_deterministic():
    a = [K.fingerprint for K in enumerate_pure2(5, 4)]
    b = [K.fingerprint for K in enumerate_pure2(5, 4)]
    assert a == b


@pytest.mark.parametrize("n, t, count, digest", [
    (5, 5, 19, "4c5732d7a10e61b7"),
    (6, 4, 31, "5010dcf2c7bff087"),
])
def test_enumeration_order_is_pinned(n, t, count, digest):
    """The classes, each as its representative, in the order that the
    benchmark and golden corpora are built from."""
    fingerprints = [K.fingerprint for K in enumerate_pure2(n, t)]
    assert len(fingerprints) == count
    assert hashlib.sha256(" ".join(fingerprints).encode()).hexdigest()[:16] == digest


# -- subdivide mode ------------------------------------------------------------------------

def test_subdivide_stream_is_flag():
    spec = GeneratorSpec(0, 5, 2, "subdivide-depth-k", depth=1)
    instances = list(generate(spec))
    assert len(instances) == 3
    for L in instances:
        assert L.is_flag2() and L.is_pure() and L.dim == 2


def test_subdivide_depth_zero_is_identity():
    base = list(generate(GeneratorSpec(0, 4, 2, "enumerate-all")))
    same = list(generate(GeneratorSpec(0, 4, 2, "subdivide-depth-k", depth=0)))
    assert [K.fingerprint for K in base] == [K.fingerprint for K in same]


# -- graph enumeration ------------------------------------------------------------------------

def test_connected_graph_counts():
    # Known counts of connected graphs up to isomorphism.
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, count in expected.items():
        assert len(list(enumerate_connected_graphs(n))) == count


def test_connected_graphs_are_least_images():
    """Each class comes as the least of its sorted edge lists over all
    vertex permutations, on the vertices v0..v{n-1}."""
    for n in range(1, 7):
        perms = list(permutations(range(n)))
        for G in enumerate_connected_graphs(n):
            assert G.labels == tuple(f"v{i}" for i in range(n))
            edges = tuple(G.edges)
            images = (tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in perms)
            assert edges == min(images)


# -- hard instances ---------------------------------------------------------------------

def test_flag_dunce_hat_shape():
    K = flag_dunce_hat()
    assert K.f_vector() == (1, 17, 52, 36)
    assert K.is_pure() and K.is_connected() and K.is_flag2()
    assert K.reduced_euler_characteristic() == 0
    assert free_faces(K) == []


def test_flag_dunce_hat_is_decided_within_small_budgets(tmp_path):
    # Contractible with no free edge: the GF(2) bound says wsat >= 16 and a
    # tree might saturate, but the core needs one deletion, so no shelling
    # either.
    K = flag_dunce_hat()
    F = K.skeleton(1)
    components = core_components(edge_rows(K.triangles, K.edges), len(K.edges), Budget(100))
    assert len(F.edges) - len(K.triangles) + sum(f for *_, f in components) == 16
    assert wsat_number(F, Budget(100)) == 17
    assert decide_wsat_eq_treesize(F, Budget(100)) == NotSaturated()
    assert is_collapsible(K, Budget(100)) == NotCollapsible()
    assert collapsible_after_removing(K, 0, Budget(100)) == Impossible()
    assert find_shelling(K, Budget(100)) == Unshellable()
    path = tmp_path / "hat.sc"
    path.write_text(K.to_sc())
    assert main(["collapse", "--in", str(path), "--k", "0", "--budget", "100"]) == 1
    assert main(["shell", "--in", str(path), "--budget", "100"]) == 1


# -- oracles ------------------------------------------------------------------------------------

def test_oracle_shelling(bowtie, two_triangles):
    assert not oracle_shelling(bowtie)
    assert oracle_shelling(two_triangles)


def test_oracle_collapsible(three_cycle, triangle):
    assert not oracle_collapsible(three_cycle)
    assert oracle_collapsible(triangle)


def test_oracle_wsat():
    assert oracle_wsat(complete_graph(4)) == 3


def test_oracle_bounds_refused():
    big = complex_from_triangles(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3)])
    with pytest.raises(OracleBoundError):
        oracle_shelling(big)
    with pytest.raises(OracleBoundError):
        oracle_collapsible(big)
    with pytest.raises(OracleBoundError):
        oracle_wsat(complete_graph(7))
