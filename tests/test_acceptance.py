"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines; a pytest failure is the corresponding FAIL line.
"""

import random
import time

from shellsat import (
    CollapseCertificate,
    ShellingCertificate,
    apply_collapse,
    decide_wsat_eq_treesize,
    find_shelling,
    free_faces,
    from_facets,
    is_collapsible,
    k3_closure,
    saturation_to_collapse,
    shelling_to_saturated_tree,
    verify_collapse,
    verify_saturation,
    wsat_number,
)
from shellsat.harness import (
    enumerate_connected_graphs,
    enumerate_pure2,
    oracle_collapsible,
    oracle_shelling,
    oracle_wsat,
    sample_connected_graph,
    sample_pure2,
    sample_spanning_subgraph,
)
from shellsat.outcomes import NotCollapsible, NotSaturated, Unshellable
from conftest import complete_graph, cycle_graph

CORPUS_SEED = 20251
CHAIN_BUDGET = 50_000


def seeded_random_corpus(count=50):
    """50 seeded random pure connected 2-complexes with at most 8 vertices."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for _ in range(count):
        n = rng.randint(4, 8)
        t = rng.randint(1, min(12, n * (n - 1) * (n - 2) // 6))
        K, _ = sample_pure2(rng, n, t)
        corpus.append(K)
    return corpus


def test_criterion_1_sd_f_vector_law():
    start = time.monotonic()
    corpus = seeded_random_corpus()
    assert len(corpus) == 50
    for K in corpus:
        _, n, m, t = K.f_vector()
        assert K.barycentric_subdivision().f_vector() == \
            (1, n + m + t, 2 * m + 6 * t, 6 * t)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS - sd f-vector law exact on 50 instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_euler_invariance():
    corpus = seeded_random_corpus()
    checked_steps = 0
    for K in corpus:
        chi = K.reduced_euler_characteristic()
        assert K.barycentric_subdivision().reduced_euler_characteristic() == chi
        current = K
        while current.n_vertices > 1 or current.dim > 0:
            steps = free_faces(current)
            if not steps:
                break
            current = apply_collapse(current, steps[0])
            assert current.reduced_euler_characteristic() == chi
            checked_steps += 1
    assert checked_steps > 100
    print(f"ACCEPTANCE 2 PASS - chi invariant under sd and under "
          f"{checked_steps} elementary collapses")


def test_criterion_3_bollobas_baseline():
    start = time.monotonic()
    for n in range(3, 8):
        assert wsat_number(complete_graph(n)) == n - 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 PASS - wsat(K_n) = n-1 for n = 3..7 ({elapsed:.1f}s)")


def test_criterion_4_lower_bound():
    checked = 0
    for n in range(1, 7):
        for F in enumerate_connected_graphs(n):
            assert wsat_number(F) >= n - 1
            checked += 1
    rng = random.Random(CORPUS_SEED)
    for p in (0.3, 0.5, 0.7):
        for _ in range(4):
            F = sample_connected_graph(rng, 7, p)
            assert wsat_number(F) >= 6
            checked += 1
    print(f"ACCEPTANCE 4 PASS - wsat >= n-1 on {checked} connected graphs "
          f"(exhaustive to 6 vertices, sampled at 7)")


def test_criterion_5_chain_theorem_at_desk_scale():
    subjects = [K.barycentric_subdivision() for K in enumerate_pure2(5, 10)]
    successes = 0
    unshellable = 0
    undecided = 0
    for L in subjects:
        assert L.is_flag2() and L.is_pure() and L.is_connected()
        result = find_shelling(L, CHAIN_BUDGET)
        if isinstance(result, Unshellable):
            unshellable += 1
            continue
        if not isinstance(result, ShellingCertificate):
            undecided += 1
            continue
        saturation = shelling_to_saturated_tree(L, result)
        host = L.skeleton(1)
        assert verify_saturation(host, saturation)                      # (a)
        assert len(set(saturation.start.edges)) == L.n_vertices - 1     # (a)
        collapse = saturation_to_collapse(L, saturation)
        assert verify_collapse(L, collapse)                             # (b)
        assert collapse.targets_point()                                 # (b)
        assert len(collapse.removed_triangles) == \
            L.reduced_euler_characteristic()                            # (c)
        successes += 1
    assert successes >= 10, "chain property suite must not be vacuous"
    print(f"ACCEPTANCE 5 PASS - implication chain verified on {successes} "
          f"shellable subdivided complexes ({unshellable} unshellable, "
          f"{undecided} undecided within budget)")


def test_criterion_6_oracle_agreement():
    mismatches = 0

    shelling_checked = 0
    for K in enumerate_pure2(5, 6):
        verdict = isinstance(find_shelling(K), ShellingCertificate)
        if verdict != oracle_shelling(K):
            mismatches += 1
        shelling_checked += 1

    collapse_corpus = [K for K in enumerate_pure2(5, 10)
                       if sum(K.f_vector()[1:]) <= 12]
    for n in range(1, 7):
        collapse_corpus.extend(G for G in enumerate_connected_graphs(n)
                               if sum(G.f_vector()[1:]) <= 12)
    for K in collapse_corpus:
        verdict = isinstance(is_collapsible(K), CollapseCertificate)
        if verdict != oracle_collapsible(K):
            mismatches += 1

    wsat_checked = 0
    for n in range(1, 7):
        for F in enumerate_connected_graphs(n):
            if wsat_number(F) != oracle_wsat(F):
                mismatches += 1
            wsat_checked += 1

    assert mismatches == 0
    print(f"ACCEPTANCE 6 PASS - zero mismatches vs oracles "
          f"(shelling {shelling_checked}, collapse {len(collapse_corpus)}, "
          f"wsat {wsat_checked})")


def test_criterion_7_closure_order_independence():
    rng = random.Random(CORPUS_SEED)
    for _ in range(1000):
        n = rng.randint(3, 7)
        F = sample_connected_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        G = sample_spanning_subgraph(rng, F, rng.choice((0.3, 0.5, 0.7)))
        host, start = set(F.edges), set(G.edges)
        current = set(start)
        adjacency = {v: set() for v in range(n)}
        for u, v in current:
            adjacency[u].add(v)
            adjacency[v].add(u)
        while True:
            addable = [(u, v) for (u, v) in sorted(host - current)
                       if adjacency[u] & adjacency[v]]
            if not addable:
                break
            u, v = rng.choice(addable)
            current.add((u, v))
            adjacency[u].add(v)
            adjacency[v].add(u)
        assert current == set(k3_closure(F, G).edges)
    print("ACCEPTANCE 7 PASS - random greedy closure equals lexicographic "
          "closure on 1000 seeded pairs")


def test_criterion_8_negative_controls():
    timings = {}

    start = time.monotonic()
    assert find_shelling(from_facets(["a b c", "c d e"])) == Unshellable()
    timings["bowtie unshellable"] = time.monotonic() - start

    start = time.monotonic()
    assert decide_wsat_eq_treesize(cycle_graph(4)) == NotSaturated()
    timings["C4 wsat refuted"] = time.monotonic() - start

    start = time.monotonic()
    assert is_collapsible(from_facets(["a b", "b c", "a c"])) == NotCollapsible()
    timings["3-cycle not collapsible"] = time.monotonic() - start

    for name, elapsed in timings.items():
        assert elapsed < 1.0, name
    print("ACCEPTANCE 8 PASS - negative controls exact, each under 1s "
          + str({k: f"{v * 1000:.0f}ms" for k, v in timings.items()}))
