"""K3-bootstrap closures, saturation certificates, wsat decisions."""

import random
import re
from itertools import combinations, permutations

import pytest

from shellsat import (
    SaturationCertificate,
    decide_wsat_eq_treesize,
    extract_saturation_order,
    from_facets,
    graph_complex,
    is_weakly_saturated,
    k3_closure,
    parse_sc,
    verify_saturation,
    wsat_number,
)
from shellsat.cli import main
from shellsat.complexes import Complex, is_connected_graph
from shellsat.errors import (
    ConnectivityError,
    ContainmentError,
    MalformedCertificateError,
    UnsupportedDimensionError,
)
from shellsat.harness import (
    enumerate_connected_graphs,
    sample_connected_graph,
    sample_spanning_subgraph,
)
from shellsat.outcomes import Budget, BudgetExceeded, NotSaturated
from shellsat.wsat import (
    _bootstrap,
    _spanning_edges,
    format_saturation,
    parse_saturation,
    saturation_violation,
)
from conftest import chain_reports, complete_graph, cycle_graph, outcome, shows_an_id_tuple


def star_at_a_in_k4():
    return graph_complex(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])


def k4():
    return graph_complex(["a", "b", "c", "d"],
                         [e for e in combinations("abcd", 2)])


# -- closure ---------------------------------------------------------------------

def test_closure_star_fills_k4():
    closed = k3_closure(k4(), star_at_a_in_k4())
    assert closed == k4()


def test_closure_star_matches_all_addition_orders():
    # Brute force: every maximal greedy addition order ends at the full K4.
    host = set(k4().edges)
    start = set(star_at_a_in_k4().edges)
    missing = sorted(host - start)
    for order in permutations(missing):
        edges = set(start)
        progressed = True
        while progressed:
            progressed = False
            for u, v in order:
                if (u, v) in edges:
                    continue
                if any((min(u, w), max(u, w)) in edges
                       and (min(v, w), max(v, w)) in edges
                       for w in range(4) if w not in (u, v)):
                    edges.add((u, v))
                    progressed = True
        assert edges == host


def test_closure_of_path_in_c4_is_fixed():
    c4 = cycle_graph(4)
    path = graph_complex(c4.labels, [("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
    assert k3_closure(c4, path) == path


def test_closure_of_host_is_host():
    assert k3_closure(k4(), k4()) == k4()


def test_closure_requires_spanning_subgraph():
    with pytest.raises(ContainmentError):
        k3_closure(k4(), graph_complex(["a", "b"], [("a", "b")]))
    with pytest.raises(UnsupportedDimensionError):
        k3_closure(from_facets(["a b c"]), from_facets(["a b c"]))


# -- is_weakly_saturated ------------------------------------------------------------

def test_k3_path_is_saturated():
    k3 = graph_complex(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    path = graph_complex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert is_weakly_saturated(k3, path)


def test_c4_path_is_not_saturated():
    c4 = cycle_graph(4)
    path = graph_complex(c4.labels, [("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
    assert not is_weakly_saturated(c4, path)


def test_k4_path_is_saturated():
    path = graph_complex(["a", "b", "c", "d"],
                         [("a", "b"), ("b", "c"), ("c", "d")])
    assert is_weakly_saturated(k4(), path)


# -- extraction / verification --------------------------------------------------------

def test_extract_k3_order():
    k3 = graph_complex(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    start = graph_complex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cert = extract_saturation_order(k3, start)
    assert cert.order == ((0, 2),)
    assert cert.witnesses == ((0, 1, 2),)
    assert verify_saturation(k3, cert)


def test_extract_star_witnesses_through_center():
    cert = extract_saturation_order(k4(), star_at_a_in_k4())
    assert len(cert.order) == 3
    assert all(0 in witness for witness in cert.witnesses)  # vertex a has id 0
    assert verify_saturation(k4(), cert)


def test_extract_not_saturated():
    c4 = cycle_graph(4)
    path = graph_complex(c4.labels, [("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
    assert extract_saturation_order(c4, path) == NotSaturated()


def test_verify_rejects_shuffled_witnesses():
    cert = extract_saturation_order(k4(), star_at_a_in_k4())
    shuffled = SaturationCertificate(cert.start, cert.order,
                                     tuple(reversed(cert.witnesses)))
    # the last ordered edge cd now claims witness abd, which misses it
    assert not verify_saturation(k4(), shuffled)
    assert saturation_violation(k4(), shuffled) is not None


def test_verify_order_must_cover_missing_edges():
    cert = extract_saturation_order(k4(), star_at_a_in_k4())
    truncated = SaturationCertificate(cert.start, cert.order[:-1],
                                      cert.witnesses[:-1])
    with pytest.raises(MalformedCertificateError):
        verify_saturation(k4(), truncated)


def test_verify_accepts_every_extracted_certificate():
    rng = random.Random(42)
    for _ in range(60):
        F = sample_connected_graph(rng, rng.randint(3, 7), 0.6)
        G = sample_spanning_subgraph(rng, F, 0.5)
        cert = extract_saturation_order(F, G)
        if isinstance(cert, SaturationCertificate):
            assert verify_saturation(F, cert)
        else:
            assert not is_weakly_saturated(F, G)


# -- decide wsat = n - 1 -----------------------------------------------------------------

def test_complete_graphs_admit_saturating_trees():
    for n in range(3, 7):
        F = complete_graph(n)
        cert = decide_wsat_eq_treesize(F)
        assert isinstance(cert, SaturationCertificate)
        assert len(set(cert.start.edges)) == n - 1
        assert verify_saturation(F, cert)


def test_c4_has_no_saturating_tree():
    assert decide_wsat_eq_treesize(cycle_graph(4)) == NotSaturated()


def test_sd2_skeleton_admits_saturating_tree():
    # Derived via the certificate pipeline on sd^2 of the solid triangle,
    # then checked against the closure directly.
    from shellsat import find_shelling, shelling_to_saturated_tree

    L = from_facets(["a b c"]).barycentric_subdivision().barycentric_subdivision()
    shelling = find_shelling(L, 200000)
    cert = shelling_to_saturated_tree(L, shelling)
    host = L.skeleton(1)
    assert len(set(cert.start.edges)) == L.n_vertices - 1
    assert verify_saturation(host, cert)
    assert is_weakly_saturated(host, cert.start)


def test_decide_requires_connected_host():
    with pytest.raises(ConnectivityError):
        decide_wsat_eq_treesize(graph_complex(["a", "b", "c"], [("a", "b")]))


def test_decide_budget():
    assert decide_wsat_eq_treesize(complete_graph(4), 0) == BudgetExceeded(
        stage="wsat-tree-search")


def path_graph(length: int):
    labels = [f"v{i:04d}" for i in range(length + 1)]
    return graph_complex(labels, list(zip(labels, labels[1:])))


def test_long_path_is_decided_without_recursion(tmp_path):
    # Every host edge is one level of the search, 1200 levels deep here.
    F = path_graph(1200)
    cert = decide_wsat_eq_treesize(F)
    assert isinstance(cert, SaturationCertificate)
    assert cert.start == F and cert.order == ()
    assert wsat_number(F) == 1200
    path = tmp_path / "path.sc"
    path.write_text(F.to_sc())
    assert main(["wsat", "--in", str(path)]) == 0


def test_budget_bounds_work_before_the_first_candidate():
    # K8 on the lowest labels with a 13-edge path hanging off it, where an
    # edge-subset search can list many subsets before its first candidate:
    # each call spends one node before any other work, so budget 0 ends it.
    labels = [f"v{i:02d}" for i in range(21)]
    F = graph_complex(labels, list(combinations(labels[:8], 2))
                      + list(zip(labels[7:], labels[8:])))
    for decide, stage in ((decide_wsat_eq_treesize, "wsat-tree-search"),
                          (wsat_number, "wsat-number")):
        budget = Budget(0)
        assert decide(F, budget) == BudgetExceeded(stage=stage)
        assert budget.used == 1


# -- wsat number ----------------------------------------------------------------------------

def test_wsat_number_examples():
    assert wsat_number(k4()) == 3
    assert wsat_number(cycle_graph(4)) == 4  # K3-free host forces G = F
    k3 = complete_graph(3)
    assert wsat_number(k3) == 2


def test_wsat_number_budget():
    assert wsat_number(complete_graph(5), 0) == BudgetExceeded(stage="wsat-number")


def test_tree_restriction_matches_unrestricted_search():
    """Both deciders agree with a flat scan over edge subsets.

    The scan tries every subset of each size in ``combinations`` order,
    from ``n - 1`` up, and stops at the first saturating one.  A tree
    certificate must verify and start from a spanning tree.
    """
    rng = random.Random(99)
    hosts = [F for n in range(2, 7) for F in enumerate_connected_graphs(n)]
    hosts += [sample_connected_graph(rng, 7, 0.5) for _ in range(6)]
    hosts += [sample_connected_graph(rng, n, 0.7) for n in (7, 8) for _ in range(3)]
    for F in hosts:
        n, host = F.n_vertices, set(F.edges)
        number = next(size for size in range(n - 1, len(host) + 1)
                      if any(len(_bootstrap(n, host, set(subset))[0]) == len(host) - size
                             for subset in combinations(sorted(host), size)))
        cert = decide_wsat_eq_treesize(F)
        if number > n - 1:
            assert cert == NotSaturated(), F.facets
        else:
            assert verify_saturation(F, cert), F.facets
            start = set(cert.start.edges)
            assert len(start) == n - 1 and is_connected_graph(n, start), F.facets
        assert wsat_number(F) == number, F.facets


def test_closure_order_independence_seeded():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(3, 7)
        F = sample_connected_graph(rng, n, 0.5)
        G = sample_spanning_subgraph(rng, F, 0.5)
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


# -- certificate files -------------------------------------------------------------------------

def test_certificate_round_trip():
    F = k4()
    cert = decide_wsat_eq_treesize(F)
    text = format_saturation(F, cert)
    parsed = parse_saturation(text, F)
    assert parsed == cert
    assert verify_saturation(F, parsed)


def test_certificate_parse_errors():
    F = k4()
    with pytest.raises(MalformedCertificateError):
        parse_saturation("b c : a b c\n", F)  # no start line
    with pytest.raises(MalformedCertificateError):
        parse_saturation("# start: a b\nb c a b c\n", F)  # missing colon
    with pytest.raises(MalformedCertificateError):
        parse_saturation("# start: a z\n", F)  # unknown label


def test_only_the_k3_pattern_verifies():
    # The engine decides K3-saturation only; a certificate naming another
    # pattern is malformed, not valid, and the parser says so on reading its
    # line: a later "# pattern: K3" does not override it, and a missing
    # "# start:" is never reached.
    F = k4()
    header, pattern, start, *steps = format_saturation(
        F, decide_wsat_eq_treesize(F)).splitlines()
    assert pattern == "# pattern: K3" and start.startswith("# start:")
    for name in ("K4", "k3", "anything"):
        bad = f"# pattern: {name}"
        for lines in ([header, bad, start, *steps], [header, bad, pattern, start, *steps],
                      [header, bad, *steps]):
            with pytest.raises(MalformedCertificateError, match=(
                    f"^line 2: unsupported pattern '{name}'; only K3 is supported$")):
                parse_saturation("\n".join(lines) + "\n", F)


@pytest.mark.parametrize("entry", ["a", "a b c", "a a", "a a b", "a b c d"])
def test_start_entries_must_be_edges(entry):
    # Each "# start:" entry names one edge, two distinct labels; any other
    # entry is malformed, and the error names its line.
    F = k4()
    text = format_saturation(F, decide_wsat_eq_treesize(F))
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("# start:"))
    lines[i] = lines[i].replace("# start: ", f"# start: {entry}, ")
    with pytest.raises(MalformedCertificateError,
                       match=f"line {i + 1}: start entry '{entry}' is not an edge"):
        parse_saturation("\n".join(lines) + "\n", F)


def test_saturation_violation_rejects_broken_certificates():
    F = from_facets(["a b", "b c", "a c", "c d"])
    cert = decide_wsat_eq_treesize(F)
    assert saturation_violation(F, cert) is None
    # A start edge outside the host, built or parsed: the parser leaves it
    # to the verifier.
    outside = graph_complex(F.labels, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    parsed = parse_saturation("# start: a b, b c, c d, a d\n", F).start
    assert parsed == outside
    for start in (outside, parsed):
        with pytest.raises(MalformedCertificateError,
                           match="^subgraph has edges outside the host$"):
            saturation_violation(F, SaturationCertificate(start, cert.order, cert.witnesses))
    # One witness too many, and none at all.
    for witnesses in (cert.witnesses * 2, ()):
        with pytest.raises(MalformedCertificateError, match="one witness per ordered edge"):
            saturation_violation(F, SaturationCertificate(cert.start, cert.order, witnesses))
    # A witness that repeats a vertex, and one with a vertex outside the host.
    for witness in ((0, 1, 1), (0, 1, 4)):
        with pytest.raises(MalformedCertificateError, match="witness 0 is not a 3-vertex set"):
            saturation_violation(F, SaturationCertificate(cert.start, cert.order, (witness,)))



# -- the per-pair replay, kept as the reference -----------------------------------------

def reference_saturation_violation(F, cert):
    """saturation_violation with the host size read per vertex and each
    witness edge sorted pair by pair, on edge sets of its own, built from
    the sorted edge listings and checked for the same span and containment."""
    host, start = set(F.edges), set(cert.start.edges)
    if F.labels != cert.start.labels:
        raise MalformedCertificateError("subgraph must span the host vertex set")
    if not start <= host:
        raise MalformedCertificateError("subgraph has edges outside the host")
    missing = host - start
    if sorted(cert.order) != sorted(missing) or len(cert.order) != len(missing):
        raise MalformedCertificateError(
            "certificate order is not exactly the missing host edges")
    if len(cert.witnesses) != len(cert.order):
        raise MalformedCertificateError(
            "certificate must carry one witness per ordered edge")
    for i, witness in enumerate(cert.witnesses):
        if len(witness) != 3 or len(set(witness)) != 3 or any(
                not 0 <= v < F.n_vertices for v in witness):
            raise MalformedCertificateError(
                f"witness {i} is not a 3-vertex set of the host")

    present = set(start)
    for i, (edge, witness) in enumerate(zip(cert.order, cert.witnesses)):
        present.add(edge)
        if not set(edge) <= set(witness):
            return (f"index {i}: witness {F.face_name(witness)} does not contain "
                    f"edge {F.face_name(edge)}")
        witness_edges = [tuple(sorted(p)) for p in combinations(witness, 2)]
        absent = [e for e in witness_edges if e not in present]
        if absent:
            return (f"index {i}: witness edge {F.face_name(absent[0])} is not present "
                    f"after adding edge {F.face_name(edge)}")
    return None


def tampered_saturations(rng, L, cert):
    """The certificate and copies broken in one place each."""
    order, witnesses = list(cert.order), list(cert.witnesses)
    i = rng.choice([i for i in range(len(order) - 1)
                    if sum(set(order[i]) < set(t) for t in L.facets) == 2])

    def at(order=order, witnesses=witnesses):
        return SaturationCertificate(cert.start, tuple(order), tuple(witnesses))

    def put(items, i, *new):
        return items[:i] + list(new) + items[i + len(new):]

    yield cert
    yield at(order=put(order, i, order[i + 1], order[i]))
    yield at(put(order, i, order[i + 1], order[i]), put(witnesses, i, witnesses[i + 1], witnesses[i]))
    other = next(t for t in L.facets if set(order[i]) < set(t) and t != witnesses[i])
    yield at(witnesses=put(witnesses, i, other))
    yield at(witnesses=put(witnesses, i, other[::-1]))
    yield at(witnesses=put(witnesses, i, rng.choice(L.facets)))
    # Two absent witness edges, the first named in the witness's own order.
    u, v = order[i]
    far = next(w for w in range(L.n_vertices)
               if (min(u, w), max(u, w)) not in L.face_ids()
               and (min(v, w), max(v, w)) not in L.face_ids())
    yield at(witnesses=put(witnesses, i, (far, v, u)))
    yield at(witnesses=put(witnesses, i, witnesses[i][:1] + witnesses[i]))
    yield at(order=put(order, i, order[i + 1]))
    yield at(witnesses=put(witnesses, i, witnesses[i][:2] + (L.n_vertices,)))
    # The witness before: its edges are all present, but it cannot hold
    # order[i + 1], which comes after it.
    yield at(witnesses=put(witnesses, i + 1, witnesses[i]))


def test_saturation_replay_matches_the_reference_on_chain_certificates():
    """The chain's own saturation certificates on sd² subjects, each also
    with two ordered edges swapped (alone, and with their witnesses), a
    witness replaced by another host triangle (sorted, reversed, any, or
    the witness before it) or by a non-triangle with two absent edges, a
    witness repeating a vertex (malformed, like a repeated ordered edge and
    a witness vertex out of range): the same message, or the same
    exception and text."""
    rng = random.Random(18)
    reports = chain_reports(18)
    assert len(reports) >= 4
    seen = []
    for report in reports:
        host = report.subject.skeleton(1)
        for cert in tampered_saturations(rng, report.subject, report.saturation):
            expected = outcome(reference_saturation_violation, host, cert)
            assert outcome(saturation_violation, host, cert) == expected
            seen.append(expected)
        assert "does not contain" in seen[-1]
    assert len(reports) <= seen.count(None) < 2 * len(reports)
    assert sum(isinstance(x, tuple) for x in seen) == 3 * len(reports)
    assert sum(isinstance(x, str) and "does not contain" in x for x in seen) >= 2 * len(reports)
    assert sum(isinstance(x, str) and "is not present" in x for x in seen) >= 3 * len(reports)


def test_saturation_bulk_checks_raise_as_the_reference():
    """The checks of the order and the witnesses raise what the walk of
    the reference raises, at the same index: a witness of two or four
    vertices, or with a negative vertex, after a good one; an order one
    edge short, one edge long, or with one edge twice."""
    report = chain_reports(18)[0]
    host, cert = report.subject.skeleton(1), report.saturation
    order, witnesses = list(cert.order), list(cert.witnesses)
    n = len(order)

    def at(order=order, witnesses=witnesses):
        return SaturationCertificate(cert.start, tuple(order), tuple(witnesses))

    cases = [at(witnesses=witnesses[:5] + [w] + witnesses[6:])
             for w in (witnesses[5][:2], witnesses[5] + (0,), (-1,) + witnesses[5][1:])]
    cases += [at(order[:-1], witnesses[:-1]),
              at(order + [(0, host.n_vertices)], witnesses + witnesses[:1]),
              at(order[:-1] + order[:1], witnesses)]
    for tampered in cases:
        expected = outcome(reference_saturation_violation, host, tampered)
        assert expected[0] == "MalformedCertificateError"
        assert outcome(saturation_violation, host, tampered) == expected
    assert n > 6 and "witness 5 " in outcome(saturation_violation, host, cases[2])[1]


def test_saturation_replay_reads_kept_edge_sets(monkeypatch):
    """The replay reads the host's and the start's edge sets as kept, each
    frozen once: on fresh hosts it lists and sorts no faces, and the sets
    it reads are the start graph's own and the host's kept one."""
    reports = chain_reports(18)
    hosts = [parse_sc(report.subject.to_sc()).skeleton(1) for report in reports]
    asked = []
    listing = Complex.faces_of_dim
    monkeypatch.setattr(Complex, "faces_of_dim", lambda K, k: asked.append(k) or listing(K, k))
    for host, report in zip(hosts, reports):
        assert saturation_violation(host, report.saturation) is None
    assert asked == []
    for host, report in zip(hosts, reports):
        start = report.saturation.start
        host_edges, start_edges = _spanning_edges(host, start)
        assert host_edges is host.face_set(1) and start_edges is start.face_set(1)
        assert host_edges == set(host.edges) and start_edges == set(start.edges)


def test_saturation_reasons_name_faces_by_labels():
    """On tampered chain certificates, each reason writes its witness and
    edges quoted in the host's labels, never by id tuples."""
    rng = random.Random(7)
    reports = chain_reports(7)
    assert reports
    named = 0
    for report in reports:
        host = report.subject.skeleton(1)
        for cert in list(tampered_saturations(rng, report.subject, report.saturation))[1:]:
            result = outcome(saturation_violation, host, cert)
            assert not shows_an_id_tuple(result), result
            if isinstance(result, str):
                faces = re.findall(r"'([^']*)'", result)
                assert len(faces) == 2, result
                assert all(v in host.labels for f in faces for v in f.split()), result
                named += 1
    assert named >= 3 * len(reports)


def test_certificate_fingerprint_mismatch():
    F = k4()
    text = format_saturation(F, decide_wsat_eq_treesize(F))
    with pytest.raises(MalformedCertificateError):
        parse_saturation(text, cycle_graph(4))


def test_decide_on_tiny_hosts():
    k2 = graph_complex(["a", "b"], [("a", "b")])
    cert = decide_wsat_eq_treesize(k2)
    assert isinstance(cert, SaturationCertificate)
    assert cert.order == ()
    assert verify_saturation(k2, cert)
    point = graph_complex(["a"], [])
    assert isinstance(decide_wsat_eq_treesize(point), SaturationCertificate)
    assert wsat_number(point) == 0
    # Every call spends one node before it answers.
    assert decide_wsat_eq_treesize(point, 0) == BudgetExceeded(
        stage="wsat-tree-search")
    assert wsat_number(point, 0) == BudgetExceeded(stage="wsat-number")
