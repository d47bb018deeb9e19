"""The proof translations: shelling -> saturated tree -> collapse -> count check."""

from collections import Counter

import pytest

from shellsat import certificates, shelling
from shellsat import (
    CollapseCertificate,
    ShellingCertificate,
    BudgetExceeded,
    Unshellable,
    check_removal_count,
    collapsible_after_removing,
    find_shelling,
    from_facets,
    parse_sc,
    run_chain,
    saturation_to_collapse,
    shelling_to_saturated_tree,
    verify_collapse,
    verify_saturation,
)
from shellsat.certificates import lift_shelling
from shellsat.cli import main
from shellsat.complexes import Complex
from shellsat.collapse import collapse_fields
from shellsat.errors import CertificateError, ConnectivityError, FlagnessError, PurityError
from shellsat.harness import enumerate_pure2
from shellsat.shelling import first_shelling_violation
from shellsat.wsat import (
    SaturationCertificate,
    format_saturation,
    saturation_fields,
    saturation_violation,
    spanning_subgraph,
)
from conftest import chain_reports, reference_collapse, reference_saturated_tree


def shelling_of(K, *facet_labels):
    return ShellingCertificate(
        tuple(K.face_from_labels(labels.split()) for labels in facet_labels))


# -- shelling to saturated tree ----------------------------------------------------

def test_two_triangles_construction(two_triangles):
    cert = shelling_to_saturated_tree(
        two_triangles, shelling_of(two_triangles, "a b c", "b c d"))
    # G takes ab, ac from the first facet, then bd for the new vertex d.
    assert sorted(set(cert.start.edges)) == [(0, 1), (0, 2), (1, 3)]
    assert cert.order == ((1, 2), (2, 3))          # bc then cd
    assert cert.witnesses == ((0, 1, 2), (1, 2, 3))  # abc then bcd
    assert verify_saturation(two_triangles.skeleton(1), cert)


def test_single_triangle_base_case(triangle):
    cert = shelling_to_saturated_tree(triangle, shelling_of(triangle, "a b c"))
    assert sorted(set(cert.start.edges)) == [(0, 1), (0, 2)]
    assert cert.order == ((1, 2),)


def test_tetra_boundary_tree_size(tetra_boundary):
    cert = shelling_to_saturated_tree(tetra_boundary, find_shelling(tetra_boundary))
    assert len(set(cert.start.edges)) == 3
    assert len(cert.order) == 3
    assert verify_saturation(tetra_boundary.skeleton(1), cert)


def test_invalid_shelling_rejected(bowtie):
    with pytest.raises(CertificateError):
        shelling_to_saturated_tree(bowtie, shelling_of(bowtie, "a b c", "c d e"))


def test_requires_pure_2_dimensional(three_cycle):
    with pytest.raises(PurityError):
        shelling_to_saturated_tree(
            three_cycle, ShellingCertificate(three_cycle.facets))


def test_tree_size_on_shellable_corpus():
    """Proof (ii)=>(iv): every derived start graph is a spanning tree."""
    for K in enumerate_pure2(5, 6):
        result = find_shelling(K)
        if not isinstance(result, ShellingCertificate):
            continue
        cert = shelling_to_saturated_tree(K, result)
        assert len(set(cert.start.edges)) == K.n_vertices - 1
        assert verify_saturation(K.skeleton(1), cert)


# -- saturation to collapse -----------------------------------------------------------

def test_two_triangles_collapse(two_triangles):
    sat = shelling_to_saturated_tree(
        two_triangles, shelling_of(two_triangles, "a b c", "b c d"))
    col = saturation_to_collapse(two_triangles, sat)
    assert col.removed_triangles == frozenset()
    # Witness triangles collapse in reverse order, then the tree is pruned.
    assert [(s.free_face, s.facet) for s in col.steps[:2]] == [
        ((2, 3), (1, 2, 3)), ((1, 2), (0, 1, 2))]
    assert col.target == (two_triangles.face_from_labels(["a"]),)
    assert verify_collapse(two_triangles, col)


def test_single_triangle_collapse(triangle):
    sat = shelling_to_saturated_tree(triangle, shelling_of(triangle, "a b c"))
    col = saturation_to_collapse(triangle, sat)
    assert [(s.free_face, s.facet) for s in col.steps] == [
        ((1, 2), (0, 1, 2)), ((2,), (0, 2)), ((1,), (0, 1))]
    assert col.target == (triangle.face_from_labels(["a"]),)


def test_sd_triangle_pipeline(triangle):
    L = triangle.barycentric_subdivision()
    sat = shelling_to_saturated_tree(L, find_shelling(L))
    col = saturation_to_collapse(L, sat)
    assert len(col.removed_triangles) == L.reduced_euler_characteristic() == 0
    assert verify_collapse(L, col)
    assert col.targets_point()


def test_flagness_is_required():
    # abc is a clique of the 1-skeleton but not a triangle of the complex.
    K = from_facets(["a b d", "a c e", "b c f"])
    assert not K.is_flag2()
    fake = SaturationCertificate(K.skeleton(1), (), ())
    with pytest.raises(FlagnessError):
        saturation_to_collapse(K, fake)


def test_invalid_saturation_rejected(two_triangles):
    host = two_triangles.skeleton(1)
    bad = SaturationCertificate(host, (), ())  # start = host, n edges, not a tree
    with pytest.raises(CertificateError):
        saturation_to_collapse(two_triangles, bad)


def test_saturation_that_fails_its_replay_is_rejected(two_triangles):
    tree = two_triangles.induced([(0, 1), (0, 2), (1, 3)])  # ab, ac, bd
    good = SaturationCertificate(tree, ((1, 2), (2, 3)), ((0, 1, 2), (1, 2, 3)))
    assert verify_saturation(two_triangles.skeleton(1), good)
    # bc witnessed by b c d before cd is present.
    early = SaturationCertificate(tree, good.order, ((1, 2, 3), (1, 2, 3)))
    # cd witnessed by a c d, which is no triangle of the complex: the replay
    # finds its edge ad missing from the host, so flagness is never needed.
    no_triangle = SaturationCertificate(tree, good.order, ((0, 1, 2), (0, 2, 3)))
    for bad in (early, no_triangle):
        with pytest.raises(CertificateError, match="invalid saturation certificate"):
            saturation_to_collapse(two_triangles, bad)


def test_a_disconnected_start_of_tree_size_fails_its_replay(two_triangles, tmp_path,
                                                           capsys, monkeypatch):
    """n - 1 start edges with a cycle leave a vertex out; the replay refuses
    them with its reason, and no second connectivity check is asked for."""
    host = two_triangles.skeleton(1)
    start = spanning_subgraph(host, [(0, 1), (0, 2), (1, 2)])  # abc, d alone
    cert = SaturationCertificate(start, ((1, 3), (2, 3)), ((1, 2, 3), (1, 2, 3)))
    assert len(start.edges) == two_triangles.n_vertices - 1 and not start.is_connected()
    reason = "index 0: witness edge 'c d' is not present after adding edge 'b d'"
    assert saturation_violation(host, cert) == reason
    with pytest.raises(CertificateError) as raised:
        saturation_to_collapse(two_triangles, cert)
    assert str(raised.value) == f"invalid saturation certificate: {reason}"
    (tmp_path / "two.sc").write_text(two_triangles.to_sc())
    (tmp_path / "cycle.cert").write_text(format_saturation(host, cert))
    assert main(["convert", "--in", str(tmp_path / "two.sc"),
                 "--cert", str(tmp_path / "cycle.cert")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: invalid saturation certificate: {reason}\n"

    asked = []
    is_connected = Complex.is_connected
    monkeypatch.setattr(Complex, "is_connected",
                        lambda self: asked.append(self) or is_connected(self))
    tree = spanning_subgraph(host, [(0, 1), (0, 2), (1, 3)])
    saturation_to_collapse(two_triangles, SaturationCertificate(
        tree, ((1, 2), (2, 3)), ((0, 1, 2), (1, 2, 3))))
    assert asked and all(graph is not tree for graph in asked)


# -- removal count check ------------------------------------------------------------------

def test_check_removal_count_triangle(triangle):
    sat = shelling_to_saturated_tree(triangle, shelling_of(triangle, "a b c"))
    col = saturation_to_collapse(triangle, sat)
    assert check_removal_count(triangle, col)


def test_check_removal_count_chi_two():
    # Wedge of two tetrahedron boundaries: chi = 2, so exactly 2 removals.
    wedge = from_facets(["a b c", "a b d", "a c d", "b c d",
                         "a e f", "a e g", "a f g", "e f g"])
    assert wedge.reduced_euler_characteristic() == 2
    cert = collapsible_after_removing(wedge, 2, 500000)
    assert len(cert.removed_triangles) == 2
    assert check_removal_count(wedge, cert)


def test_check_removal_count_rejects_overremoval(tetra_boundary):
    # A bogus certificate removing chi + 1 triangles and claiming a point
    # target fails the count check, and the replay fails too.
    bogus = CollapseCertificate(
        frozenset(tetra_boundary.facets[:2]), (), (tetra_boundary.face_from_labels(["a"]),))
    assert not check_removal_count(tetra_boundary, bogus)
    assert not verify_collapse(tetra_boundary, bogus)


def test_check_removal_count_requires_point_target(two_triangles):
    cert = CollapseCertificate(frozenset(), (), two_triangles.facets)
    with pytest.raises(CertificateError):
        check_removal_count(two_triangles, cert)


# -- run_chain ---------------------------------------------------------------------------------

def test_chain_on_triangle(triangle):
    report = run_chain(triangle)
    assert report.complete
    assert report.subdivision_depth == 0  # a single triangle is flag
    assert report.removed_count == 0 == report.chi
    assert all(report.verdicts.values())


def test_chain_on_bowtie(bowtie):
    report = run_chain(bowtie)
    assert report.status == "unshellable"
    assert report.subdivision_depth == 0
    assert report.shelling is None and report.collapse is None


def test_chain_on_two_triangles(two_triangles):
    report = run_chain(two_triangles)
    assert report.complete
    assert report.removed_count == report.chi == 0
    assert all(report.verdicts.values())


def test_chain_subdivides_non_flag_input():
    K = from_facets(["a b d", "a c e", "b c f"])  # pure, connected, not flag
    report = run_chain(K, 300000)
    assert report.subdivision_depth == 2
    assert report.subject.is_flag2()
    assert report.status == "unshellable"  # b1 = 1: the three triangles close a loop


def test_chain_on_non_flag_input_with_large_sd2():
    # A cone over an empty triangle abc (not flag) with a strip glued on ab:
    # 28 triangles, so the subject sd^2 has 36 * 28 = 1008 facets.
    strip = ["a b x0", "b x0 x1"] + [f"x{i} x{i + 1} x{i + 2}" for i in range(23)]
    K = from_facets(["a b d", "b c d", "a c d"] + strip)
    assert not K.is_flag2() and len(K.facets) == 28
    report = run_chain(K, 100000)
    assert len(report.subject.facets) == 1008
    assert report.complete and all(report.verdicts.values()), report.status
    assert report.removed_count == report.chi


# Grown triangle by triangle, each meeting the earlier ones along one or
# two edges, so it is shellable; not flag, as the 3-cycle v121 v143 v40
# bounds no triangle.  A direct search of its sd² (1080 facets) takes a
# wrong early turn and runs out of 20 000 nodes.
CLIFF = """\
v121 v143 v188
v121 v188 v40
v121 v188 v82
v129 v208 v233
v136 v143 v177
v143 v177 v188
v143 v181 v40
v143 v188 v40
v143 v217 v236
v143 v217 v40
v161 v208 v233
v167 v175 v85
v167 v233 v85
v177 v179 v181
v177 v179 v40
v177 v181 v40
v177 v188 v40
v188 v208 v85
v188 v40 v85
v188 v40 v97
v208 v228 v89
v208 v233 v5
v208 v233 v85
v208 v256 v40
v208 v40 v85
v208 v85 v89
v229 v233 v85
v233 v27 v5
v233 v3 v85
v256 v40 v94
"""


def test_chain_lifts_the_shelling_past_the_sd2_cliff():
    K = parse_sc(CLIFF)
    assert len(K.facets) == 30 and not K.is_flag2()
    report = run_chain(K, 20000)
    assert report.complete and all(report.verdicts.values()), report.status
    assert len(report.subject.facets) == 36 * 30
    assert report.removed_count == report.chi
    L = K.barycentric_subdivision().barycentric_subdivision()
    assert report.subject == L
    assert find_shelling(L, 20000) == BudgetExceeded(stage="shelling")


def test_lifts_verify_and_the_chain_agrees_with_the_direct_sd2_search():
    """On every non-flag class of enumerate_pure2(5, 6): the status of the
    chain is the outcome of the direct search on sd²(K), and a shelling of
    K lifts to shellings of sd(K) and sd²(K)."""
    statuses = Counter()
    for K in enumerate_pure2(5, 6):
        if K.is_flag2():
            continue
        report = run_chain(K, 100000)
        sd = K.barycentric_subdivision()
        direct = find_shelling(sd.barycentric_subdivision(), 100000)
        expected = {ShellingCertificate: "complete", Unshellable: "unshellable"}
        assert report.status == expected[type(direct)], K.facets
        assert all(report.verdicts.values())
        statuses[report.status] += 1
        shell = find_shelling(K, 100000)
        if isinstance(shell, ShellingCertificate):
            once = lift_shelling(K, shell)
            assert first_shelling_violation(sd, once) is None, K.facets
            twice = lift_shelling(sd, once)
            assert first_shelling_violation(report.subject, twice) is None, K.facets
            assert report.shelling == twice
    assert statuses == {"complete": 11, "unshellable": 6}


def reference_lift(K, cert, masks):
    """lift_shelling read per facet through generator expressions, kept as
    the reference; each facet's covered-edge mask is counted in ``masks``."""
    vertex = K.barycenters()
    covered = set()
    order = []
    for facet in cert.order:
        a, b, c = facet
        edges = (a, b), (a, c), (b, c)
        mask = sum(bit for bit, e in zip((1, 2, 4), edges) if e in covered)
        masks[mask] += 1
        covered.update(edges)
        x, y, z = (facet[i] for i in certificates._HEXAGON_START[mask])
        vx, vy, vz = vertex[(x,)], vertex[(y,)], vertex[(z,)]
        vxy, vyz, vxz = (vertex[tuple(sorted(e))] for e in ((x, y), (y, z), (x, z)))
        vf = vertex[facet]
        order += [tuple(sorted(chain)) for chain in (
            (vx, vxy, vf), (vy, vxy, vf), (vy, vyz, vf),
            (vz, vyz, vf), (vz, vxz, vf), (vx, vxz, vf))]
    return ShellingCertificate(tuple(order))


def test_lift_matches_the_per_facet_reference():
    """On every shellable class of enumerate_pure2(5, 6) (18), lifted to sd(K)
    and on to sd²(K), and on the chain's shellings of chain_reports(7),
    the lift equals the reference, and every covered-edge mask 0-7
    occurs."""
    masks = Counter()
    shellable = 0
    for K in enumerate_pure2(5, 6):
        shell = find_shelling(K, 100000)
        if not isinstance(shell, ShellingCertificate):
            continue
        shellable += 1
        once = lift_shelling(K, shell)
        assert once == reference_lift(K, shell, masks), K.facets
        sd = K.barycentric_subdivision()
        assert lift_shelling(sd, once) == reference_lift(sd, once, masks), K.facets
    reports = chain_reports(7)
    assert reports
    for report in reports:
        L, shell = report.subject, report.shelling
        assert lift_shelling(L, shell) == reference_lift(L, shell, masks)
    assert shellable == 18 and sorted(masks) == list(range(8)), masks


def test_chain_searches_sd2_when_the_refutation_does_not_refute(monkeypatch):
    """With the refutation silenced on K alone (it stays on sd²(K)), the
    search on K is exhausted without it, and the chain falls through to
    the direct search on sd²(K), which still refutes it."""
    K = from_facets(["a b d", "a c e", "b c f"])
    searched = []
    refuted = shelling._refuted

    def spied(L, budget):
        searched.append(L)
        return find_shelling(L, budget)

    monkeypatch.setattr(shelling, "_refuted",
                        lambda L, budget: None if L == K else refuted(L, budget))
    monkeypatch.setattr(certificates, "find_shelling", spied)
    report = run_chain(K, 300000)
    assert report.status == "unshellable"
    assert searched == [K, report.subject]
    assert len(report.subject.facets) == 36 * 3


def test_chain_budget_is_stage_tagged(two_triangles):
    report = run_chain(two_triangles, 0)
    assert report.status == "budget-exceeded:shelling"
    non_flag = from_facets(["a b c", "b c d", "a c d"])  # a b d bounds nothing
    report = run_chain(non_flag, 0)
    assert report.status == "budget-exceeded:shelling"
    assert report.subdivision_depth == 2 and report.shelling is None


def test_chain_rejects_bad_inputs(three_cycle):
    with pytest.raises(PurityError):
        run_chain(three_cycle)


def test_chain_and_removal_search_share_one_pure2_check(three_cycle):
    """One precondition, its messages naming the caller: purity first,
    then connectivity."""
    apart = from_facets(["a b c", "d e f"])
    for check, what in ((run_chain, "the certificate chain"),
                        (lambda K: collapsible_after_removing(K, 0), "removal search")):
        with pytest.raises(PurityError, match=f"^{what} requires a pure 2-dimensional"):
            check(three_cycle)
        with pytest.raises(ConnectivityError,
                           match=f"^{what} requires a connected complex$"):
            check(apart)


def test_chain_checks_each_certificate_once(tetra_boundary, monkeypatch):
    calls = {"first_shelling_violation": 0, "saturation_violation": 0}
    for name in calls:
        check = getattr(certificates, name)

        def counted(*args, name=name, check=check):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(certificates, name, counted)
    report = run_chain(tetra_boundary)
    assert report.complete and all(report.verdicts.values())
    assert calls == {"first_shelling_violation": 1, "saturation_violation": 1}


def test_chain_scans_each_structure_once(monkeypatch):
    """Every stage asks its subject is_pure, is_connected or is_flag2 again;
    the scan behind each answer runs at most once per complex."""
    disk = from_facets(["a b c", "a c d", "a d e", "a e f"]).barycentric_subdivision()
    asks, scans, alive = Counter(), Counter(), []
    keep = Complex._keep

    def counted(self, key, compute):
        def scan():
            alive.append(self)  # no id is reused while counting
            scans[id(self), key] += 1
            return compute()

        asks[key] += 1
        return keep(self, key, scan)

    monkeypatch.setattr(Complex, "_keep", counted)
    report = run_chain(disk)
    assert report.complete and report.subject == disk
    assert all(asks[key] >= 2 for key in ("pure", "connected", "flag")), asks
    assert max(scans.values()) == 1, scans


def test_chain_refuses_a_corrupted_shelling(tmp_path, capsys, monkeypatch):
    strip = from_facets(["a b c", "b c d", "c d e"])
    good = shelling_of(strip, "a b c", "b c d", "c d e")
    swapped = shelling_of(strip, "a b c", "c d e", "b c d")
    assert first_shelling_violation(strip, good) is None
    assert first_shelling_violation(strip, swapped) == 1
    monkeypatch.setattr(certificates, "find_shelling", lambda L, budget: swapped)
    with pytest.raises(CertificateError):
        run_chain(strip)
    path = tmp_path / "strip.sc"
    path.write_text(strip.to_sc())
    assert main(["chain", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_chain_on_shellable_sd_corpus():
    """Implications (ii)=>(iv)=>(v)=>(iii) hold on every shellable instance."""
    completed = 0
    for K in enumerate_pure2(4, 4):
        L = K.barycentric_subdivision()
        report = run_chain(L, 100000)
        if not report.complete:
            continue
        assert all(report.verdicts.values()), report.verdicts
        assert report.removed_count == report.chi
        completed += 1
    assert completed >= 2


# -- the converters against their per-facet references ------------------------------

def assert_converters_match_the_references(L, shell):
    """Both converters on L give the certificates of the references kept in
    conftest; the collapse is compared only on a flag L, which it needs."""
    saturation = shelling_to_saturated_tree(L, shell)
    assert saturation == reference_saturated_tree(L, shell)
    if L.is_flag2():
        assert saturation_to_collapse(L, saturation) == reference_collapse(L, saturation)


def test_converters_match_the_per_facet_references():
    """Every shellable class of enumerate_pure2(5, 5), its sd with the
    lifted shelling, and the chain's sd² subjects at two seeds."""
    shellable = flag = 0
    for K in enumerate_pure2(5, 5):
        shell = find_shelling(K)
        if not isinstance(shell, ShellingCertificate):
            continue
        shellable += 1
        flag += K.is_flag2()
        assert_converters_match_the_references(K, shell)
        assert_converters_match_the_references(K.barycentric_subdivision(),
                                               lift_shelling(K, shell))
    assert shellable >= 5 and 0 < flag < shellable, (shellable, flag)
    reports = chain_reports(7) + chain_reports(20)
    assert len(reports) >= 8 and any(report.removed_count for report in reports)
    for report in reports:
        L = report.subject
        assert report.saturation == reference_saturated_tree(L, report.shelling)
        assert report.collapse == reference_collapse(L, report.saturation)


@pytest.mark.parametrize("facets, tree, order, pruned", [
    # A star centred at c: once b goes, c is a leaf larger than a.
    (["c a b", "c b d", "c d e", "c e f"], "a c, b c, c d, c e, c f",
     "a b : a b c, b d : b c d, d e : c d e, e f : c e f", "f e d b c"),
    # The path a-b-d-c-e, pruned from its larger end e, not from a.
    (["a b c", "b c d", "c d e"], "a b, b d, c d, c e",
     "b c : b c d, a c : a b c, d e : c d e", "e c d b"),
])
def test_tree_prune_takes_the_largest_leaf_first(facets, tree, order, pruned):
    L = from_facets(facets)
    host = L.skeleton(1)
    edges = [L.face_from_labels(edge.split()) for edge in tree.split(", ")]
    ordered = [pair.split(" : ") for pair in order.split(", ")]
    cert = SaturationCertificate(
        host.induced(edges), tuple(L.face_from_labels(e.split()) for e, _ in ordered),
        tuple(L.face_from_labels(w.split()) for _, w in ordered))
    assert verify_saturation(host, cert)
    collapse = saturation_to_collapse(L, cert)
    assert collapse == reference_collapse(L, cert)
    leaves = [step.free_face for step in collapse.steps if len(step.free_face) == 1]
    assert [" ".join(L.label_face(leaf)) for leaf in leaves] == pruned.split()
    assert collapse.target == (L.face_from_labels(["a"]),) and collapse.targets_point()


# -- certificate text --------------------------------------------------------------------

def reference_saturation_fields(F, cert):
    """saturation_fields with each face rendered by its own call."""
    return {
        "start": [" ".join(F.label_face(e)) for e in sorted(set(cert.start.faces_of_dim(1)))],
        "order": [" ".join(F.label_face(e)) for e in cert.order],
        "witnesses": [" ".join(F.label_face(w)) for w in cert.witnesses],
        "pattern": "K3",
    }


def reference_collapse_fields(K, cert):
    """collapse_fields with each face rendered by its own call."""
    return {
        "removed": [" ".join(K.label_face(t)) for t in sorted(cert.removed_triangles)],
        "steps": [[" ".join(K.label_face(s.free_face)), " ".join(K.label_face(s.facet))]
                  for s in cert.steps],
        "target": [" ".join(K.label_face(f)) for f in cert.target],
    }


def test_certificate_fields_match_the_per_face_rendering():
    """The chain's saturation and collapse certificates on sd² subjects, some
    with removed triangles, render as they do face by face."""
    reports = chain_reports(20)
    assert len(reports) >= 4
    assert any(report.removed_count for report in reports)
    for report in reports:
        L = report.subject
        F = L.skeleton(1)
        assert saturation_fields(F, report.saturation) == reference_saturation_fields(
            F, report.saturation)
        assert collapse_fields(L, report.collapse) == reference_collapse_fields(
            L, report.collapse)
