"""Shelling verifier and search, cross-checked against raw permutation search."""

from itertools import permutations

from shellsat.complexes import subfaces

import pytest

from shellsat import (
    ShellingCertificate,
    find_shelling,
    first_shelling_violation,
    from_facets,
    verify_shelling,
)
from shellsat.errors import (
    ConnectivityError,
    MalformedCertificateError,
    PurityError,
    UnsupportedDimensionError,
)
from shellsat.harness import enumerate_pure2, oracle_shelling
from shellsat.outcomes import BudgetExceeded, Unshellable
from shellsat.shelling import (
    _meets_predecessors,
    _Prefix,
    _proper_subfaces,
    format_shelling,
    parse_shelling,
)


def order_of(K, *facet_labels):
    return ShellingCertificate(
        tuple(K.face_from_labels(labels.split()) for labels in facet_labels))


# -- verification -------------------------------------------------------------

def test_two_triangles_order_is_shelling(two_triangles):
    assert verify_shelling(two_triangles, order_of(two_triangles, "a b c", "b c d"))


def test_bowtie_orders_violate_at_index_1(bowtie):
    cert = order_of(bowtie, "a b c", "c d e")
    assert first_shelling_violation(bowtie, cert) == 1


def test_tetra_boundary_order_is_shelling(tetra_boundary):
    cert = order_of(tetra_boundary, "a b c", "a b d", "a c d", "b c d")
    assert verify_shelling(tetra_boundary, cert)


def test_non_permutation_is_malformed(two_triangles):
    with pytest.raises(MalformedCertificateError):
        verify_shelling(two_triangles, order_of(two_triangles, "a b c", "a b c"))
    with pytest.raises(MalformedCertificateError):
        verify_shelling(two_triangles, order_of(two_triangles, "a b c"))


def test_verify_requires_pure_complex():
    mixed = from_facets(["a b c", "d e"])
    with pytest.raises(PurityError):
        verify_shelling(mixed, ShellingCertificate(mixed.facets))


# -- search ----------------------------------------------------------------------

def test_find_lexicographic_certificate(two_triangles):
    cert = find_shelling(two_triangles)
    assert cert == order_of(two_triangles, "a b c", "b c d")


def test_bowtie_unshellable(bowtie):
    assert find_shelling(bowtie) == Unshellable()


def test_tetra_boundary_shellable(tetra_boundary):
    cert = find_shelling(tetra_boundary)
    assert isinstance(cert, ShellingCertificate)
    assert verify_shelling(tetra_boundary, cert)
    # existence is confirmed by unassisted permutation search
    assert any(
        verify_shelling(tetra_boundary, ShellingCertificate(order))
        for order in permutations(tetra_boundary.facets))


def test_budget_zero_exceeds(two_triangles):
    assert find_shelling(two_triangles, 0) == BudgetExceeded(stage="shelling")


def test_search_preconditions():
    with pytest.raises(PurityError):
        find_shelling(from_facets(["a b c", "d e"]))
    with pytest.raises(UnsupportedDimensionError):
        find_shelling(from_facets(["a"]))
    with pytest.raises(ConnectivityError):
        find_shelling(from_facets(["a b", "c d"]))


def test_search_agrees_with_oracle_small_corpus():
    """Exhaustive yes/no agreement for every class with at most 6 facets."""
    checked = 0
    for K in enumerate_pure2(5, 6):
        result = find_shelling(K)
        assert isinstance(result, (ShellingCertificate, Unshellable))
        found = isinstance(result, ShellingCertificate)
        assert found == oracle_shelling(K), K.facets
        if found:
            assert verify_shelling(K, result)
        checked += 1
    assert checked >= 20


def test_violating_prefix_never_extends():
    """A prefix that breaks the condition at index i cannot start a shelling."""
    K = from_facets(["a b c", "a b d", "c d e", "c d f"])
    orders = list(permutations(K.facets))
    violations = {order: first_shelling_violation(K, ShellingCertificate(order))
                  for order in orders}
    for order, violation in violations.items():
        if violation is None:
            continue
        prefix = order[:violation + 1]
        for other, other_violation in violations.items():
            if other[:violation + 1] == prefix:
                assert other_violation is not None
                assert other_violation <= violation


def test_long_strip_is_shelled_without_recursion():
    strip = from_facets([f"v{i:04d} v{i + 1:04d} v{i + 2:04d}" for i in range(1200)])
    cert = find_shelling(strip, 1200)
    assert isinstance(cert, ShellingCertificate)
    assert cert.order == strip.facets
    assert verify_shelling(strip, cert)


def test_frontier_check_agrees_with_reference_on_every_prefix(monkeypatch):
    """On every prefix the search reaches, the O(1) condition equals the
    facet-generic one, and the frontier is exactly the unplaced facets that
    share a ridge with the placed union."""
    prefixes = []
    push = _Prefix.push

    def recording_push(self, i):
        push(self, i)
        prefixes.append((tuple(self.order), set(self.frontier),
                         [self.fits(j) for j in range(len(self.placed))]))

    monkeypatch.setattr(_Prefix, "push", recording_push)
    checked = 0
    for base in enumerate_pure2(5, 10):
        for K in (base, base.barycentric_subdivision()):
            prefixes.clear()
            find_shelling(K, 300)
            d = K.dim
            for order, frontier, fits in prefixes:
                covered = {f for i in order for f in subfaces(K.facets[i])}
                unplaced = set(range(len(K.facets))) - set(order)
                sharing = {j for j in unplaced
                           if any(r in covered for r in _proper_subfaces(K.facets[j])
                                  if len(r) == d)}
                assert frontier == sharing
                for j in unplaced:
                    proper = _proper_subfaces(K.facets[j])
                    assert fits[j] == _meets_predecessors(proper, covered, d)
                checked += 1
    assert checked > 1000


# -- certificate files --------------------------------------------------------------

def test_certificate_round_trip(tetra_boundary):
    cert = find_shelling(tetra_boundary)
    text = format_shelling(tetra_boundary, cert)
    assert text.startswith(f"# shelling of {tetra_boundary.fingerprint}")
    assert parse_shelling(text, tetra_boundary) == cert


def test_certificate_fingerprint_mismatch(two_triangles, bowtie):
    text = format_shelling(two_triangles, find_shelling(two_triangles))
    with pytest.raises(MalformedCertificateError):
        parse_shelling(text, bowtie)
    # A comment starting "shelling of" is a header, checked whole.
    body = text.split("\n", 1)[1]
    for header in ("# shelling of", f"# shelling of {two_triangles.fingerprint} x"):
        with pytest.raises(MalformedCertificateError):
            parse_shelling(f"{header}\n{body}", two_triangles)


def test_certificate_unknown_face(two_triangles):
    with pytest.raises(MalformedCertificateError):
        parse_shelling("a b z\n", two_triangles)


def test_verifier_is_dimension_generic():
    # Two solid tetrahedra glued along a triangle: valid order shares the
    # 2-dimensional face bcd; a 3rd tetrahedron glued along an edge breaks it.
    K = from_facets(["a b c d", "b c d e"])
    assert verify_shelling(K, order_of(K, "a b c d", "b c d e"))
    pinched = from_facets(["a b c d", "d e f g"])
    cert = order_of(pinched, "a b c d", "d e f g")
    assert first_shelling_violation(pinched, cert) == 1
