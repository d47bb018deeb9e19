"""Shelling verifier and search, cross-checked against raw permutation search."""

import random
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from itertools import combinations, permutations

from shellsat.complexes import Complex, subfaces

import pytest

from shellsat import (
    CollapseCertificate,
    CollapseStep,
    SaturationCertificate,
    ShellingCertificate,
    apply_collapse,
    collapsible_after_removing,
    decide_wsat_eq_treesize,
    find_shelling,
    first_shelling_violation,
    free_faces,
    from_facets,
    verify_shelling,
)
from shellsat import shelling
from shellsat.collapse import collapse_violation, edge_rows, least_removal
from shellsat.errors import (
    ConnectivityError,
    MalformedCertificateError,
    PurityError,
    UnsupportedDimensionError,
)
from shellsat.harness import (
    ORACLE_MAX_FACETS,
    complex_from_triangles,
    enumerate_pure2,
    flag_dunce_hat,
    oracle_shelling,
    sample_pure2,
)
from shellsat.outcomes import Budget, BudgetExceeded, Impossible, OutOfBudget, Unshellable
from shellsat.shelling import (
    _refuted,
    _tables,
    format_shelling,
    parse_shelling,
)
from shellsat.certificates import lift_shelling, run_chain
from conftest import all_faces, maximal_faces, outcome, table_corpus


def _proper_subfaces(facet):
    return [sub for k in range(1, len(facet))
            for sub in combinations(facet, k)]


def _meets_predecessors(proper, covered, d):
    """Reference shelling condition: the shared subcomplex is pure of
    dimension d-1.

    ``proper`` lists the nonempty proper subfaces of the candidate facet,
    ``covered`` holds every face of the predecessor union and ``d`` is the
    facet dimension.
    """
    shared = [f for f in proper if f in covered]
    if not shared:
        # The intersection is the empty-face complex, of dimension -1.
        return d == 0
    return all(len(f) == d for f in maximal_faces(shared))


def reference_violation(K, order):
    """The first violating index by the facet-generic condition."""
    covered = set()
    for i, facet in enumerate(order):
        if i > 0 and not _meets_predecessors(_proper_subfaces(facet), covered, K.dim):
            return i
        covered.add(facet)
        covered.update(_proper_subfaces(facet))
    return None


def order_of(K, *facet_labels):
    return ShellingCertificate(
        tuple(K.face_from_labels(labels.split()) for labels in facet_labels))


class PrefixState:
    """A shelling prefix with ``pop`` as a method, for the method-driven
    references below: the tables of ``shelling._tables`` and the state that
    ``find_shelling`` keeps in locals, with the undo that the search ran as
    a method before it was inlined.  Each undo entry says whether the step
    took the placed facet off the frontier, and which facets it added."""

    def __init__(self, K):
        self.full, self.slot, self.ridge_slots, self.subfaces, self.holders = _tables(K)
        self.cover = [0] * len(K.face_ids())
        self.placed = [False] * len(K.facets)
        self.order = []
        self.frontier = []
        self.undo = []
        self.key = 0

    def pop(self):
        i = self.order.pop()
        self.placed[i] = False
        self.key ^= 1 << i
        for s in self.subfaces[i]:
            self.cover[s] -= 1
        was_frontier, added = self.undo.pop()
        frontier = self.frontier
        for g in added:
            del frontier[bisect_left(frontier, g)]
        if was_frontier:
            insort(frontier, i)


class StepPrefix(PrefixState):
    """The search step driven by methods, the reference for the scan and
    the step that ``find_shelling`` runs on local names: ``fits`` is the
    O(1) shelling condition, ``after`` the lazy candidate scan and ``push``
    the step that places a facet, each as the search ran them before they
    were inlined.  ``fits`` rebuilds each mask from the cover counts, so
    it checks independently the mask that the search keeps."""

    def fits(self, i):
        sub, cover = self.subfaces[i], self.cover
        mask = 0
        for j, k in enumerate(self.ridge_slots):
            if cover[sub[k]]:
                mask |= 1 << j
        return mask == self.full or (mask != 0 and not cover[sub[self.slot[mask]]])

    def after(self, last):
        frontier = self.frontier
        for n in range(bisect_right(frontier, last), len(frontier)):
            if self.fits(frontier[n]):
                return frontier[n]
        return None

    def push(self, i):
        self.placed[i] = True
        self.order.append(i)
        self.key |= 1 << i
        frontier, placed = self.frontier, self.placed
        n = bisect_left(frontier, i)
        was_frontier = n < len(frontier) and frontier[n] == i
        if was_frontier:
            del frontier[n]
        added = []
        sub, cover = self.subfaces[i], self.cover
        for s in sub:
            cover[s] += 1
        for k in self.ridge_slots:
            if cover[sub[k]] == 1:
                for g, _ in self.holders[sub[k]]:
                    if not placed[g]:
                        n = bisect_left(frontier, g)
                        if n == len(frontier) or frontier[n] != g:
                            frontier.insert(n, g)
                            added.append(g)
        self.undo.append((was_frontier, added))


def step_search(K, budget, prefix=None, memo=True):
    """The loop of ``find_shelling`` driven by the methods of ``prefix``, a
    :class:`StepPrefix` of K by default, with the same memo and the same
    one call to ``shelling._refuted``.  With ``memo`` false, no failed set
    is recorded, so a prefix whose facet set already failed is extended
    again; only for complexes of dimension 3, where the search never calls
    ``_refuted``."""
    m = len(K.facets)
    prefix = StepPrefix(K) if prefix is None else prefix
    failed = set()
    stack = [-1]
    try:
        while stack:
            last = stack[-1]
            i = prefix.after(last) if prefix.order else (last + 1 if last + 1 < m else None)
            if i is None:
                refuted = shelling._refuted(K, budget) if not failed and K.dim == 2 else None
                if refuted is not None:
                    return refuted
                stack.pop()
                if memo:
                    failed.add(prefix.key)
                if prefix.order:
                    prefix.pop()
                continue
            stack[-1] = i
            budget.spend()
            prefix.push(i)
            if len(prefix.order) == m:
                return ShellingCertificate(tuple(K.facets[j] for j in prefix.order))
            if prefix.key in failed:
                prefix.pop()
            else:
                stack.append(-1)
    except OutOfBudget:
        return BudgetExceeded(stage="shelling")
    return Unshellable()


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


def test_verifier_matches_the_facet_generic_reference():
    """The verifier replays orders through the search's O(1) check; it
    reports the index the facet-generic condition reports, on search
    orders and on shuffled ones, in dimensions 0 to 3."""
    rng = random.Random(7)
    corpus = [from_facets(["a", "b", "c"]), from_facets(["a b", "b c", "c d", "b d"]),
              from_facets(["a b c d", "b c d e", "a c d f"]), flag_dunce_hat()]
    corpus += list(enumerate_pure2(5, 6))
    corpus += [K.barycentric_subdivision() for K in enumerate_pure2(4, 4)]
    corpus += [sample_pure2(rng, 7, 6)[0] for _ in range(10)]
    checked = 0
    for K in corpus:
        found = find_shelling(K, 2000) if K.dim >= 1 and K.is_connected() else None
        orders = [found.order] if isinstance(found, ShellingCertificate) else []
        for _ in range(10):
            orders.append(tuple(rng.sample(K.facets, len(K.facets))))
        for order in orders:
            assert (first_shelling_violation(K, ShellingCertificate(order))
                    == reference_violation(K, order)), (K.facets, order)
            checked += 1
    assert checked > 400


def reference_push_violation(K, cert):
    """The earlier verifier loop: each facet after the first checked by
    ``StepPrefix.fits`` and every facet placed by ``StepPrefix.push``, which
    also keeps the frontier, the undo log, the placed flags and the key."""
    if not K.is_pure():
        raise PurityError("shellings are defined for pure complexes only")
    order = [tuple(f) for f in cert.order]
    if sorted(order) != list(K.facets):
        raise MalformedCertificateError(
            "certificate order is not a permutation of the facet set")
    if K.dim < 1:
        return None
    index = {f: i for i, f in enumerate(K.facets)}
    prefix = StepPrefix(K)
    for n, facet in enumerate(order):
        if n > 0 and not prefix.fits(index[facet]):
            return n
        prefix.push(index[facet])
    return None


def tampered_orders(rng, order, tries):
    """The order, and copies with two adjacent facets swapped or one facet
    moved to the front: every such copy when ``tries`` is None, else
    ``tries`` seeded ones of each kind."""
    order = list(order)
    m = len(order)
    swaps = range(m - 1) if tries is None else [rng.randrange(m - 1) for _ in range(tries)]
    fronts = range(1, m) if tries is None else [rng.randrange(1, m) for _ in range(tries)]
    yield order
    for i in swaps:
        yield order[:i] + [order[i + 1], order[i]] + order[i + 2:]
    for i in fronts:
        yield [order[i]] + order[:i] + order[i + 1:]


def test_verifier_matches_the_push_loop_on_tampered_orders():
    """The first-position replay reports what the earlier loop over
    ``StepPrefix.push`` reports, or raises the same error, on shellings and
    their tampered copies: the shellings found on the 5-vertex classes,
    their lifts to sd, the chain's shellings lifted to sd², all orders of a
    path and the shellings found on seeded sets of tetrahedra."""
    rng = random.Random(23)
    cases = []
    for K in enumerate_pure2(5, 10):
        found = find_shelling(K)
        if isinstance(found, ShellingCertificate):
            cases += [(K, found, None),
                      (K.barycentric_subdivision(), lift_shelling(K, found), None)]
    lifted = [report for report in (run_chain(K) for K in enumerate_pure2(5, 4)
                                    if not K.is_flag2()) if report.complete]
    assert len(lifted) >= 3 and all(report.subdivision_depth == 2 for report in lifted)
    cases += [(report.subject, report.shelling, 40) for report in lifted]
    path = from_facets(["a b", "b c", "c d", "d e"])
    cases += [(path, ShellingCertificate(order), None) for order in permutations(path.facets)]
    pool = list(combinations("abcdefg", 4))
    for _ in range(150):
        K = from_facets(rng.sample(pool, rng.randint(2, 9)))
        found = find_shelling(K, 3000) if K.is_pure() and K.is_connected() else None
        if isinstance(found, ShellingCertificate):
            cases.append((K, found, None))
    assert sum(K.dim == 3 for K, _, _ in cases) >= 10
    results = []
    for K, cert, tries in cases:
        for order in tampered_orders(rng, cert.order, tries):
            tampered = ShellingCertificate(tuple(order))
            expected = outcome(reference_push_violation, K, tampered)
            assert outcome(first_shelling_violation, K, tampered) == expected, (K.facets, order)
            results.append(expected)
    assert results.count(None) >= 1000 and len(results) - results.count(None) >= 1000
    assert all(result is None or isinstance(result, int) for result in results)


def test_verifier_raises_as_the_push_loop_on_malformed_orders(two_triangles, tetra_boundary):
    """A repeated, missing, extra or foreign facet, and a non-pure subject,
    raise the same error from both verifiers."""
    K = tetra_boundary
    facets = list(K.facets)
    orders = [facets[:3], facets + facets[:1], facets[:3] + facets[:1],
              facets[:3] + [(0, 1, 4)], [(0, 1)] + facets[1:]]
    for order in orders:
        cert = ShellingCertificate(tuple(order))
        expected = outcome(reference_push_violation, K, cert)
        assert expected[0] == "MalformedCertificateError"
        assert outcome(first_shelling_violation, K, cert) == expected
    mixed = from_facets(["a b c", "c d"])
    cert = ShellingCertificate(mixed.facets)
    assert outcome(first_shelling_violation, mixed, cert) == outcome(
        reference_push_violation, mixed, cert)


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
    """On every prefix the method-driven search reaches, the O(1) condition
    equals the facet-generic one, and the frontier is exactly the unplaced
    facets that share a ridge with the placed union, as a sorted list
    without duplicates; that search returns what ``find_shelling`` returns
    and spends as many nodes.

    The refutation is switched off so that the searches on unshellable
    inputs backtrack, and prefixes restored by ``pop`` are checked too.
    """
    prefixes = []
    popped = [False]

    class Recording(StepPrefix):
        def push(self, i):
            assert not self.order or i in self.frontier
            super().push(i)
            prefixes.append((tuple(self.order), list(self.frontier),
                             [self.fits(j) for j in range(len(self.placed))], popped[0]))

        def pop(self):
            super().pop()
            popped[0] = True

    monkeypatch.setattr(shelling, "_refuted", lambda K, budget: None)
    checked = after_pop = 0
    for base in enumerate_pure2(5, 10):
        for K in (base, base.barycentric_subdivision()):
            prefixes.clear()
            popped[0] = False
            stepped, found = Budget(300), Budget(300)
            assert step_search(K, stepped, Recording(K)) == find_shelling(K, found)
            assert stepped.used == found.used
            d = K.dim
            for order, frontier, fits, backtracked in prefixes:
                covered = {f for i in order for f in subfaces(K.facets[i])}
                unplaced = set(range(len(K.facets))) - set(order)
                sharing = {j for j in unplaced
                           if any(r in covered for r in _proper_subfaces(K.facets[j])
                                  if len(r) == d)}
                assert frontier == sorted(set(frontier))
                assert set(frontier) == sharing
                for j in unplaced:
                    proper = _proper_subfaces(K.facets[j])
                    assert fits[j] == _meets_predecessors(proper, covered, d)
                checked += 1
                after_pop += backtracked
    assert checked > 1000
    assert after_pop > 1000, after_pop


class EagerPrefix(StepPrefix):
    """``after`` over the list of fitting frontier facets above ``last``, all
    checked at once by the facet-generic condition, on the subfaces read
    from ``subfaces[i]``."""

    def __init__(self, K):
        super().__init__(K)
        self.proper = [_proper_subfaces(f) for f in K.facets]
        self.d = K.dim

    def after(self, last):
        proper = self.proper
        return min((i for i in self.frontier if i > last and _meets_predecessors(
            proper[i], {f for f, s in zip(proper[i], self.subfaces[i]) if self.cover[s]},
            self.d)), default=None)


def test_lazy_candidates_match_the_eager_reference(monkeypatch):
    """``find_shelling`` returns what the method-driven search over an
    eager candidate list returns, and spends the same nodes: on shellable
    inputs, and on searches that backtrack (with the refutation switched
    off), where each frame resumes after a ``pop``."""
    def search(K, limit):
        budget, reference = Budget(limit), Budget(limit)
        lazy = find_shelling(K, budget)
        assert step_search(K, reference, EagerPrefix(K)) == lazy
        assert budget.used == reference.used
        return lazy

    strip = from_facets([f"v{i:04d} v{i + 1:04d} v{i + 2:04d}" for i in range(1200)])
    solid = from_facets(["a b c d", "b c d e", "c d e f", "a b c g"]).barycentric_subdivision()
    bases = list(enumerate_pure2(5, 10))
    shellable = [strip, solid] + [K.barycentric_subdivision() for K in bases
                                  if isinstance(find_shelling(K), ShellingCertificate)]
    assert len(shellable) == 28 and solid.dim == 3
    for K in shellable:
        assert isinstance(search(K, None), ShellingCertificate)
    monkeypatch.setattr(shelling, "_refuted", lambda K, budget: None)
    for base in bases:
        for K in (base, base.barycentric_subdivision()):
            search(K, 300)


class _SetPrefix(StepPrefix):
    """The replay state of the earlier search: the frontier is a set, each
    frame iterates a sorted snapshot of it, and ``pop`` recomputes which
    facets leave it."""

    def __init__(self, K):
        super().__init__(K)
        self.frontier = set()

    def _touches(self, i):
        sub, cover = self.subfaces[i], self.cover
        return any(cover[sub[k]] for k in self.ridge_slots)

    def candidates(self):
        return (i for i in sorted(self.frontier) if self.fits(i))

    def push(self, i):
        self.placed[i] = True
        self.order.append(i)
        self.key |= 1 << i
        self.frontier.discard(i)
        sub, cover = self.subfaces[i], self.cover
        for s in sub:
            cover[s] += 1
        for k in self.ridge_slots:
            if cover[sub[k]] == 1:
                self.frontier.update(g for g, _ in self.holders[sub[k]] if not self.placed[g])

    def pop(self):
        i = self.order.pop()
        self.placed[i] = False
        self.key ^= 1 << i
        sub, cover = self.subfaces[i], self.cover
        for s in sub:
            cover[s] -= 1
        for k in self.ridge_slots:
            if cover[sub[k]] == 0:
                self.frontier.difference_update(
                    g for g, _ in self.holders[sub[k]] if not self._touches(g))
        if self._touches(i):
            self.frontier.add(i)


def reference_shelling(K, budget):
    """The earlier search: a stack of candidate generators over
    :class:`_SetPrefix`, with the same memo and the same one call to
    ``shelling._refuted``."""
    m = len(K.facets)
    prefix = _SetPrefix(K)
    failed = set()
    stack = [iter(range(m))]
    try:
        while stack:
            for i in stack[-1]:
                budget.spend()
                prefix.push(i)
                if len(prefix.order) == m:
                    return ShellingCertificate(tuple(K.facets[j] for j in prefix.order))
                if prefix.key in failed:
                    prefix.pop()
                    continue
                stack.append(prefix.candidates())
                break
            else:
                if not failed and K.dim == 2 and shelling._refuted(K, budget) is not None:
                    return Unshellable()
                stack.pop()
                failed.add(prefix.key)
                if prefix.order:
                    prefix.pop()
    except OutOfBudget:
        return BudgetExceeded(stage="shelling")
    return Unshellable()


def test_search_matches_the_set_frontier_reference(monkeypatch):
    """The search with per-frame cursors over a sorted frontier returns
    what the earlier search over set snapshots returned, and spends the
    same nodes, with the refutation on and off and at three budgets.

    Without the refutation an unshellable subdivision takes millions of
    nodes, so there the unlimited budget is replaced by 3000."""
    rng = random.Random(19)
    bases = list(enumerate_pure2(5, 10))
    corpus = bases + [K.barycentric_subdivision() for K in bases]
    corpus.append(from_facets([f"v{i:04d} v{i + 1:04d} v{i + 2:04d}" for i in range(1200)]))
    corpus.append(
        from_facets(["a b c d", "b c d e", "c d e f", "a b c g"]).barycentric_subdivision())
    corpus += [sample_pure2(rng, rng.randint(5, 8), rng.randint(2, 10))[0]
               for _ in range(200)]
    outcomes = defaultdict(int)
    for limits in ((None, 300, 7), (3000, 300, 7)):
        for K in corpus:
            for limit in limits:
                budget, reference = Budget(limit), Budget(limit)
                result = find_shelling(K, budget)
                assert result == reference_shelling(K, reference), (K.facets, limit)
                assert budget.used == reference.used, (K.facets, limit)
                outcomes[type(result).__name__] += 1
        monkeypatch.setattr(shelling, "_refuted", lambda K, budget: None)
    kinds = ("ShellingCertificate", "Unshellable", "BudgetExceeded")
    assert all(outcomes[kind] > 100 for kind in kinds), outcomes


def test_stuck_flag_search_backtracks_as_the_references_do(monkeypatch):
    """A relabelled sd² of a shellable 5-triangle complex (180 facets,
    flag, chi~ = 0) has a shelling, the lift of its base's, but the
    search gets stuck on it at node 152, is not refuted, and backtracks
    until its budget runs out.  There ``find_shelling``, the set-frontier
    search and the method-driven search, the refutation on, get stuck at
    the same node, return the same and spend the same nodes."""
    base = complex_from_triangles([(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 3, 4), (2, 3, 4)])
    sd2 = base.barycentric_subdivision().barycentric_subdivision()
    names = ["x%d" % v for v in random.Random(576530).sample(range(10 * len(sd2.labels)),
                                                            len(sd2.labels))]
    K = from_facets([[names[v] for v in f] for f in sd2.facets])
    assert len(K.facets) == 180 and K.is_flag2() and K.reduced_euler_characteristic() == 0
    lifted = lift_shelling(base.barycentric_subdivision(), lift_shelling(base, find_shelling(base)))
    assert verify_shelling(K, ShellingCertificate(tuple(
        K.face_from_labels([names[v] for v in f]) for f in lifted.order)))
    refuted, stuck = shelling._refuted, []
    monkeypatch.setattr(shelling, "_refuted",
                        lambda K, budget: stuck.append(budget.used) or refuted(K, budget))
    for limit in (300, 3000):
        budget, reference, stepped = Budget(limit), Budget(limit), Budget(limit)
        result = find_shelling(K, budget)
        assert result == BudgetExceeded(stage="shelling")
        assert result == reference_shelling(K, reference) == step_search(K, stepped)
        assert budget.used == reference.used == stepped.used == limit + 1
    assert stuck == [152] * 6


def test_failed_memo_spends_fewer_nodes_for_the_same_results():
    """On 300 seeded sets of tetrahedra on 7 vertices (the generator of
    ``table_corpus``), the search returns what the method-driven search
    with the memo returns and spends as many nodes: undoing a memo hit
    where a stuck frame is undone, not at once, changes neither.  The search without the memo returns the same results, never spends
    fewer nodes and spends strictly more on many: 173 sets, 213 137 nodes
    in all against 14 760 with the memo, which hits 8 138 times."""
    rng = random.Random(41)
    pool = list(combinations("abcdefg", 4))
    kept = plain = more = 0
    for _ in range(300):
        K = from_facets(rng.sample(pool, rng.randint(2, 9)))
        with_memo, stepped, without = Budget(None), Budget(None), Budget(None)
        found = find_shelling(K, with_memo)
        assert found == step_search(K, stepped), K.facets
        assert with_memo.used == stepped.used, K.facets
        assert found == step_search(K, without, memo=False), K.facets
        assert with_memo.used <= without.used, K.facets
        kept, plain = kept + with_memo.used, plain + without.used
        more += with_memo.used < without.used
    assert more > 100 and plain > 10 * kept, (kept, plain, more)


def test_shared_tables_leak_no_state():
    """Searches, shelling verifications, collapse replays and the
    subdivision on one complex share its kept face numbering and facet
    rows.  Searches, shelling replays that stop at a violation, a search cut
    short by its budget, collapse replays of a valid and of a tampered
    certificate, ``free_faces`` and the subdivision, made in turn on one
    complex, give each call the result and Budget.used of the same call on
    a fresh copy, and the numbering is built once: the same objects after
    every call."""
    rng = random.Random(16)
    corpus = list(enumerate_pure2(5, 8))
    corpus += [sample_pure2(rng, rng.randint(5, 7), rng.randint(3, 8))[0]
               .barycentric_subdivision() for _ in range(12)]

    def search(limit):
        def call(K):
            budget = Budget(limit)
            return find_shelling(K, budget), budget.used
        return call

    def replay(order):
        def call(K):
            try:
                return first_shelling_violation(K, ShellingCertificate(tuple(order)))
            except MalformedCertificateError as exc:
                return str(exc)
        return call

    def collapse(cert):
        return lambda K: collapse_violation(K, cert)

    def subdivide(K):
        return K.barycentric_subdivision(), K.barycenters()

    def fresh(K):
        return Complex(K.labels, K.facets)

    violations = cut = refused = 0
    for K in corpus:
        ids, rows = K.face_ids(), K.facet_rows()
        found, used = search(5000)(fresh(K))
        order = list(found.order) if isinstance(found, ShellingCertificate) else list(K.facets)
        half = len(order) // 2
        orders = [rng.sample(order, len(order)) for _ in range(3)]
        orders += [order[:half] + rng.sample(order[half:], len(order) - half),
                   order[:-1], order]
        free = free_faces(fresh(K))[:1]
        step = free[0] if free else CollapseStep(K.facets[0][:1], K.facets[0])
        after = apply_collapse(fresh(K), step) if free else K
        valid = CollapseCertificate(frozenset(), tuple(free), tuple(sorted(
            K.face_from_labels(after.label_face(f)) for f in after.facets)))
        tampered = CollapseCertificate(frozenset(), (step, step), valid.target)
        calls = [search(5000), *map(replay, orders), collapse(valid), subdivide,
                 search(used - 1), free_faces, collapse(tampered), search(5000)]
        for call in calls:
            assert call(K) == call(fresh(K)), K.facets
        assert K.face_ids() is ids and K.facet_rows() is rows
        violations += sum(isinstance(replay(o)(K), int) for o in orders)
        cut += isinstance(search(used - 1)(K)[0], BudgetExceeded)
        refused += collapse(tampered)(K) is not None and collapse(valid)(K) is None
    assert violations > 50 and cut == refused == len(corpus), (violations, cut, refused)


# -- refutation ---------------------------------------------------------------------

def test_refutation_is_sound_and_decides_the_small_corpus(monkeypatch):
    """The refutation never fires on a shellable complex, and on this
    corpus it fires on every unshellable one; the search agrees with the
    ground truth everywhere.

    Soundness is proved (see ``_refuted``).  That it fires on every
    unshellable complex is not: by Hachimori's criterion, its test on K is
    exact for the shellability of sd²(K), not of K.  Here it is observed.
    Ground truth is the oracle, or for classes beyond its bound the search
    with the refutation switched off.  A barycentric subdivision is
    shellable iff its base is: the unshellable bases have b1 != 0 or a
    disconnected vertex link, which the subdivision keeps.
    """
    classes = list(enumerate_pure2(5, 10))
    with monkeypatch.context() as patch:
        patch.setattr(shelling, "_refuted", lambda K, budget: None)
        truth = [oracle_shelling(K) if len(K.facets) <= ORACLE_MAX_FACETS
                 else isinstance(find_shelling(K), ShellingCertificate) for K in classes]
    assert truth.count(False) == 7
    rng = random.Random(8)
    draws = [sample_pure2(rng, rng.choice((6, 7)), rng.randint(2, ORACLE_MAX_FACETS))[0]
             for _ in range(60)]
    corpus = (list(zip(classes, truth))
              + [(K.barycentric_subdivision(), ok) for K, ok in zip(classes, truth)]
              + [(K, oracle_shelling(K)) for K in draws])
    for K, shellable in corpus:
        assert (_refuted(K, Budget(None)) is None) == shellable, K.facets
        result = find_shelling(K, 20000)
        assert isinstance(result, ShellingCertificate if shellable else Unshellable), K.facets
        if shellable:
            assert verify_shelling(K, result)
    assert sum(not shellable for _, shellable in corpus) == 7 + 7 + 50


def test_refutation_names_the_test_that_fired():
    """``decided_by`` names the check of ``_refuted`` that refuted, with
    the nodes it spent: a disconnected link (two disks wedged at a vertex)
    none, b1 != 0 (an annulus) the one node of the core, and a core that
    no deletion of chi~ = 0 triangles empties (the flag dunce hat) one more
    for that search.  ``find_shelling`` returns that outcome, with the
    nodes of its search before it got stuck added."""
    annulus = [f"a{i} a{(i + 1) % 4} b{i}" for i in range(4)]
    annulus += [f"a{(i + 1) % 4} b{i} b{(i + 1) % 4}" for i in range(4)]
    cases = [(from_facets(["a b c", "a c d", "a e f", "a f g"]), "link", 0, 2),
             (from_facets(annulus), "betti1", 1, 7),
             (flag_dunce_hat(), "core", 2, 22)]
    for K, test, refuted_nodes, search_nodes in cases:
        budget = Budget(None)
        assert _refuted(K, budget).decided_by == test
        assert budget.used == refuted_nodes
        budget = Budget(None)
        assert find_shelling(K, budget).decided_by == test
        assert budget.used == search_nodes


def reference_refuted(K, budget):
    """The refutation on its own numbering: each vertex link, as a graph
    complex, connected, then least_removal of chi~ on the rows of K's
    triangles over its sorted edges."""
    for v in range(K.n_vertices):
        link = [[f"v{u}" for u in t if u != v] for t in K.triangles if v in t]
        if not from_facets(link).is_connected():
            return Unshellable(decided_by="link")
    removal = least_removal(edge_rows(K.triangles, K.edges), len(K.edges),
                            K.reduced_euler_characteristic(), budget)
    return Unshellable(decided_by=removal.decided_by) if isinstance(removal, Impossible) else None


def test_refutation_on_the_search_ids_equals_the_reference():
    """``_refuted``, on the search's face ids, gives the reference's
    outcome, ``decided_by`` and ``Budget.used``, or both run out, at
    budgets None, 3 and 10: on the 5-vertex classes with at most 7
    triangles, 400 seeded draws on 6 to 9 vertices and the flag dunce hat."""
    def run(refute, K, limit):
        budget = Budget(limit)
        try:
            result = refute(K, budget)
        except OutOfBudget:
            result = "out of budget"
        return result, getattr(result, "decided_by", None), budget.used

    rng = random.Random(7)
    corpus = list(enumerate_pure2(5, 7)) + [flag_dunce_hat()]
    corpus += [sample_pure2(rng, rng.randint(6, 9), rng.randint(3, 12))[0] for _ in range(400)]
    seen = defaultdict(int)
    for K in corpus:
        for limit in (None, 3, 10):
            expected = run(reference_refuted, K, limit)
            assert run(_refuted, K, limit) == expected, (K.facets, limit)
            seen[expected[1] or expected[0]] += 1
    assert min(seen[key] for key in ("link", "betti1", "core", None, "out of budget")) > 0, seen


MOBIUS = [f"v{i} v{(i + 1) % 5} v{(i + 2) % 5}" for i in range(5)]


@pytest.fixture
def asked(monkeypatch):
    """Each call of ``collapse.edge_rows`` ("edge_rows") and each dimension
    that ``Complex.faces_of_dim`` is asked for, in order."""
    calls = []
    numbering, listing = edge_rows, Complex.faces_of_dim
    monkeypatch.setattr("shellsat.collapse.edge_rows",
                        lambda *args: calls.append("edge_rows") or numbering(*args))
    monkeypatch.setattr(Complex, "faces_of_dim", lambda K, k: calls.append(k) or listing(K, k))
    return calls


def test_a_stuck_search_numbers_and_sorts_nothing_more(asked):
    """A search stuck on a Moebius strip (refuted by b1) and on the flag
    dunce hat (by its core) runs the 2-core engine on its own face ids: it
    neither numbers edges nor lists the faces of a dimension."""
    for K, test in ((from_facets(MOBIUS), "betti1"), (flag_dunce_hat(), "core")):
        assert find_shelling(K).decided_by == test
    assert asked == []


def test_flagness_lists_the_edges_only(asked):
    """``is_flag2`` on a fresh complex counts its triangles without
    listing them."""
    assert not from_facets(MOBIUS).is_flag2() and flag_dunce_hat().is_flag2()
    assert asked == [1, 1]


def test_subdivided_refutables_are_decided_within_small_budgets():
    """b1 = 1 (annulus, Moebius strip) or a disconnected vertex link (two
    disks at a vertex): each is refuted at the first dead end."""
    annulus = [f"a{i} a{(i + 1) % 4} b{i}" for i in range(4)]
    annulus += [f"a{(i + 1) % 4} b{i} b{(i + 1) % 4}" for i in range(4)]
    wedge = ["a b c", "a c d", "a e f", "a f g"]
    for facets in (annulus, MOBIUS, wedge):
        K = from_facets(facets).barycentric_subdivision()
        assert find_shelling(K, Budget(200)) == Unshellable()


def test_three_deciders_agree_on_flag_complexes():
    """Hachimori's criterion: a flag, pure, connected 2-complex L shells
    iff its vertex links are connected and some chi~ of its triangles can be
    removed to leave a collapsible complex, iff its links are connected and
    a spanning tree of its 1-skeleton is weakly K3-saturated.  The three
    deciders must agree where the oracles cannot reach."""
    rng = random.Random(17)
    corpus = [K.barycentric_subdivision() for K in enumerate_pure2(6, 6)]
    corpus.append(flag_dunce_hat())
    corpus += [sample_pure2(rng, 7, rng.randint(4, 9))[0].barycentric_subdivision()
               for _ in range(60)]
    assert len(corpus) == 229
    verdicts = []
    for L in corpus:
        links = all(L.induced(tuple(u for u in t if u != v)
                              for t in L.triangles if v in t).is_connected()
                    for v in range(L.n_vertices))
        chi = L.reduced_euler_characteristic()
        shelled = find_shelling(L, 100_000)
        tree = decide_wsat_eq_treesize(L.skeleton(1), 100_000)
        removal = collapsible_after_removing(L, chi, 100_000) if chi >= 0 else None
        assert BudgetExceeded not in (type(shelled), type(tree), type(removal)), L.facets
        verdict = isinstance(shelled, ShellingCertificate)
        assert verdict == (links and isinstance(tree, SaturationCertificate)), L.facets
        assert verdict == (links and isinstance(removal, CollapseCertificate)), L.facets
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


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


def test_certificate_without_facets_is_malformed(two_triangles):
    header = f"# shelling of {two_triangles.fingerprint}\n"
    for text in ("", header, header + "# a comment\n\n"):
        with pytest.raises(MalformedCertificateError, match="lists no facets"):
            parse_shelling(text, two_triangles)


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


class ReferenceTables:
    """The earlier table build: each facet's nonempty subfaces numbered
    through one ``dict.setdefault`` table as they are first met, and
    ``holders`` filled facet by facet.  ``ids`` and ``rows`` have the form
    of ``Complex.face_ids`` and ``Complex.facet_rows``, so a search can be
    run on them."""

    def __init__(self, K):
        d = K.dim
        self.full = (1 << (d + 1)) - 1
        slot = {sum(1 << j for j in positions): n for n, positions in enumerate(
            p for k in range(1, d + 1) for p in combinations(range(d + 1), k))}
        self.slot = [slot.get(mask) for mask in range(self.full)]
        self.ridge_slots = [slot[self.full ^ (1 << j)] for j in range(d + 1)]
        self.ids = {}
        self.rows = tuple(tuple([self.ids.setdefault(f, len(self.ids))
                                 for f in _proper_subfaces(facet)]) for facet in K.facets)
        for facet in K.facets:
            self.ids[facet] = len(self.ids)
        self.holders = defaultdict(list)
        for i, row in enumerate(self.rows):
            for k in self.ridge_slots:
                self.holders[row[k]].append(i)


def inverse_ids(K, rows) -> dict:
    """The face of each id, read off the rows: slot n of row i is the subface
    of facet i in the n-th place of ``_proper_subfaces``.  Asserts that each
    id names one face and each face has one id."""
    inverse = {}
    for facet, row in zip(K.facets, rows, strict=True):
        for face, i in zip(_proper_subfaces(facet), row, strict=True):
            assert inverse.setdefault(i, face) == face
    assert len(set(inverse.values())) == len(inverse)
    return inverse


def test_tables_match_the_setdefault_tables():
    """The kept face numbering (``Complex.face_ids``) numbers faces
    differently from the earlier build (the numbering never reaches
    output), but each row of ``Complex.facet_rows`` names the facet's
    subfaces in ``combinations`` order, each face has exactly one id, each
    ridge has the same holders, each paired with the bit ``1 << j`` of the
    ridge's place j in its row, and the search on the reference numbering
    reaches the same result with the same nodes."""
    dims = set()
    for K in table_corpus():
        if not K.is_pure() or K.dim < 1:
            continue
        dims.add(K.dim)
        reference = ReferenceTables(K)
        full, slot, ridge_slots, rows, holders = _tables(K)
        assert (full, list(slot[:full]), ridge_slots) == (
            reference.full, reference.slot, reference.ridge_slots)
        assert rows is K.facet_rows()
        ids = K.face_ids()
        assert sorted(ids.values()) == list(range(len(ids)))
        assert set(ids) == all_faces(K) - {()}
        inverse, ref_inverse = inverse_ids(K, K.facet_rows()), inverse_ids(K, reference.rows)
        assert {f: i for i, f in ref_inverse.items()}.items() <= reference.ids.items()
        assert {f: i for i, f in inverse.items()}.items() <= ids.items()
        for row, ref_row in zip(K.facet_rows(), reference.rows, strict=True):
            assert [inverse[i] for i in row] == [ref_inverse[i] for i in ref_row]
        for r, held in holders.items():
            for g, bit in held:
                assert [1 << j for j, k in enumerate(ridge_slots) if rows[g][k] == r] == [bit]
        holders = {inverse[r]: tuple(g for g, _ in h) for r, h in holders.items()}
        assert holders == {ref_inverse[r]: tuple(h) for r, h in reference.holders.items()}
        assert set(holders) == set(K.faces_of_dim(K.dim - 1))
        if not K.is_connected():
            continue
        replica = Complex(K.labels, K.facets)
        replica._kept["face ids"], replica._kept["facet rows"] = reference.ids, reference.rows
        found, ref_found = Budget(3000), Budget(3000)
        assert find_shelling(K, found) == find_shelling(replica, ref_found)
        assert found.used == ref_found.used
        assert replica.facet_rows() is reference.rows
    assert dims == {1, 2, 3}
