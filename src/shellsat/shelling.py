"""Shelling verification and search for pure simplicial complexes.

A shelling is an ordering of all facets such that each facet meets the
union of its predecessors in a pure codimension-1 subcomplex.  The
condition is prefix-checkable, which makes depth-first search with
safe pruning possible; the verifier is dimension-generic, the search is
exercised at dimension 2.
"""

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import itemgetter

from .collapse import edge_rows, least_removal
from .complexes import (
    SHELLING,
    Complex,
    Face,
    certificate_header,
    is_connected_graph,
    read_certificate,
    subface_slots,
)
from .errors import (
    ConnectivityError,
    MalformedCertificateError,
    PurityError,
    UnsupportedDimensionError,
)
from .outcomes import Budget, BudgetExceeded, Impossible, OutOfBudget, Unshellable, as_budget


@dataclass(frozen=True)
class ShellingCertificate:
    """An ordering of all facets witnessing shellability."""

    order: tuple[Face, ...]


def first_shelling_violation(K: Complex, cert: ShellingCertificate) -> int | None:
    """Return the 0-based index of the first facet violating the shelling
    condition, or None when the certificate is a valid shelling.

    Raises MalformedCertificateError when the order is not a permutation of
    the facet set, and PurityError for non-pure complexes.  The order is a
    permutation iff it has as many entries as there are facets and the same
    set of them: with fewer distinct entries than facets, the sets differ.

    Each facet after the first is checked by the test that the search's
    candidate scan runs (see :func:`find_shelling`), which reads the cover
    counts only as nonzero or zero.  The verifier only places facets, so
    before facet n a count is nonzero iff one of the first n facets holds
    the face: iff ``first``, the least position of a facet holding the
    face, is below n.  ``first`` is one C-level ``dict`` build over the
    column of the order's rows of :meth:`Complex.facet_rows`, read
    backwards so that the least position is written last.  The check
    never reads the search's frontier, ridge masks or key, so none is
    kept.
    """
    if not K.is_pure():
        raise PurityError("shellings are defined for pure complexes only")
    order = [tuple(f) for f in cert.order]
    row_of = dict(zip(K.facets, K.facet_rows()))
    if len(order) != len(row_of) or row_of.keys() != set(order):
        raise MalformedCertificateError(
            "certificate order is not a permutation of the facet set")
    if K.dim < 1:
        return None  # two points meet in the empty face, pure of dimension -1
    full, slot, ridge_slots = _slots(K.dim)
    rows = list(map(row_of.__getitem__, order))
    column = list(chain.from_iterable(rows))
    first = dict(zip(reversed(column), chain.from_iterable(
        map(repeat, range(len(rows) - 1, -1, -1), repeat(len(rows[0]))))))
    for n, sub in enumerate(rows[1:], start=1):
        mask = 0
        for j, k in enumerate(ridge_slots):
            if first[sub[k]] < n:
                mask |= 1 << j
        if mask != full and (not mask or first[sub[slot[mask]]] < n):
            return n
    return None


def verify_shelling(K: Complex, cert: ShellingCertificate) -> bool:
    """True iff the certificate is a valid shelling of K."""
    return first_shelling_violation(K, cert) is None


def _slots(d: int) -> tuple[int, tuple, list[int]]:
    """For facets of dimension d, the mask of all d+1 vertex positions, the
    :func:`subface_slots` table of a facet row and the slot of each ridge,
    ridge j omitting vertex j."""
    full, slot = (1 << (d + 1)) - 1, subface_slots(d + 1)
    return full, slot, [slot[full ^ (1 << j)] for j in range(d + 1)]


def _tables(K: Complex) -> tuple[int, tuple, list[int], tuple, dict[int, list[tuple[int, int]]]]:
    """The read-only tables of the shelling search on a pure complex of
    dimension d >= 1: the :func:`_slots` triple, K's kept
    :meth:`Complex.facet_rows` and the ridge holders.

    Row i names the subfaces of facet i by id, so ridge j of every facet
    (the one omitting vertex j) sits at ``ridge_slots[j]`` and the subface
    on the vertex positions in a mask at ``slot[mask]``.  ``holders[r]``
    lists, in increasing facet order, ``(g, 1 << j)`` for each facet g
    whose ridge j is face r; only the search reads it, so it is built
    here, from the rows' ridge column zipped with the ``product`` of the
    facet indices and the d+1 bits.  No id reaches output: the search
    compares only cover counts, masks and facet indices.
    """
    full, slot, ridge_slots = _slots(K.dim)
    rows = K.facet_rows()
    ridges = list(chain.from_iterable(map(itemgetter(*ridge_slots), rows)))
    holders: dict[int, list[tuple[int, int]]] = {r: [] for r in dict.fromkeys(ridges)}
    deque(map(list.append, map(holders.__getitem__, ridges), product(
        range(len(rows)), [1 << j for j in range(len(ridge_slots))])), maxlen=0)
    return full, slot, ridge_slots, rows, holders


def _refuted(K: Complex, budget: Budget) -> Unshellable | None:
    """``Unshellable`` when a pure 2-complex fails a necessary condition
    for shellability, its ``decided_by`` naming the test that failed, else
    None; it never accepts.

    A shellable 2-complex is a wedge of 2-spheres, and the link of each of
    its vertices is shellable (Björner, *Topological methods*, 1995).  So
    K is refuted when:

    * the link of some vertex is disconnected (``"link"``): a shellable
      graph is connected;
    * b1 != 0 over GF(2) (``"betti1"``), as a wedge of spheres has b1 = 0;
    * (``"core"``) no chi~ of its triangles can be deleted to leave an empty core.  In
      a shelling, the facets whose whole boundary lies in the union of
      their predecessors number b2 = chi~; dropping them leaves the order
      a shelling, as their proper faces are there anyway, of a complex
      that shells with no such facet and hence collapses, so its triangles
      have an empty core.

    The last two are decided by one call of :func:`collapse.least_removal`
    of chi~, whose ``Impossible`` names the test that failed.  It spends
    one node for the core and one per search node; no collapse steps are
    spent, as nothing is collapsed.

    What is proved about exactness concerns sd²(K).  By Hachimori's
    criterion (*Decompositions of two-dimensional simplicial complexes*,
    2008), as Goaoc et al. state it (*Shellability is NP-complete*, J. ACM,
    2019), connected vertex links of K plus a chi~-removal leaving K
    collapsible (an empty core leaves a connected graph with chi~ = 0, a
    tree) hold iff sd²(K) is shellable.  So the test on K is exact for the
    shellability of sd²(K), and the certificate chain relies on it: when a
    non-flag K has no shelling and this refutes K, the chain reports its
    subject sd²(K) unshellable without searching it.  That it is exact for
    K itself, so that after None the search on K finds a shelling, is only
    observed: the search found a shelling of each of 211 783 complexes
    this does not refute (``enumerate_pure2(6, 7)`` and ``(6, 8)`` with at
    least 5 facets, and seeded ``sample_pure2`` draws on 6 to 9 vertices).
    The search is sound either way, as this only refutes.
    """
    link: list[list[Face]] = [[] for _ in range(K.n_vertices)]
    triangles = K.triangles
    for a, b, c in triangles:
        link[a].append((b, c))
        link[b].append((a, c))
        link[c].append((a, b))
    for edges in link:
        index: dict[int, int] = {}
        relabeled = [(index.setdefault(u, len(index)), index.setdefault(w, len(index)))
                     for u, w in edges]
        if not is_connected_graph(len(index), relabeled):
            return Unshellable(decided_by="link")
    removal = least_removal(edge_rows(triangles, K.edges), len(K.edges),
                            K.reduced_euler_characteristic(), budget)
    if isinstance(removal, Impossible):
        return Unshellable(decided_by=removal.decided_by)
    return None


def find_shelling(K: Complex, budget: int | Budget | None = None):
    """Search for a shelling of a pure connected complex of dimension >= 1.

    Returns the lexicographically first shelling (depth-first, candidates in
    facet order), ``Unshellable()`` after exhausting the search space, or
    ``BudgetExceeded`` once the node budget runs out.  Failed facet sets are
    memoized: extendability depends only on the set of placed facets, not
    on their order.  The memo is bounded by the budget: it gains one entry
    per stack pop, and the stack gains at most one entry per spent node, so
    it never holds more than one entry per node spent, plus one.  It pays
    where the search backtracks, as on dimension 3: on 300 seeded sets of
    tetrahedra on 7 vertices it hits 8 138 times in 14 760 nodes, and the
    search without it spends 213 137 nodes for the same results.

    Candidates after the first facet are drawn from the frontier only.  A
    facet that shares no ridge with the placed union meets it in faces of
    dimension below d-1, or not at all, so the intersection is not pure of
    dimension d-1 and a scan over all facets would skip it as well.  Trying
    the fitting frontier facets in increasing index therefore tries the
    same facets in the same order as that scan: the shelling found, the
    nodes spent and the failed sets recorded are the same.

    The search keeps its own stack, so the depth is not bounded by
    Python's recursion limit.  Each frame on it is one int, the last facet
    it tried (-1 before the first).  The root frame walks ``range(m)``;
    every other frame scans the frontier above its last facet, up to the
    first facet that fits.  A frame resumes only after its child is
    undone, and the undo restores the frontier exactly, so the frame sees
    the sorted frontier of its own prefix again: the facets above its last
    one are those a sorted snapshot taken when the frame began would still
    hold, in the same order, each checked against the same prefix.  So a
    cursor tries what a snapshot of the frontier would, spends the same
    nodes and records the same failed sets, without copying or sorting
    the frontier at each node.

    The test that facet i fits, in O(1): let M be the vertices of facet i
    opposite its shared ridges (``mask``).  A shared face lies in the
    shared ridge opposite v iff it misses v, so every shared face lies in
    a shared ridge iff no shared face contains M; the shared faces are
    closed under subsets, so that holds iff M is the whole facet or the
    face M is not shared.  Hence the intersection is pure of dimension d-1
    iff M is nonempty and one of those holds.  For d = 2: the triangle
    shares an edge, and every shared vertex lies on a shared edge.

    The scan, the step and its undo run here, on the tables of
    :func:`_tables` and a local state.  The frames below the stack's top
    list the placed facets in order, ``key`` is their set as a bitmask,
    ``cover[s]`` counts those containing face ``s`` and ``touch[g]`` is the
    mask of facet g's ridges that one of them holds, bit j for ridge j:
    the test reads it as kept and rebuilds nothing.  ``frontier`` is the sorted list of the unplaced
    facets with a nonzero mask, those sharing a ridge with the placed
    union.  The step sets the bit of each ridge it covers first in its
    other holders, inserting a holder whose mask was 0; the undo finds
    those ridges back at cover 0 and clears their bits, deleting a holder
    whose mask is 0 again.  A ridge covered first has no other placed
    holder, so a placed facet's mask never moves: it is nonzero iff the
    facet was on the frontier, as each but the root one was.  So the step
    deletes i where the scan found it, and the undo puts it back, iff
    ``touch[i]`` is nonzero: the two are exact inverses, and no log is kept.

    A placement is undone in one place, where a frame with no candidates
    is popped.  A frame whose facet set is already in the memo has none,
    so it is popped on the next loop turn.  A memo hit means the memo is
    not empty, so neither the connectivity check nor :func:`_refuted` runs
    there, and recording the set again adds nothing: the nodes, the result
    and the memo are those of undoing the placement at once.

    The first time a frame runs out of candidates, a 2-complex gets one
    call to :func:`_refuted`, whose nodes come out of the same budget.  It
    only refutes, so if it does not, the search goes on as before; a search
    that never gets stuck never calls it, and finds the same shelling with
    the same nodes.  Its ``Unshellable`` is returned as it is, so
    ``decided_by`` names the test that refuted; an exhausted search got
    stuck, so it ran there and did not refute.

    K must be connected, else ``ConnectivityError`` is raised, but that is
    checked only where there is no shelling: the first time a frame runs
    out of candidates (before :func:`_refuted`, which assumes it) and when
    the budget runs out.  A shelling places each facet after the first on
    a ridge of the union so far, so a search that finds one has shown K
    connected, and a search on a disconnected K gets stuck or runs out of
    budget before it could.  So such a K spends nodes before it raises,
    and no verdict changes.
    """
    if not K.is_pure():
        raise PurityError("shelling search requires a pure complex")
    if K.dim < 1:
        raise UnsupportedDimensionError("shelling search requires dimension >= 1")
    budget = as_budget(budget)
    m = len(K.facets)
    full, slot, ridge_slots, rows, holders = _tables(K)
    cover = [0] * len(K.face_ids())
    touch = [0] * m
    frontier: list[int] = []
    key = 0
    failed: set[int] = set()
    stack = [-1]
    try:
        while stack:
            last = stack[-1]
            if key in failed:
                i = None
            elif not key:
                i = last + 1 if last + 1 < m else None
            else:
                i = None
                for n in range(bisect_right(frontier, last), len(frontier)):
                    g = frontier[n]
                    mask = touch[g]
                    if mask == full or not cover[rows[g][slot[mask]]]:
                        i = g
                        break
            if i is None:
                if not failed:
                    _require_connected(K)
                    refuted = _refuted(K, budget) if K.dim == 2 else None
                    if refuted is not None:
                        return refuted
                stack.pop()
                failed.add(key)
                if stack:
                    i = stack[-1]
                    key ^= 1 << i
                    sub = rows[i]
                    for s in sub:
                        cover[s] -= 1
                    for k in ridge_slots:
                        if not cover[sub[k]]:
                            for g, bit in holders[sub[k]]:
                                if g != i:
                                    touch[g] ^= bit
                                    if not touch[g]:
                                        del frontier[bisect_left(frontier, g)]
                    if touch[i]:
                        insort(frontier, i)
                continue
            stack[-1] = i
            budget.spend()
            if touch[i]:
                del frontier[n]  # where the scan found it
            key |= 1 << i
            sub = rows[i]
            for s in sub:
                cover[s] += 1
            for k in ridge_slots:
                if cover[sub[k]] == 1:
                    for g, bit in holders[sub[k]]:
                        if g != i:
                            touch[g] |= bit
                            if touch[g] == bit:
                                insort(frontier, g)
            if len(stack) == m:
                return ShellingCertificate(tuple(K.facets[j] for j in stack))
            stack.append(-1)
    except OutOfBudget:
        _require_connected(K)
        return BudgetExceeded(stage="shelling")
    return Unshellable()


def _require_connected(K: Complex) -> None:
    if not K.is_connected():
        raise ConnectivityError("shelling search requires a connected complex")


# -- certificate file format -------------------------------------------------

def shelling_fields(K: Complex, cert: ShellingCertificate) -> list[str]:
    """The certificate as label text, for its file and the chain report."""
    return K.face_texts(cert.order)


def format_shelling(K: Complex, cert: ShellingCertificate) -> str:
    """One facet per line in shelling order, with a fingerprint header."""
    return "\n".join([certificate_header(SHELLING, K), *shelling_fields(K, cert)]) + "\n"


def parse_shelling(text: str, K: Complex) -> ShellingCertificate:
    """Parse a shelling certificate against its subject complex.

    A "# shelling of <fingerprint>" header, when present, must match the
    subject; faces are given by vertex labels as in the ".sc" format.
    """
    facets: list[Face] = []

    def read(body: str, comment: bool) -> None:
        if not comment:
            facets.append(K.face_from_labels(body.split()))

    read_certificate(text, SHELLING, K, read)
    if not facets:
        raise MalformedCertificateError("certificate lists no facets")
    return ShellingCertificate(tuple(facets))
