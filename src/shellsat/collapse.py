"""Elementary collapses, collapsibility search and k-triangle-removal decisions.

A face is free when it is contained in a single facet; the elementary
collapse removes it together with every face above it.  Certificates list
an optional set of removed triangle facets, the collapse steps in order and
the target faces whose closure they reach, all in the subject's face ids:
a certificate naming a face that its subject lacks is malformed.

The searches need dimension at most 2, where one greedy peel of free faces
decides collapsibility (:func:`is_collapsible`); from dimension 3 on the
problem is NP-complete (Tancer, 2016).  Steps and certificates work in any
dimension.
"""

import heapq
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, compress, count, repeat
from typing import NamedTuple

from .complexes import (
    COLLAPSE,
    Complex,
    Face,
    certificate_header,
    listed_faces,
    read_certificate,
    require_pure2_connected,
    subfaces,
)
from .errors import (
    ConnectivityError,
    MalformedCertificateError,
    NotFreeError,
    ParameterError,
    UnsupportedDimensionError,
)
from .outcomes import (
    Budget,
    BudgetExceeded,
    Impossible,
    NotCollapsible,
    OutOfBudget,
    as_budget,
)


class CollapseStep(NamedTuple):
    """Remove the free face and every face above it, up to the facet."""

    free_face: Face
    facet: Face


@dataclass(frozen=True)
class CollapseCertificate:
    """Remove the listed triangles, apply the steps, reach the target's closure."""

    removed_triangles: frozenset[Face]
    steps: tuple[CollapseStep, ...]
    target: tuple[Face, ...]

    def targets_point(self) -> bool:
        return len(self.target) == 1 and len(self.target[0]) == 1


# -- the replay -----------------------------------------------------------------

class _Replay:
    """The faces a certificate replay has left, on integer face ids.

    Built once per replay from K and not kept on it, over K's kept
    :meth:`Complex.face_ids`.  ``face[i]`` is the nonempty face with id i
    and ``ids`` maps it back; ``ridges[i]`` lists the ids of its faces one
    vertex smaller (none for a vertex: the empty face has no id, and a step
    naming it is refused before any lookup).  ``left[i]`` is 1 while face i
    is left, and ``up[i]`` counts the faces left one vertex larger than
    face i (facets: 0).

    Why it replays exactly as a set of face tuples with a count per face
    would: ids are a bijection onto the nonempty faces, so ``left`` is the
    set's indicator and ``up[i]`` the count of ``face[i]``, and a count for
    ``()`` would never be read.  Each step removes the same faces and lowers
    the same counts, and each check reads the same membership and counts,
    so every verdict and message is the same.  Which id a face gets is
    never read: reasons name faces, the facets left are only compared or
    closed into a complex, and :func:`free_faces` sorts its steps.

    The build runs in C-level passes.  Ids run over the faces by size,
    smallest first, so the faces of size k are one slice of ``face``.
    Vertex ``(v,)`` has id ``v``, so an edge is its own tuple of ridge ids;
    the ridges of a larger face are one ``combinations`` column of size k-1
    faces mapped to ids, k per face, zipped back per face.  ``up`` is one
    ``Counter`` pass over the ridges of the faces left.
    """

    __slots__ = ("subject", "face", "ids", "ridges", "left", "up")

    def __init__(self, K: Complex, removed: frozenset[Face] = frozenset()):
        self.subject = K
        self.ids = ids = K.face_ids()
        self.face = face = list(ids)
        sizes = K.f_vector()[1:]
        self.ridges = ridges = [()] * sizes[0] if sizes else []
        for k, n in enumerate(sizes[1:], start=2):
            run = face[len(ridges):len(ridges) + n]
            if k == 2:
                ridges += run
            else:
                column = map(ids.__getitem__, chain.from_iterable(
                    map(combinations, run, repeat(k - 1))))
                ridges += zip(*[column] * k)
        self.left = left = bytearray(b"\1") * len(face)
        for t in removed:
            left[ids[t]] = 0
        held = Counter(chain.from_iterable(compress(ridges, left)))
        self.up = list(map(held.get, range(len(face)), repeat(0)))

    def take(self, step: CollapseStep, t: int | None, s: int | None) -> str | None:
        """Apply the step if it is legal; else say why not and change nothing.

        t and s are the caller's lookups of tau and sigma in ``ids``.

        Legal iff tau is a nonempty face left, sigma a face left strictly
        holding it, up[sigma] == 0 and up[tau] == |sigma| - |tau|.  Why: the
        faces are closed, so sigma is a facet iff up[sigma] == 0, and the
        faces tau + v for v in sigma - tau are left.  A facet other than
        sigma holding tau has a vertex w outside sigma and brings one more
        face, tau + w; and such a tau + w lies in some facet other than
        sigma.  A legal step removes tau + S for each S in sigma - tau, each
        lowering the count of its ridges.  A reason names faces by the
        subject's labels.
        """
        tau, sigma = step.free_face, step.facet
        if not tau:
            return "the empty face cannot be collapsed"
        left, up, ridges = self.left, self.up, self.ridges
        name = self.subject.face_name
        if t is None or not left[t]:
            return f"free face {name(tau)} is not a face of the current complex"
        if s is None or not left[s] or not set(tau) < set(sigma):
            return f"{name(sigma)} is not a facet strictly containing {name(tau)}"
        if up[s]:
            return f"{name(sigma)} is not a facet of the current complex"
        if up[t] != len(sigma) - len(tau):
            return (f"free face {name(tau)} is also contained in facet "
                    f"{name(self.other_facet(step))}")
        for g in [self.ids[tuple(sorted(tau + extra))]
                  for extra in subfaces([v for v in sigma if v not in tau])]:
            left[g] = 0
            for r in ridges[g]:
                up[r] -= 1
        return None

    def facets(self) -> list[Face]:
        """The facets left, in id order."""
        return [f for f, alive, up in zip(self.face, self.left, self.up)
                if alive and not up]

    def other_facet(self, step: CollapseStep) -> Face | None:
        """The least facet left above a nonempty free face but the step's, or None."""
        tau = set(step.free_face)
        others = [f for f in self.facets() if f != step.facet and tau < set(f)]
        return min(others, default=None) if tau else None


# -- public operations --------------------------------------------------------

def apply_collapse(K: Complex, step: CollapseStep) -> Complex:
    """Perform one elementary collapse, returning the smaller complex.

    The free face must be contained in exactly one facet, which must be the
    one named by the step; otherwise NotFreeError reports the obstruction.
    """
    replay = _Replay(K)
    reason = replay.take(step, *map(replay.ids.get, step))
    if reason is not None:
        raise NotFreeError(reason, blocking_facet=replay.other_facet(step))
    return K.induced(replay.facets())


def free_faces(K: Complex) -> list[CollapseStep]:
    """All currently legal collapse steps, in lexicographic face order."""
    replay = _Replay(K)
    ids, up = replay.ids, replay.up
    return sorted((CollapseStep(tau, sigma) for sigma in replay.facets()
                   for k in range(1, len(sigma)) for tau in combinations(sigma, k)
                   if up[ids[tau]] == len(sigma) - len(tau)),
                  key=lambda step: step.free_face)


# -- the peel -------------------------------------------------------------------
#
# The ridges of a simplex are its faces one vertex smaller, and the core of
# a set of simplices of one size is what is left after repeatedly deleting
# one with a ridge in no other one left.  A collapse removes triangles with
# an empty core through free edges (read backwards, a weak K3-saturation
# order: `wsat.decide_wsat_eq_treesize`), then prunes the edges left as
# leaves.  `peel` pops the free ridge of least (or largest) id first.
# Where the order of a peel is printed (`_collapse`'s steps, the wsat tree
# and the chain's leaf prune), ids follow the ridges' sorted order: a
# vertex is its own id, so an edge is its own row, and a triangle's edges
# are their positions in a sorted edge list (`edge_rows`).  Simplex sets
# are index sets into one sorted list, so `combinations` runs in
# lexicographic order.
# The triangle 2-core engine below reads only cores, GF(2) ranks and
# triangle indices, so it takes any distinct edge ids its caller holds (the
# shelling search passes its face ids), and `core_components` builds each
# core component's rows from them once, on the component's own ids.
Triangle = tuple[int, int, int]


def edge_rows(triangles, edges) -> list[Triangle]:
    """The ids of each triangle's edges ab, ac, bc: their positions in
    ``edges``, a sorted sequence holding them all.  One ``combinations``
    column of edges mapped to ids, zipped back three per triangle."""
    at = dict(zip(edges, count()))
    column = map(at.__getitem__, chain.from_iterable(map(combinations, triangles, repeat(2))))
    return list(zip(*[column] * 3))


def peel(rows, alive, n: int,
         largest_first: bool = False) -> tuple[list[tuple[int, int]], set[int]]:
    """Peel the alive simplices, the least free ridge first, or the largest
    with ``largest_first``; ``rows[i]`` lists simplex i's ridge ids, in 0..n-1.

    Returns each free ridge paired with the simplex that leaves with it, in
    peel order, and the core left.  Deleting simplices only lowers the
    number holding a ridge, so a simplex that can leave stays able to, and
    the set that leaves (hence the core) does not depend on the order.
    A free ridge's one holder is the XOR of its holders left, so each ridge
    keeps a count and that XOR instead of a set.  A count falls to one at
    most once, so the heap (of ids, negated with ``largest_first``) holds
    every free ridge; a popped ridge whose count is zero lost its holder
    through another ridge and is skipped.
    """
    sign = -1 if largest_first else 1
    core = set(alive)
    held, holder = [0] * n, [0] * n
    for i in core:
        for r in rows[i]:
            held[r] += 1
            holder[r] ^= i
    heap = list(compress(range(0, sign * n, sign), map((1).__eq__, held)))
    heapq.heapify(heap)
    free: list[tuple[int, int]] = []
    while heap:
        r = sign * heapq.heappop(heap)
        if held[r]:
            i = holder[r]
            free.append((r, i))
            core.remove(i)
            for q in rows[i]:
                held[q] -= 1
                holder[q] ^= i
                if held[q] == 1:
                    heapq.heappush(heap, sign * q)
    return free, core


def as_steps(pairs) -> tuple[CollapseStep, ...]:
    """(free face, facet) pairs as steps, in one C-level pass: what
    ``CollapseStep._make`` does, without its Python frame per step."""
    return tuple(map(tuple.__new__, repeat(CollapseStep), pairs))


def _collapse(K: Complex, rows: list[Triangle], removed: set[int],
              budget: Budget) -> CollapseCertificate | None:
    """Collapse K without the removed triangles toward one vertex.

    ``rows`` are K's triangles' :func:`edge_rows` over ``K.edges``, and
    ``removed`` holds the indices of the triangles removed.
    The steps are the free edges of a :func:`peel` of the other triangles,
    then the leaves of a peel of the edges left over, least leaf first, one
    budget node each.  Returns None unless the second peel removes all but
    one vertex, the target, that is unless those edges are a spanning tree;
    so a certificate returned also shows that K is connected.
    """
    edges, triangles, n = K.edges, K.triangles, K.n_vertices
    up, _ = peel(rows, set(range(len(triangles))).difference(removed), len(edges))
    down, _ = peel(edges, set(range(len(edges))).difference(e for e, _ in up), n)
    budget.spend(len(up) + len(down))
    if len(down) != n - 1:
        return None
    (target,) = set(range(n)).difference(v for v, _ in down)
    steps = chain(((edges[e], triangles[t]) for e, t in up),
                  (((v,), edges[e]) for v, e in down))
    return CollapseCertificate(frozenset(map(triangles.__getitem__, removed)),
                               as_steps(steps), ((target,),))


# -- the triangle 2-core engine -------------------------------------------------


def _floor(rows: list[Triangle], core) -> int:
    """|core| minus the rank over GF(2) of its boundaries, a lower bound on
    the deletions that empty it: what is left then peels with an edge of
    each triangle in no later one, so its boundaries are independent and
    it holds at most rank triangles.  A peeled triangle's free edge is in
    no other boundary, so count and rank fall by one and the floor stays.
    """
    basis: dict[int, int] = {}
    for t in core:
        a, b, c = rows[t]
        row = 1 << a | 1 << b | 1 << c
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(core) - len(basis)


def core_components(rows: list[Triangle], n: int,
                    budget: Budget) -> list[tuple[list[int], list[Triangle], int, int]]:
    """The core's components, each as its triangles' indices in increasing
    order, their rows on the component's own edge ids, the number of those
    ids, and the least number of its triangles that must be deleted to
    empty its core.  ``rows`` name each triangle's three edges by distinct
    edge ids in 0..n-1, in any order and any numbering.

    Spends one budget node first, so every answer costs at least one.
    Why the core is all that needs solving: if a set S of triangles has an
    empty core, so does S with every triangle outside core(T) added, since
    the core of the union lies in core(T) and in S, and is a subset of S
    with no free triangle, hence inside core(S).  Components (triangles
    joined through shared edges) share no edge, and freeness is decided
    edge by edge, so each is solved on its own, from its :func:`_floor`.

    A component's own ids are the ids its triangles use, compacted in the
    order they first appear, so a peel in its search costs the component,
    not the host.  No answer depends on the numbering: a peel reaches the
    same core whatever order it pops in (:func:`peel`), the floor is a
    GF(2) rank, which renaming edges does not change, and the searches
    read cores and floors and walk triangle indices, which renaming keeps.
    So every answer and every node spent is that of any other numbering.
    """
    budget.spend()
    _, core = peel(rows, range(len(rows)), n)
    holders: dict[int, list[int]] = {}
    for t in core:
        for e in rows[t]:
            holders.setdefault(e, []).append(t)
    components: list[tuple[list[int], list[Triangle], int, int]] = []
    seen: set[int] = set()
    for start in sorted(core):
        if start in seen:
            continue
        seen.add(start)
        component, stack = [], [start]
        while stack:
            t = stack.pop()
            component.append(t)
            for e in rows[t]:
                fresh = [s for s in holders[e] if s not in seen]
                seen.update(fresh)
                stack.extend(fresh)
        component.sort()
        used = list(chain.from_iterable(map(rows.__getitem__, component)))
        own = dict(zip(dict.fromkeys(used), count()))
        local = list(zip(*[map(own.__getitem__, used)] * 3))
        components.append((component, local, len(own), _floor(local, range(len(local)))))
    return components


def least_deletion(rows: list[Triangle], n: int, size: int,
                   budget: Budget) -> tuple[int, ...] | None:
    """The first set of ``size`` triangles of a core component, in
    ``combinations`` order, whose deletion empties its core, or None when
    there is none, for a ``size`` at least its floor that no fewer
    triangles meet.  The component comes as :func:`core_components` gives
    it, ``rows`` on its own edge ids 0..n-1, and the set as indices into
    ``rows``.

    A depth-first search on its own stack (no recursion limit), one budget
    node per node: a child deletes a triangle of its parent's core above
    the last one deleted and peels, children in increasing order.  A node
    whose :func:`_floor` exceeds the deletions still allowed has no child
    after the first, computed only then so that a first descent that
    succeeds computes none.  Why the first set found is the answer: let D
    be the first such set.  Each triangle of D lies in the core that the
    smaller ones leave, or D without it would empty the core too (deleting
    a triangle outside a core keeps the core).  The core of a set minus
    more triangles is the core of its core minus them
    (:func:`core_components`), so D is a path of the search, and at each
    node on it the rest of D empties the core, so the prune keeps it.
    Paths come in ``combinations`` order, so D is found first.  The first
    descent deletes the least triangle of each core: the greedy set, found
    in ``size + 1`` nodes when it has ``size`` triangles.  The root's
    children are every triangle in order, with no floor computed and no
    sort: they are the triangles above -1, and the prune cannot cut there,
    as the deletions allowed, ``size``, are at least the component's floor.
    So the nodes and the set found are those of the pruned walk.
    """
    def children(core: set[int], last: int, allowed: int) -> Iterator[int]:
        for k, t in enumerate(sorted(t for t in core if t > last)):
            if k == 1 and _floor(rows, core) > allowed:
                return
            yield t

    budget.spend()
    frames = [(-1, set(range(len(rows))), iter(range(len(rows))))] if size else []
    while frames:
        _, core, later = frames[-1]
        for t in later:
            budget.spend()
            _, left = peel(rows, core - {t}, n)
            if not left:
                return tuple(d for d, _, _ in frames[1:]) + (t,)
            if len(frames) < size:
                frames.append((t, left, children(left, t, size - len(frames))))
                break
        else:
            frames.pop()
    return None


def least_removal(rows: list[Triangle], n: int, chi: int,
                  budget: Budget) -> set[int] | Impossible:
    """The first set of ``chi`` triangles, in ``combinations`` order, whose
    deletion empties the core, or ``Impossible`` naming the test that
    showed there is none.  ``rows`` name the triangles' edges by distinct
    ids in 0..n-1, as :func:`core_components` takes them.

    ``chi`` is the reduced Euler characteristic of a connected complex
    whose triangles these are, so chi = b2 - b1 over GF(2).  A set that
    empties the core holds at least the floor of each core component
    (:func:`core_components`), and the floors sum to b2.  So chi < b2
    (b1 != 0) has none, without search (``"betti1"``); otherwise the set
    holds exactly the floor of each component and nothing else, and the
    first one is the union of each component's first
    (:func:`least_deletion`; ``"core"`` when a component has none): the
    first of two equal-size sets is the one holding the least element of
    their difference, and components are disjoint.  One budget node is
    spent first and one per search node, and the search stops at the first
    component with no deletion.
    """
    components = core_components(rows, n, budget)
    if chi < sum(floor for *_, floor in components):
        return Impossible(decided_by="betti1")
    removed: set[int] = set()
    for component, own, m, floor in components:
        deleted = least_deletion(own, m, floor, budget)
        if deleted is None:
            return Impossible(decided_by="core")
        removed.update(map(component.__getitem__, deleted))
    return removed


def least_deletions(rows: list[Triangle], n: int, budget: Budget) -> int:
    """The least number of triangles whose deletion empties the core, for
    rows on distinct edge ids in 0..n-1, as :func:`core_components` takes
    them.

    The sum over the core components (:func:`core_components`) of each
    one's least, searched at its floor, then one more and so on
    (:func:`least_deletion`), at the latest up to its greedy size.  One
    budget node is spent first and one per search node.
    """
    deletions = 0
    for _, own, m, size in core_components(rows, n, budget):
        while least_deletion(own, m, size, budget) is None:
            size += 1
        deletions += size
    return deletions


def is_collapsible(K: Complex, budget: int | Budget | None = None):
    """Decide whether K collapses to a point (any single vertex).

    Returns a CollapseCertificate, ``NotCollapsible()`` when the peel gets
    stuck, or ``BudgetExceeded``.  One budget node is spent per step.

    Why a peel and a prune decide it, in dimension <= 2: a triangle leaves
    through a free edge (a free vertex of a triangle lies on a free edge of
    it), and by :func:`peel` the set of triangles that can ever leave is
    fixed, whatever the order.  If it is every triangle, what remains is a graph
    homotopy equivalent to K, which prunes to a point iff it is a tree, in
    any leaf order; if not, no sequence reaches a point (the edges of a
    triangle that stays are left over too, so its vertices are no leaves).
    Removing a graph edge frees no edge of a triangle, so the steps are
    those of the greedy collapse that always takes the least free face in
    ``(-len(tau), tau)`` order: every free edge, least first, then the
    leaves, least first.  A depth-first search over step sequences that
    tries steps in that order never backtracks on a collapsible input: its
    first descent is these steps, with the same node count.

    K must be connected, else ``ConnectivityError`` is raised, but that is
    checked only when there is no certificate: a collapse down to one
    vertex shows K connected, as each step keeps the homotopy type.  So a
    disconnected K spends its peel's nodes before it raises, and no
    verdict changes.
    """
    if K.dim > 2:
        raise UnsupportedDimensionError(
            f"the collapse search supports dimension <= 2, got {K.dim}")
    try:
        cert = _collapse(K, edge_rows(K.triangles, K.edges), set(), as_budget(budget))
        result = NotCollapsible() if cert is None else cert
    except OutOfBudget:
        result = BudgetExceeded(stage="collapse")
    if not isinstance(result, CollapseCertificate) and not K.is_connected():
        raise ConnectivityError("collapsibility search requires a connected complex")
    return result


def collapsible_after_removing(K: Complex, k: int,
                               budget: int | Budget | None = None):
    """Decide whether removing some k triangles leaves a collapsible complex.

    Returns the certificate, whose removed set is the first such set in
    ``combinations`` order of the sorted triangles, or ``Impossible``.

    Euler gate: a complex that collapses to a point has reduced Euler
    characteristic 0 and removing one triangle lowers it by exactly 1, so
    any feasible k equals the reduced Euler characteristic, k = b2 - b1
    over GF(2); other k are ``Impossible(decided_by="euler")`` without
    search.  K minus R collapses iff its triangles have an empty core
    (:func:`is_collapsible`: once they are gone, a connected graph with
    reduced Euler characteristic 0 is left, which is a tree), so R is
    :func:`least_removal` of k, whose ``Impossible`` is returned as it is.
    One budget node is spent first and one per search node, and then one
    per step of the collapse of K minus R.
    """
    if k < 0:
        raise ParameterError("removal count must be >= 0")
    require_pure2_connected(K, "removal search")
    if K.reduced_euler_characteristic() != k:
        return Impossible(decided_by="euler")

    budget = as_budget(budget)
    rows = edge_rows(K.triangles, K.edges)
    try:
        removed = least_removal(rows, len(K.edges), k, budget)
        if isinstance(removed, Impossible):
            return removed
        cert = _collapse(K, rows, removed, budget)
    except OutOfBudget:
        return BudgetExceeded(stage="collapse-after-removing")
    if cert is None:
        raise AssertionError("K minus R has an empty triangle core, so it collapses")
    return cert


def collapse_violation(K: Complex, cert: CollapseCertificate) -> str | None:
    """Replay the certificate; return a description of the first failure.

    Structural breakage (faces that do not belong to the subject at all,
    or removed entries that are not triangle facets of K, whose removal
    would leave no complex) raises MalformedCertificateError; an illegal
    step or a target mismatch merely makes the certificate invalid and is
    reported as a string.  One id lookup per face of the steps, then of the
    target, names the first face outside K's nonempty faces before any step
    is replayed; the empty face passes it, for the replay or the comparison
    to refuse.  The replay reads the steps' ids from that lookup.

    A step is taken inline when the free face's id t is one of the
    facet's ridges, both are left, the facet has no face above it and t
    has one, as in every step the chain and the peel emit, whose facet is
    one vertex larger than its free face.  Any other step goes to
    :meth:`_Replay.take`, which applies a legal step of higher codimension
    and words the reason for an illegal one.  Why this is exact: t in
    ridges[s] means sigma is one vertex larger and strictly holds tau (and
    t is not None, as the empty face has no id); for such a pair, strict
    containment holds iff tau is a ridge of sigma.  With the counts, that
    is exactly take's acceptance for such a step, and take then removes
    just tau and sigma, lowering the count of each of their ridges, as the
    inline branch does, one decrement per ridge.
    """
    facets = set(K.facets)
    for t in cert.removed_triangles:
        if len(t) != 3 or t not in facets:
            raise MalformedCertificateError(
                f"removed entry {K.face_name(t)} is not a triangle facet of the subject")
    faces = [*chain.from_iterable(cert.steps), *cert.target]
    at = list(map(K.face_ids().get, faces))
    if None in at:
        for n, (face, i) in enumerate(zip(faces, at)):
            if face and i is None:
                where = f"step {n // 2}" if n < 2 * len(cert.steps) else "target"
                raise MalformedCertificateError(
                    f"{where}: {K.face_name(face)} is not a face of the subject")

    replay = _Replay(K, cert.removed_triangles)
    left, up, ridges = replay.left, replay.up, replay.ridges
    pair = iter(at)
    for i, (step, t, s) in enumerate(zip(cert.steps, pair, pair)):
        if (s is not None and t in ridges[s] and left[t] and left[s]
                and not up[s] and up[t] == 1):
            left[t] = left[s] = 0
            for r in ridges[t]:
                up[r] -= 1
            for r in ridges[s]:
                up[r] -= 1
            continue
        reason = replay.take(step, t, s)
        if reason is not None:
            return f"step {i}: {reason}"

    if {(), *compress(replay.face, replay.left)} != set(
            chain.from_iterable(map(subfaces, cert.target))):
        return "final complex does not equal the certificate target"
    return None


def verify_collapse(K: Complex, cert: CollapseCertificate) -> bool:
    """True iff replaying the certificate is legal and ends at its target."""
    return collapse_violation(K, cert) is None


# -- certificate file format ---------------------------------------------------

def collapse_fields(K: Complex, cert: CollapseCertificate) -> dict:
    """The certificate as label text, for its file and the chain report."""
    texts = iter(K.face_texts(chain.from_iterable(cert.steps)))
    return {
        "removed": K.face_texts(sorted(cert.removed_triangles)),
        "steps": list(map(list, zip(texts, texts))),
        "target": K.face_texts(cert.target),
    }


def format_collapse(K: Complex, cert: CollapseCertificate) -> str:
    """"# removed:" line, one "tau -> sigma" step per line, then the target."""
    fields = collapse_fields(K, cert)
    lines = [certificate_header(COLLAPSE, K),
             f"# removed: {', '.join(fields['removed'])}".rstrip(),
             *(f"{free} -> {facet}" for free, facet in fields["steps"]),
             "# target:", *fields["target"]]
    return "\n".join(lines) + "\n"


def parse_collapse(text: str, K: Complex) -> CollapseCertificate:
    """Parse a collapse certificate file against its subject complex."""
    removed: list[Face] = []
    steps: list[CollapseStep] = []
    target: list[Face] = []
    saw_removed = in_target = False

    def read(body: str, comment: bool) -> None:
        nonlocal saw_removed, in_target
        if comment:
            if body.startswith("removed:"):
                saw_removed = True
                removed.extend(listed_faces(K, body[len("removed:"):]))
            elif body.startswith("target:"):
                in_target = True
        elif in_target:
            target.append(K.face_from_labels(body.split()))
        elif "->" not in body:
            raise MalformedCertificateError(
                f"expected 'free -> facet', got {body!r}")
        else:
            left, right = body.split("->", 1)
            steps.append(CollapseStep(K.face_from_labels(left.split()),
                                      K.face_from_labels(right.split())))

    read_certificate(text, COLLAPSE, K, read)
    if not saw_removed or not target:
        raise MalformedCertificateError(
            "certificate must contain '# removed:' and a nonempty '# target:' section")
    return CollapseCertificate(frozenset(removed), tuple(steps), tuple(sorted(set(target))))
