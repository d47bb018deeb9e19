"""Elementary collapses, collapsibility search and k-triangle-removal decisions.

A face is free when it is contained in a single facet; the elementary
collapse removes it together with every face above it.  Certificates list
an optional set of removed triangles, the collapse steps in order, and the
target subcomplex the steps must reach.  All faces in a certificate are
expressed in the id coordinates of the subject complex.

The searches need dimension at most 2, where one greedy peel of free faces
decides collapsibility (:func:`_peel`); from dimension 3 on the problem is
NP-complete (Tancer, 2016).  Steps and certificates work in any dimension.
"""

import heapq
from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    COLLAPSE,
    Complex,
    Face,
    certificate_header,
    from_facets,
    listed_faces,
    maximal_faces,
    proper_subfaces,
    read_certificate,
)
from .errors import (
    ConnectivityError,
    MalformedCertificateError,
    NotFreeError,
    ParameterError,
    PurityError,
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


@dataclass(frozen=True)
class CollapseStep:
    free_face: Face
    facet: Face


@dataclass(frozen=True)
class CollapseCertificate:
    """Remove the listed triangles, apply the steps, arrive at the target."""

    removed_triangles: frozenset[Face]
    steps: tuple[CollapseStep, ...]
    target: Complex

    def targets_point(self) -> bool:
        return self.target.dim == 0 and self.target.n_vertices == 1


# -- replay machinery over plain face sets (empty face excluded) -------------
#
# ``faces`` is always a subset of the subject's faces and a step's free face
# is a face of the subject, so the subject's coface lists bound every scan.

def _cofacets(K: Complex, faces: set[Face], tau: Face) -> list[Face]:
    """Facets of the current complex strictly containing tau."""
    return maximal_faces([g for g in K.cofaces(tau) if g in faces])


def _step_violation(K: Complex, faces: set[Face], step: CollapseStep) -> str | None:
    """Why the step is illegal on the current face set, or None if legal."""
    tau, sigma = step.free_face, step.facet
    if not tau:
        return "the empty face cannot be collapsed"
    if tau not in faces:
        return f"free face {tau} is not a face of the current complex"
    if sigma not in faces or not set(tau) < set(sigma):
        return f"{sigma} is not a facet strictly containing {tau}"
    cofacets = _cofacets(K, faces, tau)
    if sigma not in cofacets:
        return f"{sigma} is not a facet of the current complex"
    others = [g for g in cofacets if g != sigma]
    if others:
        return f"free face {tau} is also contained in facet {min(others)}"
    return None


def _apply_step(K: Complex, faces: set[Face], step: CollapseStep) -> list[Face]:
    """Remove the free face and every face above it, in place; return them."""
    gone = [step.free_face, *(g for g in K.cofaces(step.free_face) if g in faces)]
    faces.difference_update(gone)
    return gone


def _nonempty_faces(K: Complex) -> set[Face]:
    return {f for f in K.faces if f}


def _rebuild(K: Complex, faces: set[Face]) -> Complex:
    return from_facets([K.label_face(f) for f in maximal_faces(faces)])


# -- public operations --------------------------------------------------------

def apply_collapse(K: Complex, step: CollapseStep) -> Complex:
    """Perform one elementary collapse, returning the smaller complex.

    The free face must be contained in exactly one facet, which must be the
    one named by the step; otherwise NotFreeError reports the obstruction.
    """
    faces = _nonempty_faces(K)
    reason = _step_violation(K, faces, step)
    if reason is not None:
        cofacets = _cofacets(K, faces, step.free_face) if step.free_face in faces else []
        others = [g for g in cofacets if g != step.facet]
        raise NotFreeError(reason, blocking_facet=min(others, default=None))
    _apply_step(K, faces, step)
    return _rebuild(K, faces)


def free_faces(K: Complex) -> list[CollapseStep]:
    """All currently legal collapse steps, in lexicographic face order."""
    faces = _nonempty_faces(K)
    cofacets = {tau: _cofacets(K, faces, tau) for tau in sorted(faces)}
    return [CollapseStep(tau, up[0]) for tau, up in cofacets.items() if len(up) == 1]


def _peel(K: Complex, faces: set[Face], budget: Budget) -> list[CollapseStep] | None:
    """Collapse the face set greedily toward one vertex, in place.

    Each step takes the free face first in ``(-len(tau), tau)`` order and
    spends one budget node.  Returns the steps when one vertex is left, or
    None when no face is free.  A step changes the cofacets only of proper
    subfaces of the faces it removes, so only those go back on the heap;
    a popped face that is gone or not free is dropped.

    Why a stuck peel refutes, in dimension <= 2: a triangle leaves through
    a free edge (a free vertex of a triangle lies on a free edge of it),
    and removals only lower the triangle counts of edges, so a triangle
    stays removable once it is removable and the set of triangles that
    can ever be removed is fixed, whatever the order.  If it is every
    triangle, what remains is a graph homotopy equivalent to K, which
    prunes to a point iff it is a tree, in any leaf order; if not, no
    sequence reaches a point.  So a depth-first search over step sequences
    that tries steps in this order never backtracks on a collapsible input:
    its first descent is the peel, with the same steps and node count.
    """
    heap = [(-len(f), f) for f in faces]
    heapq.heapify(heap)
    steps: list[CollapseStep] = []
    while len(faces) > 1:  # a lone nonempty face of a complex is a vertex
        cofacets: list[Face] = []
        while len(cofacets) != 1:
            if not heap:
                return None
            tau = heapq.heappop(heap)[1]
            cofacets = _cofacets(K, faces, tau) if tau in faces else []
        budget.spend()
        steps.append(CollapseStep(tau, cofacets[0]))
        removed = _apply_step(K, faces, steps[-1])
        for sub in {s for f in removed for s in proper_subfaces(f) if s in faces}:
            heapq.heappush(heap, (-len(sub), sub))
    return steps


# -- the triangle 2-core engine -------------------------------------------------
#
# Triangles are sorted vertex-id triples, and a set of triangles is a set of
# indices into one sorted list, so `combinations` over a sorted index list
# runs in lexicographic order.  The 2-core of a set is what is left after
# repeatedly deleting a triangle with an edge in no other remaining triangle:
# `_peel` restricted to triangles (a triangle leaves a 2-complex only through
# a free edge), counted on integers.  A set with an empty core is what a
# collapse removes through free edges, and, read backwards, a weak
# K3-saturation order (see `wsat.decide_wsat_eq_treesize`).

Triangle = tuple[int, int, int]


def _triangle_edges(t: Triangle) -> tuple[Face, Face, Face]:
    a, b, c = t
    return (a, b), (a, c), (b, c)


def peel_triangles(triangles: list[Triangle], alive) -> tuple[list[Face], set[int]]:
    """Peel the alive triangles, least free edge first.

    Returns the free edges in peel order and the core that is left.
    Deleting triangles only lowers the triangle counts of edges, so a
    triangle that can leave stays able to, and the core does not depend on
    the order.
    """
    holders: dict[Face, set[int]] = {}
    for t in alive:
        for e in _triangle_edges(triangles[t]):
            holders.setdefault(e, set()).add(t)
    heap = [e for e, held in holders.items() if len(held) == 1]
    heapq.heapify(heap)
    free: list[Face] = []
    while heap:
        e = heapq.heappop(heap)
        if len(holders[e]) == 1:
            (t,) = holders[e]
            free.append(e)
            for f in _triangle_edges(triangles[t]):
                holders[f].discard(t)
                if len(holders[f]) == 1:
                    heapq.heappush(heap, f)
    return free, {t for held in holders.values() for t in held}


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitsets."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def core_components(triangles: list[Triangle],
                    budget: Budget) -> list[tuple[list[int], int]]:
    """The core's components, each with the least number of its triangles
    that must be deleted to empty its core.

    Spends one budget node first, so every answer costs at least one.
    Why the core is all that needs solving: if a set S of triangles has an
    empty core, so does S with every triangle outside core(T) added, since
    the core of the union lies in core(T) and in S, and is a subset of S
    with no free triangle, hence inside core(S).  Components (triangles
    joined through shared edges) share no edge, and freeness is decided
    edge by edge, so each is solved on its own.  The floor of a component
    C is |C| - rank over GF(2) of the boundaries of C: a set with an empty
    core peels with an edge of each triangle in no later one, so its
    boundaries are independent and at most rank(C) triangles of C stay.
    """
    budget.spend()
    _, core = peel_triangles(triangles, range(len(triangles)))
    holders: dict[Face, list[int]] = {}
    for t in core:
        for e in _triangle_edges(triangles[t]):
            holders.setdefault(e, []).append(t)
    components: list[tuple[list[int], int]] = []
    seen: set[int] = set()
    for start in sorted(core):
        if start in seen:
            continue
        seen.add(start)
        component, stack = [], [start]
        while stack:
            t = stack.pop()
            component.append(t)
            for e in _triangle_edges(triangles[t]):
                fresh = [s for s in holders[e] if s not in seen]
                seen.update(fresh)
                stack.extend(fresh)
        component.sort()
        bit: dict[Face, int] = {}
        rank = _gf2_rank(sum(bit.setdefault(e, 1 << len(bit))
                             for e in _triangle_edges(triangles[t]))
                         for t in component)
        components.append((component, len(component) - rank))
    return components


def least_deletion(triangles: list[Triangle], component: list[int], floor: int,
                   budget: Budget, at_floor: bool = False) -> tuple[int, ...] | None:
    """The first, in ``combinations`` order, of the least sets of a core
    component's triangles whose deletion empties its core.

    Greedy first: delete the least triangle left in the core and peel
    again, until the core is empty (deleting a triangle outside the core
    leaves the core as it is, so each step peels only what is left of it).
    A greedy set of ``floor`` triangles is the answer, and nothing is
    searched.  Otherwise the sizes from the floor up to one below the
    greedy count are tried, each subset in ``combinations`` order for one
    budget node.  Deleting more triangles keeps the core empty, so the
    first size that works is the least; if none does, the greedy set is.
    With ``at_floor`` only the floor is tried, and None means it cannot be
    met.

    Why a greedy set of the least size is the first one: take the first
    least set D and the greedy set G, equal below some triangle.  The next
    triangle of D lies in the core that the shared part leaves, or D without
    it would still empty the core, and it is no greater than the next of G,
    the least triangle of that core; so the two are equal.
    """
    greedy: list[int] = []
    core = set(component)
    while core:
        greedy.append(min(core))
        core = peel_triangles(triangles, core - {greedy[-1]})[1]
    if len(greedy) == floor:
        return tuple(greedy)
    for size in range(floor, floor + 1 if at_floor else len(greedy)):
        for deleted in combinations(component, size):
            budget.spend()
            if not peel_triangles(triangles, set(component).difference(deleted))[1]:
                return deleted
    return None if at_floor else tuple(greedy)


def is_collapsible(K: Complex, budget: int | Budget | None = None):
    """Decide whether K collapses to a point (any single vertex).

    Returns a CollapseCertificate, ``NotCollapsible()`` when the greedy
    peel gets stuck (see :func:`_peel`), or ``BudgetExceeded``.
    """
    if K.dim > 2:
        raise UnsupportedDimensionError(
            f"the collapse search supports dimension <= 2, got {K.dim}")
    if not K.is_connected():
        raise ConnectivityError("collapsibility search requires a connected complex")
    faces = _nonempty_faces(K)
    try:
        steps = _peel(K, faces, as_budget(budget))
    except OutOfBudget:
        return BudgetExceeded(stage="collapse")
    if steps is None:
        return NotCollapsible()
    return CollapseCertificate(frozenset(), tuple(steps), _rebuild(K, faces))


def collapsible_after_removing(K: Complex, k: int,
                               budget: int | Budget | None = None):
    """Decide whether removing some k triangles leaves a collapsible complex.

    Returns the removed set with its certificate, the first such set in
    ``combinations`` order of the sorted triangles, or ``Impossible()``.

    Euler gate: a complex that collapses to a point has reduced Euler
    characteristic 0 and removing one triangle lowers it by exactly 1, so
    any feasible k equals the reduced Euler characteristic, k = b2 - b1
    over GF(2); other k are Impossible without search.  K minus R collapses
    iff its triangles have an empty core (:func:`_peel`: once they are
    gone, a connected graph with reduced Euler characteristic 0 is left,
    which is a tree).  By :func:`core_components` that needs at least the
    floor of each core component inside R, and the floors sum to b2.  So
    k < b2 (b1 != 0) is Impossible without search; otherwise R holds exactly
    the floor of each component and nothing else, and the first R in
    ``combinations`` order is the union of each component's first
    (:func:`least_deletion`): the first of two equal-size sets is the one
    holding the least element of their difference, and components are
    disjoint.  One budget node is spent first and one per subset tried,
    and then one per step of the single peel of K minus R.
    """
    if k < 0:
        raise ParameterError("removal count must be >= 0")
    if K.dim != 2 or not K.is_pure():
        raise PurityError("removal search requires a pure 2-dimensional complex")
    if not K.is_connected():
        raise ConnectivityError("removal search requires a connected complex")
    if K.reduced_euler_characteristic() != k:
        return Impossible()

    budget = as_budget(budget)
    triangles = K.triangles
    removed: list[Face] = []
    try:
        components = core_components(triangles, budget)
        if k < sum(floor for _, floor in components):
            return Impossible()
        for component, floor in components:
            deleted = least_deletion(triangles, component, floor, budget, at_floor=True)
            if deleted is None:
                return Impossible()
            removed.extend(triangles[t] for t in deleted)
        faces = _nonempty_faces(K).difference(removed)
        steps = _peel(K, faces, budget)
    except OutOfBudget:
        return BudgetExceeded(stage="collapse-after-removing")
    if steps is None:
        raise AssertionError("K minus R has an empty triangle core, so it collapses")
    cert = CollapseCertificate(frozenset(removed), tuple(steps), _rebuild(K, faces))
    return frozenset(removed), cert


def collapse_violation(K: Complex, cert: CollapseCertificate) -> str | None:
    """Replay the certificate; return a description of the first failure.

    Structural breakage (faces that do not belong to the subject at all,
    or removed entries that are not triangles of K) raises
    MalformedCertificateError; an illegal step or a target mismatch merely
    makes the certificate invalid and is reported as a string.
    """
    for t in cert.removed_triangles:
        if t not in K.faces or len(t) != 3:
            raise MalformedCertificateError(
                f"removed entry {t} is not a triangle of the subject")
    for i, step in enumerate(cert.steps):
        for face in (step.free_face, step.facet):
            if face not in K.faces:
                raise MalformedCertificateError(
                    f"step {i}: {face} is not a face of the subject")

    faces = _nonempty_faces(K) - set(cert.removed_triangles)
    for i, step in enumerate(cert.steps):
        reason = _step_violation(K, faces, step)
        if reason is not None:
            return f"step {i}: {reason}"
        _apply_step(K, faces, step)

    reached = {K.label_face(f) for f in faces}
    expected = {cert.target.label_face(f) for f in cert.target.faces if f}
    if reached != expected:
        return "final complex does not equal the certificate target"
    return None


def verify_collapse(K: Complex, cert: CollapseCertificate) -> bool:
    """True iff replaying the certificate is legal and ends at its target."""
    return collapse_violation(K, cert) is None


# -- certificate file format ---------------------------------------------------

def format_collapse(K: Complex, cert: CollapseCertificate) -> str:
    """"# removed:" line, one "tau -> sigma" step per line, then the target."""
    def face_text(face: Face) -> str:
        return " ".join(K.label_face(face))

    lines = [certificate_header(COLLAPSE, K)]
    removed = ", ".join(face_text(t) for t in sorted(cert.removed_triangles))
    lines.append(f"# removed: {removed}".rstrip())
    for step in cert.steps:
        lines.append(f"{face_text(step.free_face)} -> {face_text(step.facet)}")
    lines.append("# target:")
    for facet in cert.target.facets:
        lines.append(" ".join(cert.target.label_face(facet)))
    return "\n".join(lines) + "\n"


def parse_collapse(text: str, K: Complex) -> CollapseCertificate:
    """Parse a collapse certificate file against its subject complex."""
    removed: list[Face] = []
    steps: list[CollapseStep] = []
    target_lines: list[str] = []
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
            target_lines.append(body)
        elif "->" not in body:
            raise MalformedCertificateError(
                f"expected 'free -> facet', got {body!r}")
        else:
            left, right = body.split("->", 1)
            steps.append(CollapseStep(K.face_from_labels(left.split()),
                                      K.face_from_labels(right.split())))

    read_certificate(text, COLLAPSE, K, read)
    if not saw_removed or not in_target or not target_lines:
        raise MalformedCertificateError(
            "certificate must contain '# removed:' and a nonempty '# target:' section")
    target = from_facets(target_lines)
    return CollapseCertificate(frozenset(removed), tuple(steps), target)
