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

    Euler gate: a complex that collapses to a point has reduced Euler
    characteristic 0 and removing one triangle lowers it by exactly 1, so
    any feasible k equals the reduced Euler characteristic; other k are
    Impossible without search.  Triangle subsets are tried in lexicographic
    order, each with its own greedy peel.
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
    all_faces = _nonempty_faces(K)
    try:
        for removed in combinations(K.triangles, k):
            faces = all_faces - set(removed)
            steps = _peel(K, faces, budget)
            if steps is not None:
                cert = CollapseCertificate(frozenset(removed), tuple(steps),
                                           _rebuild(K, faces))
                return frozenset(removed), cert
    except OutOfBudget:
        return BudgetExceeded(stage="collapse-after-removing")
    return Impossible()


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
