"""Elementary collapses, collapsibility search and k-triangle-removal decisions.

A face is free when it is contained in a single facet; the elementary
collapse removes it together with every face above it.  Certificates list
an optional set of removed triangles, the collapse steps in order, and the
target subcomplex the steps must reach.  All faces in a certificate are
expressed in the id coordinates of the subject complex.
"""

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
    read_certificate,
)
from .errors import (
    ConnectivityError,
    MalformedCertificateError,
    NotFreeError,
    ParameterError,
    PurityError,
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


def _apply_step(K: Complex, faces: set[Face], step: CollapseStep) -> None:
    """Remove the free face and every face above it, in place."""
    faces.discard(step.free_face)
    faces.difference_update(K.cofaces(step.free_face))


def _nonempty_faces(K: Complex) -> set[Face]:
    return {f for f in K.faces if f}


def _legal_steps(K: Complex, faces: set[Face]) -> list[CollapseStep]:
    steps = []
    for tau in faces:
        cofacets = _cofacets(K, faces, tau)
        if len(cofacets) == 1:
            steps.append(CollapseStep(tau, cofacets[0]))
    return steps


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
        blocking = None
        cofacets = _cofacets(K, faces, step.free_face) if step.free_face in faces else []
        others = [g for g in cofacets if g != step.facet]
        if others:
            blocking = min(others)
        raise NotFreeError(reason, blocking_facet=blocking)
    _apply_step(K, faces, step)
    return _rebuild(K, faces)


def free_faces(K: Complex) -> list[CollapseStep]:
    """All currently legal collapse steps, in lexicographic face order."""
    return sorted(_legal_steps(K, _nonempty_faces(K)),
                  key=lambda s: (s.free_face, s.facet))


def _search_order(K: Complex, faces: set[Face]) -> list[CollapseStep]:
    # Greedy preference: highest-dimensional free face first, lex within.
    return sorted(_legal_steps(K, faces),
                  key=lambda s: (-len(s.free_face), s.free_face, s.facet))


def _collapse_to_point(K: Complex, faces: set[Face], steps: list[CollapseStep],
                       visited: set[frozenset[Face]], budget: Budget) -> bool:
    """Depth-first search for a collapse to a single vertex, extending steps.

    Dead complexes are memoized in ``visited``: collapsibility depends only
    on the current face set, so every route into a known-dead state prunes.
    """
    if len(faces) == 1 and all(len(f) == 1 for f in faces):
        return True
    key = frozenset(faces)
    if key in visited:
        return False
    for step in _search_order(K, faces):
        budget.spend()
        steps.append(step)
        child = set(faces)
        _apply_step(K, child, step)
        if _collapse_to_point(K, child, steps, visited, budget):
            return True
        steps.pop()
    visited.add(key)
    return False


def is_collapsible(K: Complex, budget: int | Budget | None = None):
    """Decide whether K collapses to a point (any single vertex).

    Returns a CollapseCertificate, ``NotCollapsible()`` after exhausting all
    collapse sequences (with dead-state memoization), or ``BudgetExceeded``.
    """
    if not K.is_connected():
        raise ConnectivityError("collapsibility search requires a connected complex")
    budget = as_budget(budget)
    faces = _nonempty_faces(K)
    steps: list[CollapseStep] = []
    try:
        found = _collapse_to_point(K, faces, steps, set(), budget)
    except OutOfBudget:
        return BudgetExceeded(stage="collapse")
    if not found:
        return NotCollapsible()
    for step in steps:
        _apply_step(K, faces, step)
    target = _rebuild(K, faces)
    return CollapseCertificate(frozenset(), tuple(steps), target)


def collapsible_after_removing(K: Complex, k: int,
                               budget: int | Budget | None = None):
    """Decide whether removing some k triangles leaves a collapsible complex.

    Euler gate: a complex that collapses to a point has reduced Euler
    characteristic 0 and removing one triangle lowers it by exactly 1, so
    any feasible k equals the reduced Euler characteristic; other k are
    Impossible without search.  Triangle subsets are tried in lexicographic
    order; dead-state memoization is shared across subsets.
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
    visited: set[frozenset[Face]] = set()
    for removed in combinations(K.triangles, k):
        faces = all_faces - set(removed)
        steps: list[CollapseStep] = []
        try:
            found = _collapse_to_point(K, faces, steps, visited, budget)
        except OutOfBudget:
            return BudgetExceeded(stage="collapse-after-removing")
        if found:
            for step in steps:
                _apply_step(K, faces, step)
            target = _rebuild(K, faces)
            cert = CollapseCertificate(frozenset(removed), tuple(steps), target)
            return frozenset(removed), cert
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
