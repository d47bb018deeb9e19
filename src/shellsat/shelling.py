"""Shelling verification and search for pure simplicial complexes.

A shelling is an ordering of all facets such that each facet meets the
union of its predecessors in a pure codimension-1 subcomplex.  The
condition is prefix-checkable, which makes depth-first search with
safe pruning possible; the verifier is dimension-generic, the search is
exercised at dimension 2.
"""

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    SHELLING,
    Complex,
    Face,
    certificate_header,
    maximal_faces,
    read_certificate,
)
from .errors import (
    ConnectivityError,
    MalformedCertificateError,
    PurityError,
    UnsupportedDimensionError,
)
from .outcomes import Budget, BudgetExceeded, OutOfBudget, Unshellable, as_budget


@dataclass(frozen=True)
class ShellingCertificate:
    """An ordering of all facets witnessing shellability."""

    order: tuple[Face, ...]


def _proper_subfaces(facet: Face) -> list[Face]:
    return [sub for k in range(1, len(facet))
            for sub in combinations(facet, k)]


def _meets_predecessors(proper: list[Face], covered: set[Face], d: int) -> bool:
    """Check that the shared subcomplex is pure of dimension d-1.

    ``proper`` lists the nonempty proper subfaces of the candidate facet,
    ``covered`` holds every face of the predecessor union and ``d`` is the
    facet dimension.
    """
    shared = [f for f in proper if f in covered]
    if not shared:
        # The intersection is the empty-face complex, of dimension -1.
        return d == 0
    return all(len(f) == d for f in maximal_faces(shared))


def first_shelling_violation(K: Complex, cert: ShellingCertificate) -> int | None:
    """Return the 0-based index of the first facet violating the shelling
    condition, or None when the certificate is a valid shelling.

    Raises MalformedCertificateError when the order is not a permutation of
    the facet set, and PurityError for non-pure complexes.
    """
    if not K.is_pure():
        raise PurityError("shellings are defined for pure complexes only")
    order = [tuple(f) for f in cert.order]
    if sorted(order) != list(K.facets) or len(order) != len(K.facets):
        raise MalformedCertificateError(
            "certificate order is not a permutation of the facet set")
    d = K.dim
    covered: set[Face] = set()
    for i, facet in enumerate(order):
        if i > 0 and not _meets_predecessors(_proper_subfaces(facet), covered, d):
            return i
        covered.add(facet)
        covered.update(_proper_subfaces(facet))
    return None


def verify_shelling(K: Complex, cert: ShellingCertificate) -> bool:
    """True iff the certificate is a valid shelling of K."""
    return first_shelling_violation(K, cert) is None


class _Prefix:
    """A shelling prefix of a pure complex of dimension d >= 1.

    Faces get dense ids.  ``cover[s]`` counts the placed facets containing
    face ``s``, so ``push`` and ``pop`` are exact inverses and the search
    can backtrack.  ``frontier`` holds the unplaced facets that share a
    ridge (a face of dimension d-1) with the placed union, and ``key`` is
    the set of placed facets as a bitmask.
    """

    def __init__(self, K: Complex):
        d = K.dim
        self.full = (1 << (d + 1)) - 1
        position = {f: i for i, f in enumerate(K.facets)}
        ids: dict[Face, int] = {}

        def face_id(face: Face) -> int:
            return ids.setdefault(face, len(ids))

        self.subfaces: list[list[int]] = []   # nonempty proper subfaces
        self.ridges: list[list[int]] = []     # ridge j omits vertex j
        self.opposite: list[list[int]] = []   # mask -> face of the masked vertices
        self.adjacent: list[list[list[int]]] = []  # ridge j -> facets containing it
        for facet in K.facets:
            ridges = [facet[:j] + facet[j + 1:] for j in range(d + 1)]
            self.subfaces.append([face_id(f) for f in _proper_subfaces(facet)])
            self.ridges.append([face_id(r) for r in ridges])
            self.opposite.append([
                face_id(tuple(v for j, v in enumerate(facet) if mask >> j & 1))
                for mask in range(self.full)])
            self.adjacent.append([[position[g] for g in K.cofaces(r)] for r in ridges])
        self.cover = [0] * len(ids)
        self.placed = [False] * len(K.facets)
        self.order: list[int] = []
        self.frontier: set[int] = set()
        self.key = 0

    def _touches(self, i: int) -> bool:
        return any(self.cover[r] for r in self.ridges[i])

    def fits(self, i: int) -> bool:
        """The shelling condition for appending facet i, in O(1).

        Let M be the vertices of facet i opposite its shared ridges.  A
        shared face lies in the shared ridge opposite v iff it misses v, so
        every shared face lies in a shared ridge iff no shared face
        contains M; the shared faces are closed under subsets, so that holds
        iff M is the whole facet or the face M is not shared.  Hence the
        intersection is pure of dimension d-1 iff M is nonempty and one of
        those holds.  For d = 2: the triangle shares an edge, and every
        shared vertex lies on a shared edge.
        """
        mask = 0
        for j, r in enumerate(self.ridges[i]):
            if self.cover[r]:
                mask |= 1 << j
        return mask == self.full or (mask != 0 and not self.cover[self.opposite[i][mask]])

    def candidates(self) -> list[int]:
        """Frontier facets that may follow the prefix, in increasing index."""
        return [i for i in sorted(self.frontier) if self.fits(i)]

    def push(self, i: int) -> None:
        self.placed[i] = True
        self.order.append(i)
        self.key |= 1 << i
        self.frontier.discard(i)
        for s in self.subfaces[i]:
            self.cover[s] += 1
        for j, r in enumerate(self.ridges[i]):
            if self.cover[r] == 1:
                self.frontier.update(g for g in self.adjacent[i][j] if not self.placed[g])

    def pop(self) -> None:
        i = self.order.pop()
        self.placed[i] = False
        self.key ^= 1 << i
        for s in self.subfaces[i]:
            self.cover[s] -= 1
        for j, r in enumerate(self.ridges[i]):
            if self.cover[r] == 0:
                self.frontier.difference_update(
                    g for g in self.adjacent[i][j] if not self._touches(g))
        if self._touches(i):
            self.frontier.add(i)


def find_shelling(K: Complex, budget: int | Budget | None = None):
    """Search for a shelling of a pure connected complex of dimension >= 1.

    Returns the lexicographically first shelling (depth-first, candidates in
    facet order), ``Unshellable()`` after exhausting the search space, or
    ``BudgetExceeded`` once the node budget runs out.  Failed facet sets are
    memoized: extendability depends only on the set of placed facets, not
    on their order.  The memo is bounded by the budget: it gains one entry
    per stack pop, and the stack gains at most one entry per spent node, so
    it never holds more than one entry per node spent, plus one.

    Candidates after the first facet are drawn from the frontier only.  A
    facet that shares no ridge with the placed union meets it in faces of
    dimension below d-1, or not at all, so the intersection is not pure of
    dimension d-1 and a scan over all facets would skip it as well.  Trying
    the fitting frontier facets in increasing index therefore tries the
    same facets in the same order as that scan: the shelling found, the
    nodes spent and the failed sets recorded are the same.  The search
    keeps its own stack, so the depth is not bounded by Python's recursion
    limit.
    """
    if not K.is_pure():
        raise PurityError("shelling search requires a pure complex")
    if K.dim < 1:
        raise UnsupportedDimensionError("shelling search requires dimension >= 1")
    if not K.is_connected():
        raise ConnectivityError("shelling search requires a connected complex")

    budget = as_budget(budget)
    m = len(K.facets)
    prefix = _Prefix(K)
    failed: set[int] = set()
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
                stack.append(iter(prefix.candidates()))
                break
            else:
                stack.pop()
                failed.add(prefix.key)
                if prefix.order:
                    prefix.pop()
    except OutOfBudget:
        return BudgetExceeded(stage="shelling")
    return Unshellable()


# -- certificate file format -------------------------------------------------

def format_shelling(K: Complex, cert: ShellingCertificate) -> str:
    """One facet per line in shelling order, with a fingerprint header."""
    lines = [certificate_header(SHELLING, K)]
    lines.extend(" ".join(K.label_face(f)) for f in cert.order)
    return "\n".join(lines) + "\n"


def parse_shelling(text: str, K: Complex) -> ShellingCertificate:
    """Parse a shelling certificate against its subject complex.

    A "# shelling of <fingerprint>" header, when present, must match the
    subject; faces are given by vertex labels as in the ".sc" format.
    """
    order: list[Face] = []

    def read(body: str, comment: bool) -> None:
        if not comment:
            order.append(K.face_from_labels(body.split()))

    read_certificate(text, SHELLING, K, read)
    if not order:
        raise MalformedCertificateError("certificate lists no facets")
    return ShellingCertificate(tuple(order))
