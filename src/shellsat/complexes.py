"""Finite simplicial complexes over dense integer vertex ids.

A complex is the downward closure of its facets; one largest-first sweep
over the listed faces builds both, keeping each face once, in the set of
its size that face listings, counts, checks and skeletons read.  A skeleton
and a spanning subgraph (:func:`spanning_subgraph`) share their parent's
sets and sweep nothing.  The shelling, collapse and subdivision code read
one kept numbering of its faces.
Every label is a vertex, and vertex ids follow sorted label order, so
complexes built from the same label faces are identical, serialize to the
same bytes and share one fingerprint.  Faces are strictly increasing id
tuples; the empty face ``()`` is always present.  Labels are read only by
:func:`from_facets`, ".sc" parsing (each distinct label checked once) and
:meth:`Complex.face_from_labels`, and written only by ``to_sc`` and the formatters.

Complexes are immutable after construction and safe to share between
threads.  Supported dimensions are 0 <= dim <= 3: complexes of dimension 3
parse, subdivide (a barycentric subdivision keeps the dimension), go
through the dimension-generic shelling verifier and the shelling search,
and take collapse steps and their verifier; the collapse search, flagness,
weak saturation and the certificate pipeline need dimension at most 2.
The certificate files of the three deciders extend the ".sc" format; their
shared skeleton is at the end.
"""

import hashlib
import re
from bisect import bisect_left
from functools import cache
from itertools import chain, combinations, compress, count, permutations, repeat
from math import comb
from operator import add, itemgetter, lt, ne
from typing import Callable, Collection, Iterable, Sequence

from .errors import (
    ConnectivityError,
    EmptyComplexError,
    MalformedCertificateError,
    MalformedFaceError,
    NotAFaceError,
    ParseError,
    PurityError,
    ShellsatError,
    UnsupportedDimensionError,
)

Face = tuple[int, ...]

MAX_DIMENSION = 3

_LABEL = r"[A-Za-z0-9_{}|.\-]+"
LABEL_RE = re.compile(rf"{_LABEL}\Z")
_LABELS_RE = re.compile(rf"{_LABEL}(?: {_LABEL})*\Z")

SHELLING, COLLAPSE, SATURATION = "shelling", "collapse", "saturation"


def _labels_ok(labels: Collection[str]) -> bool:
    """True iff each of the (one or more) labels matches ``LABEL_RE``, in
    one regex pass: when the labels joined by spaces hold just the joining
    spaces, the pieces between them are the labels, and ``_LABELS_RE``
    matches iff each piece matches ``LABEL_RE``."""
    text = " ".join(labels)
    return text.count(" ") == len(labels) - 1 and _LABELS_RE.match(text) is not None


def subfaces(face: Face) -> Iterable[Face]:
    """All subsets of a face, the empty face and the face itself included."""
    return chain.from_iterable(combinations(face, k) for k in range(len(face) + 1))


def is_connected_graph(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges join the vertices 0..n-1 into one component.

    Union-find with path halving, ``find`` written out for both ends; the
    edges may come in any order.  In ``parent[u] = u = parent[parent[u]]``
    the targets are assigned left to right, so the old u gets its
    grandparent as parent before u moves there.
    """
    parent = list(range(n))
    components = n
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
    return components == 1


def clique_triangles(n: int,
                     edges: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The 3-cliques of a graph on 0..n-1 as sorted id triples, in sorted order.

    The edges are increasing id pairs, in any order.
    """
    edges = sorted(edges)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return [(u, v, w) for u, v in edges
            for w in sorted(adjacency[u] & adjacency[v]) if w > v]


@cache
def subface_slots(size: int) -> tuple:
    """For facets of ``size`` vertices, the slot in every row of
    :meth:`Complex.facet_rows` of the subface on the vertex positions in
    each bitmask; the full mask's slot is one past the row's end."""
    slot: list = [None] * (1 << size)
    for n, positions in enumerate(p for k in range(1, size + 1)
                                  for p in combinations(range(size), k)):
        slot[sum(1 << j for j in positions)] = n
    return tuple(slot)


@cache
def _chain_slots(size: int) -> Callable[[tuple], tuple]:
    """For facets of ``size`` vertices, the getter that lists, from a row of
    :meth:`Complex.facet_rows` followed by the facet's own id, the ids of
    each maximal chain: one chain per vertex order, its prefixes in turn,
    each found by :func:`subface_slots`."""
    slot = subface_slots(size)
    picks = [slot[sum(1 << j for j in order[:k])]
             for order in permutations(range(size)) for k in range(1, size + 1)]
    return itemgetter(*picks) if size > 1 else tuple


class Complex:
    """Immutable simplicial complex, read from labels by :func:`from_facets`;
    :meth:`induced`, :meth:`skeleton`, :meth:`barycentric_subdivision` and
    :func:`spanning_subgraph` derive on ids."""

    __slots__ = ("labels", "facets", "dim", "_by_size", "_kept")

    def __init__(self, labels: Sequence[str], id_faces: Iterable[Face]):
        """The closure of id_faces (increasing tuples of label ids) on sorted
        labels, each of which must be a vertex of a listed face.  Labels
        not strictly increasing raise, naming the first pair out of order:
        the ids, the ".sc" text and the fingerprint assume that order.

        One sweep over the distinct nonempty faces, largest size first: the
        faces of a size not yet in the closure are facets, and add their
        subfaces to the set of each smaller size.  Distinct faces of one
        size never contain each other, so a face not covered by a larger
        listed face is maximal.  The empty face is in the size-0 set from
        the start, so it is never a facet beside a nonempty face; the
        facets of a size enter whole, their vertex ids once each, as
        integers.  ``dim`` is one less than the largest size.  Each face
        is held once, in the set of its size.  The vertex ids must be
        0..len(labels)-1, or the least id outside, else the first label in
        no face, raises (with no nonempty face listed, the sweep finds none).
        """
        if not labels:
            raise EmptyComplexError("a complex must have at least one vertex")
        labels = tuple(labels)
        if not all(map(lt, labels, labels[1:])):
            a, b = next(p for p in zip(labels, labels[1:]) if p[0] >= p[1])
            raise MalformedFaceError(f"labels must be strictly increasing: {a!r} then {b!r}")
        listed = set(id_faces)
        sizes = sorted(set(map(len, listed)) - {0}, reverse=True) or [1]
        self.dim = dim = sizes[0] - 1
        self._by_size = by_size = [{()}] + [set() for _ in range(dim + 1)]
        facets: list[Face] = []
        vertices: set[int] = set()
        for size in sizes:
            fresh = [f for f in listed if len(f) == size and f not in by_size[size]]
            facets += fresh
            by_size[size].update(fresh)
            vertices |= (new := set(chain.from_iterable(fresh)))
            by_size[1].update(zip(new))  # the vertices, once each
            for k in range(2, size):
                by_size[k].update(chain.from_iterable(map(combinations, fresh, repeat(k))))
        ids = range(len(labels))
        if len(vertices) != len(ids) or min(vertices) < 0 or max(vertices) >= len(ids):
            v = min(vertices.symmetric_difference(ids), key=lambda v: (v in ids, v))
            raise NotAFaceError(f"label {labels[v]!r} is in no face" if v in ids
                                else f"vertex id {v} names no label")
        self.labels = labels
        self.facets = tuple(sorted(facets))
        self._kept: dict = {}

    # -- basic structure ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def label_face(self, face: Face) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in face)

    def face_name(self, face: Face) -> str:
        """The face quoted in labels, for a failure message: 'a b c'.  An id
        naming no vertex (only a hand-built certificate has one) shows as
        #id, which no label can be."""
        n = self.n_vertices
        return repr(" ".join([self.labels[v] if 0 <= v < n else f"#{v}" for v in face]))

    def face_texts(self, faces: Iterable[Face]) -> list[str]:
        """Each face as certificates and ".sc" lines write it: "a b c".
        A triangle and an edge are each one f-string of their labels, which
        builds no label tuple, and a vertex is its bare label; any other
        size (the empty face, a tetrahedron) joins a label list.  Every
        label the parser and the builders make is an exact ``str``, whose
        f-string field is the label itself, so the text is byte for byte
        the ``" ".join`` of the labels."""
        L = self.labels
        return [f"{L[f[0]]} {L[f[1]]} {L[f[2]]}" if len(f) == 3
                else f"{L[f[0]]} {L[f[1]]}" if len(f) == 2
                else L[f[0]] if len(f) == 1
                else " ".join([L[v] for v in f])
                for f in faces]

    def face_from_labels(self, labels: Sequence[str]) -> Face:
        """Translate a label sequence to the id face it names, sorted.

        Ids follow sorted label order, so labels are found by bisection.
        """
        ids = []
        for lab in labels:
            v = bisect_left(self.labels, lab)
            if v == len(self.labels) or self.labels[v] != lab:
                raise NotAFaceError(f"unknown vertex label {lab!r}")
            ids.append(v)
        return tuple(sorted(ids))

    def _keep(self, key, compute: Callable[[], object]):
        """The answer kept under key, from compute() on the first ask: the
        certificate chain asks one subject the same questions at each stage.
        The complex is immutable, so a kept answer never goes stale, and
        threads racing on a first ask compute equal answers."""
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        """The faces of dimension k sorted, from the sweep's set on the first
        ask and then kept: ``((),)`` for k = -1, and none outside -1..dim."""
        if not -1 <= k <= self.dim:
            return ()
        return self._keep(("faces", k), lambda: tuple(sorted(self._by_size[k + 1])))

    def face_set(self, k: int) -> frozenset[Face]:
        """The faces of dimension k as a read-only set, for membership and
        set algebra: the sweep's set, frozen on the first ask and then
        kept (no copy when it is frozen already), and empty outside -1..dim."""
        if not -1 <= k <= self.dim:
            return frozenset()
        return self._keep(("face set", k), lambda: frozenset(self._by_size[k + 1]))

    def face_ids(self) -> dict[Face, int]:
        """The dense id of each nonempty face, kept, listed in id order: by
        size, smallest first.  Every label is a vertex, so vertex ``(v,)``
        takes id ``v``, and each larger size takes the ids after the
        smaller ones, in its sweep set's order.  No id reaches output."""
        return self._keep("face ids", lambda: dict(zip(
            chain(zip(range(self.n_vertices)), *self._by_size[2:]), count())))

    def facet_rows(self) -> tuple[tuple[int, ...], ...]:
        """For each facet, the :meth:`face_ids` of its nonempty proper
        subfaces in ``combinations`` order, kept.  Vertex ``(v,)`` has id
        ``v``, so a row's vertex slots are the facet tuple itself, and a row
        of a facet of two or more vertices begins with the facet.  Per facet
        size, one ``combinations`` column of ids per subface size of two or
        more is zipped back per facet, after the facet."""
        return self._keep("facet rows", self._rows)

    def _rows(self) -> tuple[tuple[int, ...], ...]:
        ids, rows = self.face_ids(), {}
        for size in set(map(len, self.facets)):
            facets = [f for f in self.facets if len(f) == size]
            sized: Iterable[tuple[int, ...]] = facets if size > 1 else [()] * len(facets)
            for k in range(2, size):
                column = map(ids.__getitem__, chain.from_iterable(
                    map(combinations, facets, repeat(k))))
                sized = map(add, sized, zip(*[column] * comb(size, k)))
            rows[size] = iter(sized)
        return tuple(map(next, map(rows.__getitem__, map(len, self.facets))))

    @property
    def edges(self) -> tuple[Face, ...]:
        return self.faces_of_dim(1)

    @property
    def triangles(self) -> tuple[Face, ...]:
        return self.faces_of_dim(2)

    # -- equality / hashing / fingerprint ----------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.labels == other.labels and self.facets == other.facets

    def __hash__(self) -> int:
        return self._keep("hash", lambda: hash((self.labels, self.facets)))

    def __repr__(self) -> str:
        parts = self.face_texts(self.facets[:4])
        more = ", ..." if len(self.facets) > 4 else ""
        return f"Complex({', '.join(parts)}{more})"

    @property
    def fingerprint(self) -> str:
        """Stable digest of the sorted facet list, usable as a table key."""
        return self._keep("fingerprint", lambda: hashlib.sha256(
            self.to_sc().encode("utf-8")).hexdigest()[:16])

    # -- counting ----------------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_dim); f_-1 = 1 for the empty face."""
        return tuple(map(len, self._by_size))

    def reduced_euler_characteristic(self) -> int:
        """Alternating face-count sum, the empty face contributing -1."""
        return sum(n if size % 2 else -n for size, n in enumerate(self.f_vector()))

    # -- predicates ----------------------------------------------------------

    def is_pure(self) -> bool:
        """True when all facets share one dimension."""
        return self._keep("pure", lambda: len(set(map(len, self.facets))) == 1)

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (single vertices count as components),
        read from the sweep's set of edges."""
        return self._keep("connected", lambda: is_connected_graph(
            self.n_vertices, self._by_size[2] if self.dim > 0 else ()))

    def is_flag2(self) -> bool:
        """True iff every 3-clique of the 1-skeleton spans a triangle.

        Each triangle is a 3-clique, so it is iff their counts match; the
        triangles are counted from the sweep's set, not listed.  Only
        defined up to dimension 2; higher dimensions raise.
        """
        if self.dim > 2:
            raise UnsupportedDimensionError(
                f"flagness check supports dimension <= 2, got {self.dim}")
        return self._keep("flag", lambda: len(
            clique_triangles(self.n_vertices, self.edges)) == sum(self.f_vector()[3:]))

    # -- derived complexes ---------------------------------------------------

    def skeleton(self, k: int) -> "Complex":
        """The subcomplex of faces of dimension at most k.

        Built once per k and kept, like the fingerprint: the certificate
        chain asks for the same 1-skeleton at every stage.  Every label is
        a vertex, and every vertex is in the skeleton, so the vertices need
        no renumbering and no face is swept again: the skeleton shares this
        complex's sets of sizes 0..k+1, which nothing changes after
        ``__init__``, and keeps the invariant.  Its facets are the faces of
        size k+1 and this complex's facets of size at most k.  A face of
        size k+1 has no larger face in the skeleton.  A smaller face inside
        a larger face of this complex lies in one of its own size plus one,
        at most k+1, so it is a facet of the skeleton iff it is one here.
        The sorted faces of size k+1 it is built from are kept as its own
        ``faces_of_dim(k)``.
        """
        if k < 0:
            raise UnsupportedDimensionError("skeleton dimension must be >= 0")
        return self._keep(("skeleton", k), lambda: self._skeleton(k))

    def _skeleton(self, k: int) -> "Complex":
        top, lower = self.faces_of_dim(k), [f for f in self.facets if len(f) <= k]
        return _assemble(self.labels, self._by_size[:k + 2],
                         tuple(sorted(top + tuple(lower))) if lower else top,
                         {("faces", k): top})

    def induced(self, faces: Iterable[Face]) -> "Complex":
        """The subcomplex closing the listed faces, on the vertices they use,
        renumbered in order: labels stay sorted, so it equals the complex
        built from labels, and each of its labels is a vertex.  One C-level
        pass checks the listed faces against the nonempty faces of each
        size; the first listed face in none of them, ``()`` included,
        raises."""
        listed = list(map(tuple, faces))
        missing = set(listed).difference(*self._by_size[1:])
        if missing:
            bad = next(filter(missing.__contains__, listed))
            raise NotAFaceError(f"{bad} is not a nonempty face of the complex")
        kept = sorted(set(chain.from_iterable(listed)))
        new = {v: i for i, v in enumerate(kept)}
        return Complex([self.labels[v] for v in kept],
                       [tuple(new[v] for v in f) for f in listed])

    def barycentric_subdivision(self) -> "Complex":
        """The complex of chains of nonempty faces.

        New vertex labels serialize the original face: the face with labels
        a, b becomes "{a|b}".  Facets are the maximal chains, one per
        (facet, vertex order) pair of the original complex.  Two faces
        that serialize alike (the edge "a b", the vertex "a|b") raise.
        Built once and kept, with the vertex id of each face for
        :meth:`barycenters`.

        The result is flag, and keeps that answer for :meth:`is_flag2` when
        its dimension is at most 2: its vertices are faces, and two are
        adjacent iff they are comparable.  Pairwise adjacent vertices are
        pairwise comparable faces, which form a chain, and every chain of
        faces lies in a maximal one, so it is a face.

        It also keeps this complex's answers for :meth:`is_pure` and
        :meth:`is_connected`.  A maximal chain runs from a vertex up to a
        facet, one face of each size, so it has as many faces as that
        facet has vertices: the facet sizes are this complex's.  And the
        subdivision is homeomorphic to this complex, so it is connected iff
        this complex is.
        """
        return self._keep("subdivision", self._subdivide)[0]

    def barycenters(self) -> dict[Face, int]:
        """The vertex id in :meth:`barycentric_subdivision` of each nonempty
        face: a facet of the subdivision is the sorted ids of a chain."""
        return self._keep("subdivision", self._subdivide)[1]

    def _subdivide(self) -> tuple["Complex", dict[Face, int]]:
        """The subdivision and the barycentre ids, in C-level passes per
        size.  The vertex names of the faces of size k are one column of
        labels, k per face, joined.  When two faces share a name, the
        (name, face) columns are sorted, and the least shared name is
        raised with its two least faces.
        :func:`_chain_slots` picks the chains of each facet from its row of
        :meth:`facet_rows` with the facet's own id appended, at the slot of
        the full mask, and each face id on them maps to the barycentre id
        of its face."""
        faces: list[Face] = []
        names: list[str] = []
        for k, sized in enumerate(map(list, self._by_size[1:]), start=1):
            faces += sized
            names += map("{%s}".__mod__, map("|".join, zip(
                *[map(self.labels.__getitem__, chain.from_iterable(sized))] * k)))
        named = dict(zip(names, faces))
        if len(named) < len(faces):
            pairs = sorted(zip(names, faces))
            (name, a), (_, b) = next((x, y) for x, y in zip(pairs, pairs[1:]) if x[0] == y[0])
            raise ShellsatError(f"faces {self.face_name(a)} and {self.face_name(b)} "
                                f"both subdivide to vertex {name!r}")
        labels = sorted(named)
        vertex = dict(zip(map(named.__getitem__, labels), count()))
        ids, rows = self.face_ids(), self.facet_rows()
        barycentre = list(map(vertex.__getitem__, ids))
        chains: list[Face] = []
        for size in set(map(len, self.facets)):
            mine = [len(f) == size for f in self.facets]
            full = map(add, compress(rows, mine), zip(map(ids.__getitem__, compress(
                self.facets, mine))))
            flat = map(barycentre.__getitem__, chain.from_iterable(
                map(_chain_slots(size), full)))
            chains += map(tuple, map(sorted, zip(*[flat] * size)))
        sd = Complex(labels, chains)
        sd._kept.update(pure=self.is_pure(), connected=self.is_connected())
        if sd.dim <= 2:
            sd._kept["flag"] = True
        return sd, vertex

    # -- serialization -------------------------------------------------------

    def to_sc(self) -> str:
        """Serialize to the ".sc" text format: one facet per line, sorted.
        Each label is checked once; the first bad one in facet order raises."""
        if not _labels_ok(self.labels):
            bad = {lab for lab in self.labels if not LABEL_RE.match(lab)}
            first = next((lab for f in self.facets for lab in self.label_face(f)
                          if lab in bad), None)
            if first is not None:
                raise ShellsatError(f"label {first!r} is not serializable")
        return "\n".join(self.face_texts(self.facets)) + "\n"


def _assemble(labels: tuple[str, ...], by_size: list, facets: tuple[Face, ...],
              kept: dict) -> Complex:
    """The complex of parts that already keep the invariant, with no sweep:
    sorted labels, each a vertex; the faces of each size, closed downward,
    ``by_size[0]`` holding ``()``; the sorted facets; and answers to keep."""
    K = object.__new__(Complex)
    K.labels, K._by_size, K.dim = labels, by_size, len(by_size) - 2
    K.facets, K._kept = facets, kept
    return K


def spanning_subgraph(F: Complex, edges: Iterable[Face]) -> Complex:
    """The graph of the distinct edges (increasing id pairs) on all of F's
    vertices, built on F's ids like a skeleton, with no sweep.

    It shares F's labels and vertex set, holds the edges as a frozen set
    (read by :meth:`Complex.face_set` without a copy), lists as facets its
    edges and the vertices no edge covers, and keeps its sorted edges as
    ``faces_of_dim(1)``.  The edges are not checked against F's: a parsed
    start edge outside F is the verifier's to report.  An id outside
    0..n-1 raises, naming the least one, as the constructor does.
    """
    edge_set = frozenset(edges)
    n = F.n_vertices
    covered = set(chain.from_iterable(edge_set))
    if covered and (min(covered) < 0 or max(covered) >= n):
        v = min(covered.difference(range(n)))
        raise NotAFaceError(f"vertex id {v} names no label")
    top = tuple(sorted(edge_set))
    if not top:
        return _assemble(F.labels, F._by_size[:2], tuple(zip(range(n))), {})
    isolated = tuple((v,) for v in range(n) if v not in covered) if len(covered) < n else ()
    return _assemble(F.labels, [*F._by_size[:2], edge_set],
                     tuple(sorted(top + isolated)) if isolated else top, {("faces", 1): top})


def require_pure2_connected(K: Complex, what: str) -> None:
    """Raise unless K is pure of dimension 2 and connected; what names the caller."""
    if K.dim != 2 or not K.is_pure():
        raise PurityError(f"{what} requires a pure 2-dimensional complex")
    if not K.is_connected():
        raise ConnectivityError(f"{what} requires a connected complex")


def _build(label_faces: list[Sequence[str]]) -> tuple[Complex, list[Face]]:
    """The Complex of valid label faces, and the id face of each: labels -> ids."""
    labels = sorted(set(chain.from_iterable(label_faces)))
    index = dict(zip(labels, count()))
    id_faces = list(map(tuple, map(sorted, map(map, repeat(index.__getitem__), label_faces))))
    return Complex(labels, id_faces), id_faces


def from_facets(facets: Iterable[str | Sequence[str]]) -> Complex:
    """Build a complex from facet descriptions.

    Each facet is either a whitespace-separated label string ("a b c") or a
    sequence of labels.  Listed faces that are subsets of other listed faces
    are absorbed into the closure and not kept as facets.
    """
    label_faces = []
    for face in facets:
        labels = tuple(face.split()) if isinstance(face, str) else tuple(face)
        if not labels:
            raise MalformedFaceError("faces must be nonempty")
        if len(set(labels)) != len(labels):
            raise MalformedFaceError(
                f"face {' '.join(labels)!r} repeats a vertex")
        if len(labels) > MAX_DIMENSION + 1:
            raise UnsupportedDimensionError(
                f"face {' '.join(labels)!r} has dimension {len(labels) - 1}; "
                f"the supported maximum is {MAX_DIMENSION}")
        label_faces.append(labels)
    return _build(label_faces)[0]


def parse_sc(text: str) -> Complex:
    """Parse the ".sc" format (see :func:`parse_sc_with_warnings`)."""
    return parse_sc_with_warnings(text)[0]


def parse_sc_with_warnings(text: str) -> tuple[Complex, list[str]]:
    """Parse the ".sc" format, reporting absorbed (non-maximal) input faces.

    Lines starting with "#" are comments; every other nonempty line is one
    facet of whitespace-separated labels.  Labels must match
    ``[A-Za-z0-9_{}|.-]+``.  Malformed input raises :class:`ParseError`
    with the offending 1-based line number.

    One bulk pass over the split rows finds whether any line is bad: the
    distinct labels are checked at once by :func:`_labels_ok`, and the
    repeated vertices and oversize faces are found by comparing lengths.
    A line is bad iff it fails one of these, so only when the pass finds a
    bad line does the line loop of :func:`_raise_first_error` run, to name
    the first one and its line.
    When there are as many facets as listed faces, every listed face is a
    facet listed once, so none is absorbed and no face is compared.
    """
    lines = list(map(str.strip, text.splitlines()))
    rows = [line.split() for line in lines if line and line[0] != "#"]
    if not rows:
        raise ParseError("no facets found; a complex must have at least one vertex")
    sizes = list(map(len, rows))
    if (not _labels_ok(set(chain.from_iterable(rows)))
            or any(map(ne, map(len, map(set, rows)), sizes))
            or max(sizes) > MAX_DIMENSION + 1):
        _raise_first_error(lines)

    complex_, id_faces = _build(rows)
    if len(complex_.facets) == len(id_faces):
        return complex_, []  # every listed face is a distinct facet
    unlisted = set(complex_.facets)  # a facet listed again is absorbed
    warnings = []
    linenos = [n for n, line in enumerate(lines, start=1) if line and line[0] != "#"]
    for lineno, row, face in zip(linenos, rows, id_faces):
        if face not in unlisted:
            warnings.append(f"line {lineno}: face {' '.join(row)!r} absorbed")
        unlisted.discard(face)
    return complex_, warnings


def _raise_first_error(lines: list[str]) -> None:
    """Raise the ParseError of the first bad line of stripped ".sc" lines:
    in line order, each line's first bad label, then a repeated vertex,
    then a face above the supported dimension."""
    good: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
            continue
        labels = line.split()
        for lab in labels:
            if lab not in good and not LABEL_RE.match(lab):
                raise ParseError(f"bad vertex label {lab!r}", lineno)
        good.update(labels)
        if len(set(labels)) != len(labels):
            raise ParseError(f"face {line!r} repeats a vertex", lineno)
        if len(labels) > MAX_DIMENSION + 1:
            raise ParseError(
                f"face {line!r} has dimension {len(labels) - 1}; "
                f"the supported maximum is {MAX_DIMENSION}", lineno)


# -- certificate files ---------------------------------------------------------

def certificate_header(kind: str, K: Complex) -> str:
    """The first line of a certificate of the given kind about K."""
    return f"# {kind} of {K.fingerprint}"


def _comment(line: str) -> str | None:
    line = line.strip()
    return line[1:].strip() if line.startswith("#") else None


def certificate_kind(text: str) -> str | None:
    """The kind named by the first "# <kind> of" header of a certificate.

    A saturation certificate may omit its header; its "# start:" line
    names it then.
    """
    for raw in text.splitlines():
        body = _comment(raw) or ""
        if body.startswith("start:"):
            return SATURATION
        for kind in (SHELLING, COLLAPSE, SATURATION):
            if body.startswith(f"{kind} of"):
                return kind
    return None


def listed_faces(K: Complex, listing: str) -> list[Face]:
    """The faces of a comma-separated list of label faces ("a b, b c")."""
    return [K.face_from_labels(part.split()) for part in listing.split(",")
            if part.strip()]


def read_certificate(text: str, kind: str, K: Complex,
                     read_line: Callable[[str, bool], None]) -> None:
    """Feed each line of a certificate about K to ``read_line(body, comment)``.

    Blank lines are skipped.  A comment line passes the text after its "#",
    stripped, with ``comment`` true; other lines pass stripped.  The
    "# <kind> of <fingerprint>" header is checked against K here and not
    passed on.  A NotAFaceError or MalformedCertificateError raised while
    reading a line is raised again as a MalformedCertificateError that
    names the 1-based line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        body = _comment(line)
        if body is not None and body.startswith(f"{kind} of"):
            claimed = body[len(kind) + 3:].strip()
            if claimed != K.fingerprint:
                raise MalformedCertificateError(
                    f"certificate fingerprint {claimed} does not match "
                    f"subject {K.fingerprint}")
            continue
        try:
            read_line(line if body is None else body, body is not None)
        except (NotAFaceError, MalformedCertificateError) as exc:
            raise MalformedCertificateError(f"line {lineno}: {exc}") from None
