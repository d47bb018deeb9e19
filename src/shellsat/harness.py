"""Instance generation and independent brute-force oracles.

The generator produces pure connected 2-complexes three ways: seeded
random sampling, exhaustive enumeration up to isomorphism (canonical
labeling by the minimum lexicographic facet list over all vertex
permutations, feasible at up to 7 support vertices), and barycentric
subdivision of the enumerated stream; :func:`flag_dunce_hat` builds one
hard instance.  The oracles re-decide shellability, collapsibility and
the weak saturation number by raw exhaustion and are used only to
cross-check the real deciders on small instances.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .collapse import Triangle
from .complexes import Complex, from_facets, is_connected_graph
from .errors import OracleBoundError, ParameterError
from .wsat import graph_complex, spanning_subgraph

MODES = ("random-pure-2", "enumerate-all", "subdivide-depth-k")

ORACLE_MAX_FACETS = 6
ORACLE_MAX_FACES = 12
ORACLE_MAX_VERTICES = 6
ENUMERATION_MAX_VERTICES = 7


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance-stream description: same spec, same stream."""

    seed: int
    n_vertices: int
    n_triangles: int
    mode: str
    depth: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.n_vertices < 3:
            raise ParameterError("2-complexes need at least 3 vertices")
        if self.mode != "random-pure-2" and self.n_vertices > ENUMERATION_MAX_VERTICES:
            raise ParameterError(f"{self.mode} enumerates all vertex permutations, "
                                 f"so n <= {ENUMERATION_MAX_VERTICES}, got {self.n_vertices}")
        if self.n_triangles < 1:
            raise ParameterError("need at least one triangle")
        cap = math.comb(self.n_vertices, 3)
        if self.n_triangles > cap:
            raise ParameterError(
                f"{self.n_triangles} triangles do not fit on "
                f"{self.n_vertices} vertices (max {cap})")
        if self.depth < 0:
            raise ParameterError("subdivision depth must be >= 0")


def _triangles_connected(triangles) -> bool:
    support = sorted({v for t in triangles for v in t})
    index = {v: i for i, v in enumerate(support)}
    return is_connected_graph(len(support), [
        (index[u], index[v]) for a, b, c in triangles for u, v in ((a, b), (b, c))])


def complex_from_triangles(triangles) -> Complex:
    """Build a pure 2-complex from id triangles, labelling vertex i as 'vi'."""
    return from_facets([tuple(f"v{v}" for v in t) for t in triangles])


def _images(subsets, perms) -> set[tuple[tuple[int, ...], ...]]:
    """The image of a set of k-subsets under each permutation, as a sorted
    tuple of sorted k-subsets.  k >= 2, so each ``itemgetter`` picks a tuple."""
    getters = [itemgetter(*s) for s in subsets]
    return {tuple(sorted(tuple(sorted(get(p))) for get in getters)) for p in perms}


def canonical_triangles(triangles) -> tuple[Triangle, ...]:
    """Canonical form: relabel the support densely, then take the least
    image over all support permutations."""
    support = sorted({v for t in triangles for v in t})
    index = {v: i for i, v in enumerate(support)}
    return min(_images([[index[v] for v in t] for t in triangles],
                       permutations(range(len(support)))))


def sample_pure2(rng: random.Random, n_vertices: int,
                 n_triangles: int) -> tuple[Complex, int]:
    """One uniform sample of distinct triangles, retried until connected.

    Returns the complex together with the number of rejected draws.
    """
    all_triangles = list(combinations(range(n_vertices), 3))
    retries = 0
    while True:
        triangles = sorted(rng.sample(all_triangles, n_triangles))
        if _triangles_connected(triangles):
            return complex_from_triangles(triangles), retries
        retries += 1


def _least_images(n: int, k: int, sizes: Iterable[int],
                  keep: Callable[[tuple], bool]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The least image of each class of sets of k-subsets of 0..n-1 under
    the permutations of 0..n-1, for the given set sizes in order.  The
    first set of a class (in ``combinations`` order) that ``keep`` accepts
    marks its images, so later members are skipped; ``keep`` must accept
    all of a class or none."""
    perms = list(permutations(range(n)))
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for size in sizes:
        for chosen in combinations(combinations(range(n), k), size):
            if chosen in seen or not keep(chosen):
                continue
            images = _images(chosen, perms)
            seen.update(images)
            yield min(images)


def enumerate_pure2(n_vertices: int, n_triangles: int) -> Iterator[Complex]:
    """All pure connected 2-complexes with at most the given support and
    facet count, one representative per isomorphism class, by facet count.
    The least image is canonical_triangles: renumbering an image's support
    to 0..s-1 in order lowers no entry and keeps its triangles' order, so
    the least image lies on 0..s-1."""
    for triangles in _least_images(n_vertices, 3, range(1, n_triangles + 1),
                                   _triangles_connected):
        yield complex_from_triangles(triangles)


def generate(spec: GeneratorSpec) -> Iterator[Complex]:
    """The instance stream described by the spec.

    random-pure-2 is an endless seeded stream; enumerate-all is finite and
    exhaustive up to isomorphism; subdivide-depth-k subdivides the
    enumerated stream ``spec.depth`` times.
    """
    spec.validate()
    if spec.mode == "random-pure-2":
        rng = random.Random(spec.seed)
        while True:
            instance, _ = sample_pure2(rng, spec.n_vertices, spec.n_triangles)
            yield instance
    elif spec.mode == "enumerate-all":
        yield from enumerate_pure2(spec.n_vertices, spec.n_triangles)
    else:
        for base in enumerate_pure2(spec.n_vertices, spec.n_triangles):
            instance = base
            for _ in range(spec.depth):
                instance = instance.barycentric_subdivision()
            yield instance


def flag_dunce_hat() -> Complex:
    """A flag triangulation of Zeeman's dunce hat: contractible, with no
    free edge, so neither collapsible nor shellable.

    Subdivide the triangle ABC barycentrically twice, with exact
    barycentric coordinates, then glue its boundary by the word a.a.a^-1:
    the point at parameter t on AB, on BC and on AC (each measured from its
    first vertex) becomes the vertex ``a<4t mod 4>``.  Interior points are
    ``x00``, ``x01``, ... in coordinate order.  17 vertices, 52 edges and
    36 triangles; reduced Euler characteristic 0.
    """
    one, zero = Fraction(1), Fraction(0)
    triangles = [((one, zero, zero), (zero, one, zero), (zero, zero, one))]
    for _ in range(2):
        triangles = [tuple(tuple(sum(x) / k for x in zip(*order[:k]))
                           for k in (1, 2, 3))
                     for t in triangles for order in permutations(t)]
    interior = sorted({p for t in triangles for p in t if all(p)})

    def label(point) -> str:
        _, b, c = point
        if all(point):
            return f"x{interior.index(point):02d}"
        t = b if c == 0 else c  # on AB t is B's weight; on BC and AC, C's
        return f"a{int(4 * t) % 4}"

    return from_facets([tuple(label(p) for p in t) for t in triangles])


# -- graph instance helpers (used by the test suites) --------------------------

def enumerate_connected_graphs(n: int) -> Iterator[Complex]:
    """All connected graphs on the vertices v0..v{n-1}, one per isomorphism
    class, each yielded as its least image (its sorted edge list is least
    over all vertex permutations), by edge count; feasible up to n = 6."""
    labels = [f"v{i}" for i in range(n)]
    for edges in _least_images(n, 2, range(n * (n - 1) // 2 + 1),
                               lambda edges: is_connected_graph(n, edges)):
        yield graph_complex(labels, [(labels[u], labels[v]) for u, v in edges])


def sample_connected_graph(rng: random.Random, n: int, p: float) -> Complex:
    """A seeded G(n, p) sample, retried until connected."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        graph = graph_complex([f"v{i}" for i in range(n)],
                              [(f"v{u}", f"v{v}") for u, v in edges])
        if graph.is_connected():
            return graph


def sample_spanning_subgraph(rng: random.Random, F: Complex, p: float) -> Complex:
    """A seeded spanning subgraph of F keeping each edge with probability p."""
    return spanning_subgraph(F, {e for e in F.edges if rng.random() < p})


# -- brute-force oracles --------------------------------------------------------

def oracle_shelling(K: Complex) -> bool:
    """Ground-truth shellability by trying every facet permutation."""
    facets = [frozenset(f) for f in K.facets]
    if len(facets) > ORACLE_MAX_FACETS:
        raise OracleBoundError(
            f"shelling oracle is limited to {ORACLE_MAX_FACETS} facets")
    d = max(len(f) for f in facets) - 1

    def all_subsets(s: frozenset) -> set[frozenset]:
        out = set()
        items = sorted(s)
        for k in range(1, len(items) + 1):
            out.update(frozenset(c) for c in combinations(items, k))
        return out

    for order in permutations(facets):
        covered: set[frozenset] = set()
        good = True
        for i, facet in enumerate(order):
            if i > 0:
                shared = [s for s in all_subsets(facet)
                          if s != facet and s in covered]
                maximal = [s for s in shared
                           if not any(s < t for t in shared)]
                if not maximal:
                    good = d == 0
                else:
                    good = all(len(s) == d for s in maximal)
                if not good:
                    break
            covered |= all_subsets(facet)
        if good:
            return True
    return False


def oracle_collapsible(K: Complex) -> bool:
    """Ground-truth collapsibility by exploring every collapse sequence."""
    faces = set(map(frozenset, K.face_ids()))
    if len(faces) > ORACLE_MAX_FACES:
        raise OracleBoundError(
            f"collapsibility oracle is limited to {ORACLE_MAX_FACES} faces")

    def search(current: frozenset) -> bool:
        if len(current) == 1 and len(next(iter(current))) == 1:
            return True
        for tau in current:
            above = [g for g in current if tau < g]
            maximal = [g for g in above if not any(g < h for h in above)]
            if len(maximal) != 1:
                continue
            smaller = frozenset(g for g in current if not tau <= g)
            if search(smaller):
                return True
        return False

    return search(frozenset(faces))


def oracle_wsat(F: Complex) -> int:
    """Ground-truth wsat(F, K3) over all spanning subgraphs, smallest first."""
    n = F.n_vertices
    if n > ORACLE_MAX_VERTICES:
        raise OracleBoundError(
            f"wsat oracle is limited to {ORACLE_MAX_VERTICES} vertices")
    edges = F.edges
    full = (1 << len(edges)) - 1

    def closes(mask: int) -> bool:
        adjacency = [0] * n
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
        current = mask
        changed = True
        while changed:
            changed = False
            for i, (u, v) in enumerate(edges):
                if current >> i & 1:
                    continue
                if adjacency[u] & adjacency[v]:
                    current |= 1 << i
                    adjacency[u] |= 1 << v
                    adjacency[v] |= 1 << u
                    changed = True
        return current == full

    for size in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            if closes(mask):
                return size
    raise AssertionError("the full edge set always closes")
