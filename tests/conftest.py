import heapq
import random
import re
from itertools import chain, combinations, permutations

import pytest

from shellsat import from_facets, graph_complex, run_chain
from shellsat.collapse import CollapseCertificate, CollapseStep
from shellsat.complexes import Complex
from shellsat.harness import (
    enumerate_connected_graphs,
    enumerate_pure2,
    flag_dunce_hat,
    sample_pure2,
)
from shellsat.wsat import SaturationCertificate


def maximal_faces(faces):
    """Reference filter: the listed faces not strictly contained in another
    listed face, in input order.

    Every proper subface of every listed face is collected once; a face is
    maximal exactly when it is not in that set.
    """
    listed = list(faces)
    if len(listed) < 2:
        return listed
    below = {sub for f in listed for k in range(len(f)) for sub in combinations(f, k)}
    return [f for f in listed if f not in below]


def all_faces(K):
    """Every face of K, the empty face included, from its faces of each
    dimension -1..dim."""
    return frozenset(chain.from_iterable(map(K.faces_of_dim, range(-1, K.dim + 1))))


def reference_subdivision(K):
    """The earlier subdivision build, and its vertex of each face: every
    nonempty face named "{a|b}" one at a time, and the chains of each facet
    read off each permutation of its vertices, one sorted prefix at a time.
    Faces that name alike are not looked for."""
    named = {}
    for face in K.face_ids():
        named.setdefault("{" + "|".join(K.label_face(face)) + "}", face)
    labels = sorted(named)
    vertex = {named[name]: v for v, name in enumerate(labels)}
    sd = Complex(labels, [
        tuple(sorted(vertex[tuple(sorted(order[:k + 1]))] for k in range(len(order))))
        for facet in K.facets for order in permutations(facet)])
    return sd, vertex


def reference_saturated_tree(L, cert):
    """The earlier tree construction, the shelling not checked: one loop
    over the facets in shelling order, each facet's edges not yet covered
    listed in ``combinations`` order; all but the last join the tree, and
    the last joins the saturating order, witnessed by the facet."""
    tree, covered, order, witnesses = set(), set(), [], []
    for facet in cert.order:
        new = [e for e in combinations(facet, 2) if e not in covered]
        if new:
            tree.update(new[:-1])
            order.append(new[-1])
            witnesses.append(facet)
            covered.update(new)
    start = L.skeleton(1).induced([*tree, *zip(range(L.n_vertices))])
    return SaturationCertificate(start, tuple(order), tuple(witnesses))


def reference_peel(simplices, alive):
    """The earlier peel, on tuples: the alive simplices peeled least free
    ridge first, each ridge's holders kept as a set in a dict keyed by the
    ridge tuple.  Returns each free ridge paired with the simplex that
    leaves with it, in peel order, and the core that is left."""
    holders = {}
    for i in alive:
        for r in combinations(simplices[i], len(simplices[i]) - 1):
            holders.setdefault(r, set()).add(i)
    heap = [r for r, held in holders.items() if len(held) == 1]
    heapq.heapify(heap)
    free = []
    while heap:
        r = heapq.heappop(heap)
        if len(holders[r]) == 1:
            (i,) = holders[r]
            free.append((r, simplices[i]))
            for q in combinations(simplices[i], len(simplices[i]) - 1):
                holders[q].discard(i)
                if len(holders[q]) == 1:
                    heapq.heappush(heap, q)
    return free, {i for held in holders.values() for i in held}


def reference_collapse(L, cert):
    """The earlier saturation-to-collapse translation, its checks left out:
    the facets that witness nothing removed, the witnesses collapsed in
    reverse order, then the start tree pruned by :func:`reference_peel` on
    reversed ids (v -> n-1-v), whose least free vertex first is the
    largest leaf first, down to the vertex it leaves."""
    n = L.n_vertices
    triangles = [tuple(sorted(witness)) for witness in cert.witnesses]
    removed = frozenset(set(L.facets) - set(triangles))
    steps = [CollapseStep(edge, triangle)
             for edge, triangle in reversed(list(zip(cert.order, triangles)))]
    tree = [(n - 1 - u, n - 1 - v) for u, v in cert.start.edges]
    down, _ = reference_peel(tree, range(len(tree)))
    steps += [CollapseStep((n - 1 - leaf,), (n - 1 - u, n - 1 - v))
              for (leaf,), (u, v) in down]
    (target,) = set(range(n)).difference(n - 1 - leaf for (leaf,), _ in down)
    return CollapseCertificate(removed, tuple(steps), ((target,),))


# (vertices, triangles) of sample_pure2 draws whose sd² is a chain subject;
# the tetrahedron boundary (4, 4) and (5, 7) have a removed triangle.
CHAIN_SHAPES = [(4, 4), (5, 3), (5, 5), (6, 4), (6, 6), (5, 7), (6, 5)]


def chain_reports(seed: int):
    """The complete :func:`run_chain` reports on sd² of one seeded
    ``sample_pure2`` draw per shape of ``CHAIN_SHAPES``."""
    rng = random.Random(seed)
    reports = []
    for n, t in CHAIN_SHAPES:
        K, _ = sample_pure2(rng, n, t)
        report = run_chain(K.barycentric_subdivision().barycentric_subdivision())
        if report.complete:
            reports.append(report)
    return reports


def table_corpus():
    """Complexes of dimension 1, 2 and 3: the 5-vertex classes and their
    subdivisions, the flag dunce hat, connected graphs, and single, glued,
    subdivided and seeded sets of tetrahedra."""
    classes = list(enumerate_pure2(5, 5))
    tetrahedron = from_facets(["a b c d"])
    corpus = (classes + [K.barycentric_subdivision() for K in classes]
              + [flag_dunce_hat(), tetrahedron, tetrahedron.barycentric_subdivision(),
                 from_facets(["a b c d", "b c d e", "c d e f"]),
                 from_facets(map(" ".join, combinations("abcde", 4)))]
              + list(enumerate_connected_graphs(5)))
    rng = random.Random(41)
    pool = list(combinations("abcdefg", 4))
    for _ in range(60):
        corpus.append(from_facets(rng.sample(pool, rng.randint(2, 9))))
    return corpus


def outcome(check, *args):
    """What a check returns, or the type and text of what it raises."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def shows_an_id_tuple(result) -> bool:
    """True iff an :func:`outcome` (a reason, or an exception's type and
    text) writes a tuple of ints, such as a face by its internal ids."""
    text = result[1] if isinstance(result, tuple) else result or ""
    return re.search(r"\(-?\d+(, -?\d+)*,?\)", text) is not None


@pytest.fixture
def triangle():
    return from_facets(["a b c"])


@pytest.fixture
def two_triangles():
    return from_facets(["a b c", "b c d"])


@pytest.fixture
def bowtie():
    return from_facets(["a b c", "c d e"])


@pytest.fixture
def tetra_boundary():
    return from_facets(["a b c", "a b d", "a c d", "b c d"])


@pytest.fixture
def three_cycle():
    return from_facets(["a b", "b c", "a c"])


def complete_graph(n: int):
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[u], labels[v]) for u in range(n) for v in range(u + 1, n)]
    return graph_complex(labels, edges)


def cycle_graph(n: int):
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return graph_complex(labels, [tuple(sorted(e)) for e in edges])
