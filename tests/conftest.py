from itertools import combinations

import pytest

from shellsat import from_facets, graph_complex


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
