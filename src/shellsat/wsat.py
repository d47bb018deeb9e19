"""Weak K3-saturation machinery on graphs.

Graphs are complexes of dimension at most 1 (vertex set plus edge set).
A spanning subgraph G is weakly K3-saturated in a host F when the missing
host edges can be added one at a time, each completing a copy of K3; the
greedy fixed point (the K3-bootstrap closure) decides this because an
addable edge stays addable after other additions.  The engine is fixed to
the K3 pattern: a certificate naming any other pattern is malformed.  Both
deciders run on the triangle 2-core engine of :mod:`shellsat.collapse`.
"""

from dataclasses import dataclass
from itertools import combinations, compress, count, repeat
from operator import lt, ne

from .collapse import Triangle, edge_rows, least_deletions, least_removal, peel
from .complexes import (
    SATURATION,
    Complex,
    certificate_header,
    clique_triangles,
    from_facets,
    listed_faces,
    read_certificate,
    spanning_subgraph,
)
from .errors import (
    ConnectivityError,
    ContainmentError,
    MalformedCertificateError,
    UnsupportedDimensionError,
)
from .outcomes import (
    Budget,
    BudgetExceeded,
    Impossible,
    NotSaturated,
    OutOfBudget,
    as_budget,
)

Edge = tuple[int, int]
PATTERN = "K3"  # the one pattern the engine decides


@dataclass(frozen=True)
class SaturationCertificate:
    """A start subgraph, an ordering of the missing host edges, and one
    3-vertex K3 witness per ordered edge."""

    start: Complex
    order: tuple[Edge, ...]
    witnesses: tuple[tuple[int, int, int], ...]


def _require_graph(K: Complex) -> None:
    if K.dim > 1:
        raise UnsupportedDimensionError(
            f"expected a graph (dimension <= 1), got dimension {K.dim}")


def _spanning_edges(F: Complex, G: Complex) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """The kept edge sets of the host F and of G, which must span it."""
    _require_graph(F)
    _require_graph(G)
    if F.labels != G.labels:
        raise ContainmentError("subgraph must span the host vertex set")
    host, start = F.face_set(1), G.face_set(1)
    if not start <= host:
        raise ContainmentError("subgraph has edges outside the host")
    return host, start


def graph_complex(vertex_labels, edge_label_pairs) -> Complex:
    """Build a graph complex, keeping edgeless vertices as 0-facets."""
    facets: list[tuple[str, ...]] = [tuple(e) for e in edge_label_pairs]
    covered = {lab for e in facets for lab in e}
    facets.extend((lab,) for lab in vertex_labels if lab not in covered)
    return from_facets(facets)


def _bootstrap(n: int, host: frozenset[Edge],
               start: frozenset[Edge]) -> tuple[list[Edge], list[tuple[int, int, int]]]:
    """The K3-bootstrap of start inside host, run to its fixed point.

    At every step the lexicographically least addable edge is added,
    witnessed by its least common neighbour.  Returns the added edges in
    order with their witnesses.  The fixed point does not depend on this
    rule: a witness for an addable edge persists when other edges are added.
    """
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in start:
        adjacency[u].add(v)
        adjacency[v].add(u)
    remaining = sorted(host - start)
    order: list[Edge] = []
    witnesses: list[tuple[int, int, int]] = []
    while True:
        for u, v in remaining:
            common = adjacency[u] & adjacency[v]
            if common:
                break
        else:
            return order, witnesses
        remaining.remove((u, v))
        order.append((u, v))
        witnesses.append(tuple(sorted((u, v, min(common)))))
        adjacency[u].add(v)
        adjacency[v].add(u)


def k3_closure(F: Complex, G: Complex) -> Complex:
    """Add host edges completing a K3 until none qualifies."""
    host, start = _spanning_edges(F, G)
    order, _ = _bootstrap(F.n_vertices, host, start)
    return spanning_subgraph(F, start.union(order))


def is_weakly_saturated(F: Complex, G: Complex) -> bool:
    """True iff the K3-bootstrap closure of G inside F is all of F."""
    return not isinstance(extract_saturation_order(F, G), NotSaturated)


def extract_saturation_order(F: Complex, G: Complex):
    """The saturating order of :func:`_bootstrap`, with its witnesses.

    Returns ``NotSaturated()`` when the closure falls short of the host.
    """
    host, start = _spanning_edges(F, G)
    order, witnesses = _bootstrap(F.n_vertices, host, start)
    if len(order) < len(host) - len(start):
        return NotSaturated()
    return SaturationCertificate(G, tuple(order), tuple(witnesses))


def saturation_violation(F: Complex, cert: SaturationCertificate) -> str | None:
    """Replay the certificate; return a description of the first failure.

    Raises MalformedCertificateError when the start graph does not span the
    host, the order is not exactly the missing host edges, or a witness is
    not three distinct host vertices; a wrong witness merely invalidates
    the certificate.

    The replay adds the ordered edges one at a time, each checked to lie in
    its witness, whose three edges must then be present.  It runs as
    C-level passes over all the witnesses, and a walk runs only to word
    the first failure.  The witnesses are sorted and checked as a whole:
    each has three vertices, the columns of least, middle and greatest
    vertex increase strictly row by row (three distinct vertices), the
    least is at least 0 and the greatest below n.  Only when one is bad
    does the walk in certificate order name the first.  Then each host
    edge gets its position, -1 for a start edge and i for order[i], and
    each witness the greatest position of its three edges, the column
    pairs, or len(order) for an edge outside the host.  The first index i
    whose witness's greatest position is not i is the first failure,
    worded with present = start + order[:i + 1].

    Why this is exact: the order is exactly the missing host edges, so
    position i names order[i] and nothing else.  So the greatest position
    is i iff the witness holds order[i] and each of its edges is present
    once order[i] is added, which is the replay's test at index i.  Below
    i, the witness lacks order[i]; above it, some witness edge is absent.
    """
    try:
        host, start = _spanning_edges(F, cert.start)
    except ContainmentError as exc:
        raise MalformedCertificateError(str(exc)) from None
    missing = host - start
    order, witnesses = cert.order, cert.witnesses
    if len(order) != len(missing) or missing != set(order):
        raise MalformedCertificateError(
            "certificate order is not exactly the missing host edges")
    if len(witnesses) != len(order):
        raise MalformedCertificateError(
            "certificate must carry one witness per ordered edge")
    if not order:
        return None
    n = F.n_vertices
    rows = list(map(sorted, witnesses))
    a, b, c = zip(*rows) if {*map(len, rows)} == {3} else ((), (), ())
    if not (a and all(map(lt, a, b)) and all(map(lt, b, c))
            and 0 <= min(a) and max(c) < n):
        for i, witness in enumerate(witnesses):
            if (len(witness) != 3 or len(set(witness)) != 3
                    or any(not 0 <= v < n for v in witness)):
                raise MalformedCertificateError(
                    f"witness {i} is not a 3-vertex set of the host")

    at = dict.fromkeys(start, -1)
    at.update(zip(order, count()))
    last = map(max, *[map(at.get, pairs, repeat(len(order)))
                      for pairs in (zip(a, b), zip(a, c), zip(b, c))])
    i = next(compress(count(), map(ne, last, count())), None)
    if i is None:
        return None
    present = start.union(order[:i + 1])
    edge, witness = order[i], witnesses[i]
    u, v = edge
    if u not in witness or v not in witness:
        return (f"index {i}: witness {F.face_name(witness)} does not contain "
                f"edge {F.face_name(edge)}")
    absent = next(e for e in (tuple(sorted(p)) for p in combinations(witness, 2))
                  if e not in present)
    return (f"index {i}: witness edge {F.face_name(absent)} is not present "
            f"after adding edge {F.face_name(edge)}")


def verify_saturation(F: Complex, cert: SaturationCertificate) -> bool:
    """True iff every ordered edge completes the K3 named by its witness."""
    return saturation_violation(F, cert) is None


def _host_triangles(F: Complex) -> tuple[list[Triangle], list[Triangle]]:
    """A connected host's triangles and their rows over its edges."""
    _require_graph(F)
    if not F.is_connected():
        raise ConnectivityError("the host graph must be connected")
    triangles = clique_triangles(F.n_vertices, F.edges)
    return triangles, edge_rows(triangles, F.edges)


def decide_wsat_eq_treesize(F: Complex, budget: int | Budget | None = None):
    """Decide whether some spanning tree of F is weakly K3-saturated in F.

    Equivalently, whether wsat(F, K3) = n - 1: adding an edge that closes a
    K3 never merges components, so a saturating subgraph is connected and
    spanning, and n - 1 edges is the floor.

    The engine is the identity wsat(F, K3) = m - max |S| over sets S of
    host triangles with an empty 2-core (:mod:`shellsat.collapse`).  The
    witnesses of a saturating order are distinct triangles, and they peel
    in reverse order, each through the edge it added; conversely, the free
    edges of a peel of S, added back in reverse order, each complete a K3,
    so the host minus them saturates.  So wsat = n - 1 iff deleting some
    n - 1 - m + |T| triangles (the reduced Euler characteristic of the
    host's clique 2-complex) leaves an empty core, which
    :func:`least_removal` decides.  The certificate peels the S found, least
    free edge first, starts from the host minus its free edges (n - 1
    edges that saturate: a spanning tree) and takes its order and
    witnesses from :func:`extract_saturation_order`.  The budget counts
    one node per call and one per search node.
    """
    triangles, rows = _host_triangles(F)
    edges, budget = F.edges, as_budget(budget)
    try:
        deleted = least_removal(rows, len(edges),
                                F.n_vertices - 1 - len(edges) + len(triangles), budget)
    except OutOfBudget:
        return BudgetExceeded(stage="wsat-tree-search")
    if isinstance(deleted, Impossible):
        return NotSaturated()
    freed, _ = peel(rows, set(range(len(triangles))) - deleted, len(edges))
    tree = set(edges).difference(edges[e] for e, _ in freed)
    return extract_saturation_order(F, spanning_subgraph(F, tree))


def wsat_number(F: Complex, budget: int | Budget | None = None):
    """Minimum edge count of a weakly K3-saturated subgraph of F, exactly.

    By the identity in :func:`decide_wsat_eq_treesize` this is m - |T| plus
    the least number of triangles whose deletion empties the 2-core
    (:func:`least_deletions`).  The budget counts one node per call and one
    per search node.
    """
    triangles, rows = _host_triangles(F)
    try:
        deletions = least_deletions(rows, len(F.edges), as_budget(budget))
    except OutOfBudget:
        return BudgetExceeded(stage="wsat-number")
    return len(F.edges) - len(triangles) + deletions


# -- certificate file format ---------------------------------------------------

def saturation_fields(F: Complex, cert: SaturationCertificate) -> dict:
    """The certificate as label text, for its file and the chain report."""
    return {
        "start": F.face_texts(cert.start.edges),
        "order": F.face_texts(cert.order),
        "witnesses": F.face_texts(cert.witnesses),
        "pattern": PATTERN,
    }


def format_saturation(F: Complex, cert: SaturationCertificate) -> str:
    """"# start:" edges, then one "e_i : J_i" line per ordered edge."""
    fields = saturation_fields(F, cert)
    lines = [certificate_header(SATURATION, F), f"# pattern: {fields['pattern']}",
             f"# start: {', '.join(fields['start'])}".rstrip(),
             *(f"{e} : {w}" for e, w in zip(fields["order"], fields["witnesses"]))]
    return "\n".join(lines) + "\n"


def parse_saturation(text: str, F: Complex) -> SaturationCertificate:
    """Parse a saturation certificate against its host graph.  A pattern
    other than K3 raises on its line; the start graph is built on F's ids
    by :func:`spanning_subgraph`, so a start edge outside F reaches the verifier."""
    start_edges: list[Edge] = []
    order: list[Edge] = []
    witnesses: list[tuple[int, int, int]] = []
    saw_start = False

    def read(body: str, comment: bool) -> None:
        nonlocal saw_start
        if comment:
            if body.startswith("start:"):
                saw_start = True
                for face in listed_faces(F, body[len("start:"):]):
                    if len(face) != 2 or face[0] == face[1]:  # two distinct labels
                        raise MalformedCertificateError(
                            f"start entry {F.face_name(face)} is not an edge")
                    start_edges.append(face)
            elif body.startswith("pattern:") and (
                    pattern := body[len("pattern:"):].strip()) != PATTERN:
                raise MalformedCertificateError(
                    f"unsupported pattern {pattern!r}; only {PATTERN} is supported")
        elif ":" not in body:
            raise MalformedCertificateError(
                f"expected 'edge : witness', got {body!r}")
        else:
            left, right = body.split(":", 1)
            order.append(F.face_from_labels(left.split()))
            witnesses.append(F.face_from_labels(right.split()))

    read_certificate(text, SATURATION, F, read)
    if not saw_start:
        raise MalformedCertificateError("certificate must contain '# start:'")
    return SaturationCertificate(spanning_subgraph(F, start_edges), tuple(order),
                                 tuple(witnesses))
