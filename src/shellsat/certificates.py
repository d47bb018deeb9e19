"""Certificate translations between shellability, weak saturation and collapsibility.

For a pure connected 2-dimensional complex L:

* a shelling of L yields a spanning tree of the 1-skeleton that is weakly
  K3-saturated, the saturating order following the shelling;
* a weakly K3-saturated spanning tree of a *flag* L yields a collapse of
  L minus some triangles down to a single vertex, collapsing the witness
  triangles in reverse saturation order and then pruning the tree;
* any collapse certificate reaching a point must remove exactly as many
  triangles as the reduced Euler characteristic, which gives a cheap
  consistency check on the whole pipeline;
* a shelling of L lifts, facet by facet, to a shelling of its barycentric
  subdivision (:func:`lift_shelling`).

``run_chain`` wires the three translations together behind one budget.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations, compress, repeat
from operator import itemgetter, ne, not_

from .collapse import (
    CollapseCertificate,
    as_steps,
    collapse_fields,
    format_collapse,
    peel,
    verify_collapse,
)
from .complexes import Complex, Face, require_pure2_connected
from .errors import CertificateError, FlagnessError
from .outcomes import Budget, BudgetExceeded, Unshellable, as_budget
from .shelling import (
    ShellingCertificate,
    find_shelling,
    first_shelling_violation,
    format_shelling,
    shelling_fields,
)
from .wsat import (
    SaturationCertificate,
    format_saturation,
    saturation_fields,
    saturation_violation,
    spanning_subgraph,
)


@dataclass
class ChainReport:
    """Everything produced by one pipeline run on one subject complex."""

    original: Complex
    subject: Complex
    subdivision_depth: int
    chi: int
    status: str
    shelling: ShellingCertificate | None = None
    saturation: SaturationCertificate | None = None
    collapse: CollapseCertificate | None = None
    removed_count: int | None = None
    verdicts: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def shelling_to_saturated_tree(L: Complex,
                               cert: ShellingCertificate) -> SaturationCertificate:
    """Turn a shelling into a weakly K3-saturated spanning tree certificate.

    One rule per facet, in shelling order: of its edges not yet covered, in
    ``combinations`` order, all but the last join the tree and the last
    joins the saturating order, witnessed by the facet.  The shelling is
    verified, so a facet meets the union of the earlier ones in nothing
    (the first facet: three new edges), in one edge (its third vertex is
    new: two new edges, the first reaching it in the tree) or in two or
    three edges (at most one new edge).  So each vertex enters the tree
    once, and each ordered edge completes the K3 of its facet.

    The rule runs as column passes over the order's ``combinations``
    column of edges, three per facet.  An edge is new at its first
    position, read from one ``dict`` built over the column backwards, so
    that the least position is written last; the sorted first positions
    list the new edges in order.  A new edge is the last of its facet iff
    the next new edge lies in a later facet.
    """
    require_pure2_connected(L, "the tree construction")
    violation = first_shelling_violation(L, cert)
    if violation is not None:
        raise CertificateError(
            f"invalid shelling: condition fails at index {violation}")

    order = cert.order
    edges = list(chain.from_iterable(map(combinations, order, repeat(2))))
    first = dict(zip(reversed(edges), range(len(edges) - 1, -1, -1)))
    new = sorted(first.values())
    facet_of = [p // 3 for p in new]
    last = list(map(ne, facet_of, facet_of[1:] + [-1]))
    tree = list(map(edges.__getitem__, compress(new, map(not_, last))))
    assert len(tree) == L.n_vertices - 1
    return SaturationCertificate(
        spanning_subgraph(L.skeleton(1), tree),
        tuple(map(edges.__getitem__, compress(new, last))),
        tuple(map(order.__getitem__, compress(facet_of, last))))


def saturation_to_collapse(L: Complex,
                           cert: SaturationCertificate) -> CollapseCertificate:
    """Turn a saturated spanning tree of a flag complex into a collapse.

    Each witness induces a triangle of L: the replay finds its edges in the
    1-skeleton, and L is flag.  The triangles are pairwise distinct because
    a later triangle contains its own ordered edge while earlier ones do
    not.  Triangles outside the witness list are removed up front (L is
    pure of dimension 2, so its triangles are its facets); the witness
    triangles collapse in reverse saturation order, and the
    remaining spanning tree is pruned leaf by leaf, largest leaf first
    (:func:`collapse.peel`, ``largest_first``), down to the target, the one
    vertex never pruned.  The replay adds each missing host edge between
    two vertices its witness already joins, so the start's components are
    the connected host's, and n - 1 start edges make a spanning tree.
    """
    require_pure2_connected(L, "the collapse construction")
    if not L.is_flag2():
        raise FlagnessError(
            "the collapse construction requires a flag complex")
    host = L.skeleton(1)
    failure = saturation_violation(host, cert)
    if failure is not None:
        raise CertificateError(f"invalid saturation certificate: {failure}")
    tree_edges = cert.start.edges
    n = L.n_vertices
    if len(tree_edges) != n - 1:
        raise CertificateError("the start graph must be a spanning tree")

    triangles = list(map(tuple, map(sorted, cert.witnesses)))
    assert len(set(triangles)) == len(triangles), "witness triangles must be distinct"

    removed = frozenset(L.facets).difference(triangles)
    leaves, _ = peel(tree_edges, range(n - 1), n, largest_first=True)
    (target,) = set(range(n)).difference(v for v, _ in leaves)
    steps = as_steps(chain(zip(reversed(cert.order), reversed(triangles)),
                           (((v,), tree_edges[e]) for v, e in leaves)))
    return CollapseCertificate(removed, steps, ((target,),))


# Facet (a, b, c) -> positions (x, y, z), by which of its edges ab, ac, bc
# (bits 1, 2, 4) earlier facets cover: xy is covered, and yz is when two are.
_HEXAGON_START = {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 2, 1), 4: (1, 2, 0),
                  3: (1, 0, 2), 5: (0, 1, 2), 6: (0, 2, 1), 7: (0, 1, 2)}
# Per mask, the same table as a getter over the barycentres of a facet's
# vertices and edges (va, vb, vc, vab, vac, vbc): it reads
# (vx, vy, vz, vxy, vyz, vxz), an edge of positions p < q at slot p + q + 2.
_HEXAGON_GETTERS = tuple(itemgetter(x, y, z, x + y + 2, y + z + 2, x + z + 2)
                         for _, (x, y, z) in sorted(_HEXAGON_START.items()))


def lift_shelling(K: Complex, cert: ShellingCertificate) -> ShellingCertificate:
    """A shelling of ``K.barycentric_subdivision()`` from a shelling of the
    pure 2-complex K, in one pass and without search.

    Each facet F of K, in shelling order, gives its six chain facets
    {p} < {p, q} < F in hexagon order: with its vertices ordered (x, y, z),
    the (p, q) pairs (x, y), (y, x), (y, z), (z, y), (z, x), (x, z).  The
    order is chosen so that the edge xy is covered by earlier facets, and
    yz too when two edges are.

    Why it is a shelling: sd commutes with intersections of subcomplexes,
    so the six meet the earlier groups in sd(F ∩ earlier), and the
    shelling condition makes F ∩ earlier either nothing (the first facet)
    or one, two (the path x-y-z) or three edges of F with their vertices.
    Call b the barycentre of F, the edges from b spokes, and the edge of a
    small triangle opposite b its outer half-edge, which lies on an edge
    of F.  The first small triangle {x, xy, b} meets the union so far in
    its outer half-edge x-xy when xy is covered, and is the first facet of
    the shelling otherwise.  The k-th (k = 2..6) shares a spoke with the
    (k-1)-th, the sixth also the spoke x-b with the first, and it holds
    one more vertex: y, yz, z, zx, or none for the sixth.  That vertex is
    in the union exactly when the outer half-edge is: y and xy lie on the
    covered xy; yz lies on yz; z was reached by an earlier facet only if
    two or three edges are covered, and then yz is one of them; zx only
    if all three are.  So each small triangle meets the union in its
    shared spokes plus, when it is covered, its outer half-edge: pure of
    dimension 1 in all four cases.  The result is a shelling of the pure
    2-complex sd(K), so the same table lifts it on to sd²(K).

    Per facet, three membership tests give the covered-edge mask, and the
    mask's getter reads (vx, vy, vz, vxy, vyz, vxz) from the barycentres
    of a, b, c, ab, ac, bc.  Each getter is derived from
    ``_HEXAGON_START`` at import and reads the positions that table names,
    so the orders are the ones a per-facet lookup would give.
    """
    vertex = K.barycenters()
    covered: set[Face] = set()
    order: list[Face] = []
    for facet in cert.order:
        vf = vertex[facet]
        a, b, c = facet
        ab, ac, bc = (a, b), (a, c), (b, c)
        mask = (ab in covered) + 2 * (ac in covered) + 4 * (bc in covered)
        covered.update((ab, ac, bc))
        vx, vy, vz, vxy, vyz, vxz = _HEXAGON_GETTERS[mask](
            (vertex[a,], vertex[b,], vertex[c,], vertex[ab], vertex[ac], vertex[bc]))
        order += map(tuple, map(sorted, (
            (vx, vxy, vf), (vy, vxy, vf), (vy, vyz, vf),
            (vz, vyz, vf), (vz, vxz, vf), (vx, vxz, vf))))
    return ShellingCertificate(tuple(order))


def check_removal_count(L: Complex, cert: CollapseCertificate) -> bool:
    """For a point-targeting certificate: removed count equals chi tilde.

    A collapse preserves the reduced Euler characteristic and a point has
    characteristic 0, so the removal stage must account for all of it.
    """
    if not cert.targets_point():
        raise CertificateError("the certificate must target a single vertex")
    return len(cert.removed_triangles) == L.reduced_euler_characteristic()


def run_chain(K: Complex, budget: int | Budget | None = None) -> ChainReport:
    """Run shelling search and both certificate translations on one subject.

    Non-flag inputs are replaced by their second barycentric subdivision
    (recorded in the report); flag inputs run as-is.  All stages share one
    node budget.  Every produced certificate is verified once and the
    verdicts are recorded; a failed search stops the chain with an honest
    status instead of an error.

    A non-flag K is shelled on K itself, and the shelling found is lifted
    by :func:`lift_shelling` to sd(K) and on to sd²(K) without a search
    there; the lift spends no budget, as it is one pass.  When K has no
    shelling, the chain reports ``unshellable`` if ``shelling._refuted``
    decided it, as by Hachimori's criterion that is exact for sd²(K).
    Should the search on K be exhausted without it (never observed), the
    chain searches sd²(K) directly with the budget left.
    """
    require_pure2_connected(K, "the certificate chain")
    budget = as_budget(budget)
    depth = 0 if K.is_flag2() else 2
    L = K
    for _ in range(depth):
        L = L.barycentric_subdivision()
    chi = L.reduced_euler_characteristic()
    report = ChainReport(original=K, subject=L, subdivision_depth=depth,
                         chi=chi, status="pending")

    shell = find_shelling(K, budget)
    if depth:
        shell = _on_sd2(K, L, shell, budget)
    if isinstance(shell, BudgetExceeded):
        report.status = "budget-exceeded:shelling"
        return report
    if isinstance(shell, Unshellable):
        report.status = "unshellable"
        return report
    report.shelling = shell
    report.saturation = shelling_to_saturated_tree(L, shell)
    report.collapse = collapse = saturation_to_collapse(L, report.saturation)
    # Each converter raises CertificateError on a certificate it is given
    # that fails, the second also on a start graph that is no spanning tree;
    # both returned, so these three hold.
    report.verdicts.update(shelling_verifies=True, saturation_verifies=True,
                           start_has_tree_size=True)
    report.verdicts["collapse_verifies"] = verify_collapse(L, collapse)
    report.verdicts["collapse_targets_point"] = collapse.targets_point()
    report.verdicts["removal_count_matches_chi"] = check_removal_count(L, collapse)
    report.removed_count = len(collapse.removed_triangles)
    report.status = "complete"
    return report


def _on_sd2(K: Complex, L: Complex, shell, budget: Budget):
    """The shelling outcome for L = sd²(K) from the search outcome on K: a
    shelling lifted twice, K's refutation (exact for L), or else, after a
    search on K exhausted without a refutation, the direct search on L."""
    if isinstance(shell, ShellingCertificate):
        return lift_shelling(K.barycentric_subdivision(), lift_shelling(K, shell))
    if isinstance(shell, Unshellable) and shell.decided_by == "search":
        return find_shelling(L, budget)
    return shell


# -- report serialization ------------------------------------------------------

def _scalars(report: ChainReport) -> dict:
    """The report's header values, in order, under their JSON keys."""
    return {
        "original": report.original.fingerprint,
        "subject": report.subject.fingerprint,
        "subdivision_depth": report.subdivision_depth,
        "chi": report.chi,
        "status": report.status,
        "removed_count": report.removed_count,
    }


def _stages(report: ChainReport):
    """(name, complex it is about, certificate, formatter, fields) per stage."""
    L = report.subject
    if report.shelling is not None:
        yield "shelling", L, report.shelling, format_shelling, shelling_fields
    if report.saturation is not None:
        yield ("saturation", L.skeleton(1), report.saturation, format_saturation,
               saturation_fields)
    if report.collapse is not None:
        yield "collapse", L, report.collapse, format_collapse, collapse_fields


def format_chain_report(report: ChainReport) -> str:
    """Structured text report, one section per stage, certificates embedded."""
    lines = ["# chain report"]
    lines += [f"# {key.replace('_', '-')}: {value}"
              for key, value in _scalars(report).items() if value is not None]
    lines += [f"# verdict {name}: {str(value).lower()}"
              for name, value in report.verdicts.items()]
    for name, K, cert, format_cert, _ in _stages(report):
        lines += [f"# stage {name}", format_cert(K, cert).rstrip("\n")]
    return "\n".join(lines) + "\n"


def chain_report_json(report: ChainReport) -> dict:
    """Stable machine-readable structure for the chain report."""
    data = {**_scalars(report), "verdicts": dict(report.verdicts),
            "shelling": None, "saturation": None, "collapse": None}
    data.update((name, fields(K, cert)) for name, K, cert, _, fields in _stages(report))
    return data
