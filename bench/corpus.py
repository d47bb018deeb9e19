"""Seeded input families and the four workload corpora.

Every family is built by this file from a ``random.Random`` seeded on the
command line, except the graphs and the small complexes, which come from
the program's own generators (``harness.sample_connected_graph``,
``harness.enumerate_pure2`` and ``harness.sample_pure2``).  The answer for
each input is known by construction, or comes from a brute-force oracle,
and travels with the call as ``expect``.

Sizes are fixed per workload and only shapes and labels come from the
seed, so a held-out seed gives a different corpus of the same families and
sizes, and per-run cost varies little from seed to seed.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
from pathlib import Path

Triangle = tuple[int, int, int]

# Fixed search budgets, one per workload (also quoted in BENCHMARK.json).
BUDGETS = {"chain": 100_000, "shell": 5_000, "collapse": 3_000, "wsat": 50_000}


@dataclass
class Call:
    """One CLI invocation with the answer known for its input.

    ``expect`` is one of "shellable", "unshellable", "collapsible",
    "not-collapsible", "complete", "wsat-yes", "wsat-number=<n>",
    "wsat-consistent" (answer fixed by the paired call and, for n <= 6,
    the oracle) or "oracle-shelling=<bool>".
    """

    name: str
    argv: list[str]
    expect: str
    family: str
    meta: dict = field(default_factory=dict)


# -- families --------------------------------------------------------------------

def grow_shelled(rng: random.Random, n_triangles: int, *, free_edges_only=False,
                 p_angle=0.0, p_hole=0.0, bubbles=0) -> list[Triangle]:
    """Grow a pure 2-complex whose growth order is a shelling.

    Each new triangle meets the union of the earlier ones in a pure
    1-dimensional subcomplex: along one edge with a new vertex ("attach"),
    along two edges on old vertices ("angle", which adds an edge), or along
    all three edges of an empty 3-cycle ("hole", which adds a 2-sphere and
    raises the reduced Euler characteristic by one).  With
    ``free_edges_only`` only attachments at edges in exactly one triangle
    are made, which grows a flag, collapsible disk.  Each of ``bubbles``
    closes a tetrahedron boundary over an existing triangle in three steps
    (attach, angle, hole), so chi~ is at least ``bubbles``; it is exactly
    ``bubbles`` when ``p_hole`` is 0.
    """
    tris = [(0, 1, 2)]
    present = {(0, 1, 2)}
    edges = [(0, 1), (0, 2), (1, 2)]  # in order of appearance
    uses = {e: 1 for e in edges}
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    n = 3
    ordinary_steps = n_triangles - 1 - 3 * bubbles
    if ordinary_steps < 0:
        raise ValueError("too many bubbles for the triangle count")
    bubble_after = sorted(rng.choices(range(ordinary_steps + 1), k=bubbles))
    ordinary = 0

    def add(t: Triangle) -> None:
        tris.append(t)
        present.add(t)
        for e in combinations(t, 2):
            if e not in uses:
                edges.append(e)
                uses[e] = 0
            uses[e] += 1
            adj.setdefault(e[0], set()).add(e[1])
            adj.setdefault(e[1], set()).add(e[0])

    def angle():
        a, b = rng.choice(edges)
        pivot, other = (a, b) if rng.random() < 0.5 else (b, a)
        ends = sorted(adj[pivot] - {other} - adj[other])
        if not ends:
            return None
        return tuple(sorted((other, pivot, rng.choice(ends))))

    def hole():
        for a, b in rng.sample(edges, len(edges)):
            tops = sorted(c for c in adj[a] & adj[b]
                          if tuple(sorted((a, b, c))) not in present)
            if tops:
                return tuple(sorted((a, b, rng.choice(tops))))
        return None

    while len(tris) < n_triangles:
        if bubble_after and bubble_after[0] <= ordinary:
            bubble_after.pop(0)
            a, b, c = rng.choice(tris)
            for t in ((a, b, n), (b, c, n), (a, c, n)):
                add(t)
            n += 1
            continue
        new = None
        if not free_edges_only:
            r = rng.random()
            if r < p_hole:
                new = hole()
            elif r < p_hole + p_angle:
                new = angle()
        if new is None:
            pool = [e for e in edges if uses[e] == 1] if free_edges_only else edges
            a, b = rng.choice(pool)
            new = (a, b, n)
            n += 1
        add(new)
        ordinary += 1
    return tris


def annulus(k: int) -> list[Triangle]:
    """A triangulated annulus with 2k triangles between two k-cycles (k >= 3)."""
    tris = []
    for i in range(k):
        j = (i + 1) % k
        tris.append(tuple(sorted((i, j, k + i))))
        tris.append(tuple(sorted((j, k + i, k + j))))
    return tris


def moebius(n: int) -> list[Triangle]:
    """The Möbius strip on n (odd, >= 5) vertices: consecutive triples mod n."""
    return [tuple(sorted((i, (i + 1) % n, (i + 2) % n))) for i in range(n)]


def wedge(left: list[Triangle], right: list[Triangle]) -> list[Triangle]:
    """Two complexes glued at one vertex: vertex 0 of each is shared."""
    shift = 1 + max(v for t in left for v in t)
    moved = [tuple(sorted(0 if v == 0 else v + shift for v in t)) for t in right]
    return left + moved


def tetrahedron_boundary() -> list[Triangle]:
    return list(combinations(range(4), 3))


def is_flag(tris: list[Triangle]) -> bool:
    """Every 3-clique of the 1-skeleton spans a triangle."""
    present = set(tris)
    adj: dict[int, set[int]] = {}
    for t in tris:
        for a, b in combinations(t, 2):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    for a in adj:
        for b in adj[a]:
            for c in adj[a] & adj[b]:
                if a < b < c and (a, b, c) not in present:
                    return False
    return True


def reduced_euler(tris: list[Triangle]) -> int:
    verts = {v for t in tris for v in t}
    edges = {e for t in tris for e in combinations(t, 2)}
    return -1 + len(verts) - len(edges) + len(tris)


# -- labels and files --------------------------------------------------------------

def relabel(rng: random.Random, tris: list[Triangle]) -> list[tuple[str, ...]]:
    """Give vertices seeded labels, so the id order (and search order) varies."""
    verts = sorted({v for t in tris for v in t})
    names = rng.sample(range(10 * len(verts)), len(verts))
    label = {v: f"v{name}" for v, name in zip(verts, names)}
    return [tuple(label[v] for v in t) for t in tris]


def subdivide(faces: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Barycentric subdivision on labels, naming a face's barycentre "{a|b}"."""
    out = []
    for face in faces:
        for order in permutations(face):
            out.append(tuple("{" + "|".join(sorted(order[:k + 1])) + "}"
                             for k in range(len(order))))
    return out


def sc_text(faces) -> str:
    return "".join(" ".join(f) + "\n" for f in faces)


def edges_of(faces) -> list[tuple[str, str]]:
    return sorted({tuple(sorted(e)) for f in faces for e in combinations(f, 2)})


# -- workloads ----------------------------------------------------------------------

class _Writer:
    """Collects the calls and the text of each input file, in memory."""

    def __init__(self, directory: Path, budget: int):
        self.dir = directory
        self.budget = budget
        self.calls: list[Call] = []
        self.files: dict[str, str] = {}

    def file(self, name: str, faces) -> str:
        path = str(self.dir / f"{name}.sc")
        self.files[path] = sc_text(faces)
        return path

    def call(self, name, command, path, expect, family, extra=(), **meta):
        argv = [command, "--in", path, "--json", "--budget", str(self.budget), *extra]
        self.calls.append(Call(name, argv, expect, family, meta))


def build_chain(rng: random.Random, w: _Writer) -> None:
    # As in build_shell, the median falls inside the band of flag disks and
    # the 90th percentile among the 6-triangle non-flag inputs.
    #
    # Small non-flag shelled complexes: the CLI subdivides them twice
    # (36 facets per triangle), so complexes and certificates dominate.
    for i, t in enumerate([3, 4, 5, 6, 6, 6] * 2):
        while True:
            tris = grow_shelled(rng, t, p_angle=0.5)
            if not is_flag(tris):
                break
        path = w.file(f"nonflag{i:02d}", relabel(rng, tris))
        w.call(f"nonflag{i:02d}", "chain", path, "complete", "nonflag-sd2", size=t)
    # Flag disks run as they are, without subdivision.
    for i, t in enumerate(list(range(15, 23)) + [25, 26, 27, 28] * 5 + [32, 36, 40]):
        tris = grow_shelled(rng, t, free_edges_only=True)
        path = w.file(f"disk{i:02d}", relabel(rng, tris))
        w.call(f"disk{i:02d}", "chain", path, "complete", "flag-disk", size=t)
    # Known defect: sd^2 of >= 28 triangles has >= 1008 facets and the
    # recursive shelling search exceeds the interpreter's recursion limit.
    for i, t in enumerate([28, 30]):
        while True:
            tris = grow_shelled(rng, t, p_angle=0.3)
            if not is_flag(tris):
                break
        path = w.file(f"deep{i}", relabel(rng, tris))
        w.call(f"deep{i}", "chain", path, "complete", "nonflag-sd2-deep", size=t)


def build_shell(rng: random.Random, w: _Writer, harness) -> None:
    # The mix is laid out so that the median falls inside a band of forty
    # 100-facet grown complexes and the 90th percentile inside a band of
    # ~300-facet grown complexes and budget-bound refutations, where
    # neighbouring calls cost alike: a percentile that fell between two size
    # classes would swing with the seed.
    #
    # Small inputs answered by the brute-force oracle: every class of
    # harness.enumerate_pure2(5, 5), relabelled, and seeded
    # harness.sample_pure2 draws.
    small = list(harness.enumerate_pure2(5, 5))
    small += [harness.sample_pure2(rng, 6, 4)[0] for _ in range(11)]
    for i, K in enumerate(small):
        path = w.file(f"small{i:02d}", relabel(rng, K.facets))
        answer = harness.oracle_shelling(K)
        w.call(f"small{i:02d}", "shell", path, f"oracle-shelling={answer}", "small")
    # Refutable inputs: nonzero first Betti number (annulus, Moebius strip)
    # or a disconnected vertex link (wedge of two disks at a vertex).  They
    # end unshellable, and their subdivisions at the budget.
    refutable = [("annulus", annulus(3)), ("annulus", annulus(4)), ("annulus", annulus(5)),
                 ("moebius", moebius(5)), ("moebius", moebius(7))]
    for k in (3, 4, 5):
        refutable.append(("wedge", wedge(grow_shelled(rng, k, free_edges_only=True),
                                         grow_shelled(rng, k, free_edges_only=True))))
    for i, (family, tris) in enumerate(refutable):
        faces = relabel(rng, tris)
        path = w.file(f"{family}{i}", faces)
        w.call(f"{family}{i}", "shell", path, "unshellable", family, size=len(faces))
        if i in (0, 3, 5):
            path = w.file(f"{family}{i}_sd", subdivide(faces))
            w.call(f"{family}{i}_sd", "shell", path, "unshellable", family + "-sd",
                   size=6 * len(faces))
    # Shellable grown complexes and their subdivisions: the search places
    # one facet per node, and the cost is the candidate scan per node.
    grown = [50, 150, 200, 250] + [100] * 40 + [300] * 10
    for i, t in enumerate(grown):
        faces = relabel(rng, grow_shelled(rng, t, p_angle=0.2, p_hole=0.05))
        path = w.file(f"grown{i:02d}", faces)
        w.call(f"grown{i:02d}", "shell", path, "shellable", "grown", size=t)
    for i, t in enumerate([10, 20, 40, 60, 150]):
        faces = subdivide(relabel(rng, grow_shelled(rng, t, p_angle=0.2, p_hole=0.05)))
        path = w.file(f"grown_sd{i}", faces)
        w.call(f"grown_sd{i}", "shell", path, "shellable", "grown-sd", size=6 * t)
    # Known defect: shellable inputs past ~1000 facets exceed the recursion limit.
    for i, t in enumerate([1100, 1150]):
        faces = relabel(rng, grow_shelled(rng, t, p_angle=0.2))
        path = w.file(f"huge{i}", faces)
        w.call(f"huge{i}", "shell", path, "shellable", "grown-deep", size=t)


def build_collapse(rng: random.Random, w: _Writer) -> None:
    # As in build_shell, the median falls inside a band of 12-18-triangle
    # disks and the 90th percentile inside a band of 38-42-triangle disks
    # and budget-bound refutations.
    #
    # Contractible disks: greedy collapse, cost grows about cubically.
    sizes = [t for t in range(12, 19) for _ in range(3)] + [22, 26, 30, 34]
    sizes += [t for t in range(38, 43) for _ in range(2)]
    for i, t in enumerate(sizes):
        path = w.file(f"disk{i:02d}", relabel(rng, grow_shelled(rng, t, free_edges_only=True)))
        w.call(f"disk{i:02d}", "collapse", path, "collapsible", "disk", size=t)
    # Shelled complexes with chi~ >= 1: removing chi~ triangles leaves a
    # collapsible complex, so --k chi~ answers yes.
    for i, (t, bubbles) in enumerate([(5, 1), (6, 1), (7, 1), (7, 2), (8, 1), (8, 2)]):
        tris = grow_shelled(rng, t, bubbles=bubbles)
        path = w.file(f"spheres{i}", relabel(rng, tris))
        w.call(f"spheres{i}", "collapse", path, "collapsible", "shelled-chi",
               extra=("--k", str(reduced_euler(tris))), size=t)
    faces = subdivide(relabel(rng, tetrahedron_boundary()))
    path = w.file("sd_tetra", faces)
    w.call("sd_tetra", "collapse", path, "collapsible", "sd-tetrahedron",
           extra=("--k", "1"), size=len(faces))
    # Not collapsible (chi~ = -1): refuted or out of budget.
    for i, (family, tris) in enumerate([("annulus", annulus(3)), ("annulus", annulus(4)),
                                        ("moebius", moebius(5)), ("moebius", moebius(7))]):
        path = w.file(f"{family}{i}", relabel(rng, tris))
        w.call(f"{family}{i}", "collapse", path, "not-collapsible", family,
               size=len(tris))


def triangle_count(edges) -> int:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sum(1 for u, v in edges for w in adj[u] & adj[v] if w > max(u, v))


def build_wsat(rng: random.Random, w: _Writer, harness) -> None:
    # Seeded connected G(n, p) from the program's own sampler, redrawn until
    # it has m edges (and, where given, t triangles).  Sparse graphs on 6-8
    # vertices (with the skeletons below) make up the median.  Graphs with
    # 9 vertices, 13 edges and 3 triangles make up the 90th percentile:
    # their wsat number is 10, so wsat --number scans every 8- and 9-edge
    # subset first.  Fixing t keeps that scan, and so the cost per pass,
    # steady from seed to seed; with t free it ranges from one subset to
    # all of them.  Each graph gets the tree-size decision and the exact
    # number, which must agree.
    slots = [(6, 8, None), (6, 10, None), (7, 9, None), (8, 10, None)] * 6
    slots += [(9, 13, 3)] * 16
    for i, (n, m, t) in enumerate(slots):
        while True:
            G = harness.sample_connected_graph(rng, n, m / (n * (n - 1) / 2))
            edges = G.faces_of_dim(1)
            if len(edges) == m and t in (None, triangle_count(edges)):
                break
        faces = [G.label_face(f) for f in G.facets]
        path = w.file(f"gnp{i:02d}", faces)
        answer = harness.oracle_wsat(G) if n <= harness.ORACLE_MAX_VERTICES else None
        w.call(f"gnp{i:02d}", "wsat", path, "wsat-consistent", "gnp",
               size=(n, m, t), n=n, oracle=answer)
        w.call(f"gnp{i:02d}#", "wsat", path, "wsat-consistent", "gnp",
               extra=("--number",), size=(n, m, t), n=n, oracle=answer)
    # 1-skeletons of shelled complexes: the answer is yes.
    for i, t in enumerate([4, 5, 6, 6, 7, 8]):
        faces = relabel(rng, grow_shelled(rng, t, p_angle=0.3))
        n = len({v for f in faces for v in f})
        path = w.file(f"skel{i}", edges_of(faces))
        w.call(f"skel{i}", "wsat", path, "wsat-yes", "shelled-skeleton", size=t, n=n)
        w.call(f"skel{i}#", "wsat", path, f"wsat-number={n - 1}", "shelled-skeleton",
               extra=("--number",), size=t, n=n)


WORKLOADS = ("chain", "shell", "collapse", "wsat")


def build(workload: str, seed: int, directory: Path, harness):
    """Generate the workload's corpus for files under ``directory``.

    Returns the calls and a map from file path to ``.sc`` text; nothing is
    written (see ``write``).
    """
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(directory, BUDGETS[workload])
    if workload == "chain":
        build_chain(rng, w)
    elif workload == "shell":
        build_shell(rng, w, harness)
    elif workload == "collapse":
        build_collapse(rng, w)
    elif workload == "wsat":
        build_wsat(rng, w, harness)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w.calls, w.files


def write(files: dict[str, str]) -> None:
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
