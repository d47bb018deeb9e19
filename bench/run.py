#!/usr/bin/env python3
"""Benchmark of the shellsat CLI: four seeded workloads, each a closed loop.

One caller in one process calls ``shellsat.cli.main(argv)`` in-process,
the next call after the previous one returns, over a corpus of ``.sc``
files written in set-up.  A run builds the corpus several times (set-up
time is their median), runs one warm-up pass whose every verdict and
certificate goes through the untimed correctness gate, then repeats timed
passes over the same calls until ``--seconds`` have passed and at least
100 calls were timed.  Every timed call must reproduce its warm-up output
byte for byte.

    python3 bench/run.py --workload chain --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --seed 0          # every workload, one process each

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from traced passes with ``--trace 1``.  The exit code is
1 when a verdict or certificate is wrong.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import corpus
import spans
from gate import Gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
# The reference kernel's time on the 2-core x86-64 host the bounds were set
# on; calibrated times are seconds on a machine running it this fast.
REF_NOMINAL_S = 0.002
MIN_CALLS = 100
MIN_PASSES = 3

END_TO_END = {
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layers whose self time (seconds per corpus pass) is reported as "<name>.s".
SELF_TIMED = (
    "complexes.parse_sc", "complexes.from_facets", "complexes.skeleton",
    "complexes.barycentric_subdivision", "complexes.is_flag2",
    "shelling.find_shelling", "shelling.verify",
    "collapse.is_collapsible", "collapse.after_removing", "collapse.verify",
    "wsat.decide_tree", "wsat.number", "wsat.verify",
    "certificates.run_chain", "certificates.shelling_to_saturated_tree",
    "certificates.saturation_to_collapse", "certificates.report",
)
SEARCH_LAYERS = {
    "shelling": ("shelling.find_shelling",),
    "collapse": ("collapse.is_collapsible", "collapse.after_removing"),
    "wsat": ("wsat.decide_tree", "wsat.number"),
}
PER_LAYER = {f"{name}.s": "s" for name in SELF_TIMED}
PER_LAYER["cli.self.s"] = "s"
PER_LAYER["complexes.facets_built_per_s"] = "1/s"
for _layer in SEARCH_LAYERS:
    PER_LAYER[f"{_layer}.nodes"] = "count"
    PER_LAYER[f"{_layer}.nodes_per_s"] = "1/s"
for _layer in ("shelling", "collapse"):
    PER_LAYER[f"{_layer}.useful_ratio"] = "ratio"
PER_LAYER["trace.overhead_s"] = "s"


def load_program():
    """Import ``shellsat`` from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "shellsat" / "cli.py").is_file():
        sys.exit(f"error: shellsat sources not found under {src}")
    sys.path.insert(0, str(src))
    import shellsat
    import shellsat.cli
    if Path(shellsat.__file__).resolve().parent != (src / "shellsat").resolve():
        sys.exit(f"error: imported shellsat from {shellsat.__file__}, not {src}")
    return shellsat


def build_corpus(workload: str, seed: int, harness, directory: Path):
    """Generate the corpus SETUP_REPEATS times, then write its files once.

    Returns the calls, the calibrated time of each generation, and whether
    every repeat gave the same file texts.  Writing is not timed: on the
    tuning host, writing a corpus's few dozen small files took anywhere
    from 2 to 40 ms, whatever the program did.
    """
    times, texts = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        start = perf_counter()
        calls, files = corpus.build(workload, seed, directory, harness)
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * REF_NOMINAL_S / (before + reference_time()))
        texts.append(files)
    shutil.rmtree(directory, ignore_errors=True)
    corpus.write(files)
    return calls, times, all(t == texts[0] for t in texts)


def invoke(cli, argv):
    """One CLI call; returns (exit code or exception name, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not the end of the run
            rc = type(exc).__name__
        elapsed = perf_counter() - start
    return rc, out.getvalue(), elapsed


def _step(x: int) -> int:
    return (x * 7 + 3) % 11


_FACES = [face for k in (1, 2, 3) for face in combinations(range(10), k)]


def reference_kernel() -> int:
    """Fixed pure-Python work like a CLI call's, needing nothing from the
    program: calls and integer arithmetic, building and running a small
    argparse parser, and subset tests between small sets, the shape of the
    program's face-lattice scans."""
    total = 0
    for i in range(5_000):
        total += _step(i)
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d"):
        command = sub.add_parser(name)
        command.add_argument("--in", dest="infile")
        command.add_argument("--json", action="store_true")
        command.add_argument("--budget", type=int, default=5)
    total += parser.parse_args(["b", "--in", "f", "--json", "--budget", "7"]).budget
    for tau in _FACES[10:40]:
        below = set(tau)
        total += sum(1 for g in _FACES if len(g) > len(tau) and below < set(g))
    return total


def reference_time() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def run_pass(cli, calls, tracer=None):
    """Call every corpus entry once, in order, timing the reference kernel
    before the first call and after each one.  Returns the results and the
    len(calls) + 1 reference times."""
    if tracer is not None:
        tracer.install()
    results = []
    refs = [reference_time()]
    for call in calls:
        if tracer is not None:
            tracer.begin_call()
        results.append(invoke(cli, call.argv))
        refs.append(reference_time())
    if tracer is not None:
        tracer.uninstall()
    return results, refs


def calibrated(results, refs) -> list[float]:
    """Each call's seconds at the nominal machine speed.

    The machine's speed drifts by tens of percent within seconds (other
    tenants share its cores), so each call's time is divided by the mean of
    the reference kernel's times just before and just after it, and
    multiplied by the kernel's nominal time.
    """
    return [r[2] * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1])
            for i, r in enumerate(results)]


def pass_seconds(passes: list[list[float]]) -> float:
    """Seconds of one pass: the sum over calls of each call's median time."""
    return sum(statistics.median(column) for column in zip(*passes))


def layer_metrics(pass_spans: list[list], speed: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, times scaled by ``speed``."""
    totals = spans.layer_totals(pass_spans)

    def get(name, key):
        value = totals.get(name, {}).get(key, 0)
        return value * speed if key in ("self", "incl") else value

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.s": get(name, "self") for name in SELF_TIMED}
    m["cli.self.s"] = get("cli.main", "self")
    constructors = ("complexes.from_facets", "complexes.parse_sc")
    m["complexes.facets_built_per_s"] = ratio(sum(get(c, "built") for c in constructors),
                                              sum(get(c, "incl") for c in constructors))
    for layer, names in SEARCH_LAYERS.items():
        nodes = sum(get(n, "nodes") for n in names)
        m[f"{layer}.nodes"] = nodes
        m[f"{layer}.nodes_per_s"] = ratio(nodes, sum(get(n, "incl") for n in names))
        if f"{layer}.useful_ratio" in PER_LAYER:
            m[f"{layer}.useful_ratio"] = ratio(sum(get(n, "useful") for n in names), nodes)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    lib = load_program()
    from shellsat import cli, harness

    work = OUT / f"{workload}-{seed}"
    calls, setup_times, identical = build_corpus(workload, seed, harness, work / "corpus")
    reference, _ = run_pass(cli, calls)
    statuses = Gate(lib).check_pass(calls, reference)
    bad = [s.startswith(("error", "wrong")) for s in statuses]

    tracer = spans.Tracer() if trace else None
    latencies = []            # untraced passes: calibrated seconds per call
    traced_latencies = []     # traced passes: the same
    layers = []               # traced passes: per-layer metrics
    raw = {"latencies": [], "refs": []}
    mismatches = failed = passes = timed = 0
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or passes < min_passes or timed < MIN_CALLS:
        traced = trace and len(layers) < len(latencies)
        first_span = len(tracer.spans) if traced else 0
        results, refs = run_pass(cli, calls, tracer if traced else None)
        if traced:
            speed = REF_NOMINAL_S / statistics.median(refs)
            layers.append(layer_metrics(tracer.spans[first_span:], speed))
            traced_latencies.append(calibrated(results, refs))
        else:
            latencies.append(calibrated(results, refs))
            raw["latencies"].append([r[2] for r in results])
            raw["refs"].append(refs)
        for (rc, out, _), (ref_rc, ref_out, _), is_bad in zip(results, reference, bad):
            mismatch = rc != ref_rc or out != ref_out
            mismatches += mismatch
            failed += mismatch or is_bad
        passes += 1
        timed += len(results)

    correct = identical and mismatches == 0 and not any(s.startswith("wrong") for s in statuses)
    if trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (pass_seconds(traced_latencies)
                                       - pass_seconds(latencies))
        units = PER_LAYER
        (work / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        pooled = [t for p in latencies for t in p]
        metrics = {
            "calls_per_s": len(calls) / pass_seconds(latencies),
            "latency_p50_ms": 1000 * statistics.median(pooled),
            "latency_p90_ms": 1000 * statistics.quantiles(pooled, n=10)[8],
            "decided_ratio": sum(rc in (0, 1) for rc, _, _ in reference) / len(calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    (work / "latencies.json").write_text(json.dumps(
        {"calls": [c.name for c in calls], **raw}), encoding="utf-8")

    summary = {
        "workload": workload, "seed": seed, "calls_per_pass": len(calls),
        "passes": passes, "latency_samples": sum(map(len, latencies)),
        "speed": statistics.median(REF_NOMINAL_S / statistics.median(r) for r in raw["refs"]),
        "error_ratio": sum(bad) / len(calls), "corpus_identical": identical,
        "output_mismatches": mismatches,
        "undecided": [c.name for c, s in zip(calls, statuses) if s == "undecided"],
        "problems": sorted({f"{c.name}: {s}" for c, s in zip(calls, statuses)
                            if s.startswith(("error", "wrong"))}),
    }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": timed, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    for workload in corpus.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            result = json.loads(lines[-1])
            summary = json.loads(proc.stderr.strip().splitlines()[-1])
            wrong = sum(p.split(": ", 1)[1].startswith("wrong") for p in summary["problems"])
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wrong_verdicts={wrong} "
                  f"error_ratio={summary['error_ratio']:.4g}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
