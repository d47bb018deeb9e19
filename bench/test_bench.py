"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They check that a seed fixes the corpus bytes, the exit codes and the
search node counts; that a held-out seed gives other inputs of the same
families and sizes; that every metric named in BENCHMARK.json is printed
with its unit; and that the benchmark fails without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run.load_program()
from shellsat import cli, harness  # noqa: E402


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def shape(calls):
    return [(c.name, c.family, c.argv[0], c.argv[5:], c.meta.get("size")) for c in calls]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_seed_fixes_corpus_exit_codes_and_nodes(workload, tmp_path):
    outcomes = []
    for side in ("a", "b"):
        calls, files = corpus.build(workload, 7, tmp_path / side, harness)
        corpus.write(files)
        tracer = spans.Tracer()
        results, _ = run.run_pass(cli, calls, tracer)
        nodes = {name: value for name, value in run.layer_metrics(tracer.spans, 1.0).items()
                 if name.endswith(".nodes")}
        outcomes.append(([r[0] for r in results], nodes))
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_held_out_seed_changes_inputs_not_families_or_sizes(workload, tmp_path):
    seen, files = corpus.build(workload, 0, tmp_path / "seen", harness)
    corpus.write(files)
    held_out, files = corpus.build(workload, 1000, tmp_path / "held_out", harness)
    corpus.write(files)
    assert shape(seen) == shape(held_out)
    a, b = read_tree(tmp_path / "seen"), read_tree(tmp_path / "held_out")
    assert a.keys() == b.keys()
    assert sum(a[name] != b[name] for name in a) > len(a) // 2


def test_every_listed_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "collapse",
             "--seed", "0", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= run.MIN_CALLS
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
