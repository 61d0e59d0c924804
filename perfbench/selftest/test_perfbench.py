"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/selftest -q

Checks that one run prints every metric BENCHMARK.json declares, with
its unit; that a seed fixes the item inputs byte for byte and that no
item repeats another's inputs; that a single changed stdout byte is
counted as a failed item; that a span whose target is gone reads -1,
not 0; and that the runner refuses to produce a result without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    proc = bench("--workload", "solve-mixed", "--seed", "3",
                 "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in spec()[key]}
    assert printed == declared
    assert "digests not checked" in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    def inputs(seed):
        return [workloads.make_item(workload, seed, i).input_bytes()
                for i in range(24)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_items_do_not_repeat_inputs(workload):
    items = [workloads.make_item(workload, 5, i) for i in range(200)]
    inputs = [item.input_bytes() for item in items]
    assert len(set(inputs)) == len(inputs)
    if workload == "certify-q2":
        # the map and N fix the cell values; few items may share them
        keys = [(item.files, item.argv[item.argv.index("-N") + 1])
                for item in items]
        assert len(keys) - len(set(keys)) <= len(keys) // 10


def test_one_flipped_stdout_byte_counts_as_failed():
    seed = workloads.DEFAULT_SEED
    golden = run.load_golden("solve-mixed", seed)
    assert golden is not None
    run.require_sources()
    runner = run.Runner(run.load_cli(), "solve-mixed", seed, golden)
    item = runner.prepare(0)
    code, out, _ = runner.call(item)
    assert runner.problem(0, item, code, out) is None
    # change one digit, so the copy is still well-formed JSON
    pos = next(i for i, ch in enumerate(out) if ch.isdigit())
    flipped = out[:pos] + str((int(out[pos]) + 1) % 10) + out[pos + 1:]
    json.loads(flipped)
    for text in (out, flipped):
        runner.record(0, item, runner.problem(0, item, code, text))
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "digest" in runner.failures[0]


def test_no_result_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "extremal-q2", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_span_reads_minus_one(monkeypatch):
    import tracer

    spans = dict(tracer.SPANS, **{"cli.gone": ("ffdioph.cli", "no_such")})
    monkeypatch.setattr(tracer, "SPANS", spans)
    runner = run.Runner(run.load_cli(), "solve-mixed", 3, None)
    metrics = run.per_layer(runner, 0.2)
    assert metrics["trace.missing_spans"][0] == 1
    for key in ("calls", "self_s", "total_s"):
        assert metrics[f"cli.gone.{key}"][0] == run.MISSING
    assert metrics["cli.main.calls"][0] > 0
