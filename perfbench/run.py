"""ffdioph benchmark: closed-loop CLI workloads with golden-output checks.

Run from anywhere inside a checkout (the sources are taken from the
``src`` directory next to this one):

    python3 perfbench/run.py --workload extremal-q2 --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single caller, no
threads, each item starting only after the previous one returned.  An
item is one in-process ``ffdioph.cli.main(argv)`` call with stdout
captured, i.e. what a CLI user pays per invocation minus interpreter
start-up, which ``setup_s`` measures separately in fresh interpreters
(one at a time, the only other processes started).

Every item's exit code and stdout are checked: the output must parse and
agree with the item (see ``workloads.check_output``), and on the seeds in
``golden.json`` its digest must equal the digest recorded when the
benchmark was defined.  Other seeds are checked structurally only, and
the run says so.

``--trace 0`` prints the end-to-end metrics: item throughput and
latency, each item's wall time scaled by the machine speed measured
right after it (see the calibration section below; the figures as
measured are printed above the result), set-up time scaled the same
way, and peak RSS.  ``--trace 1`` prints the per-layer metrics: kernel
micro-timings, then each item run once plain and once with the span
wrappers of ``tracer.py`` installed (alternating which goes first),
which gives span calls and self time per item, the output ratios, and
the tracing overhead; plain and traced stdout must match byte for byte.
Per-layer times are as measured, with the calibration chunk's median
beside them.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DIGEST_HEX = 12
SETUP_REPEATS = 7
WARMUP_ITEMS = 2
MIN_ITEMS = 110      # so that p90 has at least ten items beyond it
MIN_TRACED_ITEMS = 10
KERNEL_REPEATS = 3
SHOWN_FAILURES = 5
MISSING = -1         # per-span value of a span whose target is gone

sys.path.insert(0, HERE)

import workloads  # noqa: E402

# what one fresh interpreter pays before a CLI command does its work
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ffdioph, ffdioph.cli\n"
    "from ffdioph.algebra.field import FieldSpec\n"
    "from ffdioph.algebra.poly import ops_for\n"
    "ffdioph.cli.build_parser()\n"
    "for q in sys.argv[2:]:\n"
    "    ops_for(FieldSpec.get(int(q)))\n"
)


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "ffdioph", "cli.py")):
        raise SystemExit(f"error: no ffdioph sources under {SRC}")


def load_cli():
    """Import ffdioph.cli from this checkout's sources, never elsewhere."""
    sys.path.insert(0, SRC)
    import ffdioph.cli

    where = os.path.dirname(os.path.abspath(ffdioph.cli.__file__))
    if where != os.path.join(SRC, "ffdioph"):
        raise SystemExit(f"error: ffdioph was imported from {where}")
    return ffdioph.cli


def setup_argv(fields):
    return [sys.executable, "-I", "-c", SETUP_CODE, SRC,
            *(str(q) for q in fields)]


def time_setup(argv):
    """Wall time of one fresh interpreter's import and set-up."""
    t0 = time.perf_counter()
    # no timeout: waiting with one polls in sleeps of up to 50 ms, which
    # would quantize the measurement
    subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


# -- machine-speed calibration ------------------------------------------------
#
# The machine this benchmark was defined on is shared: its speed moves
# by up to +-25% in phases of seconds to minutes, for every process
# alike.  A fixed chunk of pure-Python work, run right after each item,
# measures that speed where the item ran.  Each item's wall time is
# scaled by CAL_REF_S over the median chunk time of the CAL_WINDOW items
# on either side, so the end-to-end figures read as times on a machine
# whose chunk takes CAL_REF_S.  The chunk runs only this file's code, so
# no change to ffdioph alters it.

CAL_REF_S = 0.6e-3   # about the chunk's time on the defining machine
CAL_WINDOW = 5
CAL_WARMUP = 20
_CAL_A = tuple((7 * i + 3) % 3 for i in range(40))
_CAL_B = tuple((5 * i + 1) % 3 for i in range(40))


def _convolve3(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 3
    return tuple(out)


def calibration_chunk():
    """Tuple, dict and small-int work of the kind the library does."""
    seen = {}
    acc = _CAL_A
    for k in range(4):
        acc = _convolve3(acc[:40], _CAL_B)
        seen[acc] = k
    x = 0
    for k in range(2000):
        x ^= (x << 1) ^ k
        x &= 0xFFFFFFFFFFFF
    return seen, x


def time_calibration():
    t0 = time.perf_counter()
    calibration_chunk()
    return time.perf_counter() - t0


def speed_scale(cal_times):
    """Per-item factor that turns wall time into reference-machine time."""
    n = len(cal_times)
    return [CAL_REF_S / statistics.median(
        cal_times[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        for i in range(n)]


def digest(code, out):
    text = f"exit={code}\n{out}".encode()
    return hashlib.sha256(text).hexdigest()[:DIGEST_HEX]


def load_golden(workload, seed):
    """Recorded digests for (workload, seed), or None if not recorded."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    packed = doc["digests"].get(str(seed), {}).get(workload)
    if packed is None:
        return None
    return [packed[i:i + DIGEST_HEX] for i in range(0, len(packed),
                                                     DIGEST_HEX)]


def call_cli(cli, argv):
    """One closed-loop item: (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            # looked up per call, so that the tracer's wrapper is seen
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    except Exception as exc:  # an item that raised is a failed item
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


class Runner:
    """Generates, runs and checks the items of one (workload, seed)."""

    def __init__(self, cli, workload, seed, golden):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.failures = []
        self._written = {}
        self.work = os.path.join(WORK_DIR, workload)
        os.makedirs(self.work, exist_ok=True)

    def prepare(self, index):
        """Build item ``index`` and write the files it reads."""
        item = workloads.make_item(self.workload, self.seed, index)
        for name, text in item.files:
            if self._written.get(name) != text:
                with open(os.path.join(self.work, name), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
                self._written[name] = text
        return item

    def call(self, item):
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            return call_cli(self.cli, item.argv)
        finally:
            os.chdir(cwd)

    def problem(self, index, item, code, out):
        """Why this output is wrong, or None when it is right."""
        if code != 0:
            return f"exit code {code!r}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        reason = workloads.check_output(item, doc)
        if reason:
            return reason
        if self.golden is not None and index < len(self.golden):
            self.digests_checked += 1
            if digest(code, out) != self.golden[index]:
                return "stdout digest differs from the golden digest"
        return None

    def record(self, index, item, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append(f"item {index} {list(item.argv)}: "
                                     f"{reason}")

    def warm_up(self):
        for index in range(WARMUP_ITEMS):
            self.call(self.prepare(index))


def end_to_end(runner, seconds, fields):
    runner.warm_up()
    for _ in range(CAL_WARMUP):
        time_calibration()
    argv = setup_argv(fields)
    # set-up runs are spread over the measured phase, between items, and
    # each is scaled by the machine speed measured around it
    setups = []      # (index of the next item, raw seconds)
    latencies = []
    cal_times = []   # one calibration chunk right after each item
    busy = 0.0
    index = 0
    while busy < seconds or index < MIN_ITEMS:
        if busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append((index, time_setup(argv)))
        item = runner.prepare(index)
        code, out, dt = runner.call(item)
        runner.record(index, item, runner.problem(index, item, code, out))
        latencies.append(dt)
        cal_times.append(time_calibration())
        busy += dt
        index += 1
    while len(setups) < SETUP_REPEATS:
        setups.append((index - 1, time_setup(argv)))

    scale = speed_scale(cal_times)
    norm = [dt * k for dt, k in zip(latencies, scale)]
    setup_norm = [t * scale[min(i, index - 1)] for i, t in setups]
    deciles = statistics.quantiles(norm, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{runner.workload}: {index} items; as measured: "
          f"{index / busy:.4g} items/s, p50 "
          f"{statistics.median(latencies) * 1e3:.4g} ms, p90 "
          f"{raw_deciles[8] * 1e3:.4g} ms, setup "
          f"{statistics.median(t for _, t in setups):.4g} s; calibration "
          f"chunk median {statistics.median(cal_times) * 1e3:.4g} ms "
          f"(reference {CAL_REF_S * 1e3:g} ms)")
    return {
        "items_per_s": (index / sum(norm), "1/s"),
        "item_p50_ms": (statistics.median(norm) * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def per_layer(runner, seconds):
    # both import ffdioph, which load_cli has put on the path by now
    from kernels import run_kernels
    from tracer import SPANS, Tracer

    t0 = time.perf_counter()
    metrics = {name: (value, "us") for name, value in
               run_kernels(KERNEL_REPEATS).items()}
    budget = max(seconds - (time.perf_counter() - t0), seconds / 2)

    runner.warm_up()
    tracer = Tracer()
    counts = {}
    cal_times = []
    plain_s = traced_s = 0.0
    index = 0
    while plain_s + traced_s < budget or index < MIN_TRACED_ITEMS:
        item = runner.prepare(index)
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    runs[traced] = runner.call(item)
                finally:
                    tracer.uninstall()
            else:
                runs[traced] = runner.call(item)
        code, out, dt = runs[False]
        plain_s += dt
        traced_s += runs[True][2]
        reason = runner.problem(index, item, code, out)
        if reason is None and runs[True][:2] != (code, out):
            reason = "traced output differs from the plain output"
        if reason is None:
            for key, value in workloads.output_counts(item,
                                                      json.loads(out)).items():
                counts[key] = counts.get(key, 0) + value
        runner.record(index, item, reason)
        cal_times.append(time_calibration())
        index += 1

    n = index
    for name in SPANS:
        rec = tracer.stats[name]
        values = (rec.calls / n, rec.self_s / n, rec.total_s / n)
        if name in tracer.missing:
            # never a count, so that 0 calls always means "resolved and
            # not called"
            values = (MISSING, MISSING, MISSING)
        for key, unit, value in zip(("calls", "self_s", "total_s"),
                                    ("calls/item", "s/item", "s/item"),
                                    values):
            metrics[f"{name}.{key}"] = (value, unit)
    metrics.update(workloads.ratio_metrics(counts, n))
    metrics["polylattice.reductions_per_profile"] = (
        tracer.profile_reductions / tracer.horizons if tracer.horizons
        else 0.0, "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics["trace.item_s"] = (plain_s / n, "s/item")
    metrics["trace.missing_spans"] = (len(tracer.missing), "count")
    metrics["bench.cal_chunk_ms"] = (statistics.median(cal_times) * 1e3,
                                     "ms")
    metrics["bench.failed_frac"] = (runner.failed / runner.attempted,
                                    "ratio")
    if tracer.missing:
        print("trace: missing spans: " + ", ".join(tracer.missing))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    require_sources()
    cli = load_cli()
    golden = load_golden(args.workload, args.seed)
    runner = Runner(cli, args.workload, args.seed, golden)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds,
                             workloads.WORKLOADS[args.workload].fields)

    if golden is None:
        print(f"{args.workload} seed {args.seed}: digests not checked "
              f"(no golden digests for this seed); outputs checked "
              f"structurally only")
    else:
        print(f"{args.workload} seed {args.seed}: {runner.digests_checked} "
              f"of {runner.attempted} items checked against golden digests")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
