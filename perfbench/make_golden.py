"""Record the golden stdout digests that run.py checks items against.

    python3 perfbench/make_golden.py

Runs items 0 .. ITEMS-1 of every workload on the default and the
held-out seed, requires each to pass the structural output checks, and
rewrites golden.json from scratch.  Re-run it only at a commit whose
outputs are known to be right: the digests define "correct" for every
later run.  ITEMS is several times what one run gets through at the
defining commit, so a faster program still has its outputs checked;
items past the recorded range are checked structurally only.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

ITEMS = {
    "extremal-q2": 1200,
    "extremal-q3": 1200,
    "certify-q2": 1400,
    "solve-mixed": 12000,
}


def main():
    run.require_sources()
    cli = run.load_cli()
    digests = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        per_seed = digests[str(seed)] = {}
        for name in workloads.WORKLOADS:
            runner = run.Runner(cli, name, seed, None)
            t0 = time.perf_counter()
            packed = []
            for index in range(ITEMS[name]):
                item = runner.prepare(index)
                code, out, _ = runner.call(item)
                reason = runner.problem(index, item, code, out)
                if reason is not None:
                    raise SystemExit(f"{name} seed {seed} item {index}: "
                                     f"{reason}")
                packed.append(run.digest(code, out))
            per_seed[name] = "".join(packed)
            print(f"{name} seed {seed}: {ITEMS[name]} items in "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digest_hex": run.DIGEST_HEX, "items": ITEMS,
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
