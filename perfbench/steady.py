"""Steadiness check: two sets of benchmark runs of one commit, interleaved.

Usage, from the root of a hardylab checkout:

    python3 perfbench/steady.py --runs 10 --seconds 20

Each pass i makes one run of every workload in BENCHMARK.json in each of the
sets A and B, both on seed 1000 + i, so the two sets see the same inputs and
differ only in when they ran.  The set that goes first alternates from pass
to pass and the workload order rotates, so slow phases of a shared machine
fall on both sets alike.

For every workload and end-to-end metric it prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) /
median, and the drift of set B's median from set A's in the metric's worse
direction, beside the bound in BENCHMARK.json.  The share of failed
operations of each set is printed too.  Every run's result is written as
JSON to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETS = ("A", "B")
SEED_BASE = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = {(s, w): [] for s in SETS for w in workloads}
    for i in range(args.runs):
        sets = SETS if i % 2 == 0 else SETS[::-1]
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for s in sets:
            for w in order:
                started = time.monotonic()
                res = run_once(w, SEED_BASE + i, args.seconds)
                results[(s, w)].append(res)
                summary = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"[{i}] set {s} {w}: {summary} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"({time.monotonic() - started:.0f} s)", flush=True)

    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    dump = {f"{s}/{w}": v for (s, w), v in results.items()}
    (out_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(dump, indent=1))

    print(f"\n{'workload':17} {'metric':13} " + " ".join(
        f"{'set ' + s + ' median [Q1, Q3] spread':>38}" for s in SETS) + "  drift  bound")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, worse = metric["name"], (1 if metric["better"] == "lower" else -1)
            cells, medians = [], []
            for s in SETS:
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                cells.append(f"{med:11.4g} [{q1:.4g}, {q3:.4g}] {(q3 - q1) / med:6.3f}")
            drift = worse * (medians[1] - medians[0]) / medians[0]
            print(f"{w:17} {name:13} " + " ".join(f"{c:>38}" for c in cells)
                  + f" {drift:+6.3f}  {metric['bound']}")
        shares = []
        for s in SETS:
            rs = results[(s, w)]
            shares.append(f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}")
        correct = all(r["correct"] for s in SETS for r in results[(s, w)])
        print(f"{w:17} failed share per set: {', '.join(shares)}; all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
