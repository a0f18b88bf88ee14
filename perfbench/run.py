"""hardylab benchmark: one workload per run, timed end to end or traced.

Usage, from the root of a hardylab checkout:

    python3 perfbench/run.py --workload lemmas --seed 47 --seconds 20 --trace 0

A run repeats whole rounds of its workload until ``--seconds`` have passed
and at least MIN_ROUNDS rounds are done.  A round is one ``hardylab run`` of
the workload's config, with ``--jobs 1`` and ``--seed``, in a fresh
interpreter (``child.py``).  Every round must write the same ``summary.csv``.
The last round's report then goes through the independent checks in
``outputs.py``, outside the timed region.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, each a median over rounds.  With ``--trace 1``,
rounds alternate untraced and traced, and the metrics are per layer, from
the traced rounds; ``trace.overhead_s`` is traced minus untraced report_s.

An operation is an ensemble trial or a configured check.  A trial with any
flag (``aborted: ...`` or ``vacuous``) or a check that does not pass counts
as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = BENCH.parent / "BENCHMARK.json"
# The machine's speed drifts in phases of about half a minute, so a run's
# median is steadier the longer the span it covers.  Three rounds bind only
# on `lemmas`, whose 15 s rounds would otherwise give two.  Each round also
# gives one set-up sample, so setup_s is a median of at least three.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170
# One BLAS thread: the run is single-process with --jobs 1, and a second
# BLAS thread would only contend for the two cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(config: Path, out: Path, seed: int | None, trace: bool) -> dict:
    """Start child.py, wait for it, and return its marks plus ``setup_s``."""
    result = out / "marks.json"
    out.mkdir(parents=True, exist_ok=True)
    spec = {"config": str(config), "out": str(out), "seed": seed, "trace": trace,
            "result": str(result)}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        env=child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode} on {config}")
    marks = json.loads(result.read_text())
    marks["setup_s"] = marks["config_loaded"] - spawned
    return marks


def count_operations(report: dict) -> tuple[int, int]:
    trials = report["trials"]
    checks = report["summary"]["checks"]
    failed = sum(1 for t in trials if t["flags"]) + sum(1 for c in checks.values() if not c["pass"])
    return len(trials) + len(checks), failed


def layer_metrics(marks: dict) -> dict:
    """Per-layer figures of one traced round, from its spans."""
    spans = marks["spans"]
    report_s = marks["done"] - marks["config_loaded"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    work: dict[str, int] = {}
    top_level = 0.0
    trial_s = []
    for i, (name, parent, start, end, units) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        work[name] = work.get(name, 0) + units
        if parent < 0 and start >= marks["config_loaded"]:
            top_level += end - start
        if name == "verify.run_trial":
            trial_s.append(end - start)

    out = {}
    for layer, fname in (
        ("operators", "apply_general"), ("operators", "apply_mixed"),
        ("operators", "apply_product"), ("operators", "apply_linear"),
        ("grid", "dft"), ("grid", "idft"),
        ("atoms", "make_atom"), ("maximal", "smooth_maximal"), ("maximal", "hl_maximal"),
    ):
        key = f"{layer}.{fname}"
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.s"] = self_s.get(key, 0.0)
    general = "operators.apply_general"
    out[f"{general}.tuples"] = work.get(general, 0)
    out[f"{general}.tuples_per_s"] = (
        work.get(general, 0) / total_s[general] if total_s.get(general) else 0.0
    )
    out[f"{general}.report_share"] = total_s.get(general, 0.0) / report_s

    stages = {
        "ensemble": "run_boundedness_ensemble", "scale_invariance": "scale_invariance_test",
        "cancellation": "check_cancellation", "decay": "check_decay_lemma",
        "local_estimate": "check_local_estimate", "pointwise_majorant": "check_pointwise_majorant",
        "fs_inequality": "check_fs_inequality",
    }
    for stage, fname in stages.items():
        out[f"verify.{stage}.s"] = total_s.get(f"verify.{fname}", 0.0)
    out["verify.trial.median_s"] = statistics.median(trial_s) if trial_s else 0.0
    out["verify.compute_trial_values.calls"] = calls.get("verify.compute_trial_values", 0)

    out["cli.import.s"] = marks["imported"] - marks["start"]
    out["cli.load_config.s"] = total_s.get("cli.load_config", 0.0)
    out["cli.other.s"] = report_s - sum(out[f"verify.{s}.s"] for s in stages)
    out["proc.user_s"] = marks["rusage"]["user_s"]
    out["proc.sys_s"] = marks["rusage"]["sys_s"]
    out["proc.minor_faults"] = marks["rusage"]["minor_faults"]
    out["trace.top_level_share"] = top_level / report_s
    return out


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="hardylab master seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "hardylab" / "cli.py").is_file():
        print("error: run from the root of a hardylab checkout (src/hardylab not found)",
              file=sys.stderr)
        return 2

    config = BENCH / "configs" / f"{args.workload}.ini"
    work = Path.cwd() / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, config, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, config: Path, work: Path, spec: dict) -> int:
    rounds: list[dict] = []
    summaries: set[bytes] = set()
    attempted = failed = 0
    started = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - started < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        out = work / f"round{len(rounds)}"
        marks = run_child(config, out, args.seed, traced)
        if marks["exit_code"] not in (0, 1):
            raise RuntimeError(f"hardylab run exited with {marks['exit_code']}")
        report = json.loads((out / "report.json").read_text())
        ops, bad = count_operations(report)
        attempted += ops
        failed += bad
        summaries.add((out / "summary.csv").read_bytes())
        marks["report_path"] = out / "report.json"
        rounds.append(marks)

    seed = 0 if args.seed is None else args.seed
    check = subprocess.run(
        [sys.executable, str(BENCH / "outputs.py"), str(rounds[-1]["report_path"]), str(seed)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = check.stdout.strip().splitlines()
    outcome = json.loads(lines[-1]) if lines else {"passed": False, "failures": [check.stderr]}
    correct = check.returncode == 0 and outcome["passed"] and len(summaries) == 1
    for msg in outcome["failures"]:
        print(f"output check failed: {msg}", file=sys.stderr)
    if len(summaries) != 1:
        print("rounds wrote different summary.csv files", file=sys.stderr)

    plain = [r for r in rounds if "spans" not in r]
    report_s = statistics.median(r["done"] - r["config_loaded"] for r in plain)
    if args.trace:
        traced = [layer_metrics(r) for r in rounds if "spans" in r]
        values = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        traced_report = statistics.median(r["done"] - r["config_loaded"]
                                          for r in rounds if "spans" in r)
        values["trace.overhead_s"] = traced_report - report_s
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "report_s": report_s,
            "trials_per_s": statistics.median(r["trials_completed"] / r["ensemble_s"]
                                              for r in plain),
            "peak_rss_mb": statistics.median(r["rusage"]["maxrss_kb"] / 1024.0 for r in plain),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        differ = sorted(set(units) ^ set(values))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(f"{args.workload}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed; report_s per round "
          + " ".join(f"{r['done'] - r['config_loaded']:.3f}" for r in rounds)
          + "; setup_s " + " ".join(f"{r['setup_s']:.3f}" for r in rounds), file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
