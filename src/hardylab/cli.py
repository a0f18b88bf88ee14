"""Configuration-driven command line front end.

Subcommands:

* ``verify-symbol NAME`` — derivative-condition and plane-vanishing table
  for a builtin symbol.
* ``run CONFIG`` — execute the checks listed in a config file, writing
  ``manifest.json``, ``report.json``, ``summary.csv`` and plot-data files
  into the output directory.
* ``replay REPORT TRIAL_ID`` — recompute one recorded trial and compare
  bit-for-bit.

Config files are flat INI: ``[section]`` headers, ``key = value`` lines and
``#`` comments.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .atoms import _monomial_exponents, make_atom
from .symbols import (
    BUILTIN_NAMES,
    MAX_DERIVATIVE_ORDER,
    builtin_symbol,
    cm_condition_ratio,
    dyadic_shells,
    plane_samples,
    plane_vanishing_order,
    sphere_directions,
)
from .verify import (
    DEFAULT_TOLERANCES,
    DecayReport,
    ExperimentConfig,
    RunContext,
    TrialRecord,
    apply_to_atoms,
    check_cancellation,
    check_decay_lemma,
    check_fs_inequality,
    check_local_estimate,
    check_pointwise_majorant,
    draw_trial_entries,
    replay_trial,
    run_boundedness_ensemble,
    run_context,
    run_trials,
    scale_invariance_test,
    trial_seed,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

SUMMARY_COLUMNS = ("trial_id", "seed", "lhs", "rhs", "ratio", "flags")


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps_17g(obj, indent: int = 0) -> str:
    """Serialize to JSON with IEEE doubles written at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, complex):
        return dumps_17g({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_17g(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_17g(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# verify-symbol
# ---------------------------------------------------------------------------


def cmd_verify_symbol(args) -> int:
    try:
        sym = builtin_symbol(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    shells = dyadic_shells(-args.shells, args.shells)
    dirs = sphere_directions(sym.m, sym.n, 64, seed=0)
    alphas = _monomial_exponents(sym.m * sym.n, args.orders)
    failed: list[str] = []

    header = "alpha".ljust(12) + "".join(f"{s:>12.4g}" for s in shells)
    print(f"symbol {sym.name} (m={sym.m}, n={sym.n}, kind={sym.kind})")
    print(header)
    for alpha in alphas:
        row = []
        for radius in shells:
            val = cm_condition_ratio(sym, alpha, dirs * radius)
            row.append(val)
        print(str(alpha).ljust(12) + "".join(f"{v:>12.4g}" for v in row))
        if not all(np.isfinite(v) for v in row):
            failed.append(f"non-finite derivative ratio at alpha={alpha}")
        if sym.homogeneous_degree_zero:
            lo, hi = min(row), max(row)
            if hi > 0 and (hi - lo) / hi > 0.10:
                failed.append(f"shell spread exceeds 10% at alpha={alpha}")

    if sym.m >= 2:
        pts = plane_samples(sym.m, sym.n, 200, seed=1)
        rep = plane_vanishing_order(sym, 0, pts)
        print(f"plane residual (order 0): {rep.max_residual:.3e}")
        if args.require_plane_vanishing and rep.max_residual >= 1e-10:
            failed.append(f"plane residual {rep.max_residual:.3e} >= 1e-10")

    if failed:
        for msg in failed:
            print(f"FAIL: {msg}")
        return EXIT_FAIL
    print("PASS")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _parse_word(words: dict):
    """A parser that maps each of ``words``, in any case, to its value."""

    def parse(text: str):
        if text.lower() not in words:
            raise ValueError(f"expected one of {', '.join(words)}, got {text!r}")
        return words[text.lower()]

    return parse


_parse_bool = _parse_word(configparser.ConfigParser.BOOLEAN_STATES)


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; ``float`` itself reads inf and infinity, and
    rejects an empty item."""
    return tuple(float(tok) for tok in text.split(","))


# Section -> key -> (target, parser): the only keys a config file may set, in
# lower case as configparser reads them.  [checks] fills the check flags, the
# rest ExperimentConfig.from_dict's fields (which checks ``kind``).
CONFIG_SCHEMA = {
    "operator": {
        "symbol": ("symbol", str),
        "kind": ("kind", str),
        "cutoff": ("use_cutoff", _parse_word({"none": False, "default": True})),
    },
    "indices": {"p": ("exponents", _parse_floats), "n_moments": ("N_override", int)},
    "grid": {"n": ("n", int), "l": ("L", float), "m": ("M", int)},
    "ensemble": {
        "trials": ("trials", int),
        "max_atoms": ("max_atoms", int),
        "seed": ("seed", int),
        "ell": ("ell_choices", _parse_floats),
        "center_span": ("center_span", float),
        "budget": ("budget", int),
        "dilatable": ("dilatable", _parse_bool),
    },
    "ladder": {"half_steps": ("half_steps", _parse_bool)},
    "checks": {
        name: (name, _parse_bool)
        for name in ("boundedness", "scale_invariance", "cancellation", "decay",
                     "local_estimate", "pointwise_majorant", "fs_inequality")
    },
}


def load_config(path: str) -> tuple[ExperimentConfig, dict]:
    """Parse a run config; returns the ensemble config and every check's
    flag.  Any section or key outside CONFIG_SCHEMA is a ValueError."""
    # No default section, so a [DEFAULT] header is one more unknown section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    checks = dict.fromkeys(CONFIG_SCHEMA["checks"], False)
    checks["boundedness"] = True
    fields: dict = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in CONFIG_SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            target, parse = CONFIG_SCHEMA[section][key]
            try:
                (checks if section == "checks" else fields)[target] = parse(text)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig.from_dict(fields), checks


def _check_atoms(ctx: RunContext, partner_order: int):
    """One atom per input slot, from the first entry of each input of the
    trial-0 draw.  Slot 0 has cancellation order N, every other slot
    ``partner_order`` (the decay fit only relies on the first atom's moments).
    """
    idx = ctx.idx
    entries = draw_trial_entries(ctx.config, trial_seed(ctx.config.seed, 0), idx.m, ctx.grid)
    first = [inp[0] for inp in entries]
    return [
        make_atom(cube, p_l, idx.N if slot == 0 else partner_order, seed, ctx.grid)
        for slot, ((_, cube, seed), p_l) in enumerate(zip(first, idx.exponents))
    ]


def _run_checks(ctx: RunContext, checks: dict, jobs: int, out: Path) -> dict:
    config, idx = ctx.config, ctx.idx
    results: dict[str, dict] = {}
    records: tuple[TrialRecord, ...] = ()

    if checks["boundedness"]:
        report = run_boundedness_ensemble(config, jobs=jobs)
        records = report.trials
        results["boundedness"] = {
            "pass": report.passed,
            "ratio_sup": report.ratio_sup,
            "ratio_median": report.ratio_median,
            "vacuous_trials": report.vacuous_trials,
        }
        _write_summary_csv(out / "summary.csv", report.trials)
        _write_ratio_histogram(out / "ratio_hist.dat", [t.ratio for t in report.trials])

    if checks["scale_invariance"]:
        tol = DEFAULT_TOLERANCES["scale_invariance"]
        count = min(config.trials, 20)
        if checks["boundedness"]:
            base = records[:count]
        else:
            base = run_trials(ctx, range(count))
        rep = scale_invariance_test(ctx, base, 2.0)
        results["scale_invariance"] = {
            "pass": rep.max_deviation < tol,
            "max_deviation": rep.max_deviation,
            "dilation": rep.dilation,
            "tolerance": tol,
        }

    # T applied once to the full-order atoms, for the three checks that
    # measure it, and once to the decay atoms, in one batched application.
    atom_sets = {}
    if checks["cancellation"] or checks["local_estimate"] or checks["pointwise_majorant"]:
        atom_sets["full"] = _check_atoms(ctx, partner_order=idx.N)
    if checks["decay"]:
        atom_sets["decay"] = _check_atoms(ctx, partner_order=0)
    applied = dict(zip(atom_sets, apply_to_atoms(ctx.op, list(atom_sets.values()))))
    full = applied.get("full")

    if checks["cancellation"]:
        tol = DEFAULT_TOLERANCES["cancellation"]
        rep = check_cancellation(full, idx.s, tolerance=tol)
        results["cancellation"] = {
            "pass": rep.passed,
            "max_normalized": rep.max_normalized,
            "tolerance": tol,
        }

    if checks["decay"]:
        rep = check_decay_lemma(applied["decay"], idx.N)
        results["decay"] = {
            "pass": rep.passed,
            "slope": rep.slope,
            "slope_bound": rep.slope_bound,
            "ratio_sup": rep.ratio_sup,
        }
        _write_decay_points(out / "decay_fit.dat", rep)

    if checks["local_estimate"]:
        rep = check_local_estimate(full, r=2.0, N=idx.N, ladder=ctx.ladder)
        finite = math.isfinite(rep.ratio_direct) and math.isfinite(rep.ratio_maximal)
        results["local_estimate"] = {
            "pass": finite,
            "ratio_direct": rep.ratio_direct,
            "ratio_maximal": rep.ratio_maximal,
        }

    if checks["pointwise_majorant"]:
        rep = check_pointwise_majorant(full, idx, bump=ctx.bump, ladder=ctx.ladder)
        results["pointwise_majorant"] = {
            "pass": rep.passed,
            "ratio_sup": rep.ratio_sup,
            "included_points": rep.included_points,
        }

    if checks["fs_inequality"]:
        entries = draw_trial_entries(config, trial_seed(config.seed, 1), 1, ctx.grid)[0]
        cubes = [cube for _, cube, _ in entries]
        lambdas = [lam for lam, _, _ in entries]
        p_eff = min(idx.p, 1.0) if math.isfinite(idx.p) else 1.0
        gamma = max(1.0, 1.0 / p_eff) + 1.0
        rep = check_fs_inequality(cubes, lambdas, gamma, p_eff, ctx.grid, ladder=ctx.ladder)
        results["fs_inequality"] = {
            "pass": rep.passed,
            "ratio": rep.ratio,
            "gamma": gamma,
            "p": p_eff,
            "vacuous": rep.vacuous,
        }

    return {"checks": results, "trials": [t.to_dict() for t in records]}


def _write_summary_csv(path: Path, trials) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for t in trials:
        lines.append(
            ",".join(
                [
                    str(t.trial_id),
                    str(t.seed),
                    _format_float(t.lhs),
                    _format_float(t.rhs),
                    _format_float(t.ratio),
                    t.flags,
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_ratio_histogram(path: Path, ratios) -> None:
    vals = np.asarray([r for r in ratios if np.isfinite(r)])
    lines = ["# ratio count"]
    if vals.size:
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, 11)
        counts, _ = np.histogram(vals, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        for c, k in zip(centers, counts):
            lines.append(f"{_format_float(float(c))} {int(k)}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_decay_points(path: Path, rep: DecayReport) -> None:
    lines = ["# log10_distance log10_magnitude"]
    for d, v in zip(np.log10(rep.point_distance), np.log10(rep.point_magnitude)):
        lines.append(f"{_format_float(float(d))} {_format_float(float(v))}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def cmd_run(args) -> int:
    try:
        config, checks = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        ctx = run_context(config)  # surfaces exponent/type conflicts as config errors
    except (ValueError, KeyError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = hashlib.sha256(dumps_17g(config.to_dict()).encode()).hexdigest()
    manifest = {
        "config": config.to_dict(),
        "config_sha256": config_hash,
        "checks": checks,
        "created_unix": time.time(),
        "version": __version__,
        "jobs": args.jobs,
    }
    (out / "manifest.json").write_text(dumps_17g(manifest) + "\n")

    try:
        payload = _run_checks(ctx, checks, args.jobs, out)
    except ValueError as exc:
        (out / "FAILED").write_text(f"error: {exc}\n")
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    all_pass = all(entry["pass"] for entry in payload["checks"].values())
    report = {
        "manifest": manifest,
        "config": config.to_dict(),
        "trials": payload["trials"],
        "summary": {
            "checks": payload["checks"],
            "version": __version__,
        },
        "pass": all_pass,
    }
    (out / "report.json").write_text(dumps_17g(report) + "\n")

    for name, entry in payload["checks"].items():
        print(f"{name}: {'PASS' if entry['pass'] else 'FAIL'}")
    if not all_pass:
        (out / "FAILED").write_text(
            "\n".join(n for n, e in payload["checks"].items() if not e["pass"]) + "\n"
        )
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text())
        config = ExperimentConfig.from_dict(report["config"])
        match = [t for t in report["trials"] if t["trial_id"] == args.trial_id]
        trial = TrialRecord.from_dict(match[0]) if match else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error reading report: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if trial is None:
        print(f"trial {args.trial_id} not found in report", file=sys.stderr)
        return EXIT_USAGE
    try:
        lhs, rhs, ratio = replay_trial(run_context(config), trial)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok = lhs == trial.lhs and rhs == trial.rhs and ratio == trial.ratio
    print(f"trial {args.trial_id}: recomputed lhs={_format_float(lhs)} rhs={_format_float(rhs)}")
    if not ok:
        print(
            "MISMATCH: recorded "
            f"lhs={_format_float(trial.lhs)} rhs={_format_float(trial.rhs)} "
            f"ratio={_format_float(trial.ratio)}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    print("bit-exact match")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _int_from(lo: int, hi: float = math.inf):
    """An argparse type for an integer from ``lo`` to ``hi``; anything else
    is a usage error."""

    def parse(text: str) -> int:
        try:
            if lo <= (value := int(text)) <= hi:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer from {lo} to {hi}, got {text!r}")

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "summary.csv columns: trial_id,seed,lhs,rhs,ratio,flags (LF endings).\n"
            "Known symbols: " + ", ".join(BUILTIN_NAMES)
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("verify-symbol", help="check a builtin multiplier symbol")
    p_sym.add_argument("name")
    p_sym.add_argument(
        "--orders", type=_int_from(0, MAX_DERIVATIVE_ORDER), default=2, help="max derivative order"
    )
    p_sym.add_argument(
        "--shells", type=_int_from(0), default=4, help="dyadic shell range 2^-k..2^k"
    )
    p_sym.add_argument(
        "--require-plane-vanishing",
        action="store_true",
        help="fail unless the symbol vanishes on the plane sum(xi_j) = 0",
    )
    p_sym.set_defaults(func=cmd_verify_symbol)

    p_run = sub.add_parser("run", help="run configured checks and write reports")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_run.add_argument(
        "--jobs",
        type=_int_from(1),
        default=1,
        help="parallel trial workers (at least 1; capped at one per trial slice and per CPU)",
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("replay", help="recompute one trial from a report")
    p_rep.add_argument("report")
    p_rep.add_argument("trial_id", type=int)
    p_rep.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
