"""One `hardylab run` round in a fresh interpreter, timed from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``config``, ``out``, ``seed`` (or null for the config's own),
``trace`` (bool) and ``result`` (a path).  The round runs
``hardylab.cli.main(["run", ...])`` exactly as the command line does, with
``--jobs 1``.  Marks are taken on ``time.monotonic()``, the system-wide
monotonic clock on Linux, so the parent can measure set-up from the moment it
started this interpreter.

With ``trace`` every public function of the hardylab modules is replaced, in
every module that bound it, by a wrapper that records a span (name, parent,
start, end).  Nothing inside the program is changed; spans are written out
when the round ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

T_START = time.monotonic()

import hardylab.cli as cli  # noqa: E402  (the import is what set-up times)

T_IMPORTED = time.monotonic()

# Module -> functions traced besides the ones its ``__all__`` names.  These
# are public (no underscore) and used across modules but not exported; the
# per-layer metrics read their spans.
TRACED = {
    "grid": (),
    "atoms": (),
    "maximal": (),
    "operators": ("apply_linear",),
    "verify": ("compute_trial_values",),
    "cli": ("load_config",),
}


def _tuples(op, *fs):
    """Symbol evaluations one apply_general call makes: S^m."""
    return op.grid.size**op.m


WORK = {"operators.apply_general": _tuples}


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(
                [name, stack[-1] if stack else -1, 0.0, 0.0,
                 work(*args, **kwargs) if work else 0]
            )
            stack.append(index)
            spans[index][2] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = time.monotonic()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each traced function in every hardylab module bound to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hardylab" or k.startswith("hardylab."))]
        for short, extra in TRACED.items():
            mod = sys.modules[f"hardylab.{short}"]
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))]
            names += extra
            for fname in names:
                original = getattr(mod, fname)
                wrapped = self.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapped)


def main() -> int:
    spec = json.loads(sys.argv[1])
    marks: dict = {"start": T_START, "imported": T_IMPORTED}
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    load_config = cli.load_config
    ensemble = cli.run_boundedness_ensemble

    def timed_load_config(path):
        result = load_config(path)
        marks["config_loaded"] = time.monotonic()
        return result

    def timed_ensemble(config, jobs=1):
        start = time.monotonic()
        report = ensemble(config, jobs=jobs)
        marks["ensemble_s"] = time.monotonic() - start
        marks["trials_completed"] = sum(
            1 for t in report.trials if not t.flags.startswith("aborted")
        )
        return report

    cli.load_config = timed_load_config
    cli.run_boundedness_ensemble = timed_ensemble
    argv = ["run", spec["config"], "--out", spec["out"], "--jobs", "1"]
    if spec["seed"] is not None:
        argv += ["--seed", str(spec["seed"])]
    marks["exit_code"] = cli.main(argv)
    marks["done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    marks["rusage"] = {
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer:
        marks["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(marks, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
