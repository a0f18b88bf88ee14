"""The benchmark harness under ``perfbench/`` reaches into the package by
name: the traced functions, the verify stages whose spans it sums, and the
two CLI entry points it wraps.  A renamed or deleted name would crash a
traced round or read a stage as zero, so these tests pin the names."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import hardylab.cli
import hardylab.operators
import hardylab.verify
from hardylab.grid import SampledFunction, make_grid, sample
from hardylab.operators import apply_operator
from hardylab.verify import resolve_index, resolve_operator, run_context

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.ini")) + sorted(PERFBENCH.glob("configs/*.ini"))

VERIFY_STAGES = (
    "run_boundedness_ensemble",
    "scale_invariance_test",
    "check_cancellation",
    "check_decay_lemma",
    "check_local_estimate",
    "check_pointwise_majorant",
    "check_fs_inequality",
    "run_trial",
)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def child():
    return load("child")


def test_outputs_module_imports():
    outputs = load("outputs")
    assert callable(outputs.hardylab_main)


def test_traced_names_are_functions(child):
    for short, extra in child.TRACED.items():
        module = importlib.import_module(f"hardylab.{short}")
        for name in extra:
            assert inspect.isfunction(getattr(module, name, None)), f"hardylab.{short}.{name}"


@pytest.mark.parametrize("name", VERIFY_STAGES)
def test_verify_stage_is_exported(name):
    assert name in hardylab.verify.__all__
    assert inspect.isfunction(getattr(hardylab.verify, name))


def test_cli_entry_points(child):
    assert child.cli is hardylab.cli
    for name in ("load_config", "run_boundedness_ensemble"):
        assert callable(getattr(hardylab.cli, name))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_config_resolves(path):
    # Every shipped and benchmark config must still load and build its run
    # context, and resolve through the names ``perfbench/outputs.py`` calls.
    config, _ = hardylab.cli.load_config(str(path))
    ctx = run_context(config)
    assert resolve_index(config) == ctx.idx
    assert resolve_operator(config, ctx.grid).symbol.kind == ctx.op.symbol.kind


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(ROOT)))
def test_apply_operator_contract(path):
    # ``perfbench/outputs.py`` reads ``apply_operator(op, fs).values`` back
    # for the operator of each config; the route must hand it a sampled
    # function on the config's grid.
    config, _ = hardylab.cli.load_config(str(path))
    grid = make_grid(config.n, config.L, config.M)
    op = resolve_operator(config, grid)
    bump = sample(lambda *x: np.exp(-sum(c * c for c in x)), grid)
    out = apply_operator(op, [bump] * op.m)
    assert isinstance(out, SampledFunction)
    assert out.grid == grid
    assert np.all(np.isfinite(out.values))


def test_engine_work_reads_the_real_calls(child, monkeypatch):
    # ``child.py`` counts S^m symbol evaluations per traced ``apply_general``
    # call from its arguments.  Record the calls a mixed ensemble makes (one
    # batched pass per multi-slot group) and hand them to that counter as
    # they were made.
    config, _ = hardylab.cli.load_config(str(PERFBENCH / "configs" / "mixed-trilinear.ini"))
    config = dataclasses.replace(config, trials=2)
    seen = []
    original = hardylab.operators.apply_general

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(hardylab.operators, "apply_general", recording)
    hardylab.verify.run_boundedness_ensemble(config)
    assert seen
    for args, kwargs in seen:
        op = args[0]
        assert child.WORK["operators.apply_general"](*args, **kwargs) == op.grid.size**op.m
