"""The benchmark harness under ``perfbench/`` reaches into the package by
name: the traced functions, the verify stages whose spans it sums, and the
two CLI entry points it wraps.  A renamed or deleted name would crash a
traced round or read a stage as zero, so these tests pin the names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import hardylab.cli
import hardylab.verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
