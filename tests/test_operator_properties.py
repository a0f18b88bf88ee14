"""Properties of the one application route, ``apply_operator``, that hold
exactly on the torus: agreement with the exhaustive engine, multilinearity
in each slot, and covariance under grid shifts.  Each holds within a
rounding bound fixed here, before any example runs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hardylab.grid import SampledFunction, Spectrum, dft, idft, make_grid
from hardylab.operators import MultilinearOperator, apply_general, apply_operator, default_cutoff
from hardylab.symbols import BUILTIN_NAMES, builtin_symbol

# Every builtin symbol is bounded by 3 on the lattice, and the output is at
# most sup|sigma| times the product of the inputs' scales dxi * ||f^||_1
# (``_scale``).  Pairwise sums over at most 64^2 tuples and transforms of at
# most 64 points lose a few tens of rounding units of that, so 1e-12 of it
# leaves a margin of about a hundred.
ROUNDING = 1e-12

SYMBOLS = {name: builtin_symbol(name) for name in BUILTIN_NAMES}


def band_limited(grid, rng, band):
    """A random function whose spectrum lives on |k| <= band cells."""
    M = grid.M
    spec = np.zeros(M, dtype=complex)
    c = M // 2
    spec[c - band : c + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(
        2 * band + 1
    )
    return idft(Spectrum(grid, spec))


def _scale(f: SampledFunction) -> float:
    """dxi^n ||f^||_1: a bound on sup |f| read from the spectrum."""
    return float(np.sum(np.abs(dft(f).coefficients))) * f.grid.dxi**f.grid.n


@st.composite
def cases(draw, name):
    M = draw(st.sampled_from((16, 32, 64)))
    grid = make_grid(1, 8.0, M)
    cutoff = default_cutoff(grid) if draw(st.booleans()) else None
    op = MultilinearOperator(SYMBOLS[name], grid, cutoff)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = draw(st.integers(1, M // 4))
    fs = [band_limited(grid, rng, band) for _ in range(op.m)]
    return op, fs, rng


def _scales(fs):
    return float(np.prod([_scale(f) for f in fs]))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_route_agrees_with_general_engine(name, data):
    op, fs, _ = data.draw(cases(name))
    got = apply_operator(op, fs).values
    want = apply_general(op, *fs)[0].values
    assert np.max(np.abs(got - want)) <= ROUNDING * _scales(fs)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_multilinear_in_each_slot(name, data):
    op, fs, rng = data.draw(cases(name))
    slot = data.draw(st.integers(0, op.m - 1))
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h = band_limited(op.grid, rng, op.grid.M // 4)
    combined = list(fs)
    combined[slot] = a * fs[slot] + b * h
    other = list(fs)
    other[slot] = h
    lhs = apply_operator(op, combined).values
    rhs = a * apply_operator(op, fs).values + b * apply_operator(op, other).values
    bound = abs(a) * _scales(fs) + abs(b) * _scales(other) + _scales(combined)
    assert np.max(np.abs(lhs - rhs)) <= ROUNDING * bound


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_shift_covariance(name, data):
    # T(tau_k f_1, ..., tau_k f_m) = tau_k T(f) for a shift by k grid cells.
    op, fs, _ = data.draw(cases(name))
    k = data.draw(st.integers(1, op.grid.M - 1))
    moved = [SampledFunction(op.grid, np.roll(f.values, k)) for f in fs]
    lhs = apply_operator(op, moved).values
    rhs = np.roll(apply_operator(op, fs).values, k)
    assert np.max(np.abs(lhs - rhs)) <= ROUNDING * _scales(fs)
