"""Properties of the one application route, ``apply_operator``, that hold
exactly on the torus: agreement with the exhaustive engine, multilinearity
in each slot, covariance under grid shifts, and conjugation symmetry for
real symbols of a fixed parity.  Each holds within a
rounding bound fixed here, before any example runs.  A batch of input sets
gives every set the bits it gets alone, in the engine and in the factors.
The split engine stays within the bound it reports, and so does the route
where the cost rule picks it."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import hardylab.operators
from hardylab.grid import SampledFunction, Spectrum, dft, idft, make_grid
from hardylab.operators import (
    MultilinearOperator,
    apply_general,
    apply_operator,
    apply_tensor_train,
    default_cutoff,
    operator_factors,
    sets_per_pass,
    tensor_train_factors,
)
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
    # Where the cost rule sends a group to a split (sigma3_factored from
    # M=16, sigma2_factored at M=64), the route is within its reported bound.
    op, fs, _ = data.draw(cases(name))
    got = apply_operator(op, fs).values
    want = apply_general(op, [fs])[0][0].values
    bound = operator_factors(op, [fs])[0].bound
    assert np.max(np.abs(got - want)) <= bound + ROUNDING * _scales(fs)


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


# sigma(-xi) = PARITY * sigma(xi) for each builtin, written out rather than
# computed: every builtin is real, so T(conj f) = PARITY * conj T(f).
PARITY = {
    "sigma1": 1,
    "sigma2": -1,
    "sigma2_factored": -1,
    "sigma3": -1,
    "sigma3_factored": -1,
    "sigma4": 1,
    "constant_one": 1,
    "sigma1_bilinear": 1,
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_conjugation_symmetry(name, data):
    # The inputs live on |k| <= M/4, so the lattice's unpaired frequency
    # -M/2 carries nothing; each example runs with and without the cutoff.
    # A split keeps no parity, so each side may move by its reported bound.
    op, fs, _ = data.draw(cases(name))
    conj = [SampledFunction(op.grid, np.conj(f.values)) for f in fs]
    for cutoff in (None, default_cutoff(op.grid)):
        cut_op = replace(op, cutoff=cutoff)
        lhs, rhs = (operator_factors(cut_op, [gs])[0] for gs in (conj, fs))
        bound = lhs.bound + rhs.bound
        lhs = apply_operator(cut_op, conj).values
        rhs = PARITY[name] * np.conj(apply_operator(cut_op, fs).values)
        assert np.max(np.abs(lhs - rhs)) <= bound + ROUNDING * _scales(fs)


def _multi_slot_groups(symbol):
    """The distinct (slots, symbol) groups of two or more slots."""
    return list(
        dict.fromkeys(
            (grp, sym)
            for part in symbol.partitions
            for grp, sym in zip(part.groups, part.symbols)
            if len(grp) > 1
        )
    )


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


def _same_factors(got, want):
    return len(got) == len(want) and all(
        len(gt) == len(wt) and all(_same_bits(g.values, w.values) for g, w in zip(gt, wt))
        for gt, wt in zip(got, want)
    )


@st.composite
def batches(draw, name):
    """An operator and 1-5 input sets; from two sets on, the last repeats an
    earlier one."""
    op, fs, rng = draw(cases(name))
    size = draw(st.integers(1, 5))
    sets = [fs] + [
        [band_limited(op.grid, rng, op.grid.M // 4) for _ in range(op.m)] for _ in range(size - 1)
    ]
    if size > 1:
        sets[-1] = sets[draw(st.integers(0, size - 2))]
    return op, sets


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_batch_is_bit_for_bit_each_set_alone(name, data):
    # Each multi-slot group's engine pass, and every set's factors (for a
    # product symbol only its one-slot factors), match the set alone.
    op, sets = data.draw(batches(name))
    for grp, sym in _multi_slot_groups(op.symbol):
        group_op = replace(op, symbol=sym)
        inputs = [[fs[l] for l in grp] for fs in sets]
        for (out, g), one in zip(apply_general(group_op, inputs), inputs):
            alone_out, alone_g = apply_general(group_op, [one])[0]
            assert _same_bits(out.values, alone_out.values)
            assert _same_bits(g.coefficients, alone_g.coefficients)
    for got, fs in zip(operator_factors(op, sets), sets):
        assert _same_factors(got, operator_factors(op, [fs])[0])


def test_batch_over_the_byte_budget_splits(monkeypatch):
    # sigma4's trilinear group at M=64 has 33^2 free tuples in the default
    # cutoff's box (17,424 bytes of free products per set), so 2 MiB takes
    # 120 sets per pass.  With the budget cut to 32 sets, 33 sets run as two
    # passes of that group and one of its bilinear group.
    grid = make_grid(1, 8.0, 64)
    op = MultilinearOperator(SYMBOLS["sigma4"], grid, default_cutoff(grid))
    rng = np.random.default_rng(7)
    sets = [[band_limited(grid, rng, 16) for _ in range(3)] for _ in range(33)]
    assert sets_per_pass(op) == 120
    monkeypatch.setattr(hardylab.operators, "_MAX_BATCH_BYTES", 32 * 16 * 33**2)
    assert sets_per_pass(op) == 32
    passes = []

    def counting(group_op, batch):
        passes.append((group_op.m, len(batch)))
        return apply_general(group_op, batch)

    monkeypatch.setattr(hardylab.operators, "apply_general", counting)
    got = operator_factors(op, sets)
    monkeypatch.undo()
    assert sorted(passes) == [(2, 33), (3, 1), (3, 32)]
    for factors, fs in zip(got, sets):
        assert _same_factors(factors, operator_factors(op, [fs])[0])


# The builtin two-slot symbols: sigma1_bilinear and the two-slot groups of
# sigma2 and sigma4, by (symbol, term).
TWO_SLOT = {"sigma1_bilinear": SYMBOLS["sigma1_bilinear"]} | {
    f"{name}-{k}": sym
    for name in ("sigma2", "sigma4")
    for k, part in enumerate(SYMBOLS[name].partitions)
    for grp, sym in zip(part.groups, part.symbols)
    if len(grp) == 2
}


# The builtin three-slot symbols: sigma4's trilinear group and the general
# trilinear builtins.
THREE_SLOT = {
    f"sigma4-{k}": sym
    for k, part in enumerate(SYMBOLS["sigma4"].partitions)
    for grp, sym in zip(part.groups, part.symbols)
    if len(grp) == 3
} | {name: SYMBOLS[name] for name in ("sigma1", "sigma2_factored", "sigma3_factored")}


@pytest.mark.parametrize("name", list(TWO_SLOT) + list(THREE_SLOT))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_low_rank_within_its_bound(name, data):
    # The engines are called directly: the cost rule keeps most grids this
    # small exhaustive.  The bound covers the split; ROUNDING covers the
    # engines' own sums and transforms.
    symbol = TWO_SLOT[name] if name in TWO_SLOT else THREE_SLOT[name]
    M = data.draw(st.sampled_from((16, 32, 64)))
    grid = make_grid(1, 8.0, M)
    cutoff = default_cutoff(grid) if data.draw(st.booleans()) else None
    op = MultilinearOperator(symbol, grid, cutoff)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fs = [band_limited(grid, rng, data.draw(st.integers(1, M // 2 - 1))) for _ in range(op.m)]
    factors = tensor_train_factors(op.symbol, grid, cutoff, np.inf)
    ((out, bound),) = apply_tensor_train(op, factors, [fs])
    want = apply_general(op, [fs])[0][0].values
    assert np.max(np.abs(out.values - want)) <= bound + ROUNDING * _scales(fs)
