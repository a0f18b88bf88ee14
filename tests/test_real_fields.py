"""Real fields stay real: ``SampledFunction`` keeps a float64 array as
float64, every producer of a real field returns float64, and an operator
reads a real input exactly as it reads its complex128 cast."""

import numpy as np
import pytest

from hardylab.atoms import Cube, _atom_window, cube_indicator, make_atom, make_atomic_sum
from hardylab.grid import SampledFunction, Spectrum, make_grid
from hardylab.maximal import hl_maximal, make_bump, make_ladder, power_maximal, smooth_maximal
from hardylab.operators import (
    MultilinearOperator,
    _plan,
    apply_general,
    apply_operator,
    apply_oracle,
    default_cutoff,
    operator_factors,
)
from hardylab.symbols import _sigma3_terms, builtin_symbol, make_product_symbol


def test_float64_stays_float64_and_the_rest_is_complex128():
    grid = make_grid(1, 8.0, 16)
    real = np.linspace(-1.0, 1.0, 16)
    copied = SampledFunction(grid, real).values
    assert copied.dtype == np.float64 and not np.shares_memory(copied, real)
    owned = real.copy()
    owned.setflags(write=False)
    assert np.shares_memory(SampledFunction(grid, owned).values, owned)
    for values in (real.astype(np.complex128), real.astype(np.float32), np.arange(16),
                   np.arange(16) % 3 == 0, list(real)):
        assert SampledFunction(grid, values).values.dtype == np.complex128
    assert Spectrum(grid, owned).coefficients.dtype == np.complex128


def test_real_producers_return_float64():
    grid = make_grid(1, 8.0, 256)
    cube = Cube((0.5,), 1.0)
    ladder = make_ladder(grid)
    atom = make_atom(cube, 1.0, 2, 3, grid).values
    mixed = SampledFunction(grid, atom.values * (1.0 - 2.0j))
    sums = make_atomic_sum([(0.5, cube, 3), (1.5, Cube((-1.0,), 1.25), 4)], 1.0, 2, grid)
    fields = {
        "atom": atom.values,
        "atom window": _atom_window(cube, 2, 3, grid)[1],
        "realized": sums.realized.values,
        "majorant": sums.majorant.values,
        "indicator": cube_indicator(cube, grid).values,
        "smooth_maximal": smooth_maximal(mixed, make_bump(1), ladder).values,
        "hl_maximal": hl_maximal(mixed, ladder).values,
        "power_maximal": power_maximal(mixed, 2.0, ladder).values,
    }
    assert {name: a.dtype for name, a in fields.items()} == dict.fromkeys(fields, np.float64)


def real_and_cast(grid, m, seed):
    """m real random inputs, as float64 and as their complex128 casts."""
    rng = np.random.default_rng(seed)
    real = [SampledFunction(grid, rng.standard_normal(grid.shape)) for _ in range(m)]
    cast = [SampledFunction(grid, f.values.astype(np.complex128)) for f in real]
    assert {f.values.dtype for f in real} == {np.dtype(np.float64)}
    return real, cast


def same_bits(a, b):
    return a.dtype == b.dtype == np.complex128 and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "name, M, cut",
    [
        ("sigma3", 256, False),  # product: one-slot groups alone
        ("sigma4", 256, True),  # one slot, an exhaustive pair and a tensor-train triple
        ("sigma2", 32, False),  # one slot and an exhaustive pair
    ],
)
def test_operator_reads_real_inputs_as_their_complex_casts(name, M, cut):
    # Every engine copies its inputs into complex transform rows, where a
    # real x becomes x + 0j: the same value a complex128 input holds.
    grid = make_grid(1, 8.0, M)
    op = MultilinearOperator(builtin_symbol(name), grid, cutoff=default_cutoff(grid) if cut else None)
    real, cast = real_and_cast(grid, op.m, M)
    assert same_bits(apply_operator(op, real).values, apply_operator(op, cast).values)
    if name == "sigma4":
        assert any(split is not None for _, split in _plan(op)[1])


@pytest.mark.parametrize("name, M", [("sigma1_bilinear", 64), ("sigma1", 32)])
def test_exhaustive_and_oracle_read_real_inputs_as_their_complex_casts(name, M):
    grid = make_grid(1, 8.0, M)
    op = MultilinearOperator(builtin_symbol(name), grid)
    real, cast = real_and_cast(grid, op.m, M + 1)
    (got, got_spec), (want, want_spec) = apply_general(op, [real, cast])
    assert same_bits(got.values, want.values)
    assert same_bits(got_spec.coefficients, want_spec.coefficients)
    small = make_grid(1, 8.0, 16)
    op = MultilinearOperator(builtin_symbol(name), small)
    real, cast = real_and_cast(small, op.m, M + 2)
    points = [[-3.5], [0.0], [2.25]]
    assert same_bits(apply_oracle(op, real, points), apply_oracle(op, cast, points))


def test_one_slot_outputs_of_real_atoms_keep_an_exact_zero_part():
    # At the default cutoff each of sigma3's one-slot factors is exactly
    # even or odd, so on a real atom it is a real row or i times one, with
    # exact zeros in the other part; every term has one odd factor, so the
    # output's real part is exactly 0.  Even factors alone give an output
    # whose imaginary part is exactly 0.
    grid = make_grid(1, 8.0, 256)
    cutoff = default_cutoff(grid)
    atoms = [
        make_atom(Cube((c,), 1.0), 1.0, 2, seed, grid).values
        for seed, c in enumerate((0.5, -0.25, 0.0))
    ]
    op = MultilinearOperator(builtin_symbol("sigma3"), grid, cutoff=cutoff)
    factors = operator_factors(op, [atoms])[0]
    for f in {id(f): f for term in factors for f in term}.values():
        assert f.values.dtype == np.complex128
        assert np.any(f.values.real) != np.any(f.values.imag)
    out = apply_operator(op, atoms).values
    assert out.dtype == np.complex128 and not np.any(out.real) and np.any(out.imag)
    l4, l2, _ = _sigma3_terms()[0]
    even = MultilinearOperator(make_product_symbol([[l4, l2, l2], [l2, l4, l4]]), grid, cutoff)
    out = apply_operator(even, atoms).values
    assert out.dtype == np.complex128 and not np.any(out.imag) and np.any(out.real)
    # An input with no nonzero part reaches no output part.
    zero = SampledFunction(grid, np.zeros(grid.shape, dtype=np.complex128))
    for term in operator_factors(op, [[zero] * 3])[0]:
        assert all(f.values.dtype == np.complex128 and not np.any(f.values) for f in term)
