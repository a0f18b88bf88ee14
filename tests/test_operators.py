import numpy as np
import pytest

from hardylab.grid import SampledFunction, Spectrum, dft, idft, make_grid, pointwise_product, sample
from hardylab.operators import (
    MultilinearOperator,
    apply_general,
    apply_mixed,
    apply_oracle,
    apply_product,
    default_cutoff,
    spectral_moment,
)
from hardylab.symbols import Partition, Symbol, builtin_symbol, power_symbol
from hardylab.atoms import Cube, make_atom


def band_limited(grid, seed, band=6):
    """Random mean-zero function with spectrum confined to |k| <= band cells."""
    rng = np.random.default_rng(seed)
    M = grid.M
    spec = np.zeros(M, dtype=complex)
    c = M // 2
    spec[c - band : c + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(
        2 * band + 1
    )
    spec[c] = 0.0
    return idft(Spectrum(grid, spec))


def spectral_dilate_two(f):
    """Exact twofold dilation x -> x/2 of a band-limited sampled function."""
    grid = f.grid
    M = grid.M
    spec = dft(f).coefficients
    out = np.zeros(M, dtype=complex)
    c = M // 2
    for k in range(-M // 4, M // 4):
        out[c + k] = 2.0 * spec[c + 2 * k]
    return idft(Spectrum(grid, out))


def planar_symbol(m):
    """A non-separable m-linear symbol on (R^2)^m (every builtin is n = 1)."""

    def evaluate(*xis):
        total = sum(xis)
        out = np.cos(total[..., 0] - 0.5 * total[..., 1])
        for j, xi in enumerate(xis):
            u, v = xi[..., 0], xi[..., 1]
            out = out * (1.0 + (j + 1) * u * v) / (1.0 + u * u + 2.0 * v * v)
        return out

    return Symbol(m=m, n=2, evaluate=evaluate, name=f"planar{m}")


def random_inputs(grid, m, seed):
    rng = np.random.default_rng(seed)
    shape = (m,) + grid.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return [SampledFunction(grid, v) for v in values]


@pytest.fixture(scope="module")
def grid32():
    return make_grid(1, 8.0, 32)


class TestApplyGeneral:
    def test_constant_symbol_is_pointwise_product(self, grid32):
        f = band_limited(grid32, 1)
        g = band_limited(grid32, 2)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        out, _ = apply_general(op, f, g)
        prod = pointwise_product(f, g)
        err = np.max(np.abs(out.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-10

    def test_zero_input_gives_zero(self, grid32):
        f = band_limited(grid32, 3)
        zero = SampledFunction(grid32, np.zeros(32))
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        out, spec = apply_general(op, zero, f)
        assert np.all(out.values == 0)
        assert np.all(spec.coefficients == 0)

    def test_output_spectrum_inverts_to_output(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1"), grid32)
        fs = [band_limited(grid32, s) for s in (4, 5, 6)]
        out, spec = apply_general(op, *fs)
        back = idft(spec)
        err = np.max(np.abs(back.values - out.values))
        assert err <= 1e-10 * max(np.max(np.abs(out.values)), 1e-300)

    def test_multilinearity_each_slot(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 7)
        h = band_limited(grid32, 8)
        g = band_limited(grid32, 9)
        lhs, _ = apply_general(op, 2.0 * f + 3.0 * h, g)
        a, _ = apply_general(op, f, g)
        b, _ = apply_general(op, h, g)
        combo = 2.0 * a + 3.0 * b
        scale = np.max(np.abs(combo.values))
        assert np.max(np.abs(lhs.values - combo.values)) < 1e-10 * scale

    def test_translation_equivariance(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 10)
        g = band_limited(grid32, 11)
        base, _ = apply_general(op, f, g)
        shift = 5
        fr = SampledFunction(grid32, np.roll(f.values, shift))
        gr = SampledFunction(grid32, np.roll(g.values, shift))
        moved, _ = apply_general(op, fr, gr)
        expected = np.roll(base.values, shift)
        err = np.max(np.abs(moved.values - expected)) / np.max(np.abs(expected))
        assert err < 1e-12

    def test_cost_budget_guard(self):
        g = make_grid(1, 8.0, 64)
        op = MultilinearOperator(builtin_symbol("sigma1"), g, budget=1000)
        fs = [band_limited(g, s) for s in (1, 2, 3)]
        with pytest.raises(ValueError, match="budget"):
            apply_general(op, *fs)

    def test_grid_mismatch(self, grid32):
        other = make_grid(1, 8.0, 64)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        with pytest.raises(ValueError, match="grid"):
            apply_general(op, band_limited(grid32, 1), band_limited(other, 2))

    @pytest.mark.parametrize("cut", [False, True], ids=["uncut", "cut"])
    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    def test_chunking_is_bitwise_invariant(self, n, cut, monkeypatch):
        # Partitioning the output-frequency range must not change a single bit.
        import hardylab.operators as ops

        if n == 1:
            grid = make_grid(1, 8.0, 32)
            sym = builtin_symbol("sigma1")
            fs = [band_limited(grid, s) for s in (12, 13, 14)]
        else:
            grid = make_grid(2, 4.0, 8)
            sym = planar_symbol(3)
            fs = random_inputs(grid, 3, 12)
        op = MultilinearOperator(sym, grid, cutoff=default_cutoff(grid) if cut else None)
        base, _ = apply_general(op, *fs)
        monkeypatch.setattr(ops, "_MAX_CHUNK_ELEMENTS", 2048)
        chunked, _ = apply_general(op, *fs)
        assert np.array_equal(base.values, chunked.values)

    def test_dilation_equivariance_homogeneous(self):
        # Degree-zero symbols commute with simultaneous dilation; with wave
        # packets resolved at both scales the discrete outputs agree too.
        g = make_grid(1, 8.0, 256)

        def packet(center, width, freq):
            return sample(
                lambda x: np.exp(-(((x - center) / width) ** 2))
                * np.exp(2j * np.pi * freq * (x - center)),
                g,
            )

        op = MultilinearOperator(builtin_symbol("sigma1"), g)
        fs = [packet(0.3, 0.4, 3.0), packet(-0.5, 0.5, 2.0), packet(0.1, 0.45, -1.5)]
        base, _ = apply_general(op, *fs)
        dilated_inputs = [spectral_dilate_two(f) for f in fs]
        dilated_out, _ = apply_general(op, *dilated_inputs)
        expected = spectral_dilate_two(base)
        x = g.axis_points()
        interior = np.abs(x) <= g.L / 2
        num = np.max(np.abs(dilated_out.values[interior] - expected.values[interior]))
        den = np.max(np.abs(expected.values[interior]))
        assert num / den < 0.01


class TestOracle:
    def test_constant_inputs(self, grid32):
        one = sample(lambda x: np.ones_like(x), grid32)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        vals = apply_oracle(op, [one, one], [[0.0], [1.0], [-3.5]])
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_multilinearity(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 20)
        h = band_limited(grid32, 21)
        g = band_limited(grid32, 22)
        pts = [[0.5], [2.0]]
        lhs = apply_oracle(op, [f + h, g], pts)
        rhs = apply_oracle(op, [f, g], pts) + apply_oracle(op, [h, g], pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(np.max(np.abs(rhs)), 1.0)

    @pytest.mark.parametrize("trial", range(5))
    def test_agreement_with_general(self, grid32, trial):
        op = MultilinearOperator(builtin_symbol("sigma1"), grid32)
        fs = [band_limited(grid32, 100 + 3 * trial + j) for j in range(3)]
        out, _ = apply_general(op, *fs)
        rng = np.random.default_rng(trial)
        idx = rng.choice(grid32.M, size=5, replace=False)
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - out.values[idx])) < 1e-10 * scale

    @pytest.mark.parametrize("cut", [False, True], ids=["uncut", "cut"])
    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    @pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
    def test_general_matches_oracle(self, m, n, cut):
        # Every arity, dimension and cutoff runs through one engine path.
        grid = make_grid(n, 4.0, 16 if m <= 2 else 8)
        if n == 1:
            sym = builtin_symbol({1: "constant_one", 2: "sigma1_bilinear", 3: "sigma1"}[m], m=m)
        else:
            sym = planar_symbol(m)
        op = MultilinearOperator(sym, grid, cutoff=default_cutoff(grid) if cut else None)
        fs = random_inputs(grid, m, 10 * m + n)
        out, _ = apply_general(op, *fs)
        rng = np.random.default_rng(m + n)
        idx = rng.choice(grid.size, size=5, replace=False)
        pts = grid.points().reshape(-1, n)[idx]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - out.values.ravel()[idx])) < 1e-10 * scale

    def test_point_limit(self, grid32):
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        one = sample(lambda x: np.ones_like(x), grid32)
        pts = np.linspace(-8, 7, 17)[:, None]
        with pytest.raises(ValueError, match="16"):
            apply_oracle(op, [one, one], pts)


class TestProductPath:
    def test_single_term_identity_symbols(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        fs = [band_limited(grid32, s) for s in (30, 31, 32)]
        out = apply_product([(one1, one1, one1)], fs)
        prod = pointwise_product(pointwise_product(fs[0], fs[1]), fs[2])
        err = np.max(np.abs(out.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-12

    def test_cancelling_terms(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        neg = power_symbol(one1, 1)
        from hardylab.symbols import Symbol, _lift1

        minus = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -np.ones_like(u)), name="-1")
        fs = [band_limited(grid32, s) for s in (33, 34)]
        out = apply_product([(one1, one1), (minus, one1)], fs)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_sigma3_structure_matches_general(self, grid32):
        s3 = builtin_symbol("sigma3")
        fs = [band_limited(grid32, s) for s in (35, 36, 37)]
        fast = apply_product(s3.product_terms, fs)
        dense, _ = apply_general(MultilinearOperator(s3, grid32), *fs)
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_oracle_agreement(self, grid32):
        s3 = builtin_symbol("sigma3")
        op = MultilinearOperator(s3, grid32)
        fs = [band_limited(grid32, s) for s in (38, 39, 40)]
        fast = apply_product(s3.product_terms, fs)
        idx = [2, 9, 16, 23, 30]
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - fast.values[idx])) < 1e-10 * scale


class TestMixedPath:
    def test_degenerate_partition_equals_general(self, grid32):
        s1 = builtin_symbol("sigma1")
        part = Partition(((0, 1, 2),), (s1,))
        fs = [band_limited(grid32, s) for s in (41, 42, 43)]
        mixed = apply_mixed([part], fs)
        dense, _ = apply_general(MultilinearOperator(s1, grid32), *fs)
        assert np.array_equal(mixed.values, dense.values)

    def test_singleton_groups_give_product(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        part = Partition(((0,), (1,), (2,)), (one1, one1, one1))
        fs = [band_limited(grid32, s) for s in (44, 45, 46)]
        mixed = apply_mixed([part], fs)
        prod = pointwise_product(pointwise_product(fs[0], fs[1]), fs[2])
        err = np.max(np.abs(mixed.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-12

    def test_sigma4_structure_matches_general(self, grid32):
        s4 = builtin_symbol("sigma4")
        fs = [band_limited(grid32, s) for s in (47, 48, 49)]
        fast = apply_mixed(s4.mixed_terms, fs)
        dense, _ = apply_general(MultilinearOperator(s4, grid32), *fs)
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_sigma2_structure_matches_general(self, grid32):
        s2 = builtin_symbol("sigma2")
        fs = [band_limited(grid32, s) for s in (50, 51, 52)]
        fast = apply_mixed(s2.mixed_terms, fs)
        dense, _ = apply_general(MultilinearOperator(s2, grid32), *fs)
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_oracle_agreement(self, grid32):
        s4 = builtin_symbol("sigma4")
        op = MultilinearOperator(s4, grid32)
        fs = [band_limited(grid32, s) for s in (53, 54, 55)]
        fast = apply_mixed(s4.mixed_terms, fs)
        idx = [1, 8, 15, 22, 29]
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - fast.values[idx])) < 1e-10 * scale

    def test_invalid_partition_rejected(self, grid32):
        s1 = builtin_symbol("sigma1")
        part = Partition(((0, 1, 2),), (s1,))
        fs = [band_limited(grid32, s) for s in (56, 57)]
        with pytest.raises(ValueError, match="slots"):
            apply_mixed([part], fs)


class TestSpectralMoment:
    def test_zeroth_moment_is_dc_coefficient(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        out, spec = apply_general(op, band_limited(grid32, 60), band_limited(grid32, 61))
        est = spectral_moment(spec, (0,))
        assert est.spectral == spec.at_zero()
        direct = np.sum(out.values) * grid32.dx
        assert abs(est.spatial - direct) <= 1e-12 * max(abs(direct), 1e-300)

    def test_sigma1_zeroth_moment_vanishes_on_atoms(self):
        g = make_grid(1, 8.0, 256)
        s1 = builtin_symbol("sigma1")
        op = MultilinearOperator(s1, g, cutoff=default_cutoff(g))
        atoms = [
            make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=1, grid=g),
            make_atom(Cube((0.5,), 1.0), 1.0, 4, seed=2, grid=g),
            make_atom(Cube((-1.0,), 1.0), 1.0, 4, seed=3, grid=g),
        ]
        out, spec = apply_general(op, *[a.values for a in atoms])
        est = spectral_moment(spec, (0,))
        scale = np.sum(np.abs(out.values)) * g.dx
        assert abs(est.spectral) < 1e-11 * scale

    def test_sigma1_squared_first_moment_small(self):
        # The spatial-quadrature companion corroborates the spectral estimate.
        # 32 cells per atom keep the truncation ringing below the tolerance.
        g = make_grid(1, 8.0, 512)
        sq = power_symbol(builtin_symbol("sigma1"), 2)
        op = MultilinearOperator(sq, g, cutoff=default_cutoff(g), budget=2**28)
        atoms = [
            make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=4, grid=g),
            make_atom(Cube((0.5,), 1.0), 1.0, 2, seed=5, grid=g),
            make_atom(Cube((-1.0,), 1.0), 1.0, 2, seed=6, grid=g),
        ]
        out, spec = apply_general(op, *[a.values for a in atoms])
        est = spectral_moment(spec, (1,))
        scale = np.sum(np.abs(out.values)) * g.dx * atoms[0].cube.side
        assert abs(est.spectral) < 1e-6 * scale
        assert abs(est.spatial) < 1e-6 * scale

    def test_order_cap(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        _, spec = apply_general(op, band_limited(grid32, 62), band_limited(grid32, 63))
        with pytest.raises(ValueError, match="capped"):
            spectral_moment(spec, (5,))
