import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardylab
import hardylab.maximal

from hardylab.atoms import Cube, make_atom
from hardylab.grid import SampledFunction, Spectrum, dft, idft, lp_quasinorm, make_grid, sample
from hardylab.maximal import (
    ScaleLadder,
    hl_maximal,
    hp_quasinorm,
    make_bump,
    make_ladder,
    power_maximal,
    smooth_maximal,
)


@pytest.fixture(scope="module")
def grid1024():
    return make_grid(1, 8.0, 1024)


@pytest.fixture(scope="module")
def bump():
    return make_bump(1)


@pytest.fixture(scope="module")
def ladder(grid1024):
    return make_ladder(grid1024)


def indicator(grid, lo, hi):
    x = grid.axis_points()
    return SampledFunction(grid, ((x >= lo) & (x <= hi)).astype(float))


class TestBump:
    def test_value_at_origin(self, bump):
        assert bump(0.0) == pytest.approx(bump.normalization * np.exp(-1.0))
        assert bump.peak == pytest.approx(bump(0.0))

    def test_support(self, bump):
        assert bump(1.0) == 0.0
        assert bump(-1.2) == 0.0
        assert bump(0.999) > 0.0

    def test_unit_mass_against_quad_oracle(self, bump):
        # Independent oracle: adaptive quadrature of the unnormalized profile.
        from scipy.integrate import quad

        raw, _ = quad(lambda u: np.exp(1.0 / (u * u - 1.0)), -1.0, 1.0)
        assert bump.normalization * raw == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_2d(self):
        from scipy.integrate import quad

        b2 = make_bump(2)
        raw, _ = quad(lambda r: 2.0 * np.pi * r * np.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
        assert b2.normalization * raw == pytest.approx(1.0, abs=1e-8)


class TestLadder:
    def test_range(self, grid1024, ladder):
        assert ladder.scales[0] == grid1024.dx
        assert ladder.scales[-1] >= 2.0 * grid1024.L

    def test_half_steps(self, grid1024):
        full = make_ladder(grid1024)
        half = make_ladder(grid1024, half_steps=True)
        assert len(half.scales) == 2 * len(full.scales) - 1


class TestSmoothMaximal:
    def test_constant_preserved(self, grid1024, bump, ladder):
        one = sample(lambda x: np.ones_like(x), grid1024)
        out = smooth_maximal(one, bump, ladder)
        assert np.max(np.abs(out.values - 1.0)) < 1e-8

    def test_dominates_each_scale(self, grid1024, bump, ladder):
        f = indicator(grid1024, -0.5, 0.5)
        out = smooth_maximal(f, bump, ladder)
        # recompute one mid-ladder scale by hand
        from hardylab.maximal import _periodized_kernel
        from hardylab.grid import dft, idft, Spectrum

        t = ladder.scales[len(ladder.scales) // 2]
        kern = _periodized_kernel(bump, t, grid1024)
        conv = idft(
            Spectrum(
                grid1024,
                dft(f).coefficients
                * dft(SampledFunction(grid1024, kern)).coefficients,
            )
        )
        assert np.all(out.values.real >= np.abs(conv.values) - 1e-12)

    def test_bounded_by_sup(self, grid1024, bump, ladder):
        rng = np.random.default_rng(1)
        f = SampledFunction(grid1024, rng.standard_normal(1024))
        out = smooth_maximal(f, bump, ladder)
        assert np.max(out.values.real) <= f.max_abs() * (1 + 1e-8)

    def test_kernel_spectra_cached_per_scale(self, grid1024, bump, ladder, monkeypatch):
        f = make_atom(Cube((0.5,), 1.0), 1.0, 2, seed=3, grid=grid1024).values
        first = smooth_maximal(f, bump, ladder)
        original = hardylab.maximal._periodized_kernel
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hardylab.maximal, "_periodized_kernel", counting)
        second = smooth_maximal(f, bump, ladder)
        assert calls == []
        assert np.array_equal(first.values, second.values)
        spectra = hardylab.maximal._kernel_spectra(bump, ladder, grid1024)
        assert len(spectra) == len(ladder.scales)
        assert not any(spec.flags.writeable for spec in spectra)

    def test_long_ladder_reuses_every_kernel(self, bump, monkeypatch):
        # 33 scales, one more than a per-scale cache of 32 entries held: the
        # second sweep still computes no kernel and repeats every bit.
        grid = make_grid(1, 8.0, 64)
        ladder = ScaleLadder(tuple(grid.dx * 2.0 ** (k / 4.0) for k in range(33)))
        hardylab.maximal._kernel_spectra.cache_clear()
        rng = np.random.default_rng(2)
        f = SampledFunction(grid, rng.standard_normal(64))
        original = hardylab.maximal._periodized_kernel
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hardylab.maximal, "_periodized_kernel", counting)
        first = smooth_maximal(f, bump, ladder)
        assert len(calls) == 33
        second = smooth_maximal(f, bump, ladder)
        assert len(calls) == 33
        assert np.array_equal(first.values.view(np.uint64), second.values.view(np.uint64))

    @pytest.mark.parametrize("n, M", [(1, 1024), (2, 64)])
    def test_equals_dft_idft_loop_bitwise(self, n, M):
        # The sweep runs in FFT order and shifts once; it must give the
        # bits of a loop through dft and idft at every scale.
        from hardylab.maximal import _periodized_kernel

        grid = make_grid(n, 8.0, M)
        bump = make_bump(n)
        ladder = make_ladder(grid, half_steps=True)
        rng = np.random.default_rng(n)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SampledFunction(grid, values)
        spec_f = dft(f).coefficients
        want = np.zeros(grid.shape)
        for t in ladder.scales:
            kernel = dft(SampledFunction(grid, _periodized_kernel(bump, t, grid))).coefficients
            conv = idft(Spectrum(grid, spec_f * kernel))
            want = np.maximum(want, np.abs(conv.values))
        got = smooth_maximal(f, bump, ladder).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n, M", [(1, 1024), (2, 64)])
    def test_real_field_runs_on_half_spectra(self, n, M):
        # A float64 field f and i f, whose real part is exactly zero, run on
        # half spectra: both are, as uint64, a loop of lone real transforms
        # of the unshifted f against the first M/2 + 1 columns of the cached
        # kernel spectra, which needs no shift.  Against the dft/idft loop
        # they agree within a bound fixed before the first run: 1e-12 sup |f|
        # (every kernel has unit mass, so each average is at most sup |f|).
        from hardylab.maximal import _kernel_spectra, _periodized_kernel

        grid = make_grid(n, 8.0, M)
        bump = make_bump(n)
        ladder = make_ladder(grid, half_steps=True)
        values = np.random.default_rng(10 + n).standard_normal(grid.shape)
        axes = tuple(range(n))
        spec = np.fft.rfftn(values)
        want = np.zeros(grid.shape)
        for kernel in _kernel_spectra(bump, ladder, grid):
            conv = np.fft.irfftn(spec * kernel[..., : M // 2 + 1], grid.shape, axes=axes)
            want = np.maximum(want, np.abs(conv))
        for field in (values, 1j * values):
            got = smooth_maximal(SampledFunction(grid, field), bump, ladder).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        spec_f = dft(SampledFunction(grid, values)).coefficients
        loop = np.zeros(grid.shape)
        for t in ladder.scales:
            kernel = dft(SampledFunction(grid, _periodized_kernel(bump, t, grid))).coefficients
            loop = np.maximum(loop, np.abs(idft(Spectrum(grid, spec_f * kernel)).values))
        assert np.max(np.abs(want - loop)) <= 1e-12 * np.max(np.abs(values))

    def test_plateau_value_with_conv_oracle(self, grid1024, bump, ladder):
        # For t <= 1 the whole bump mass sits inside the plateau of the
        # indicator of [-1, soft 1], so the small-scale average is 1; oracle =
        # direct convolution quadrature at one scale.
        f = indicator(grid1024, -1.0, 1.0)
        out = smooth_maximal(f, bump, ladder)
        center = grid1024.M // 2
        assert out.values[center].real == pytest.approx(1.0, abs=0.02)

        t = 0.5
        x = grid1024.axis_points()
        direct = np.sum(bump((0.0 - x) / t) / t * f.values.real) * grid1024.dx
        assert direct == pytest.approx(1.0, abs=0.02)


class TestHlMaximal:
    def test_indicator_outside_value(self, grid1024, ladder):
        # sup_r (r - 1)_+ / r = 1/2 at r = 2 for x = 2 outside [0, 1]; oracle
        # = dense sweep over radii of the clipped-window average.
        f = indicator(grid1024, 0.0, 1.0)
        out = hl_maximal(f, ladder)
        x = grid1024.axis_points()
        i2 = int(np.argmin(np.abs(x - 2.0)))
        assert out.values[i2].real == pytest.approx(0.5, rel=0.05)

        rs = np.linspace(0.05, 16.0, 4000)
        window = lambda r: max(0.0, min(2.0 + r, 1.0) - max(2.0 - r, 0.0))
        dense = max(window(r) / r for r in rs)
        assert dense == pytest.approx(0.5, rel=1e-3)

    def test_indicator_inside_value(self, grid1024, ladder):
        f = indicator(grid1024, 0.0, 1.0)
        out = hl_maximal(f, ladder)
        x = grid1024.axis_points()
        i_half = int(np.argmin(np.abs(x - 0.5)))
        assert out.values[i_half].real == pytest.approx(2.0, rel=0.05)

        rs = np.linspace(0.01, 16.0, 8000)
        window = lambda r: max(0.0, min(0.5 + r, 1.0) - max(0.5 - r, 0.0))
        dense = max(window(r) / r for r in rs)
        assert dense == pytest.approx(2.0, rel=1e-2)

    def test_zero_function(self, grid1024, ladder):
        f = SampledFunction(grid1024, np.zeros(1024))
        out = hl_maximal(f, ladder)
        assert np.all(out.values == 0)

    def test_dominates_smooth_maximal(self, grid1024, bump, ladder):
        # |phi_t * f| <= sup(phi_t,disc) * t^n * (ball average at radius t);
        # the explicit constant comes from the sampled bump's peak and its
        # discrete-mass renormalization, with a factor 2 of headroom for the
        # clipped-versus-periodic boundary mismatch.
        from hardylab.maximal import _periodized_kernel

        atom = make_atom(Cube((0.5,), 1.0), 1.0, 2, seed=3, grid=grid1024)
        f = atom.values
        smooth = smooth_maximal(f, bump, ladder)
        rough = hl_maximal(f.abs(), ladder)
        const = 0.0
        for t in ladder.scales:
            kern = _periodized_kernel(bump, t, grid1024)
            const = max(const, float(np.max(kern)) * t)
        assert np.all(
            rough.values.real >= smooth.values.real / (2.0 * const) - 1e-12
        )


    @pytest.mark.parametrize("n, M, scales", [(1, 256, 9), (1, 4096, 13), (1, 8192, 14), (2, 64, 7)])
    def test_one_transform_of_f_per_call(self, n, M, scales, monkeypatch):
        # |f| is transformed once per call, and each radius's stencil once.
        grid = make_grid(n, 8.0, M)
        rng = np.random.default_rng(M)
        f = SampledFunction(grid, rng.standard_normal(grid.shape))
        ladder = make_ladder(grid)
        assert len(ladder.scales) == scales

        shapes = []
        rfftn = np.fft.rfftn

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return rfftn(a, *args, **kwargs)

        monkeypatch.setattr(hardylab.maximal.np.fft, "rfftn", counting)
        hl_maximal(f, ladder)
        assert shapes == [grid.shape] + [(2 * M,) * n] * scales

    @pytest.mark.parametrize("half_steps", [False, True], ids=["dyadic", "half_steps"])
    @pytest.mark.parametrize("n, M", [(1, 256), (1, 4096), (1, 8192), (2, 64), (2, 128)])
    def test_matches_fftconvolve_reference(self, n, M, half_steps):
        # The ball sums against scipy.signal.fftconvolve's "same" mode with
        # the whole stencil |k dx| < r, within FFT rounding: each radius
        # alone, where no smaller radius's average can hide an error, and
        # the supremum over the ladder.
        from scipy.signal import fftconvolve

        grid = make_grid(n, 8.0, M)
        rng = np.random.default_rng(n)
        f = SampledFunction(grid, rng.standard_normal(grid.shape))
        ladder = make_ladder(grid, half_steps=half_steps)
        mags = np.abs(f.values)
        ref = np.zeros(grid.shape)
        for r in ladder.scales:
            summed = fftconvolve(mags, centred_ball(r, grid), mode="same")
            summed *= grid.dx**grid.n / r**grid.n
            gap = np.max(np.abs(hl_maximal(f, ScaleLadder((r,))).values - summed))
            assert gap <= fft_rounding_bound(grid) * np.max(summed), r
            np.maximum(ref, summed, out=ref)
        gap = np.max(np.abs(hl_maximal(f, ladder).values - ref))
        assert gap <= fft_rounding_bound(grid) * np.max(ref)


def centred_ball(r, grid):
    """Indicator of the offsets k, |k_i| <= ceil(r / dx), with |k dx| < r,
    centred on the zero offset."""
    reach = int(np.ceil(r / grid.dx))
    axis = grid.dx * np.arange(-reach, reach + 1, dtype=np.float64)
    mesh = np.meshgrid(*([axis] * grid.n), indexing="ij")
    return (sum(ax * ax for ax in mesh) < r * r).astype(np.float64)


def fft_rounding_bound(grid):
    """Largest gap, relative to the peak, allowed between an FFT ball sum and
    a reference: 8 log2(P) eps for transforms of P = (2M)^n points.  FFT
    convolution is off by O(log2(P) eps) of its scale; 8 is headroom."""
    return 8 * np.log2((2 * grid.M) ** grid.n) * np.finfo(np.float64).eps


def literal_hl_maximal(f, ladder):
    """sup over the ladder's radii r of r^{-n} dx^n times the exactly
    rounded sum (math.fsum) of |f| over the cells of the box whose centers
    lie in the open ball |x - y| < r, point by point with no transform."""
    grid = f.grid
    pts = grid.points().reshape(-1, grid.n)
    mags = np.abs(f.values).ravel()
    out = np.zeros(len(pts))
    for i, x in enumerate(pts):
        dist2 = np.sum((x - pts) ** 2, axis=1)
        for r in ladder.scales:
            ball = math.fsum(mags[dist2 < r * r])
            out[i] = max(out[i], ball * (grid.dx**grid.n / r**grid.n))
    return out.reshape(grid.shape)


@pytest.mark.parametrize("kind", ["dyadic", "half_steps", "three_L"])
@pytest.mark.parametrize("n, M", [(1, 64), (2, 16)], ids=["n1-M64", "n2-M16"])
def test_hl_maximal_matches_literal_ball_sums(n, M, kind):
    # The clipped-ball sums taken cell by cell, sharing no transform with
    # hl_maximal: on the whole ladder, and on each radius alone, where no
    # smaller radius's average can hide an error.  The radius 3L, beyond the
    # box's diameter, reaches past the stencil's crop at M - 1 cells per axis.
    grid = make_grid(n, 8.0, M)
    ladder = {
        "dyadic": make_ladder(grid),
        "half_steps": make_ladder(grid, half_steps=True),
        "three_L": ScaleLadder((grid.L, 3 * grid.L)),
    }[kind]
    rng = np.random.default_rng(M)
    f = SampledFunction(grid, rng.standard_normal(grid.shape))
    for lad in [ladder] + [ScaleLadder((r,)) for r in ladder.scales]:
        ref = literal_hl_maximal(f, lad)
        gap = np.max(np.abs(hl_maximal(f, lad).values - ref))
        assert gap <= fft_rounding_bound(grid) * np.max(ref), lad.scales


SCIPY_FREE_CONFIG = """
[operator]
symbol = sigma1_bilinear

[indices]
p = 2, 2

[grid]
n = 1
L = 8
M = 1024

[ensemble]
trials = 2
max_atoms = 2
ell = 0.5
center_span = 0.15

[checks]
boundedness = true
scale_invariance = true
cancellation = true
decay = true
local_estimate = true
pointwise_majorant = true
fs_inequality = true
"""


def test_cli_and_a_full_run_load_no_scipy(tmp_path):
    # numpy.fft is the one FFT library: neither the import nor a run with
    # every check (maximal functions included) loads any scipy module.
    cfg = tmp_path / "run.ini"
    cfg.write_text(SCIPY_FREE_CONFIG)
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, hardylab.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(scipy_modules())\n"
        f"code = hardylab.cli.main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, '--jobs', '1'])\n"
        "print(code, scipy_modules())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


class TestPowerMaximal:
    def test_r_one_identity(self, grid1024, ladder):
        f = indicator(grid1024, -1.0, 0.5)
        a = power_maximal(f, 1.0, ladder)
        b = hl_maximal(f, ladder)
        assert np.array_equal(a.values, b.values)

    def test_rejects_r_below_one(self, grid1024, ladder):
        f = indicator(grid1024, -1.0, 0.5)
        with pytest.raises(ValueError):
            power_maximal(f, 0.5, ladder)

    def test_constant_value_dense_sweep_oracle(self, grid1024, ladder):
        # For f = c on the whole box the discrete sup at an interior point is
        # sup_r min(2r, clipped)/r * c^r, power 1/r; oracle = dense r sweep.
        c = 0.7
        f = SampledFunction(grid1024, c * np.ones(1024))
        out = power_maximal(f, 2.0, ladder)
        center = grid1024.M // 2
        rs = np.linspace(grid1024.dx, 16.0, 2000)
        dense = max(min(2 * r, 8.0 + grid1024.dx) / r for r in rs) ** 0.5 * c
        assert out.values[center].real == pytest.approx(dense, rel=0.05)
        assert out.values[center].real >= c

    def test_lower_bound_against_plain_maximal(self, grid1024, ladder):
        # With the r^{-n} normalization the discrete ball measure at radius r
        # has mass W_r = dx #{k : |k| dx < r} / r, so Cauchy-Schwarz gives
        # M^(1) <= sqrt(W) M^(2) with W = max over ladder radii of W_r.  W is
        # just below 2 on the dyadic ladder but 3 / sqrt(2) at r = sqrt(2) dx
        # on the half-step ladder, where a fixed sqrt(2) would be too small.
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=4, grid=grid1024)
        f = atom.values
        dx = grid1024.dx
        for lad in (ladder, make_ladder(grid1024, half_steps=True)):
            W = 0.0
            for r in lad.scales:
                reach = int(np.ceil(r / dx))
                k = np.arange(-reach, reach + 1)
                W = max(W, dx * np.count_nonzero(np.abs(k) * dx < r) / r)
            m1 = hl_maximal(f, lad)
            m2 = power_maximal(f, 2.0, lad)
            assert np.all(m2.values.real >= m1.values.real / np.sqrt(W) - 1e-12)


class TestHpQuasinorm:
    def test_zero(self, grid1024, bump, ladder):
        f = SampledFunction(grid1024, np.zeros(1024))
        assert hp_quasinorm(f, 1.0, bump, ladder) == 0.0

    def test_exact_homogeneity(self, grid1024, bump, ladder):
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=5, grid=grid1024)
        f = atom.values
        for p in (0.5, 1.0, 2.0):
            a = hp_quasinorm(2.0 * f, p, bump, ladder)
            b = 2.0 * hp_quasinorm(f, p, bump, ladder)
            assert a == pytest.approx(b, rel=1e-13)

    def test_translation_invariance(self, grid1024, bump, ladder):
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=6, grid=grid1024)
        f = atom.values
        g = SampledFunction(grid1024, np.roll(f.values, 37))
        a = hp_quasinorm(f, 1.0, bump, ladder)
        b = hp_quasinorm(g, 1.0, bump, ladder)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_atom_value_and_refinement(self, bump):
        # Self-convergence oracle: the value is O(1) and stable under M -> 2M.
        vals = {}
        for M in (1024, 2048):
            g = make_grid(1, 8.0, M)
            atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=7, grid=g)
            vals[M] = hp_quasinorm(atom.values, 1.0, bump, make_ladder(g))
        assert 0.1 <= vals[1024] <= 10.0
        assert abs(vals[2048] - vals[1024]) / vals[1024] < 0.2

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_comparable_to_lp_above_one(self, grid1024, bump, ladder, p):
        # Between 1 and infinity the maximal quasinorm is equivalent to the
        # Lebesgue norm; the observed ratio window stays narrow.
        rng = np.random.default_rng(42)
        ratios = []
        for trial in range(12):
            coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            x = grid1024.axis_points()
            vals = np.zeros(1024, dtype=complex)
            for k, c in enumerate(coeffs):
                vals += c * np.exp(2j * np.pi * (k - 4) * x / 16.0)
            f = SampledFunction(grid1024, vals)
            ratios.append(hp_quasinorm(f, p, bump, ladder) / lp_quasinorm(f, p))
        assert max(ratios) / min(ratios) <= 20.0
