import numpy as np
import pytest

from hardylab.grid import (
    SampledFunction,
    Spectrum,
    dft,
    idft,
    lp_quasinorm,
    make_grid,
    pointwise_product,
    sample,
)


def _wrap(grid, vals):
    from hardylab.grid import SampledFunction

    return SampledFunction(grid, vals)


class TestMakeGrid:
    def test_spacing_1d(self):
        g = make_grid(1, 8.0, 16)
        assert g.dx == 1.0
        assert g.size == 16
        assert g.axis_points()[0] == -8.0
        assert g.axis_points()[-1] == 7.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1, 8.0, 17)

    def test_2d_grid(self):
        g = make_grid(2, 4.0, 64)
        assert g.size == 4096
        assert g.dx == 0.125

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            make_grid(3, 1.0, 16)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 4)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("L", [3.0, 5.0, 8.0])
    def test_frequencies_are_the_engine_lattice(self, n, L):
        # One lattice k * dxi for every route, bit for bit, even where
        # 1/(2L) is not a power of two.
        from hardylab.operators import _flat_freq_ints

        g = make_grid(n, L, 16)
        engine = _flat_freq_ints(g) * g.dxi
        freqs = g.frequencies().reshape(-1, n)
        assert np.array_equal(freqs.view(np.uint64), engine.view(np.uint64))

    def test_frequency_set_symmetric_up_to_nyquist(self):
        g = make_grid(1, 8.0, 16)
        freqs = g.axis_frequencies()
        assert freqs[0] == -freqs[-1] - g.dxi  # single Nyquist row at the left
        np.testing.assert_allclose(freqs[1:], -freqs[1:][::-1])


class TestSampling:
    def test_constant(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: np.ones_like(x), g)
        assert np.all(f.values == 1.0)

    def test_identity_map(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: x, g)
        np.testing.assert_array_equal(f.values.real, np.arange(-8.0, 8.0))

    def test_gaussian_at_origin(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: np.exp(-(x**2)), g)
        assert f.values[8] == 1.0

    def test_failure_reports_point(self):
        g = make_grid(1, 8.0, 16)

        def bad(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 3.0)

        with pytest.raises(ValueError, match="point"):
            sample(bad, g)

    def test_values_immutable(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: x, g)
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestTransforms:
    def test_dc_coefficient_is_box_volume(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: np.ones_like(x), g)
        s = dft(f)
        assert s.at_zero() == pytest.approx(16.0)
        rest = np.delete(s.coefficients, 8)
        assert np.max(np.abs(rest)) < 1e-12

    def test_single_mode(self):
        g = make_grid(1, 8.0, 16)
        xi0 = g.axis_frequencies()[11]
        f = sample(lambda x: np.exp(2j * np.pi * x * xi0), g)
        s = dft(f)
        assert abs(s.coefficients[11] - 16.0) < 1e-12
        rest = np.delete(s.coefficients, 11)
        assert np.max(np.abs(rest)) < 1e-11

    @pytest.mark.parametrize("M", [8, 16, 64, 256, 1024, 4096])
    def test_round_trip_1d(self, M):
        g = make_grid(1, 8.0, M)
        rng = np.random.default_rng(M)
        f = _wrap(g, rng.standard_normal(M) + 1j * rng.standard_normal(M))
        back = idft(dft(f))
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert err < 1e-12

    @pytest.mark.parametrize("M", [8, 32, 128])
    def test_round_trip_2d(self, M):
        g = make_grid(2, 4.0, M)
        rng = np.random.default_rng(M)
        f = _wrap(g, rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
        back = idft(dft(f))
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert err < 1e-12
        spec = Spectrum(g, f.values)
        again = dft(idft(spec))
        err2 = np.max(np.abs(again.coefficients - spec.coefficients)) / np.max(np.abs(f.values))
        assert err2 < 1e-12

    def test_parseval_direct_quadrature_oracle(self):
        g = make_grid(1, 8.0, 256)
        rng = np.random.default_rng(3)
        f = _wrap(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        space_side = np.sum(np.abs(f.values) ** 2) * g.dx
        freq_side = np.sum(np.abs(dft(f).coefficients) ** 2) / (2.0 * g.L)
        assert abs(space_side - freq_side) / space_side < 1e-10

    def test_parseval_2d(self):
        g = make_grid(2, 2.0, 32)
        rng = np.random.default_rng(4)
        f = _wrap(g, rng.standard_normal((32, 32)))
        space_side = np.sum(np.abs(f.values) ** 2) * g.dx**2
        freq_side = np.sum(np.abs(dft(f).coefficients) ** 2) / (2.0 * g.L) ** 2
        assert abs(space_side - freq_side) / space_side < 1e-10


class TestFftOrder:
    # dft and idft shift by slice copies (_half_shift) instead of np.roll,
    # and take the transform's output without a second copy; every bit,
    # the sign of zero included, is that of the literal shifted form.
    @staticmethod
    def _signed_zeros(shape, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v.real[rng.random(shape) < 0.25] = -0.0
        v.imag[rng.random(shape) < 0.25] = 0.0
        v.imag[rng.random(shape) < 0.25] = -0.0
        return v

    @pytest.mark.parametrize("M", [2, 8, 64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_transforms_equal_literal_shift_form(self, n, M):
        from hardylab.grid import Grid

        g = Grid(n, 8.0, M)
        v = self._signed_zeros(g.shape, 10 * n + M)
        want = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(v))) * g.dx**n
        got = dft(_wrap(g, v)).coefficients
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        want = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(v))) / g.dx**n
        got = idft(Spectrum(g, v)).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("M", [1, 2, 8, 64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_half_shift_is_both_shifts(self, n, M):
        from hardylab.grid import _half_shift

        v = self._signed_zeros((M,) * n, M)
        got = _half_shift(v)
        assert np.array_equal(got.view(np.uint64), np.fft.fftshift(v).view(np.uint64))
        assert np.array_equal(got.view(np.uint64), np.fft.ifftshift(v).view(np.uint64))
        assert got is not v and not np.shares_memory(got, v)

    @pytest.mark.parametrize("shape", [(5, 4096), (3, 64, 64)], ids=["n1", "n2"])
    def test_inverse_over_rows_equals_row_calls(self, shape):
        # The unscaled inverse transforms the last n axes of stacked rows,
        # in place or into out=: every bit is that of a call on each row
        # alone and of np.fft.ifftn, over the row axes or over a whole row.
        from hardylab.grid import _fft_inverse

        n = len(shape) - 1
        v = self._signed_zeros(shape, n)
        want = np.fft.ifftn(v, axes=tuple(range(1, n + 1)))
        into = np.empty_like(v)
        got = [
            _fft_inverse(v.copy(), n),
            _fft_inverse(v.copy(), n, out=into),
            np.stack([_fft_inverse(row.copy(), n) for row in v]),
            np.stack([np.fft.ifftn(row) for row in v]),
        ]
        assert got[1] is into
        for arr in got:
            assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape", [(3, 8192), (3, 64, 64)], ids=["n1", "n2"])
    def test_forward_over_rows_equals_row_calls(self, shape):
        # The stacked real transforms run over the last n axes of real rows,
        # and the inverse writes into out=, here the imaginary part of
        # complex rows: every bit is that of np.fft.rfftn and irfftn on each
        # row alone.  _fft_forward of a complex array is fftn(ifftshift(v)).
        from hardylab.grid import _fft_forward, _real_forward, _real_inverse

        n = len(shape) - 1
        v = self._signed_zeros(shape, 20 + len(shape))
        half = _real_forward(v.real, n)
        assert half.shape == shape[:-1] + (shape[-1] // 2 + 1,)
        into = np.zeros(shape, dtype=np.complex128)
        _real_inverse(half, shape[1:], out=into.imag)
        assert not into.real.any()
        for row, h, back, values in zip(v.real, half, into.imag, v):
            lone = np.fft.rfftn(row)
            assert np.array_equal(h.view(np.uint64), lone.view(np.uint64))
            lone = np.fft.irfftn(h, shape[1:], axes=tuple(range(n)))
            assert np.array_equal(back.view(np.uint64), lone.view(np.uint64))
            literal = np.fft.fftn(np.fft.ifftshift(values))
            assert np.array_equal(_fft_forward(values).view(np.uint64), literal.view(np.uint64))

    def test_rows_of_a_frozen_stack_are_taken_without_a_copy(self):
        # A read-only, C-contiguous row of a read-only array that owns its
        # data is taken as it is; a view of a writable array, read-only or
        # not, a view of memory the base does not own, and a non-contiguous
        # view are copied.
        g = make_grid(1, 8.0, 16)
        stack = self._signed_zeros((3, 32), 7)
        writable = stack[1, :16]
        assert not np.shares_memory(SampledFunction(g, writable).values, stack)
        read_only = stack[1, :16]
        read_only.setflags(write=False)
        assert not np.shares_memory(SampledFunction(g, read_only).values, stack)
        stack.setflags(write=False)
        taken = SampledFunction(g, stack[1, :16]).values
        assert taken.base is stack and np.shares_memory(taken, stack)
        assert not np.shares_memory(SampledFunction(g, stack[1, ::2]).values, stack)
        foreign = np.frombuffer(stack.tobytes(), dtype=np.complex128).reshape(3, 32)
        assert not np.shares_memory(SampledFunction(g, foreign[1, :16]).values, foreign)

    def test_outputs_are_read_only_and_owned(self):
        g = make_grid(1, 8.0, 16)
        f = _wrap(g, self._signed_zeros(16, 1))
        for arr in (dft(f).coefficients, idft(dft(f)).values):
            assert not arr.flags.writeable and arr.flags.owndata
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_caller_arrays_are_copied(self):
        # Only a read-only array that owns its data is taken as it is; a
        # writable one is copied, so the caller cannot change the function.
        g = make_grid(1, 8.0, 16)
        v = self._signed_zeros(16, 2)
        f = _wrap(g, v)
        assert not np.shares_memory(f.values, v) and v.flags.writeable
        v[0] = 99.0
        assert f.values[0] != 99.0


class TestQuasinorm:
    def test_indicator_l1(self):
        g = make_grid(1, 8.0, 16)
        vals = np.zeros(16)
        vals[[2, 5, 9]] = 1.0
        f = _wrap(g, vals)
        assert lp_quasinorm(f, 1.0) == pytest.approx(3 * g.dx)

    def test_sup_norm(self):
        g = make_grid(1, 8.0, 16)
        f = _wrap(g, np.arange(16.0) - 4.0)
        assert lp_quasinorm(f, np.inf) == 11.0

    @pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.0, 2.0, np.inf])
    def test_homogeneity(self, p):
        g = make_grid(1, 8.0, 64)
        rng = np.random.default_rng(11)
        f = _wrap(g, rng.standard_normal(64))
        assert lp_quasinorm(2.0 * f, p) == pytest.approx(2.0 * lp_quasinorm(f, p), rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_p_triangle_inequality(self, seed):
        p = 0.5
        g = make_grid(1, 8.0, 64)
        rng = np.random.default_rng(seed)
        f = _wrap(g, rng.standard_normal(64))
        h = _wrap(g, rng.standard_normal(64))
        lhs = lp_quasinorm(f + h, p) ** p
        rhs = lp_quasinorm(f, p) ** p + lp_quasinorm(h, p) ** p
        assert lhs <= rhs * (1 + 1e-12)

    def test_rejects_nonpositive(self):
        g = make_grid(1, 8.0, 16)
        f = _wrap(g, np.ones(16))
        with pytest.raises(ValueError):
            lp_quasinorm(f, 0.0)
        with pytest.raises(ValueError):
            lp_quasinorm(f, -1.0)


class TestPointwiseProduct:
    def test_identity_and_zero(self):
        g = make_grid(1, 8.0, 16)
        rng = np.random.default_rng(0)
        f = _wrap(g, rng.standard_normal(16))
        one = _wrap(g, np.ones(16))
        zero = _wrap(g, np.zeros(16))
        np.testing.assert_array_equal(pointwise_product(f, one).values, f.values)
        assert np.all(pointwise_product(f, zero).values == 0)

    def test_squares_coordinates(self):
        g = make_grid(1, 8.0, 16)
        f = sample(lambda x: x, g)
        sq = pointwise_product(f, f)
        np.testing.assert_allclose(sq.values.real, g.axis_points() ** 2)

    def test_grid_mismatch(self):
        a = make_grid(1, 8.0, 16)
        b = make_grid(1, 8.0, 32)
        fa = sample(lambda x: x, a)
        fb = sample(lambda x: x, b)
        with pytest.raises(ValueError, match="mismatch"):
            pointwise_product(fa, fb)
