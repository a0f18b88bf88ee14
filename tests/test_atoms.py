import numpy as np
import pytest

from hardylab.atoms import (
    Cube,
    cube_indicator,
    dilate_cube,
    make_atom,
    make_atomic_sum,
    make_infinity_atom,
    moments,
)
from hardylab.grid import lp_quasinorm, make_grid


@pytest.fixture(scope="module")
def grid1024():
    return make_grid(1, 8.0, 1024)


class TestCubeGeometry:
    def test_star_1d(self):
        q = dilate_cube(Cube((0.0,), 1.0), "star")
        assert q.side == pytest.approx(3.0)
        assert q.center == (0.0,)

    def test_starstar_1d(self):
        q = dilate_cube(Cube((0.5,), 1.0), "starstar")
        assert q.side == pytest.approx(9.0)
        assert q.center == (0.5,)

    def test_star_2d(self):
        q = dilate_cube(Cube((0.0, 0.0), 2.0), "star")
        assert q.side == pytest.approx(6.0 * np.sqrt(2.0))

    def test_starstar_2d(self):
        q = dilate_cube(Cube((0.0, 0.0), 1.0), "starstar")
        assert q.side == pytest.approx(18.0)

    def test_unknown_dilate(self):
        with pytest.raises(ValueError):
            dilate_cube(Cube((0.0,), 1.0), "mega")


class TestMakeAtom:
    def test_normalization_and_support(self, grid1024):
        q = Cube((0.5,), 1.0)
        atom = make_atom(q, 1.0, 0, seed=3, grid=grid1024)
        vals = atom.values.values
        assert np.max(np.abs(vals)) == pytest.approx(0.5)
        outside = ~q.contains(grid1024.points())
        assert np.max(np.abs(vals[outside])) == 0.0

    def test_mean_zero(self, grid1024):
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 0, seed=5, grid=grid1024)
        total = np.sum(atom.values.values) * grid1024.dx
        assert abs(total) <= 1e-8 * 1.0

    def test_moments_order_four_direct_quadrature(self, grid1024):
        # Oracle: raw rectangle-rule sums, independent of the moments helper.
        q = Cube((0.0,), 1.0)
        atom = make_atom(q, 1.0, 4, seed=9, grid=grid1024)
        x = grid1024.axis_points()
        for k in range(5):
            val = np.sum(x**k * atom.values.values) * grid1024.dx
            tol = 1e-8 * q.volume * (q.side / 2.0) ** k
            assert abs(val) <= tol

    @pytest.mark.parametrize("N", [0, 2, 6, 8])
    def test_moments_up_to_order(self, grid1024, N):
        q = Cube((-0.5,), 1.0)
        atom = make_atom(q, 1.0, N, seed=21 + N, grid=grid1024)
        vals = moments(atom.values, N, Cube((0.0,), 15.5), about=q.center)
        for alpha, v in vals.items():
            tol = 1e-8 * q.volume * (q.side / 2.0) ** sum(alpha)
            assert abs(v) <= tol

    def test_deterministic(self, grid1024):
        a = make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=7, grid=grid1024)
        b = make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=7, grid=grid1024)
        assert np.array_equal(a.values.values, b.values.values)

    def test_seeds_differ(self, grid1024):
        a = make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=7, grid=grid1024)
        b = make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=8, grid=grid1024)
        dist = lp_quasinorm(a.values - b.values, 2.0)
        assert dist > 0.01 * lp_quasinorm(a.values, 2.0)

    def test_translation_covariance(self, grid1024):
        # Shifting the cube by whole cells shifts the sampled atom exactly.
        shift_cells = 64
        shift = shift_cells * grid1024.dx
        a = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=11, grid=grid1024)
        b = make_atom(Cube((shift,), 1.0), 1.0, 2, seed=11, grid=grid1024)
        assert np.array_equal(np.roll(a.values.values, shift_cells), b.values.values)

    def test_too_few_cells(self):
        g = make_grid(1, 8.0, 128)
        with pytest.raises(ValueError, match="16"):
            make_atom(Cube((0.0,), 0.5), 1.0, 0, seed=0, grid=g)

    def test_too_close_to_boundary(self, grid1024):
        with pytest.raises(ValueError, match="boundary"):
            make_atom(Cube((5.0,), 1.0), 1.0, 0, seed=0, grid=grid1024)

    def test_2d_atom(self):
        g = make_grid(2, 8.0, 512)
        q = Cube((0.0, 0.25), 0.5)
        atom = make_atom(q, 1.0, 2, seed=13, grid=g)
        assert np.max(np.abs(atom.values.values)) == pytest.approx(0.5)
        vals = moments(atom.values, 2, Cube((0.0, 0.0), 15.0), about=q.center)
        for alpha, v in vals.items():
            tol = 1e-8 * q.volume * (q.side / 2.0) ** sum(alpha)
            assert abs(v) <= tol

    def test_skip_projection_keeps_mean(self, grid1024):
        raw = make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=11, grid=grid1024, skip_projection=True)
        total = abs(np.sum(raw.values.values) * grid1024.dx)
        assert total > 1e-4


class TestInfinityAtom:
    def test_constant_one_valid(self, grid1024):
        atom = make_infinity_atom(grid1024, lambda x: np.ones_like(x))
        assert atom.cube.side == pytest.approx(16.0)
        assert atom.moment_order is None

    def test_bound_violation(self, grid1024):
        with pytest.raises(ValueError, match="unit bound"):
            make_infinity_atom(grid1024, lambda x: 2.0 * np.ones_like(x))

    def test_oscillation_below_bound(self, grid1024):
        atom = make_infinity_atom(grid1024, lambda x: 0.9 * np.cos(np.pi * x / 8.0))
        assert atom.values.max_abs() <= 0.9 + 1e-12


class TestAtomicSum:
    def test_single_entry(self, grid1024):
        q = Cube((0.0,), 1.0)
        s = make_atomic_sum([(1.0, q, 5)], 1.0, 2, grid1024)
        atom = make_atom(q, 1.0, 2, seed=5, grid=grid1024)
        assert np.array_equal(s.realized.values, atom.values.values)
        assert np.array_equal(s.majorant.values, cube_indicator(q, grid1024).values)

    def test_empty(self, grid1024):
        s = make_atomic_sum([], 1.0, 2, grid1024)
        assert np.all(s.realized.values == 0)
        assert np.all(s.majorant.values == 0)

    def test_majorant_dominates(self, grid1024):
        entries = [
            (1.0, Cube((0.0,), 1.0), 1),
            (0.5, Cube((0.25,), 0.5), 2),
            (0.25, Cube((-1.0,), 0.5), 3),
        ]
        s = make_atomic_sum(entries, 1.0, 2, grid1024)
        assert np.all(np.abs(s.realized.values) <= np.abs(s.majorant.values) + 1e-12)

    @pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.0, 2.0])
    def test_quasinorm_ordering(self, grid1024, p):
        entries = [(2.0 ** (-k), Cube((0.25 * k,), 0.5), k) for k in range(5)]
        s = make_atomic_sum(entries, 1.0, 2, grid1024)
        assert lp_quasinorm(s.realized, p) <= lp_quasinorm(s.majorant, p) * (1 + 1e-12)

    def test_majorant_quasinorm_matches_direct_quadrature(self, grid1024):
        # Oracle: rectangle rule on (sum lambda chi)^(1/2) written out by hand.
        entries = [(2.0 ** (-k), Cube((0.3 * k - 0.5,), 0.5), 10 + k) for k in range(5)]
        s = make_atomic_sum(entries, 1.0, 2, grid1024)
        pts = grid1024.points()
        field = np.zeros(grid1024.shape)
        for lam, cube, _ in entries:
            field += lam * cube.contains(pts)
        direct = (np.sum(field**0.5) * grid1024.dx) ** 2
        assert lp_quasinorm(s.majorant, 0.5) == pytest.approx(direct, rel=1e-12)

    def test_negative_coefficient_rejected(self, grid1024):
        with pytest.raises(ValueError, match="nonnegative"):
            make_atomic_sum([(-1.0, Cube((0.0,), 1.0), 1)], 1.0, 2, grid1024)


class TestMoments:
    def test_indicator_box_count(self, grid1024):
        window = Cube((0.0,), 4.0)
        vals = np.zeros(grid1024.shape)
        vals[100:110] = 1.0
        from hardylab.grid import SampledFunction

        f = SampledFunction(grid1024, vals)
        out = moments(f, 0, Cube((0.0,), 15.9))
        assert out[(0,)] == pytest.approx(10 * grid1024.dx)

    def test_odd_function_zero_mean(self, grid1024):
        from hardylab.grid import SampledFunction

        x = grid1024.axis_points()
        f = SampledFunction(grid1024, x)
        # symmetric window: exclude the unpaired leftmost sample
        window = Cube((0.0,), 2.0)
        out = moments(f, 0, window)
        assert abs(out[(0,)]) < 1e-12

    def test_window_outside_box(self, grid1024):
        from hardylab.grid import SampledFunction

        f = SampledFunction(grid1024, np.ones(grid1024.shape))
        with pytest.raises(ValueError, match="outside"):
            moments(f, 0, Cube((8.0,), 4.0))


def test_monomial_exponents_cached_as_tuples():
    # One tuple per (n, degree), shared by every caller, so none may change
    # it; graded lexicographic as before.
    from hardylab.atoms import _monomial_exponents

    got = _monomial_exponents(2, 2)
    assert got is _monomial_exponents(2, 2)
    assert got == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert isinstance(got, tuple) and all(isinstance(alpha, tuple) for alpha in got)
