"""make_atom builds on its cube's window; these tests hold it to the
full-grid construction it replaced, to rounding, and make_atomic_sum to the
full-grid sums, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre

from hardylab.atoms import (
    Atom,
    Cube,
    _atom_geometry,
    _bump_weight,
    _check_atom_geometry,
    _cube_window,
    _monomial_exponents,
    make_atom,
    make_atomic_sum,
    moments,
)
from hardylab.grid import SampledFunction, make_grid


def _legendre_values(u_axes, beta):
    """Tensor Legendre polynomial P_beta evaluated on per-axis u coordinates."""
    val = None
    for axis, k in enumerate(beta):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        axis_val = legendre.legval(u_axes[axis], coeffs)
        val = axis_val if val is None else val * axis_val
    return val


def full_grid_make_atom(cube, p, N, seed, grid, skip_projection=False):
    """Reference copy of make_atom as it was before the window: every array
    spans the whole grid."""
    if N < 0:
        raise ValueError("moment order must be nonnegative")
    _check_atom_geometry(cube, grid)

    pts = grid.points()
    c = np.asarray(cube.center)
    u = (pts - c) / (cube.side / 2.0)
    inside = np.all(np.abs(u) < 1.0, axis=-1)
    w = _bump_weight(u)

    rng = np.random.default_rng(seed)
    poly_exps = _monomial_exponents(grid.n, N + 2)
    poly_coeffs = rng.standard_normal(len(poly_exps))
    u_axes = [u[..., i] for i in range(grid.n)]
    poly = np.zeros(grid.shape)
    for coeff, exps in zip(poly_coeffs, poly_exps):
        mono = np.ones(grid.shape)
        for axis, k in enumerate(exps):
            if k:
                mono = mono * u_axes[axis] ** k
        poly += coeff * mono
    f0 = w * poly

    if skip_projection:
        values = f0
    else:
        betas = _monomial_exponents(grid.n, N)
        basis = [_legendre_values(u_axes, beta) * inside for beta in betas]
        nb = len(basis)
        gram = np.empty((nb, nb))
        rhs = np.empty(nb)
        for i in range(nb):
            rhs[i] = np.sum(basis[i] * f0)
            for j in range(i, nb):
                gram[i, j] = gram[j, i] = np.sum(basis[i] * basis[j] * w)
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"moment system is singular for cube {cube}: {exc}") from exc
        residual = np.linalg.norm(gram @ coeffs - rhs)
        scale = np.linalg.norm(rhs)
        if residual > 1e-9 * max(scale, 1.0):
            raise ValueError(
                f"moment system ill-conditioned for cube {cube}: relative residual "
                f"{residual / max(scale, 1.0):.3e}"
            )
        values = f0 - w * sum(cf * b for cf, b in zip(coeffs, basis))

    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise ValueError("degenerate atom: projection annihilated the profile")
    values = values * (0.5 / peak)
    return Atom(cube, SampledFunction(grid, values), float(p), N, seed)


# The window's sums are matrix products in another order than the full
# grid's pairwise sums, so the two atoms differ by rounding.  The atom's
# peak is 0.5; the largest difference over this file's cases is 2.5e-13.
WINDOW_TOLERANCE = 1e-11


def assert_same_atom(cube, N, seed, grid, skip_projection=False):
    atom = make_atom(cube, 1.0, N, seed, grid, skip_projection)
    ref = full_grid_make_atom(cube, 1.0, N, seed, grid, skip_projection)
    assert np.max(np.abs(atom.values.values - ref.values.values)) <= WINDOW_TOLERANCE
    return atom


def floor_side(grid):
    return 16 * grid.dx


def largest_centre(side, grid):
    """The largest grid-aligned centre the geometry check admits."""
    bound = grid.L - 9.0 * grid.n * side / 2.0 - side
    return grid.dx * np.floor(bound / grid.dx)


class TestWindowEqualsFullGrid:
    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    @pytest.mark.parametrize("N", range(7))
    @pytest.mark.parametrize("M", [256, 4096, 8192])
    def test_n1(self, M, N, skip):
        grid = make_grid(1, 8.0, M)
        for seed, cube in enumerate([Cube((0.25,), 1.0), Cube((-0.5,), 0.5)]):
            if cube.side >= floor_side(grid):
                assert_same_atom(cube, N, 40 + seed, grid, skip)

    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    @pytest.mark.parametrize("N", [0, 2, 4])
    def test_n2(self, N, skip):
        grid = make_grid(2, 8.0, 512)
        assert_same_atom(Cube((0.25, -0.5), 0.5), N, 50 + N, grid, skip)

    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    @pytest.mark.parametrize("n, M", [(1, 256), (1, 8192), (2, 512)])
    def test_floor_and_edge_cubes(self, n, M, skip):
        grid = make_grid(n, 8.0, M)
        side = floor_side(grid)
        edge = largest_centre(side, grid)
        # Each axis at both ends of its admissible range.
        centres = [(edge, -edge), (-edge, edge)] if n == 2 else [(edge,), (-edge,)]
        for seed, centre in enumerate(centres):
            assert_same_atom(Cube(centre, side), 2, 60 + seed, grid, skip)
            # One cell further out leaves the admissible range.
            nudged = Cube(tuple(c + np.copysign(grid.dx, c) for c in centre), side)
            with pytest.raises(ValueError, match="boundary"):
                make_atom(nudged, 1.0, 2, 60 + seed, grid, skip)


def same_error(cube, N, seed, grid, skip=False):
    with pytest.raises(ValueError) as got:
        make_atom(cube, 1.0, N, seed, grid, skip)
    with pytest.raises(ValueError) as want:
        full_grid_make_atom(cube, 1.0, N, seed, grid, skip)
    assert str(got.value) == str(want.value)
    return str(got.value)


class TestSameErrors:
    def test_geometry(self):
        g64 = make_grid(2, 8.0, 64)
        g1024 = make_grid(1, 8.0, 1024)
        assert "need at least 16" in same_error(Cube((0.0, 0.0), 1.0), 2, 1, g64)
        assert "boundary" in same_error(Cube((0.0, 0.0), 4.0), 2, 1, g64)
        assert "boundary" in same_error(Cube((5.0,), 1.0), 2, 1, g1024)
        assert "does not match" in same_error(Cube((0.0, 0.0), 1.0), 2, 1, g1024)
        assert "nonnegative" in same_error(Cube((0.0,), 1.0), -1, 1, g1024)

    def test_singular(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        msg = same_error(Cube((0.5,), 1.0), 4, 3, make_grid(1, 8.0, 1024))
        assert "singular" in msg

    def test_ill_conditioned(self, monkeypatch):
        # A solve that returns zeros leaves the whole right-hand side as the
        # residual; the message quotes it, so it must match to the digit.
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
        msg = same_error(Cube((0.5,), 1.0), 4, 3, make_grid(1, 8.0, 1024))
        assert "ill-conditioned" in msg

    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    def test_degenerate(self, monkeypatch, skip):
        # A zero random polynomial leaves nothing to normalise.
        class ZeroRng:
            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroRng())
        msg = same_error(Cube((0.5,), 1.0), 4, 3, make_grid(1, 8.0, 1024), skip)
        assert "degenerate" in msg


GRID_1024 = make_grid(1, 8.0, 1024)


@st.composite
def atom_draws(draw):
    grid = GRID_1024
    cells = draw(st.integers(16, 93))  # 93 cells: the largest side with room for a centre
    side = cells * grid.dx
    reach = int(np.floor((grid.L - 5.5 * side) / grid.dx))
    centre = grid.dx * draw(st.integers(-reach, reach))
    seed = draw(st.integers(0, 2**32 - 1))
    N = draw(st.integers(0, 6))
    return Cube((centre,), side), seed, N


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(atom_draws())
def test_window_atom_properties(draw):
    cube, seed, N = draw
    grid = GRID_1024
    atom = assert_same_atom(cube, N, seed, grid)
    vals = atom.values.values
    outside = ~cube.contains(grid.points())
    assert not np.any(vals[outside])
    assert np.max(np.abs(vals)) == pytest.approx(0.5, rel=1e-15)
    for alpha, v in moments(atom.values, N, Cube((0.0,), 15.5), about=cube.center).items():
        assert abs(v) <= 1e-8 * cube.volume * (cube.side / 2.0) ** sum(alpha)


def window_bits(atom):
    return atom.values.values[_cube_window(atom.cube, atom.values.grid)].view(np.uint64)


class TestExactTranslates:
    # With a power-of-two spacing a grid-aligned centre leaves the window's
    # u = (x - c)/(ell/2) exact, so the atom depends on its cube's position
    # only through where its window sits.
    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    @pytest.mark.parametrize(
        "n, M, centres",
        [(1, 8192, [(0.25,), (-1.5,)]), (2, 512, [(0.25, -0.5), (-0.5, 0.5)])],
    )
    def test_grid_aligned_centres(self, n, M, centres, skip):
        grid = make_grid(n, 8.0, M)
        for N in (0, 3, 6):
            a, b = (make_atom(Cube(c, 0.75), 1.0, N, 70 + N, grid, skip) for c in centres)
            assert np.array_equal(window_bits(a), window_bits(b))
            assert np.count_nonzero(a.values.values) == np.count_nonzero(b.values.values)


class TestGeometryCache:
    # _atom_window caches a window's seed-independent geometry by N and the
    # bytes of its u, so an atom built on a warm cache is, as uint64, the
    # atom built on a cold one, for an off-grid centre (u inexact) and at
    # n = 2.
    @pytest.mark.parametrize("skip", [False, True], ids=["projected", "raw"])
    @pytest.mark.parametrize(
        "n, M, centre", [(1, 1024, (0.3,)), (2, 512, (0.3, -0.45))], ids=["n1", "n2"]
    )
    def test_cold_and_warm_atoms_are_equal(self, n, M, centre, skip):
        grid = make_grid(n, 8.0, M)
        cube = Cube(centre, 0.5)
        assert any(c / grid.dx != round(c / grid.dx) for c in centre)
        cold = []
        for seed in (1, 2):
            _atom_geometry.cache_clear()
            cold.append(make_atom(cube, 1.0, 4, seed, grid, skip))
        hits = _atom_geometry.cache_info().hits
        for seed, atom in zip((1, 2), cold):
            warm = make_atom(cube, 1.0, 4, seed, grid, skip)
            assert np.array_equal(window_bits(warm), window_bits(atom))
        info = _atom_geometry.cache_info()
        assert info.hits == hits + 2 and info.currsize == 1

    def test_translates_share_one_entry_and_the_cache_is_bounded(self):
        # Grid-aligned centres leave u exact: translates are one entry.
        # Off-grid centres give a new u each, and the cache keeps at most
        # its maximum, evicting the oldest.
        grid = make_grid(1, 8.0, 1024)
        _atom_geometry.cache_clear()
        for k in range(5):
            make_atom(Cube((k * 0.25,), 0.5), 1.0, 2, k, grid)
        assert _atom_geometry.cache_info().currsize == 1
        size = _atom_geometry.cache_info().maxsize
        for k in range(2 * size):
            make_atom(Cube((0.001 * (k + 1),), 0.5), 1.0, 2, k, grid)
        assert _atom_geometry.cache_info().currsize == size == 8
        # What a hit returns is shared, so it is read-only.
        geometry = _atom_geometry(2, (np.linspace(-1.2, 1.2, 40).tobytes(),))
        assert len(geometry) == 5 and not any(a.flags.writeable for a in geometry)


def full_grid_atomic_sum(entries, p, N, grid):
    """make_atomic_sum's sums as they were before the window: every atom
    and indicator added over the whole grid."""
    realized = np.zeros(grid.shape)
    majorant = np.zeros(grid.shape)
    for lam, cube, seed in entries:
        realized += lam * make_atom(cube, p, N, seed, grid).values.values
        majorant += lam * cube.contains(grid.points())
    return realized, majorant


@pytest.mark.parametrize("n, M", [(1, 1024), (2, 512)])
def test_atomic_sum_on_windows_is_the_full_grid_sum(n, M):
    # Centres and half-sides are whole cells, so every face of each closed
    # cube lands exactly on a row of cell centres, the cells the window's
    # margin is there to hold.
    grid = make_grid(n, 8.0, M)
    dx = grid.dx
    entries = [
        (0.7, Cube((10 * dx,) * n, 24 * dx), 5),
        (1.3, Cube((-4 * dx,) + (6 * dx,) * (n - 1), 20 * dx), 6),
        (0.4, Cube((dx,) * n, 16 * dx), 7),
    ]
    got = make_atomic_sum(entries, 1.0, 2, grid)
    realized, majorant = full_grid_atomic_sum(entries, 1.0, 2, grid)
    assert np.array_equal(got.realized.values.view(np.uint64), realized.view(np.uint64))
    assert np.array_equal(got.majorant.values.view(np.uint64), majorant.view(np.uint64))
    face = (M // 2 + 10 + 12,) * n
    assert majorant[face] == 0.7 and majorant[(face[0] + 1,) + face[1:]] == 0.0
