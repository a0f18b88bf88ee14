"""Atoms with vanishing moments, cube geometry, and finite atomic sums.

An atom is a bounded function supported on a cube Q with |a| <= chi_Q and all
monomial moments up to a prescribed order killed.  Construction: a smooth
boundary-flat bump on Q times a seed-random polynomial, minus its projection
onto the bump-weighted polynomial space (tensor Legendre basis, for Gram
conditioning at orders up to ~8), rescaled to sup 1/2.  The strict margin
below 1 guards the |a| <= chi_Q bound against quadrature rounding.

Every step runs on the cube's window, the index slice per axis that covers
the closed cube plus one cell, in coordinates u = (x - c)/(ell/2) local to
the cube: the profile from a table of powers of u, the basis from one
Legendre Vandermonde matrix per axis, and the Gram matrix and right-hand side
as two matrix products.  The atom is zero-embedded into the grid once.  So
it depends on the window's u alone: atoms of one side, seed and order whose
centres differ by whole cells, with u exact (a power-of-two spacing), are
translates of each other bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre

from .grid import Grid, SampledFunction, _frozen, _masked_moment

__all__ = [
    "Cube",
    "Atom",
    "FiniteAtomicSum",
    "dilate_cube",
    "make_atom",
    "make_infinity_atom",
    "make_atomic_sum",
    "moments",
    "cube_indicator",
]


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube with center c and side length ell."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (self.side > 0):
            raise ValueError(f"cube side must be positive, got {self.side}")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return self.side**self.n

    def scaled(self, factor: float) -> "Cube":
        return Cube(self.center, self.side * factor)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points (shape (..., n)) inside the closed cube."""
        c = np.asarray(self.center)
        return np.all(np.abs(points - c) <= self.side / 2.0, axis=-1)


def dilate_cube(cube: Cube, which: str) -> Cube:
    """Concentric dilate: 'star' scales the side by 3 sqrt(n), 'starstar' by 9n."""
    if which == "star":
        return cube.scaled(3.0 * np.sqrt(cube.n))
    if which == "starstar":
        return cube.scaled(9.0 * cube.n)
    raise ValueError(f"which must be 'star' or 'starstar', got {which!r}")


@dataclass(frozen=True)
class Atom:
    """An atom supported on ``cube`` with ``moment_order`` vanishing moments.

    ``moment_order`` is None for bounded whole-box atoms, which carry no
    cancellation.  ``seed`` records how the values were drawn, for replay.
    """

    cube: Cube
    values: SampledFunction
    p: float
    moment_order: int | None
    seed: int | None = None


def _bump_weight(u: np.ndarray) -> np.ndarray:
    """prod_i exp(-1/(1-u_i^2)) on |u_i| < 1, zero outside; shape (..., n) -> (...)."""
    inside = np.all(np.abs(u) < 1.0, axis=-1)
    safe = np.where(inside[..., None], u, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        logs = -1.0 / (1.0 - safe**2)
    return np.where(inside, np.exp(np.sum(logs, axis=-1)), 0.0)


@lru_cache(maxsize=64)
def _monomial_exponents(n: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices with total degree <= max_degree, graded lexicographic.
    Cached, so the result is a tuple."""
    return tuple(
        combo
        for total in range(max_degree + 1)
        for combo in itertools.product(range(total + 1), repeat=n)
        if sum(combo) == total
    )


def _tensor_rows(tables: Sequence[np.ndarray], exps: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The products prod_i tables[i][e_i], one row per multi-index e of
    ``exps``, flattened over the window; ``tables[i]`` holds one row per
    degree along axis i."""
    n = len(tables)
    rows = np.ones((len(exps),) + (1,) * n)
    for axis, table in enumerate(tables):
        shape = [len(exps)] + [1] * n
        shape[axis + 1] = -1
        rows = rows * table[[e[axis] for e in exps]].reshape(shape)
    return rows.reshape(len(exps), -1)


def _check_side(side: float, grid: Grid) -> None:
    """A ValueError unless a cube of this side spans the 16 grid cells an
    atom needs."""
    cells = side / grid.dx
    if cells < 16.0 - 1e-12:
        raise ValueError(f"cube side {side} spans {cells:.2f} grid cells, need at least 16")


def _check_atom_geometry(cube: Cube, grid: Grid) -> None:
    if cube.n != grid.n:
        raise ValueError(f"cube dimension {cube.n} does not match grid dimension {grid.n}")
    _check_side(cube.side, grid)
    outer = dilate_cube(cube, "starstar")
    margin = cube.side
    for c in cube.center:
        if abs(c) + outer.side / 2.0 + margin > grid.L:
            raise ValueError(
                "cube too close to the boundary: the 9n-dilate plus one side "
                "of margin must fit inside the box"
            )


def _cube_window(cube: Cube, grid: Grid) -> tuple[slice, ...]:
    """Index slice per axis covering every cell centre strictly inside the
    cube, plus one cell of margin on each side."""
    half = cube.side / 2.0
    window = []
    for c in cube.center:
        lo = int(np.floor((c - half) / grid.dx)) + grid.M // 2 - 1
        hi = int(np.ceil((c + half) / grid.dx)) + grid.M // 2 + 2
        # _check_atom_geometry keeps the 9n-dilate inside the box, so the
        # window never clips or wraps.
        assert 0 <= lo and hi <= grid.M, (lo, hi)
        window.append(slice(lo, hi))
    return tuple(window)


def _window_axes(window: tuple[slice, ...], grid: Grid) -> list[np.ndarray]:
    """The cell centres of each axis of a window, ``grid.axis_points()[sl]``
    without building the whole axis."""
    half = grid.M // 2
    return [grid.dx * np.arange(sl.start - half, sl.stop - half, dtype=np.float64) for sl in window]


def make_atom(
    cube: Cube,
    p: float,
    N: int,
    seed: int,
    grid: Grid,
    skip_projection: bool = False,
) -> Atom:
    """Build an atom on ``cube`` with vanishing moments up to total degree N.

    Deterministic in (cube, p, N, seed, grid).  ``skip_projection`` keeps the
    raw random bump (a negative control for cancellation-sensitive checks).
    The atom is its window values (``_atom_window``) zero-embedded into the
    grid.
    """
    window, values = _atom_window(cube, N, seed, grid, skip_projection)
    full = np.zeros(grid.shape)
    full[window] = values
    return Atom(cube, SampledFunction(grid, _frozen(full)), float(p), N, seed)


def _atom_window(
    cube: Cube, N: int, seed: int, grid: Grid, skip_projection: bool = False
) -> tuple[tuple[slice, ...], np.ndarray]:
    """The cube's window (``_cube_window``) and the atom's real values on
    it, the window of ``make_atom``'s values.  Its seed-independent work is
    cached (``_atom_geometry``); a call computes its seed's coefficients,
    the profile, the solve and its checks."""
    if N < 0:
        raise ValueError("moment order must be nonnegative")
    _check_atom_geometry(cube, grid)

    window = _cube_window(cube, grid)
    u_axes = [
        (x - c) / (cube.side / 2.0) for x, c in zip(_window_axes(window, grid), cube.center)
    ]
    w, powers, basis, weighted, gram = _atom_geometry(N, tuple(u.tobytes() for u in u_axes))

    rng = np.random.default_rng(seed)
    poly_coeffs = rng.standard_normal(powers.shape[0])
    f0 = w * (poly_coeffs @ powers)

    if skip_projection:
        values = f0
    else:
        rhs = basis @ f0
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
        values = f0 - coeffs @ weighted

    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise ValueError("degenerate atom: projection annihilated the profile")
    shape = [len(u) for u in u_axes]
    return window, (values * (0.5 / peak)).reshape(shape)


@lru_cache(maxsize=8)
def _atom_geometry(N: int, u_key: tuple[bytes, ...]) -> tuple[np.ndarray, ...]:
    """The seed-independent work of an order-N atom on a window whose local
    coordinates u have the bytes ``u_key`` per axis, read-only: the bump
    weight w, the power-table rows (|e| <= N + 2), the tensor Legendre rows
    P_beta(u) (|beta| <= N), the rows w P_beta and their Gram matrix.  Keyed
    by N and the bytes of u, so a hit is exactly a fresh computation."""
    u_axes = [np.frombuffer(b) for b in u_key]
    n = len(u_axes)
    w = _bump_weight(np.stack(np.meshgrid(*u_axes, indexing="ij"), axis=-1)).ravel()
    tables = []
    for u in u_axes:
        table = np.empty((N + 3, len(u)))
        table[0] = 1.0
        for k in range(1, N + 3):
            np.multiply(table[k - 1], u, out=table[k])
        tables.append(table)
    powers = _tensor_rows(tables, _monomial_exponents(n, N + 2))
    # w vanishes outside the open cube, so every sum over the weighted rows
    # is over the cube alone.
    basis = _tensor_rows([legendre.legvander(u, N).T for u in u_axes], _monomial_exponents(n, N))
    weighted = basis * w
    gram = weighted @ basis.T
    return tuple(_frozen(a) for a in (w, powers, basis, weighted, gram))


def make_infinity_atom(grid: Grid, f: Callable[..., complex]) -> Atom:
    """Bounded whole-box atom: sup |f| <= 1, no moment conditions."""
    from .grid import sample

    sampled = sample(f, grid)
    peak = sampled.max_abs()
    if peak > 1.0 + 1e-12:
        raise ValueError(f"sup |f| = {peak:.6g} exceeds the unit bound")
    cube = Cube((0.0,) * grid.n, 2.0 * grid.L)
    return Atom(cube, sampled, np.inf, None, None)


def cube_indicator(cube: Cube, grid: Grid) -> SampledFunction:
    """Characteristic function of the closed cube, sampled at cell centers."""
    mask = cube.contains(grid.points())
    return SampledFunction(grid, _frozen(mask.astype(np.float64)))


@dataclass(frozen=True)
class FiniteAtomicSum:
    """f = sum_k lambda_k a_k together with its indicator majorant."""

    realized: SampledFunction
    majorant: SampledFunction


def make_atomic_sum(
    entries: Sequence[tuple[float, Cube, int]],
    p: float,
    N: int,
    grid: Grid,
) -> FiniteAtomicSum:
    """Assemble sum(lambda_k a_k) from (lambda, cube, seed) triples.

    The pointwise bound |realized| <= majorant is verified at construction.
    Each atom (``_atom_window``, no full-grid atom is built) and indicator
    is added on its cube's window, which holds the closed cube: outside it
    both are +0, so the sums are bit for bit those over the whole grid.
    """
    realized = np.zeros(grid.shape)
    majorant = np.zeros(grid.shape)
    for lam, cube, seed in entries:
        if lam < 0:
            raise ValueError(f"coefficients must be nonnegative, got {lam}")
        window, values = _atom_window(cube, N, seed, grid)
        realized[window] += lam * values
        pts = np.stack(np.meshgrid(*_window_axes(window, grid), indexing="ij"), axis=-1)
        majorant[window] += lam * cube.contains(pts)
    excess = np.abs(realized)
    excess -= majorant
    if np.any(excess > 1e-12 * max(float(np.max(majorant)), 1.0)):
        raise AssertionError("majorant domination violated at construction")
    return FiniteAtomicSum(
        SampledFunction(grid, _frozen(realized)), SampledFunction(grid, _frozen(majorant))
    )


def moments(
    f: SampledFunction,
    max_degree: int,
    window: Cube,
    about: Sequence[float] | None = None,
) -> dict[tuple[int, ...], complex]:
    """Rectangle-rule moments of (x - about)^alpha f over a window cube.

    ``about`` defaults to the origin.  Checking an atom's cancellation uses
    its cube center: the tolerance 1e-8 |Q| (ell/2)^|alpha| is only meaningful
    in cube-centered coordinates, where it is dilation- and translation-
    invariant; about the box origin the equivalent cancellation sits below
    double-precision rounding for far-off cubes at high orders.
    """
    grid = f.grid
    if window.n != grid.n:
        raise ValueError("window dimension does not match the grid")
    for c in window.center:
        if abs(c) + window.side / 2.0 > grid.L + grid.dx / 2.0:
            raise ValueError("window extends outside the box")
    origin = np.zeros(grid.n) if about is None else np.asarray(about, dtype=float)
    pts = grid.points() - origin
    mask = window.contains(grid.points())
    return {
        alpha: _masked_moment(f, pts, alpha, mask)
        for alpha in _monomial_exponents(grid.n, max_degree)
    }
