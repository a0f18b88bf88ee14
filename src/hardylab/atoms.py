"""Atoms with vanishing moments, cube geometry, and finite atomic sums.

An atom is a bounded function supported on a cube Q with |a| <= chi_Q and all
monomial moments up to a prescribed order killed.  Construction: a smooth
boundary-flat bump on Q times a seed-random polynomial, minus its projection
onto the bump-weighted polynomial space (tensor Legendre basis, for Gram
conditioning at orders up to ~8), rescaled to sup 1/2.  The strict margin
below 1 guards the |a| <= chi_Q bound against quadrature rounding.

The atom is built on its cube's window, the index slice per axis that covers
the cube plus one cell, and zero-embedded into the grid; its moment sums run
over the whole grid, so it has the bits a full-grid construction gets (up to
the sign of zeros outside the window, which are all +0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre

from .grid import Grid, SampledFunction, _masked_moment

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


def _legendre_values(u_axes: Sequence[np.ndarray], beta: tuple[int, ...]) -> np.ndarray:
    """Tensor Legendre polynomial P_beta evaluated on per-axis u coordinates."""
    val = None
    for axis, k in enumerate(beta):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        axis_val = legendre.legval(u_axes[axis], coeffs)
        val = axis_val if val is None else val * axis_val
    return val


def _check_atom_geometry(cube: Cube, grid: Grid) -> None:
    if cube.n != grid.n:
        raise ValueError(f"cube dimension {cube.n} does not match grid dimension {grid.n}")
    cells = cube.side / grid.dx
    if cells < 16.0 - 1e-12:
        raise ValueError(
            f"cube side {cube.side} spans {cells:.2f} grid cells, need at least 16"
        )
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
    """
    if N < 0:
        raise ValueError("moment order must be nonnegative")
    _check_atom_geometry(cube, grid)

    window = _cube_window(cube, grid)
    axes = [grid.axis_points()[sl] for sl in window]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    c = np.asarray(cube.center)
    u = (pts - c) / (cube.side / 2.0)
    inside = np.all(np.abs(u) < 1.0, axis=-1)
    w = _bump_weight(u)

    rng = np.random.default_rng(seed)
    poly_exps = _monomial_exponents(grid.n, N + 2)
    poly_coeffs = rng.standard_normal(len(poly_exps))
    u_axes = [u[..., i] for i in range(grid.n)]
    poly = np.zeros(w.shape)
    for coeff, exps in zip(poly_coeffs, poly_exps):
        mono = np.ones(w.shape)
        for axis, k in enumerate(exps):
            if k:
                mono = mono * u_axes[axis] ** k
        poly += coeff * mono
    f0 = w * poly

    # Every sum runs over the whole grid with zeros outside the window, so
    # numpy's pairwise tree, and with it every bit of the moment system, is
    # the one a full-grid construction gets.
    full = np.zeros(grid.shape)

    def grid_sum(x: np.ndarray) -> float:
        full[window] = x
        return np.sum(full)

    if skip_projection:
        values = f0
    else:
        betas = _monomial_exponents(grid.n, N)
        basis = [_legendre_values(u_axes, beta) * inside for beta in betas]
        nb = len(basis)
        gram = np.empty((nb, nb))
        rhs = np.empty(nb)
        for i in range(nb):
            rhs[i] = grid_sum(basis[i] * f0)
            for j in range(i, nb):
                gram[i, j] = gram[j, i] = grid_sum(basis[i] * basis[j] * w)
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
    full[window] = values * (0.5 / peak)
    return Atom(cube, SampledFunction(grid, full), float(p), N, seed)


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
    return SampledFunction(grid, mask.astype(np.complex128))


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
    """
    realized = np.zeros(grid.shape, dtype=np.complex128)
    majorant = np.zeros(grid.shape, dtype=np.float64)
    for lam, cube, seed in entries:
        if lam < 0:
            raise ValueError(f"coefficients must be nonnegative, got {lam}")
        atom = make_atom(cube, p, N, seed, grid)
        realized += lam * atom.values.values
        majorant += lam * cube.contains(grid.points())
    realized_f = SampledFunction(grid, realized)
    majorant_f = SampledFunction(grid, majorant)
    excess = np.abs(realized_f.values) - np.abs(majorant_f.values)
    if np.any(excess > 1e-12 * max(float(np.max(majorant)), 1.0)):
        raise AssertionError("majorant domination violated at construction")
    return FiniteAtomicSum(realized_f, majorant_f)


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
