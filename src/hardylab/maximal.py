"""Smooth and rough maximal functions and the maximal-based H^p quasinorm.

The continuum supremum over dilation scales is resolved on a dyadic ladder
from the grid spacing up to the box diameter; the sampled bump is
renormalized to unit discrete mass at every scale so that averaging a
constant reproduces the constant exactly.  The rough maximal function uses
the r^{-n} normalization (not the ball-volume one) and balls clipped at the
box, with cells included when their center lies in the open ball.  Its ball
sums are linear convolutions zero-padded to 2M per axis, done with numpy's
real transforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import (
    _MAX_CHUNK_ELEMENTS,
    Grid,
    SampledFunction,
    _fft_forward,
    _fft_inverse,
    _frozen,
    _half_shift,
    _real_forward,
    _real_inverse,
    _real_parts,
    lp_quasinorm,
)

__all__ = [
    "BumpProfile",
    "ScaleLadder",
    "make_bump",
    "make_ladder",
    "smooth_maximal",
    "hl_maximal",
    "power_maximal",
    "hp_quasinorm",
]

_REFERENCE_POINTS = 2**16


@lru_cache(maxsize=8)
def _bump_normalization(n: int) -> float:
    """Constant c_n making the unit-ball bump integrate to 1, by fine quadrature."""
    if n == 1:
        step = 2.0 / _REFERENCE_POINTS
        x = -1.0 + step * (np.arange(_REFERENCE_POINTS) + 0.5)
        total = float(np.sum(np.exp(1.0 / (x * x - 1.0))) * step)
    elif n == 2:
        step = 1.0 / _REFERENCE_POINTS
        r = step * (np.arange(_REFERENCE_POINTS) + 0.5)
        total = float(2.0 * np.pi * np.sum(r * np.exp(1.0 / (r * r - 1.0))) * step)
    else:
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    return 1.0 / total


@dataclass(frozen=True)
class BumpProfile:
    """Smooth bump supported in the closed unit ball with unit integral."""

    n: int
    normalization: float

    def __call__(self, x) -> np.ndarray:
        """Evaluate at points of shape (..., n) (or bare scalars when n = 1)."""
        arr = np.asarray(x, dtype=np.float64)
        if self.n == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
            arr = arr[..., None]
        r2 = np.sum(arr * arr, axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, r2, 0.0)
        with np.errstate(divide="ignore"):
            vals = np.where(inside, np.exp(1.0 / (safe - 1.0)), 0.0)
        return self.normalization * vals

    @property
    def peak(self) -> float:
        """sup phi = phi(0) = c_n / e."""
        return self.normalization * float(np.exp(-1.0))


def make_bump(n: int = 1) -> BumpProfile:
    """The grid-independent unit-mass bump c_n exp(1/(|x|^2 - 1)) on |x| < 1."""
    return BumpProfile(n, _bump_normalization(n))


@dataclass(frozen=True)
class ScaleLadder:
    """Dyadic dilation scales from the grid spacing up to the box diameter."""

    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.scales:
            raise ValueError("ladder must contain at least one scale")
        object.__setattr__(self, "scales", tuple(float(t) for t in sorted(self.scales)))


def make_ladder(grid: Grid, half_steps: bool = False) -> ScaleLadder:
    """Scales 2^k dx, k = 0..log2(M), topping out at the diameter 2L.

    With ``half_steps`` the ladder is refined by interleaved factors sqrt(2).
    """
    levels = int(np.log2(grid.M))
    scales = [grid.dx * 2.0**k for k in range(levels + 1)]
    if half_steps:
        scales += [grid.dx * 2.0 ** (k + 0.5) for k in range(levels)]
    return ScaleLadder(tuple(scales))


def _periodized_kernel(bump: BumpProfile, t: float, grid: Grid) -> np.ndarray:
    """Sample t^{-n} phi(x/t) on the torus, renormalized to unit discrete mass."""
    pts = grid.points()
    reach = int(np.ceil((t + grid.L) / (2.0 * grid.L)))
    vals = np.zeros(grid.shape)
    for shift in itertools.product(range(-reach, reach + 1), repeat=grid.n):
        offset = 2.0 * grid.L * np.asarray(shift, dtype=np.float64)
        vals += bump((pts + offset) / t)
    vals /= t**grid.n
    mass = float(np.sum(vals)) * grid.dx**grid.n
    if mass <= 0.0:
        raise ValueError(f"sampled bump at scale {t} has no mass on the grid")
    return vals / mass


@lru_cache(maxsize=4)
def _kernel_spectra(bump: BumpProfile, ladder: ScaleLadder, grid: Grid) -> tuple[np.ndarray, ...]:
    """The transforms of the ladder's kernels in FFT order (read-only), one
    per scale, times the quadrature weight dx^n.  They are cached as one
    entry per ladder, so a ladder of any length walked in order never
    evicts its own kernels; a real field reads a view of their first
    M/2 + 1 columns."""
    spectra = []
    for t in ladder.scales:
        spec = _fft_forward(_periodized_kernel(bump, t, grid))
        spec *= grid.dx**grid.n
        spectra.append(_frozen(spec))
    return tuple(spectra)


def smooth_maximal(f: SampledFunction, bump: BumpProfile, ladder: ScaleLadder) -> SampledFunction:
    """sup over ladder scales of |phi_t * f|, convolution done spectrally,
    the scales in blocks of rows with one stacked inverse each
    (``_ladder_supremum``): on half spectra for a field whose real or
    imaginary part is exactly zero, float64 ones included, else on full
    ones, bit for bit the loop over idft(dft(f) * the kernel's dft) where dx
    is a power of two."""
    best = _ladder_supremum(f.values, _kernel_spectra(bump, ladder, f.grid))
    return SampledFunction(f.grid, _frozen(best))


def _ladder_supremum(values: np.ndarray, kernels: Sequence[np.ndarray]) -> np.ndarray:
    """max over the kernels (FFT order) of |inverse(f^ * kernel)| for
    centred samples f, in centred order, taken scale by scale, so no bit
    depends on the blocks.  With at most one nonzero part (``_real_parts``;
    |i g| = |g|), that part takes one unshifted forward real transform and,
    per block of scales, one stacked inverse real transform against a view
    of the kernels' first M/2 + 1 columns, whose magnitudes are taken in
    place: no shift.  Otherwise f is half-shifted, each block takes one
    stacked complex inverse in place, and the maximum is shifted back.  A
    block has as many rows, at least one, as keep f^, the block, the
    magnitudes and the maximum within ``_MAX_CHUNK_ELEMENTS`` complex
    elements: 3 rows at M=8192 on half spectra, 2 on full ones."""
    parts = _real_parts(values)
    full = len(parts) > 1
    if full:
        spec_f = _fft_forward(values)
    else:
        spec_f = _real_forward((parts[0][1] if parts else values.real)[None], values.ndim)[0]
    rows = max(1, _MAX_CHUNK_ELEMENTS // values.size - 1 - full)
    half = spec_f.shape[-1]
    block = np.empty((min(rows, len(kernels)),) + spec_f.shape, dtype=np.complex128)
    mags = np.empty(values.shape if full else (len(block),) + values.shape)
    best = np.zeros(values.shape)
    for start in range(0, len(kernels), rows):
        part = kernels[start : start + rows]
        conv = block[: len(part)]
        for row, kernel in zip(conv, part):
            np.multiply(spec_f, kernel[..., :half], out=row)
        if full:
            for row in _fft_inverse(conv, values.ndim):
                np.maximum(best, np.abs(row, out=mags), out=best)
        else:
            for row in _real_inverse(conv, values.shape, out=mags[: len(part)]):
                np.maximum(best, np.abs(row, out=row), out=best)
    return _half_shift(best, out=mags) if full else best


def _offset_dist2(grid: Grid) -> np.ndarray:
    """Squared lengths |k dx|^2 of the cell offsets k on the (2M,)^n padded
    lattice in FFT order, and inf where some |k_i| = M: no such offset joins
    two cells of the box, so every ball stencil is cropped to |k_i| <= M - 1."""
    k = np.fft.fftfreq(2 * grid.M, 1.0 / (2 * grid.M))  # 0, ..., M-1, -M, ..., -1
    axis = np.where(k > -grid.M, k * grid.dx, np.inf)
    mesh = np.meshgrid(*([axis] * grid.n), indexing="ij")
    return sum(ax * ax for ax in mesh)


def hl_maximal(f: SampledFunction, ladder: ScaleLadder) -> SampledFunction:
    """sup over ladder radii of r^{-n} * integral of |f| over B(x, r) within the box.

    Balls are clipped at the box boundary: the ball sums are linear
    convolutions of |f| with the ball's stencil, zero-padded to 2M per axis,
    which is exact for any radius since the stencil is cropped to offsets
    under M (``_offset_dist2``).  |f| is transformed once per call, and
    each radius takes one transform of its stencil, the offsets with
    |k dx| < r, and one inverse.
    """
    grid = f.grid
    axes = tuple(range(grid.n))
    pad = (2 * grid.M,) * grid.n
    box = (slice(grid.M),) * grid.n
    dist2 = _offset_dist2(grid)
    spec_abs = np.fft.rfftn(np.abs(f.values), pad, axes=axes)
    best = np.zeros(grid.shape)
    for r in ladder.scales:
        spec = np.fft.rfftn((dist2 < r * r).astype(np.float64))
        spec *= spec_abs
        summed = np.fft.irfftn(spec, pad, axes=axes)[box]
        summed *= grid.dx**grid.n / r**grid.n
        np.maximum(best, summed, out=best)
    return SampledFunction(grid, _frozen(best))


def power_maximal(f: SampledFunction, r: float, ladder: ScaleLadder) -> SampledFunction:
    """M(|f|^r)^{1/r} for r >= 1, with M = hl_maximal.

    Under the r^{-n} normalization the ball measure at radius rho has mass
    W_rho = dx^n #{cells with |y| < rho} / rho^n, which is not 1 (it tends to
    c_n = |B(0, 1)| as rho / dx grows and can exceed c_n at small radii), so
    M^(r) is not monotone in r.  What holds is M^(1) f <= W^{1/2} M^(2) f,
    with W the largest W_rho on the ladder, by Cauchy-Schwarz on each ball.
    """
    if r < 1:
        raise ValueError(f"power must satisfy r >= 1, got {r}")
    grid = f.grid
    powered = SampledFunction(grid, _frozen(np.abs(f.values) ** r))
    maximal = hl_maximal(powered, ladder)
    return SampledFunction(grid, _frozen(maximal.values ** (1.0 / r)))


def hp_quasinorm(
    f: SampledFunction, p: float, bump: BumpProfile, ladder: ScaleLadder
) -> float:
    """L^p quasinorm of the smooth maximal function of f, for 0 < p < inf."""
    if not (0 < p < np.inf):
        raise ValueError(f"exponent must be finite and positive, got {p}")
    return lp_quasinorm(smooth_maximal(f, bump, ladder), p)
