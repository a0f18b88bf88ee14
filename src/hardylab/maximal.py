"""Smooth and rough maximal functions and the maximal-based H^p quasinorm.

The continuum supremum over dilation scales is resolved on a dyadic ladder
from the grid spacing up to the box diameter; the sampled bump is
renormalized to unit discrete mass at every scale so that averaging a
constant reproduces the constant exactly.  The rough maximal function uses
the r^{-n} normalization (not the ball-volume one) and balls clipped at the
box, with cells included when their center lies in the open ball.  Its ball
sums are zero-padded convolutions done with numpy.fft, the one FFT library
the package uses.
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
    evicts its own kernels."""
    spectra = []
    for t in ladder.scales:
        spec = _fft_forward(_periodized_kernel(bump, t, grid))
        spec *= grid.dx**grid.n
        spectra.append(_frozen(spec))
    return tuple(spectra)


def smooth_maximal(f: SampledFunction, bump: BumpProfile, ladder: ScaleLadder) -> SampledFunction:
    """sup over ladder scales of |phi_t * f|, convolution done spectrally
    with unscaled transforms in FFT order, the scales in blocks of rows
    with one stacked inverse each (``_ladder_supremum``), and the supremum
    shifted to centred order once, straight into the complex output.
    Besides the output it holds f^, one block and two real rows, within
    ``_MAX_CHUNK_ELEMENTS`` complex elements.  Where dx is a power of two it
    is bit for bit the one taken over idft(dft(f) * the kernel's dft) at
    each scale."""
    grid = f.grid
    best = _ladder_supremum(f.values, _kernel_spectra(bump, ladder, grid))
    out = _half_shift(best, out=np.empty(grid.shape, dtype=np.complex128))
    return SampledFunction(grid, _frozen(out))


def _ladder_supremum(values: np.ndarray, kernels: Sequence[np.ndarray]) -> np.ndarray:
    """max over the kernels of |inverse(f^ * kernel)|, in FFT order, for
    centred samples f.  The scales run in blocks of rows, each one stacked
    inverse transform in place: as many rows as keep f^, the block, one
    magnitude row and the running maximum within ``_MAX_CHUNK_ELEMENTS``
    complex elements (2 rows at M=8192), and at least one.  Stacked rows
    transform bit for bit as lone ones, and the maximum is taken scale by
    scale in ladder order, so no bit depends on the block."""
    n = values.ndim
    spec_f = _fft_forward(values)
    rows = max(1, _MAX_CHUNK_ELEMENTS // values.size - 2)
    block = np.empty((min(rows, len(kernels)),) + values.shape, dtype=np.complex128)
    mag = np.empty(values.shape)
    best = np.zeros(values.shape)
    for start in range(0, len(kernels), rows):
        part = kernels[start : start + rows]
        conv = block[: len(part)]
        for row, kernel in zip(conv, part):
            np.multiply(spec_f, kernel, out=row)
        for row in _fft_inverse(conv, n):
            np.maximum(best, np.abs(row, out=mag), out=best)
    return best


def _ball_offsets(r: float, grid: Grid) -> np.ndarray:
    """Indicator stencil of cell offsets whose centers lie in the open ball |y| < r."""
    reach = int(np.ceil(r / grid.dx))
    axis = grid.dx * np.arange(-reach, reach + 1, dtype=np.float64)
    mesh = np.meshgrid(*([axis] * grid.n), indexing="ij")
    dist2 = sum(ax * ax for ax in mesh)
    return (dist2 < r * r).astype(np.float64)


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: each 3^b 5^c below the
    next power of two, doubled until it reaches n."""
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p35 = p3
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 5
        p3 *= 3
    return best


def _convolve_same(a: np.ndarray, kern: np.ndarray, a_spectrum: dict | None = None) -> np.ndarray:
    """Zero-padded linear convolution of real arrays, cropped to a's shape
    about the centre of the full result: ``scipy.signal.fftconvolve``'s
    "same" mode, computed as it does it (the same pocketfft transforms at
    the same padded lengths, scaled once by 1/N), so the sums agree bit for
    bit.  ``a_spectrum`` keeps a's last transform by its padded shape, for
    a caller that convolves one array with kernels of nondecreasing size."""
    full = [sa + sk - 1 for sa, sk in zip(a.shape, kern.shape)]
    fshape = [_next_fast_len(s) for s in full]
    axes = tuple(range(a.ndim))
    a_spectrum = {} if a_spectrum is None else a_spectrum
    key = tuple(fshape)
    if key not in a_spectrum:
        a_spectrum.clear()
        a_spectrum[key] = np.fft.rfftn(a, fshape, axes=axes)
    # a_spec * kern_spec, written over kern_spec.  Its operands stay in
    # that order: numpy's complex product is not bitwise commutative, and
    # kern_spec * a_spec (what numpy's elision of a temporary right operand
    # computes) differs in the last bit.
    spec = np.fft.rfftn(kern, fshape, axes=axes)
    np.multiply(a_spectrum[key], spec, out=spec)
    conv = np.fft.irfftn(spec, fshape, axes=axes, norm="forward") * (1.0 / np.prod(fshape))
    start = [(s - sa) // 2 for s, sa in zip(full, a.shape)]
    return conv[tuple(slice(b, b + sa) for b, sa in zip(start, a.shape))]


def hl_maximal(f: SampledFunction, ladder: ScaleLadder) -> SampledFunction:
    """sup over ladder radii of r^{-n} * integral of |f| over B(x, r) within the box.

    Balls are clipped at the box boundary (zero-padded linear convolution), so
    no mass wraps around.  The ladder is ascending, so the padded length
    never falls, and |f| is transformed once per distinct length (7 for
    the 14 scales at M=8192).
    """
    grid = f.grid
    mags = np.abs(f.values)
    best = np.zeros(grid.shape)
    mags_spectrum: dict = {}
    for r in ladder.scales:
        kern = _ball_offsets(r, grid)
        summed = _convolve_same(mags, kern, mags_spectrum)
        np.maximum(best, summed * (grid.dx**grid.n / r**grid.n), out=best)
    np.clip(best, 0.0, None, out=best)
    return SampledFunction(grid, best)


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
    powered = SampledFunction(grid, np.abs(f.values) ** r)
    maximal = hl_maximal(powered, ladder)
    return SampledFunction(grid, np.abs(maximal.values) ** (1.0 / r))


def hp_quasinorm(
    f: SampledFunction, p: float, bump: BumpProfile, ladder: ScaleLadder
) -> float:
    """L^p quasinorm of the smooth maximal function of f, for 0 < p < inf."""
    if not (0 < p < np.inf):
        raise ValueError(f"exponent must be finite and positive, got {p}")
    return lp_quasinorm(smooth_maximal(f, bump, ladder), p)
