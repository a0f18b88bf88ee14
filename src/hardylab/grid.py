"""Periodic grids, sampling, discrete Fourier transforms, and quadrature.

Everything lives on the torus [-L, L)^n sampled at M points per axis.  The
transform convention is

    fhat(xi) = integral f(x) exp(-2 pi i x.xi) dx,

discretized by the rectangle rule, so that coefficients carry physical units
(the DC coefficient of f == 1 is the box volume).  Frequencies are the
physical points k * dxi with dxi = 1/(2L) for k = -M/2, ..., M/2 - 1, not
bare integer indices; every route of an operator reads this one lattice.

Scale convention: only ``dft``/``idft`` (centred order) carry the
rectangle-rule weight dx^n.  The engines use the unscaled pair
``_fft_forward``/``_fft_inverse`` (FFT order), and each multiplier carries
its own quadrature weight: dx^n in a smooth maximal kernel, none in a
one-slot weight, M^-(m-1)n = (dx dxi)^((m-1)n) on the exhaustive sum over
m - 1 free frequency integrals.  Where dx is a power of two both
conventions give the same bits.

Real rows take the unscaled half-spectrum pair ``_real_forward``/
``_real_inverse`` with no half shift: the shifts would multiply the
spectrum by (-1)^(k_1+...+k_n) on both sides, so a multiplier in FFT order
takes unshifted centred samples to the centred output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "SampledFunction",
    "Spectrum",
    "make_grid",
    "sample",
    "dft",
    "idft",
    "lp_quasinorm",
    "pointwise_product",
]


# Elements of one working chunk.  The exhaustive engine (module
# ``operators``) takes its output frequencies in chunks whose terms and
# gathered last-slot values fit in it, and ``smooth_maximal`` takes its
# ladder in blocks of rows that fit in it.  2^15 was the fastest of
# 2^13..2^17 for a bilinear group at M=4096 (4,096 tuples per frequency)
# in passes of 1 and 5 sets (2 cores, numpy 2.4), and a complex chunk is
# 512 KiB, so it stays in cache.
_MAX_CHUNK_ELEMENTS = 2**15


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n with M (a power of two) points per axis.

    Spatial points per axis are dx * {-M/2, ..., M/2 - 1} with dx = 2L/M;
    frequency points per axis are dxi * {-M/2, ..., M/2 - 1} with dxi = 1/(2L).
    The frequency set is symmetric apart from the single Nyquist row at
    -M/(4L).
    """

    n: int
    L: float
    M: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        if not (0 < self.L < np.inf):
            raise ValueError(f"half-width L must be finite and positive, got {self.L}")
        if not _is_power_of_two(self.M):
            raise ValueError(f"points per axis must be a power of two, got {self.M}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def dxi(self) -> float:
        """Frequency spacing 1/(2L)."""
        return 1.0 / (2.0 * self.L)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.n

    @property
    def size(self) -> int:
        return self.M**self.n

    def axis_points(self) -> np.ndarray:
        """Spatial coordinates along one axis, ascending from -L."""
        return self.dx * np.arange(-self.M // 2, self.M // 2, dtype=np.float64)

    def axis_frequencies(self) -> np.ndarray:
        """Frequency coordinates along one axis, ascending from -M/(4L)."""
        return np.arange(-self.M // 2, self.M // 2, dtype=np.float64) * self.dxi

    def points(self) -> np.ndarray:
        """All grid points, shape (M,)*n + (n,)."""
        axes = [self.axis_points()] * self.n
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def frequencies(self) -> np.ndarray:
        """All frequency points, shape (M,)*n + (n,)."""
        axes = [self.axis_frequencies()] * self.n
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _frozen_array(values: np.ndarray, shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A read-only ``dtype`` C-ordered copy of ``values``, or ``values``
    itself when it is already read-only, of ``dtype`` and C-contiguous, and
    either owns its data (``_frozen``) or is a view of a read-only array
    that does: a transform's fresh output, or a row of a frozen stack, is
    taken without a second copy.  Anything else, a view of a writable array
    included, is copied."""
    owner = values
    if isinstance(values, np.ndarray) and isinstance(values.base, np.ndarray):
        owner = values.base
    owned = (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.c_contiguous
        and not values.flags.writeable
        and owner.flags.owndata
        and not owner.flags.writeable
    )
    arr = values if owned else np.array(values, dtype=dtype, order="C")
    if arr.shape != shape:
        raise ValueError(f"value array has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array the caller has just made, and keeps no other reference
    to, read-only, so ``SampledFunction`` and ``Spectrum`` take it as it is."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampledFunction:
    """Function sampled on a grid.  Immutable.  A float64 array stays
    float64, so a real field stays real; anything else is stored as
    complex128.  Every transform reads a real x exactly as it reads its
    complex cast x + 0j."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        dtype = np.float64 if getattr(self.values, "dtype", None) == np.float64 else np.complex128
        object.__setattr__(self, "values", _frozen_array(self.values, self.grid.shape, dtype))

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self.grid, other.grid)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self.grid, other.grid)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def abs(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.abs(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class Spectrum:
    """Frequency-side coefficients on a grid, indexed like Grid.frequencies()."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", _frozen_array(self.coefficients, self.grid.shape, np.complex128)
        )

    def at_zero(self) -> complex:
        """Coefficient at the zero frequency."""
        center = (self.grid.M // 2,) * self.grid.n
        return complex(self.coefficients[center])


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def make_grid(n: int, L: float, M: int) -> Grid:
    """Build an n-dimensional periodic grid on [-L, L)^n with M points per axis.

    n is capped at 2: m-linear operator application costs O(M^(m n)), so
    higher dimensions are rejected as a memory guard.
    """
    if n not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    if M < 8:
        raise ValueError(f"need at least 8 points per axis, got {M}")
    return Grid(n, float(L), int(M))


def sample(f: Callable[..., complex], grid: Grid) -> SampledFunction:
    """Sample a pointwise evaluator on every grid point.

    The evaluator receives one float argument per dimension.  It may be
    numpy-vectorized; if it is not, it is applied point by point.
    """
    pts = grid.points()
    coords = tuple(pts[..., i] for i in range(grid.n))
    try:
        values = np.asarray(f(*coords), dtype=np.complex128)
        if values.shape != grid.shape:
            raise ValueError("evaluator is not vectorized")
    except (ValueError, TypeError):
        values = np.empty(grid.shape, dtype=np.complex128)
        it = np.ndindex(*grid.shape)
        for idx in it:
            point = tuple(float(c[idx]) for c in coords)
            try:
                values[idx] = complex(f(*point))
            except Exception as exc:
                raise ValueError(f"evaluator failed at point {point}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        point = tuple(float(c[tuple(bad)]) for c in coords)
        raise ValueError(f"evaluator returned a non-finite value at point {point}")
    return SampledFunction(grid, values)


def _half_shift(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A grid-shaped array rolled by M/2 on every axis, as slice copies,
    written into ``out`` (cast to its dtype) or a fresh array.  For the
    grid's even M this is both ``np.fft.fftshift`` and
    ``np.fft.ifftshift``: it maps centred order (index j at k = j - M/2) to
    FFT order (index k mod M) and back.  At M = 1 it is a copy."""
    M = a.shape[0]
    h = M // 2
    out = np.empty_like(a) if out is None else out
    halves = ((slice(0, M - h), slice(h, M)), (slice(M - h, M), slice(0, h)))
    for corner in itertools.product(halves, repeat=a.ndim):
        out[tuple(dst for _, dst in corner)] = a[tuple(src for src, _ in corner)]
    return out


def _slot_mask(xi: np.ndarray, cutoff: float | None) -> np.ndarray:
    """1.0 where the slot frequency has |xi| <= cutoff, else 0.0."""
    if cutoff is None:
        return np.ones(xi.shape[:-1])
    return (np.linalg.norm(xi, axis=-1) <= cutoff).astype(np.float64)


def _box(grid: Grid, cutoff: float | None) -> tuple[int, int]:
    """Start and width (a, W) of the contiguous run of axis indices whose
    frequency has |xi| <= cutoff; (0, M) with no cutoff.  The cube of these
    runs holds every lattice point ``_slot_mask`` keeps, since no coordinate
    of a point is larger in magnitude than its norm."""
    keep = np.flatnonzero(np.abs(grid.axis_frequencies()) <= (np.inf if cutoff is None else cutoff))
    return int(keep[0]), len(keep)


def _box_lattice(
    grid: Grid, cutoff: float | None
) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """The cutoff's box points in FFT order, the zero frequency first: their
    flat FFT-order lattice indices (a whole slice when the box is the
    lattice), their frequencies (P, n), and ``_slot_mask`` on them."""
    a, W = _box(grid, cutoff)
    M, n = grid.M, grid.n
    ks = np.arange(a, a + W) - M // 2
    fft_axis = np.concatenate([ks[ks >= 0], ks[ks < 0] + M])
    axes = [ax.ravel() for ax in np.meshgrid(*[fft_axis] * n, indexing="ij")]
    k = np.stack([(ax + M // 2) % M - M // 2 for ax in axes], axis=1)
    xi = k * grid.dxi
    index = slice(None) if W == M else np.ravel_multi_index(tuple(axes), grid.shape)
    if W < M:
        index.setflags(write=False)
    return index, xi, _slot_mask(xi, cutoff)


def _fft_forward(values: np.ndarray) -> np.ndarray:
    """Unscaled FFT of centred samples, in FFT order: fftn(_half_shift(values)),
    transformed in place in a fresh complex array.  At n = 1 it calls
    ``np.fft.fft`` directly, as ``_fft_inverse`` does."""
    shifted = _half_shift(values, out=np.empty(values.shape, dtype=np.complex128))
    if values.ndim == 1:
        return np.fft.fft(shifted, out=shifted)
    return np.fft.fftn(shifted, out=shifted)


def _fft_inverse(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled inverse FFT over the last n axes, ifftn without a dx^n
    weight, left in FFT order; any leading axes are rows transformed one by
    one.  Written over ``coeffs``, or into ``out``.  At n = 1 it calls
    ``np.fft.ifft`` directly: ifftn's axis handling costs as much as one
    length-4096 transform."""
    out = coeffs if out is None else out
    if n == 1:
        return np.fft.ifft(coeffs, out=out)
    return np.fft.ifftn(coeffs, axes=tuple(range(-n, 0)), out=out)


def _real_parts(values: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """A field as the (unit, real array) pairs that sum to it: a float64
    field alone, else its real part (unit 1) and imaginary part (unit 1j),
    each unless it is exactly zero (read by max and min, which take no
    cast buffer on a strided part as np.any does)."""
    if values.dtype == np.float64:
        return [(1, values)]
    return [(u, part) for u, part in ((1, values.real), (1j, values.imag)) if part.max() or part.min()]


def _real_forward(rows: np.ndarray, n: int) -> np.ndarray:
    """Unscaled half spectra (last axis M/2 + 1) of the real rows of a
    (k, *shape) stack, each bit for bit as a lone one."""
    if n == 1:
        return np.fft.rfft(rows)
    return np.fft.rfftn(rows, axes=tuple(range(-n, 0)))


def _real_inverse(half: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled inverse of ``_real_forward`` to rows of grid ``shape``, into
    ``out`` (a strided view will do) or a fresh array, each row bit for bit
    as a lone one."""
    n = len(shape)
    if n == 1:
        return np.fft.irfft(half, shape[0], out=out)
    return np.fft.irfftn(half, shape, axes=tuple(range(-n, 0)), out=out)


def dft(f: SampledFunction) -> Spectrum:
    """Forward transform, rectangle rule: dx^n * FFT with centered indexing."""
    coeffs = _fft_forward(f.values)
    coeffs *= f.grid.dx**f.grid.n
    return Spectrum(f.grid, _frozen(_half_shift(coeffs)))


def idft(s: Spectrum) -> SampledFunction:
    """Inverse transform; exact inverse of dft up to rounding."""
    values = _fft_inverse(_half_shift(s.coefficients), s.grid.n)
    values /= s.grid.dx**s.grid.n
    return SampledFunction(s.grid, _frozen(_half_shift(values)))


def lp_quasinorm(f: SampledFunction, p: float) -> float:
    """L^p quasinorm by the rectangle rule; p = inf gives the sup norm.

    Valid for every p > 0, including the quasinorm range 0 < p < 1.
    """
    if p == np.inf:
        return f.max_abs()
    if not (p > 0):
        raise ValueError(f"exponent must be positive or inf, got {p}")
    g = f.grid
    mags = np.abs(f.values)
    mags **= p
    total = float(np.sum(mags)) * g.dx**g.n
    return float(total ** (1.0 / p))


def _masked_moment(
    f: SampledFunction, pts: np.ndarray, alpha: Sequence[int], mask: np.ndarray
) -> complex:
    """Rectangle-rule integral of pts^alpha f over the points where mask is set."""
    weight = np.ones(f.grid.shape)
    for axis, k in enumerate(alpha):
        if k:
            weight = weight * pts[..., axis] ** k
    return complex(np.sum(weight * f.values * mask) * f.grid.dx**f.grid.n)


def pointwise_product(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Entrywise product of two functions on the same grid."""
    _require_same_grid(f.grid, g.grid)
    return SampledFunction(f.grid, f.values * g.values)
