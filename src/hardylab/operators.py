"""Application of multilinear multiplier operators to sampled functions.

Three application routes:

* ``apply_general`` — exhaustive summation over the discretized frequency
  integral, grouped by output frequency eta.  For each eta the last input
  frequency is determined by the constraint xi_m = eta - (xi_1 + ... +
  xi_{m-1}), wrapped periodically into the frequency box.  Cost is M^(m n)
  symbol evaluations.  One path serves every arity and dimension: the m-1
  free slots run over their tuples in lexicographic order (one empty tuple
  when m = 1), and the cutoff is folded into every slot's spectrum.
* ``apply_product`` — sums of products of 1-linear multipliers: one forward
  transform per input, shared by every term, and one inverse transform per
  factor; cost O(T m M^n log M).
* ``apply_mixed`` — partition-factorized terms, each group applied through
  the general engine restricted to its own slots.

``operator_factors`` returns what the last two routes multiply, per term:
T_j^rho f_j for each slot of a product term, T_{I_g} for each group of a
mixed term.  The pointwise majorants are built from these factor outputs, and
the routes' output is one shared sum over terms of their products, so the
factors and the output come from a single application.

``apply_oracle`` evaluates the same frequency sum literally, term by term in
lexicographic order with exactly-rounded accumulation, at a handful of
arbitrary spatial points.  It shares no transforms or grouping with the fast
paths and serves as the independent cross-check.

Determinism: within each output frequency the summation runs over free
frequency tuples in lexicographic order, reduced along a contiguous axis by
numpy's fixed pairwise tree, so results are bitwise independent of how the
output-frequency range is partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, SampledFunction, Spectrum, dft, idft
from .symbols import Partition, Symbol

__all__ = [
    "MultilinearOperator",
    "MomentEstimate",
    "apply_general",
    "apply_oracle",
    "apply_product",
    "apply_mixed",
    "apply_operator",
    "operator_factors",
    "spectral_moment",
    "default_cutoff",
    "DEFAULT_COST_BUDGET",
]

DEFAULT_COST_BUDGET = 2**26
Factors = tuple[tuple[SampledFunction, ...], ...]  # per operator term, its factor outputs


def default_cutoff(grid: Grid) -> float:
    """Anti-aliasing cutoff radius M/(8L): half the Nyquist frequency."""
    return grid.M / (8.0 * grid.L)


@dataclass(frozen=True)
class MultilinearOperator:
    """A multiplier operator bound to a grid.

    ``cutoff`` drops every frequency tuple containing a slot with |xi_j|
    larger than the radius.  ``None`` disables the cutoff.
    """

    symbol: Symbol
    grid: Grid
    cutoff: float | None = None
    budget: int = DEFAULT_COST_BUDGET

    def __post_init__(self) -> None:
        if self.symbol.n != self.grid.n:
            raise ValueError(
                f"symbol dimension {self.symbol.n} does not match grid dimension {self.grid.n}"
            )

    @property
    def m(self) -> int:
        return self.symbol.m


def _flat_freq_ints(grid: Grid) -> np.ndarray:
    """Integer frequency vectors k in [-M/2, M/2)^n, flat lexicographic order."""
    ks = np.arange(-grid.M // 2, grid.M // 2, dtype=np.int32)
    mesh = np.meshgrid(*([ks] * grid.n), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)


def _check_inputs(op: MultilinearOperator, fs: Sequence[SampledFunction]) -> None:
    if len(fs) != op.m:
        raise ValueError(f"operator has arity {op.m}, got {len(fs)} inputs")
    for f in fs:
        if f.grid != op.grid:
            raise ValueError("all inputs must share the operator's grid")


def _slot_mask(k_ints: np.ndarray, grid: Grid, cutoff: float | None) -> np.ndarray:
    """1.0 where the slot frequency has |xi| <= cutoff, else 0.0."""
    if cutoff is None:
        return np.ones(k_ints.shape[:-1])
    xi_norm = np.linalg.norm(k_ints * grid.dxi, axis=-1)
    return (xi_norm <= cutoff).astype(np.float64)


_MAX_CHUNK_ELEMENTS = 2**22


def apply_general(
    op: MultilinearOperator, *fs: SampledFunction
) -> tuple[SampledFunction, Spectrum]:
    """Apply the operator by exhaustive frequency summation.

    Returns the spatial output together with the grouped output spectrum
    g(eta): for each eta, the symbol-weighted products of input coefficients
    over all frequency tuples whose (wrapped) slot sum equals eta, carrying the
    quadrature weight of the m-1 free frequency integrals.  The spatial output
    is exactly idft(g).

    The same code runs for every m >= 1 and n >= 1.  The cutoff multiplies
    every slot's spectrum once, so a masked free slot contributes zero and a
    wrapped last slot that lands on a masked frequency does too.
    """
    _check_inputs(op, fs)
    grid = op.grid
    m, n, M = op.m, grid.n, grid.M
    S = grid.size
    calls = S**m
    if calls > op.budget:
        raise ValueError(
            f"apply_general needs {calls} evaluator calls, over the budget {op.budget}; "
            "use the product/mixed fast path or a smaller grid"
        )

    k_flat = _flat_freq_ints(grid)  # (S, n)
    xi_flat = k_flat * grid.dxi  # (S, n) float
    mask = _slot_mask(k_flat, grid, op.cutoff)
    spectra = [dft(f).coefficients.ravel() * mask for f in fs]

    # Free slots 0..m-2 as tuples in lexicographic order (one empty tuple
    # when m = 1); slot m-1 is wrapped.
    free_idx = np.indices((S,) * (m - 1)).reshape(m - 1, S ** (m - 1))
    F = free_idx.shape[1]
    free_prod = np.ones(F, dtype=np.complex128)
    free_ksum = np.zeros((F, n), dtype=np.int64)
    for spec, idx in zip(spectra, free_idx):
        free_prod *= spec[idx]
        free_ksum += k_flat[idx]
    free_xis = [xi_flat[idx][None, :, :] for idx in free_idx]

    g_flat = np.empty(S, dtype=np.complex128)
    chunk = max(1, min(S, _MAX_CHUNK_ELEMENTS // F))
    last_spec = spectra[m - 1].reshape(grid.shape)
    xi_grid = xi_flat.reshape(grid.shape + (n,))
    half = M // 2

    for start in range(0, S, chunk):
        stop = min(start + chunk, S)
        k_eta = k_flat[start:stop]  # (C, n)
        # Wrapped last slot: k_last = eta - sum(free), folded into [-M/2, M/2).
        # M is a power of two, so the fold is a bitwise AND.
        wrapped = (k_eta[:, None, :] - free_ksum[None, :, :] + half) & (M - 1)
        last = tuple(np.moveaxis(wrapped, -1, 0))  # per-axis (C, F) indices

        sigma = np.asarray(op.symbol.evaluate(*free_xis, xi_grid[last]))
        terms = sigma * free_prod[None, :]
        terms *= last_spec[last]
        g_flat[start:stop] = terms.sum(axis=1)

    g_flat *= grid.dxi ** ((m - 1) * n)
    g = Spectrum(grid, g_flat.reshape(grid.shape))
    return idft(g), g


def _quadrature_dft(f: SampledFunction) -> np.ndarray:
    """Direct rectangle-rule transform (no FFT), for the oracle path."""
    grid = f.grid
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    E = np.exp(-2j * np.pi * np.outer(x, xi))
    vals = f.values
    if grid.n == 1:
        out = vals @ E
    else:
        out = E.T @ vals @ E
    return (out * grid.dx**grid.n).ravel()


def apply_oracle(
    op: MultilinearOperator,
    fs: Sequence[SampledFunction],
    x_points: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """Literal term-by-term evaluation of the frequency sum at given points.

    All M^(m n) frequency tuples are visited in lexicographic order and
    accumulated with exactly-rounded summation; no transforms, no grouping by
    output frequency.  Intended for a handful of points only.
    """
    _check_inputs(op, fs)
    grid = op.grid
    m, n = op.m, grid.n
    pts = np.asarray(x_points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None] if n == 1 else pts[None, :]
    if pts.shape[1] != n:
        raise ValueError(f"points must lie in R^{n}, got shape {pts.shape}")
    if pts.shape[0] > 16:
        raise ValueError("oracle accepts at most 16 evaluation points")
    S = grid.size
    if S**m > op.budget:
        raise ValueError("oracle tuple count exceeds the cost budget")

    k_flat = _flat_freq_ints(grid)
    spectra = [_quadrature_dft(f) for f in fs]

    idx = np.meshgrid(*([np.arange(S)] * m), indexing="ij")
    idx = [ix.ravel() for ix in idx]
    coef = np.ones(idx[0].size, dtype=np.complex128)
    ksum = np.zeros((idx[0].size, n), dtype=np.int64)
    slot_xis = []
    for slot in range(m):
        k_slot = k_flat[idx[slot]]
        coef *= spectra[slot][idx[slot]] * _slot_mask(k_slot, grid, op.cutoff)
        ksum += k_slot
        slot_xis.append(k_slot * grid.dxi)
    coef *= np.asarray(op.symbol.evaluate(*slot_xis)).ravel()
    coef *= grid.dxi ** (m * n)

    xi_sum = ksum * grid.dxi
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for i, x in enumerate(pts):
        phase = np.exp(2j * np.pi * (xi_sum @ x))
        terms = coef * phase
        out[i] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def apply_linear(sym: Symbol, spec: Spectrum, cutoff: float | None = None) -> SampledFunction:
    """A 1-linear multiplier applied to an input given by its spectrum."""
    if sym.m != 1:
        raise ValueError(f"expected a 1-linear symbol, got arity {sym.m}")
    grid = spec.grid
    freqs = grid.frequencies()
    weights = np.asarray(sym.evaluate(freqs))
    if cutoff is not None:
        weights = weights * (np.linalg.norm(freqs, axis=-1) <= cutoff)
    return idft(Spectrum(grid, spec.coefficients * weights))


def _product_factors(
    terms: Sequence[Sequence[Symbol]], fs: Sequence[SampledFunction], cutoff: float | None
) -> Factors:
    if not terms:
        raise ValueError("need at least one product term")
    if any(f.grid != fs[0].grid for f in fs):
        raise ValueError("all inputs must share one grid")
    for term in terms:
        if len(term) != len(fs):
            raise ValueError(f"term arity {len(term)} does not match {len(fs)} inputs")
    spectra = [dft(f) for f in fs]
    return tuple(
        tuple(apply_linear(sym, spec, cutoff) for sym, spec in zip(term, spectra)) for term in terms
    )


def _mixed_factors(
    terms: Sequence[Partition], fs: Sequence[SampledFunction], cutoff: float | None, budget: int
) -> Factors:
    if not terms:
        raise ValueError("need at least one partition term")
    for part in terms:
        if part.m != len(fs):
            raise ValueError(f"partition covers {part.m} slots, got {len(fs)} inputs")
    grid = fs[0].grid
    return tuple(
        tuple(
            apply_general(MultilinearOperator(sym, grid, cutoff, budget), *[fs[l] for l in grp])[0]
            for grp, sym in zip(part.groups, part.symbols)
        )
        for part in terms
    )


def _sum_of_products(factors: Factors) -> SampledFunction:
    """Sum over terms of the pointwise product of each term's factors."""
    grid = factors[0][0].grid
    total = np.zeros(grid.shape, dtype=np.complex128)
    for term in factors:
        prod = None
        for f in term:
            prod = f.values if prod is None else prod * f.values
        total = total + prod
    return SampledFunction(grid, total)


def apply_product(
    terms: Sequence[Sequence[Symbol]],
    fs: Sequence[SampledFunction],
    cutoff: float | None = None,
) -> SampledFunction:
    """Apply a product-type operator: sum over terms of the pointwise product
    of per-slot 1-linear multiplier applications."""
    return _sum_of_products(_product_factors(terms, fs, cutoff))


def apply_mixed(
    terms: Sequence[Partition],
    fs: Sequence[SampledFunction],
    cutoff: float | None = None,
    budget: int = DEFAULT_COST_BUDGET,
) -> SampledFunction:
    """Apply a mixed-type operator: sum over partition terms of the product
    of per-group applications, each routed through the general engine."""
    return _sum_of_products(_mixed_factors(terms, fs, cutoff, budget))


def operator_factors(op: MultilinearOperator, fs: Sequence[SampledFunction]) -> Factors:
    """Per term, T_j^rho f_j for each slot j (product kind, one forward
    transform per input) or T_{I_g} on each partition group (mixed kind)."""
    if op.symbol.kind == "product":
        return _product_factors(op.symbol.product_terms, fs, op.cutoff)
    if op.symbol.kind == "mixed":
        return _mixed_factors(op.symbol.mixed_terms, fs, op.cutoff, op.budget)
    raise ValueError("a general operator has no factors; apply it with apply_general")


def apply_operator(op: MultilinearOperator, fs: Sequence[SampledFunction]) -> SampledFunction:
    """Route an operator through the path matching its symbol's structure."""
    if op.symbol.kind == "product":
        return apply_product(op.symbol.product_terms, fs, cutoff=op.cutoff)
    if op.symbol.kind == "mixed":
        return apply_mixed(op.symbol.mixed_terms, fs, cutoff=op.cutoff, budget=op.budget)
    return apply_general(op, *fs)[0]


@dataclass(frozen=True)
class MomentEstimate:
    """A moment of the operator output, computed two independent ways."""

    alpha: tuple[int, ...]
    spectral: complex
    spatial: complex


def spectral_moment(g: Spectrum, alpha: Sequence[int]) -> MomentEstimate:
    """Moment integral of x^alpha times the output, |alpha| <= 4.

    The spectral route reads the alpha-derivative of g at the zero frequency
    (central differences on the frequency grid) scaled by (-2 pi i)^-|alpha|;
    the spatial companion is the direct rectangle-rule quadrature over the
    window where the output exceeds 1e-13 of its peak.
    """
    grid = g.grid
    n, M = grid.n, grid.M
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise ValueError(f"multi-index must have {n} entries, got {len(alpha)}")
    order = sum(alpha)
    if order > 4:
        raise ValueError("moment order capped at 4 (stencil width limit)")
    center = M // 2
    half = order
    if center - half < 0 or center + half >= M:
        raise ValueError("finite-difference stencil exceeds the frequency grid")

    window = g.coefficients
    sl = tuple(slice(center - half, center + half + 1) for _ in range(n))
    window = np.array(window[sl], dtype=np.complex128)
    for axis in range(n):
        for _ in range(alpha[axis]):
            upper = np.take(window, range(2, window.shape[axis]), axis=axis)
            lower = np.take(window, range(0, window.shape[axis] - 2), axis=axis)
            window = (upper - lower) / (2.0 * grid.dxi)
    spectral = complex(window.reshape(-1)[window.size // 2]) * (-2j * np.pi) ** (-order)

    vals = idft(g).values
    mask = np.abs(vals) > 1e-13 * np.max(np.abs(vals)) if np.any(vals) else np.zeros_like(vals, bool)
    pts = grid.points()
    weight = np.ones(grid.shape)
    for axis in range(n):
        if alpha[axis]:
            weight = weight * pts[..., axis] ** alpha[axis]
    spatial = complex(np.sum(weight * vals * mask) * grid.dx**n)
    return MomentEstimate(alpha, spectral, spatial)
