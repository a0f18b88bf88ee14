"""Application of multilinear multiplier operators to sampled functions.

Every route takes the ``MultilinearOperator``, reads its grid, cutoff and
budget from it, and checks its inputs with ``_check_inputs``.  All routes
read one frequency lattice, k * dxi (``Grid.frequencies``), and drop
frequencies through one cutoff mask, ``_slot_mask``, so a one-slot group
reads the weights the general engine reads at m = 1, for any L.

One application route, ``apply_operator``: every symbol is read as a sum
of partition terms (``Symbol.partitions``; a general symbol is one term with
one group of all m slots), ``operator_factors`` applies each group, and
``sum_of_products`` sums over terms the pointwise product of their group
outputs.  A group is applied by one of three engines:

* ``apply_general`` — exhaustive summation over the discretized frequency
  integral, grouped by output frequency eta.  For each eta the last input
  frequency is determined by the constraint xi_m = eta - (xi_1 + ... +
  xi_{m-1}), wrapped periodically into the frequency box.  One path serves
  every arity and dimension: the m-1 free slots run in lexicographic order
  over the tuples of the cutoff's box, the W axis frequencies with |xi| <=
  cutoff on each axis (``_box``; one empty tuple when m = 1), and the cutoff
  is folded into every slot's spectrum.  A tuple with a free slot outside
  the box is an exact zero, so cost is W^(n(m-1)) symbol evaluations per
  output frequency: W = M without a cutoff, M/2+1 at the default one.  The
  cost budget still counts M^(m n).  The wrapped last slot is read as
  contiguous windows of its spectrum (see ``apply_general``), and output
  frequencies are processed in chunks whose terms and gathered last-slot
  values fit in ``_MAX_CHUNK_ELEMENTS``, so the working set stays in cache.
  A group of two or more slots that the cost rule below keeps runs here,
  as the operator with that group's symbol on its own inputs.  One pass
  takes a batch of input sets: each chunk's index windows and symbol
  values are computed once for all of them, and each set's output is bit
  for bit that of a pass over it alone.  ``operator_factors`` gives a pass
  as many sets as keep their free products within ``_MAX_BATCH_BYTES``
  (``sets_per_pass``).  It is also the reference the split is tested
  against.
* ``apply_tensor_train`` (module ``train``) — an m-slot group, m >= 2, whose
  symbol splits in tensor-train form on the masked lattice of the cutoff's
  box, sigma(xi_1, ..., xi_m) ~ sum over the bonds of products of one-slot
  cores G_k(xi_k), r_{k-1} x r_k each (``tensor_train_factors``: crosses
  that read only fibres, the fibres through xi = 0 exact, then
  recompression).  At m = 2 it is a low-rank matrix, sum_r u_r(xi_1)
  v_r(xi_2), found by adaptive cross approximation.  It is applied as a
  sweep of one-slot transforms, sum_k r_{k-1} r_k + m transforms of length
  S = M^n per set, against S W^(n(m-1)) symbol products.  The cost rule
  takes it while sum_k r_{k-1} r_k log2 S < W^(n(m-1)) (``_cost_cap``; 2r
  at m = 2, r1 + r1 r2 + r2 at m = 3), a rule of (symbol, grid, cutoff)
  alone, so a replay takes the engine its ensemble took, bit for bit; the
  crosses stop as soon as their ranks reach it.  The split is in the
  symbol's own precision.  Per set it reports a bound on its distance from
  the exhaustive sum, eps dxi^(mn) prod_k |f^_k|_1, where eps is ten times
  the largest residual of the split sampled on seeded lattice entries and
  fibres; ``operator_factors`` carries it into ``Factors.bound``.
* ``apply_linear`` — a one-slot group is a 1-linear multiplier on its
  input's transform, shared by every term, on half spectra: its weights are
  kept as the parts that take a real row to a real row
  (``_hermitian_parts``).  Per input set, one stacked forward real
  transform takes the nonzero real and imaginary parts of the one-slot
  inputs, and one ``apply_linear`` call takes all the one-slot groups into
  one zeroed complex stack, so a real input gives a real row or i times
  one, with exact zeros in the other part.  It agrees with
  ``apply_general`` at m = 1 up to rounding.

All three engines follow module ``grid``'s scale convention: unscaled
transforms, and one weight, M^-(m-1)n, on the exhaustive sum.

How each distinct group runs is decided in one place, the operator's
``_plan``: every one-slot group's weights, and every larger group's split
or the rule's "exhaustive", found when the operator is first applied and
kept for as long as that operator is the one applied.  Each distinct
group factor is applied once per input set.  The pointwise majorants are
built from the factor outputs, and the output is one shared sum over terms
of their products, multiplied and added in place (``sum_of_products``), so
the factors and the output come from a single application.

``apply_oracle`` evaluates the same frequency sum literally, term by term in
lexicographic order with exactly-rounded accumulation, at a handful of
arbitrary spatial points.  It shares no transforms or grouping with the fast
paths and serves as the independent cross-check.

Determinism: within each output frequency the summation runs over the
W^(n(m-1)) free tuples of the cutoff's box in lexicographic order, reduced
along a contiguous axis of that fixed length by numpy's fixed pairwise
tree, so results are bitwise independent of how the output-frequency range
is partitioned into chunks or across workers, and of how the last slot's
values are gathered into that axis.  The tensor train takes each set
through the same steps in the same order, so its outputs do not depend on
the batch either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    _MAX_CHUNK_ELEMENTS,
    Grid,
    SampledFunction,
    Spectrum,
    _box,
    _fft_forward,
    _fft_inverse,
    _frozen,
    _half_shift,
    _masked_moment,
    _real_forward,
    _real_inverse,
    _real_parts,
    _slot_mask,
    idft,
)
from .symbols import Symbol
from .train import TensorTrainFactors, _cost_cap, apply_tensor_train, tensor_train_factors

__all__ = [
    "MultilinearOperator",
    "MomentEstimate",
    "apply_general",
    "apply_tensor_train",
    "apply_oracle",
    "apply_operator",
    "operator_factors",
    "tensor_train_factors",
    "TensorTrainFactors",
    "Factors",
    "sum_of_products",
    "spectral_moment",
    "default_cutoff",
    "DEFAULT_COST_BUDGET",
]

DEFAULT_COST_BUDGET = 2**26
GeneralOutput = tuple[SampledFunction, Spectrum]  # an engine output and its grouped spectrum


def default_cutoff(grid: Grid) -> float:
    """Anti-aliasing cutoff radius M/(8L): half the Nyquist frequency."""
    return grid.M / (8.0 * grid.L)


@dataclass(frozen=True)
class MultilinearOperator:
    """A multiplier operator bound to a grid.

    ``cutoff`` drops every frequency tuple containing a slot with |xi_j|
    larger than the radius.  ``None`` disables the cutoff; a negative or NaN
    radius is a ValueError, and so is a group of two or more slots over
    ``budget`` (``_check_budget``).
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
        if self.cutoff is not None and not self.cutoff >= 0:
            raise ValueError(f"cutoff must be a non-negative radius or None, got {self.cutoff}")
        for m in (len(grp) for part in self.symbol.partitions for grp in part.groups if len(grp) > 1):
            _check_budget(self, m)

    @property
    def m(self) -> int:
        return self.symbol.m


def _flat_freq_ints(grid: Grid) -> np.ndarray:
    """Integer frequency vectors k in [-M/2, M/2)^n, flat lexicographic order."""
    ks = np.arange(-grid.M // 2, grid.M // 2, dtype=np.int32)
    mesh = np.meshgrid(*([ks] * grid.n), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)


def _check_sets(op: MultilinearOperator, sets: Sequence[Sequence[SampledFunction]]) -> None:
    for fs in sets:
        if isinstance(fs, SampledFunction):
            raise TypeError(
                "expected (op, sets), a list of input sets; pass one set as a list of one, "
                "[[f_1, ..., f_m]]"
            )
        _check_inputs(op, fs)


def _check_inputs(op: MultilinearOperator, fs: Sequence[SampledFunction]) -> None:
    if len(fs) != op.m:
        raise ValueError(f"operator has arity {op.m}, got {len(fs)} inputs")
    for f in fs:
        if f.grid != op.grid:
            raise ValueError("all inputs must share the operator's grid")


def _check_budget(op: MultilinearOperator, m: int) -> None:
    """The cost budget counts the S^m tuples of an m-slot group's whole
    lattice, whichever engine applies it."""
    tuples = op.grid.size**m
    if tuples > op.budget:
        raise ValueError(
            f"a {m}-slot group on {op.grid.size} grid points has S^m = {tuples} "
            f"frequency tuples, over the cost budget {op.budget}"
        )


# Bytes of per-set free products one engine pass may hold.  The sets of a
# batch share every chunk's index windows and symbol values; this caps what
# each set adds (16 W^(n(m-1)) bytes, one per box tuple): 7 sets at M=256
# trilinear with the default cutoff, 32 for a bilinear group at M=4096.  It
# sets the batches (``sets_per_pass``), on which no output depends.
_MAX_BATCH_BYTES = 2**21


def sets_per_pass(op: MultilinearOperator) -> int:
    """Input sets one ``apply_general`` pass takes for this operator: as many
    as keep the free products of its widest group, one per tuple of the
    cutoff's box, within ``_MAX_BATCH_BYTES``, and 1 when no group has two
    or more slots."""
    widest = max(len(grp) for part in op.symbol.partitions for grp in part.groups)
    if widest == 1:
        return 1
    _, W = _box(op.grid, op.cutoff)
    return max(1, _MAX_BATCH_BYTES // (16 * W ** (op.grid.n * (widest - 1))))


def _set_operands(
    inputs: Sequence[SampledFunction], mask: np.ndarray, free_idx: np.ndarray, B: int
) -> tuple[np.ndarray, np.ndarray]:
    """One input set's free products, in the free tuples' order, and the
    length-B windows of its last slot's spectrum, reversed and doubled along
    the last axis.  The slot spectra are not kept."""
    spectra = [_half_shift(_fft_forward(f.values)).ravel() * mask for f in inputs]
    free_prod = np.ones(free_idx.shape[1], dtype=np.complex128)
    for spec, idx in zip(spectra, free_idx):
        free_prod *= spec[idx]
    last = spectra[-1].reshape(inputs[-1].grid.shape)[..., ::-1]
    return free_prod, sliding_window_view(np.concatenate([last] * 2, axis=-1), B, axis=-1)


def apply_general(
    op: MultilinearOperator, sets: Sequence[Sequence[SampledFunction]]
) -> list[GeneralOutput]:
    """Apply the operator by exhaustive frequency summation to each input
    set (f_1, ..., f_m) of ``sets``, in one pass.

    Per set it returns the spatial output together with the grouped output
    spectrum g(eta): for each eta, the symbol-weighted products of input
    coefficients over all frequency tuples whose (wrapped) slot sum equals
    eta, from unscaled transforms, weighted by M^-(m-1)n = (dx dxi)^((m-1)n)
    for the m-1 free frequency integrals.  Its unscaled inverse is the
    spatial output; g is returned times dx^n, in ``dft``'s units, so the
    output is idft(g), bit for bit where dx is a power of two.

    The lattice, the index windows and the symbol values of each chunk are
    computed once and serve every set, whose terms are then formed and
    reduced exactly as for that set alone, so each pair is bit for bit that
    of a pass over the set alone.  The pass holds every set's free products
    at once (see ``sets_per_pass``).

    The same code runs for every m >= 1 and n >= 1.  The cutoff multiplies
    every slot's spectrum once, so a masked free slot contributes zero and a
    wrapped last slot that lands on a masked frequency does too.

    Box: the free slots run only over the cube of the W axis frequencies
    with |xi| <= cutoff (``_box``; W = M with no cutoff), since every other
    free tuple has a masked slot and its term is an exact zero.  Each output
    frequency's terms form one row of the Fb = W^(n(m-1)) box tuples in
    lexicographic order, and ``sum(axis=1)`` reduces that row.

    Window gather: the box tuples split into blocks of B = W consecutive
    tuples (B = 1 when m = 1) in which only the last axis of the last free
    slot moves, by one per tuple.  Within a block the wrapped last-slot index
    is constant on its leading axes and steps down cyclically on its last
    axis, so the block reads one contiguous window of the last slot's
    spectrum reversed and doubled along that axis; its frequencies come the
    same way from the 1-D axis frequencies.  Only the leading indices and
    the window start are computed per (output frequency, block).  The gather
    places the same values at the same positions of each output frequency's
    (Fb,) row as an index gather would, and every row is reduced by one
    ``sum(axis=1)`` over the whole row, so no bit of the output depends on
    the gather or on the chunk size.
    """
    _check_sets(op, sets)
    _check_budget(op, op.m)
    grid = op.grid
    m, n, M = op.m, grid.n, grid.M
    S = grid.size

    k_flat = _flat_freq_ints(grid)  # (S, n)
    xi_flat = k_flat * grid.dxi  # (S, n) float
    axis_xi = xi_flat[:M, -1]  # (M,): the first M rows move only the last axis
    mask = _slot_mask(xi_flat, op.cutoff)

    # Free slots 0..m-2 run over the box tuples in lexicographic order (one
    # empty tuple when m = 1); slot m-1 is wrapped.  Every tuple with a free
    # slot outside the box is an exact zero and is not formed.
    a, W = _box(grid, op.cutoff)
    d = n * (m - 1)  # free axes
    Fb = W**d  # free tuples of the box
    box = np.ravel_multi_index(tuple(np.indices((W,) * n).reshape(n, -1) + a), grid.shape)
    free_idx = box[np.indices((W**n,) * (m - 1)).reshape(m - 1, Fb)]
    free_xis = [xi_flat[idx][None, :, :] for idx in free_idx]

    # Blocks of B consecutive box tuples differ only in the last axis of the
    # last free slot, which runs over the W box values.  Across a block the
    # free sum rises by one on that axis, so the wrapped index s, s-1, ...
    # (mod M) sits at M-1-s, M-s, ... of the reversed axis, and doubling the
    # reversed axis makes every such run one contiguous window.
    B = W if m > 1 else 1
    block_ksum = k_flat[free_idx[:, ::B]].sum(axis=0, dtype=np.int64)  # (Fb // B, n)
    xi_win = sliding_window_view(np.concatenate([axis_xi[::-1]] * 2), B)

    operands = [_set_operands(inputs, mask, free_idx, B) for inputs in sets]
    del free_idx

    g_flats = [np.empty(S, dtype=np.complex128) for _ in sets]
    # Output frequencies run in chunks of rows of Fb terms: as many rows as
    # keep the terms and their gathered last-slot values within
    # _MAX_CHUNK_ELEMENTS (module grid), and at least one.
    chunk = max(1, min(S, _MAX_CHUNK_ELEMENTS // (2 * Fb)))
    row = np.empty((chunk, Fb), dtype=np.complex128)
    half = M // 2
    for start in range(0, S, chunk):
        stop = min(start + chunk, S)
        C = stop - start
        # Wrapped last slot of each block's first tuple: k_last = eta -
        # sum(free), folded into [-M/2, M/2).  M is a power of two, so the
        # fold is a bitwise AND.
        first = (k_flat[start:stop, None, :] - block_ksum[None, :, :] + half) & (M - 1)
        lead = tuple(np.moveaxis(first[..., :-1], -1, 0))  # per leading axis (C, Fb // B)
        win = (M - 1 - first[..., -1],)  # window start in the reversed, doubled axis

        xi_last = np.empty((C, Fb // B, B, n))
        for axis, ix in enumerate(lead):
            xi_last[..., axis] = axis_xi[ix][..., None]
        xi_last[..., -1] = xi_win[win]
        sigma = np.asarray(op.symbol.evaluate(*free_xis, xi_last.reshape(C, Fb, n)))
        for g_flat, (free_prod, spec_win) in zip(g_flats, operands):
            terms = np.multiply(sigma, free_prod, out=row[:C])
            terms *= spec_win[lead + win].reshape(C, Fb)
            g_flat[start:stop] = terms.sum(axis=1)

    results = []
    for g_flat in g_flats:
        g_flat /= M ** ((m - 1) * n)
        g = g_flat.reshape(grid.shape)
        values = _half_shift(_fft_inverse(_half_shift(g), n))
        g *= grid.dx**n
        results.append((SampledFunction(grid, _frozen(values)), Spectrum(grid, g)))
    return results


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
    _check_budget(op, op.m)
    S = grid.size

    k_flat = _flat_freq_ints(grid)
    xi_flat = k_flat * grid.dxi
    weighted = [_quadrature_dft(f) * _slot_mask(xi_flat, op.cutoff) for f in fs]

    idx = np.indices((S,) * m).reshape(m, S**m)
    coef = np.ones(S**m, dtype=np.complex128)
    ksum = np.zeros((S**m, n), dtype=np.int64)
    for spec, ix in zip(weighted, idx):
        coef *= spec[ix]
        ksum += k_flat[ix]
    coef *= np.asarray(op.symbol.evaluate(*[xi_flat[ix] for ix in idx])).ravel()
    coef *= grid.dxi ** (m * n)

    xi_sum = ksum * grid.dxi
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for i, x in enumerate(pts):
        phase = np.exp(2j * np.pi * (xi_sum @ x))
        terms = coef * phase
        out[i] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def apply_linear(
    grid: Grid,
    weights: Sequence[Sequence[tuple[complex, np.ndarray]]],
    coeffs: Sequence[Sequence[tuple[complex, np.ndarray]]],
) -> list[SampledFunction]:
    """1-linear multipliers, each given by its (unit, half-lattice weights)
    parts (``_plan``), applied to inputs given by the (unit, half spectrum)
    pairs of their nonzero real parts (``_real_parts``, ``_real_forward``),
    one output per (weights, coeffs) pair.  Each product spectrum * weights
    reaches the real part of the output or, when unit * unit is imaginary,
    the imaginary part, with the sign of unit * unit; the products that
    reach one part are summed in order, the first written and a sign -1
    negating exactly, and take one inverse real transform.  The outputs are
    the read-only rows of one zeroed complex stack, so a part no product
    reaches stays exactly 0.  The rows are ordered so that the real parts
    reached are one run of rows and the imaginary ones another, and each run
    takes stacked inverse real transforms written straight into it, in
    blocks of as many parts, at least one, as keep the input spectra and the
    block within ``_MAX_CHUNK_ELEMENTS`` complex elements."""
    reached: dict[tuple[int, int], list] = {}  # (output, part) -> its (sign, spectrum, weights)
    for g, (parts, comps) in enumerate(zip(weights, coeffs)):
        for u, spec in comps:
            for v, w in parts:
                unit = u * v
                reached.setdefault((g, int(unit.imag != 0)), []).append(
                    (unit.real + unit.imag, spec, w)
                )
    # Parts reached, as bits: real only (1), both (3), imaginary only (2), none (0).
    kinds = [sum(1 << p for h, p in reached if h == g) for g in range(len(weights))]
    order = sorted(range(len(weights)), key=lambda g: (3, 0, 2, 1)[kinds[g]])
    at = {g: i for i, g in enumerate(order)}
    rows = np.zeros((len(weights),) + grid.shape, dtype=np.complex128)
    half = grid.shape[:-1] + (grid.M // 2 + 1,)
    held = len({id(spec) for comps in coeffs for _, spec in comps})
    step = max(1, _MAX_CHUNK_ELEMENTS // math.prod(half) - held)
    block = np.empty((min(step, len(reached)),) + half, dtype=np.complex128)
    for p, target in enumerate((rows.real, rows.imag)):
        run = sorted((at[g], prods) for (g, q), prods in reached.items() if q == p)
        for start in range(0, len(run), step):
            part = run[start : start + step]
            for row, (_, prods) in zip(block, part):
                (sign, spec, w), *rest = prods
                np.multiply(spec, w, out=row)
                if sign < 0:
                    np.negative(row, out=row)
                for sign, spec, w in rest:
                    (np.add if sign > 0 else np.subtract)(row, spec * w, out=row)
            top = part[0][0]
            _real_inverse(block[: len(part)], grid.shape, out=target[top : top + len(part)])
    _frozen(rows)
    return [SampledFunction(grid, rows[at[g]]) for g in range(len(weights))]


class Factors(tuple):
    """Per operator term, the outputs of its groups (a tuple of tuples),
    with ``bound``, a bound on the sup-norm error of their sum of products
    that the split groups add: per term, prod_g (|F_g|_inf + b_g) -
    prod_g |F_g|_inf over its group outputs F_g with bounds b_g, which is b
    times the sup norms of the term's other factors when one group is a
    split, and 0.0 when every group is exact."""

    bound: float

    def __new__(cls, terms, bound: float = 0.0) -> "Factors":
        self = super().__new__(cls, terms)
        self.bound = bound
        return self


Group = tuple[tuple[int, ...], Symbol]  # a group's slots and its symbol
HalfWeights = tuple[tuple[complex, np.ndarray], ...]  # a one-slot group's weight parts


def _hermitian_parts(w: np.ndarray) -> HalfWeights:
    """Lattice weights w in FFT order as read-only (unit, weights) parts on
    the first M/2 + 1 entries of the last axis: (w(k) + conj w(-k))/2 with
    unit 1 and -i (w(k) - conj w(-k))/2 with unit 1j, each of which takes a
    real row's half spectrum to a real row's.  A part that is exactly zero
    is dropped: an exactly even real symbol keeps the first, and an exactly
    odd one the second once the cutoff masks the Nyquist frequency."""
    M = w.shape[-1]
    w = w.astype(np.complex128)
    mirror = np.conj(w[np.ix_(*[(-np.arange(M)) % M] * w.ndim)])
    herm = (w + mirror) / 2
    diff = (w - mirror) / 2
    anti = np.empty_like(diff)
    anti.real, anti.imag = diff.imag, -diff.real
    halves = ((unit, part[..., : M // 2 + 1]) for unit, part in ((1, herm), (1j, anti)))
    return tuple((unit, _frozen(part.copy())) for unit, part in halves if np.any(part))


@lru_cache(maxsize=1)
def _plan(op: MultilinearOperator) -> tuple[
    tuple[tuple[Group, HalfWeights], ...], tuple[tuple[Group, TensorTrainFactors | None], ...]
]:
    """How ``operator_factors`` applies each distinct group of the
    operator's terms, in term order: the one-slot groups, each with the
    ``_hermitian_parts`` of its weights sym(k * dxi) * ``_slot_mask`` on the
    lattice in FFT order, and the larger ones, each with its tensor train
    (``tensor_train_factors``) where the cost rule, ``_cost_cap``, picks
    it, else None for ``apply_general``.  Each symbol is evaluated or split
    once however many groups name it, and the plan is kept for as long as
    its operator is the one applied."""
    _plan.cache_clear()  # the previous operator's splits go before this one's crosses
    freqs = op.grid.frequencies()
    mask = _slot_mask(freqs, op.cutoff)
    found: dict[Symbol, HalfWeights | TensorTrainFactors | None] = {}
    linear: dict[Group, HalfWeights] = {}
    larger: dict[Group, TensorTrainFactors | None] = {}
    for part in op.symbol.partitions:
        for grp, sym in zip(part.groups, part.symbols):
            if sym not in found:
                if len(grp) == 1:
                    found[sym] = _hermitian_parts(_half_shift(np.asarray(sym.evaluate(freqs)) * mask))
                else:
                    cap = _cost_cap(op.grid, op.cutoff, len(grp))
                    found[sym] = tensor_train_factors(sym, op.grid, op.cutoff, cap)
            (linear if len(grp) == 1 else larger)[grp, sym] = found[sym]
    return tuple(linear.items()), tuple(larger.items())


def operator_factors(
    op: MultilinearOperator, sets: Sequence[Sequence[SampledFunction]]
) -> list[Factors]:
    """Per input set, per term of ``Symbol.partitions``, the output of each
    group: T_j^rho f_j for a one-slot group, T_{I_g} on its own inputs for
    a larger one, which for a general symbol is the whole operator.  Every
    group inherits the operator's cutoff and budget.  A group that several
    terms name with the same symbol is applied once, and its output stands
    in every one of them.  The operator's ``_plan`` is found before any
    group runs.  Each group of two or more slots runs on all the sets at
    once: on its tensor train when the plan holds one, else in
    ``apply_general`` passes of ``sets_per_pass`` sets, whose symbol is
    evaluated once for all of them, exact up to rounding (bound 0).
    Either way each set's factors are bit for bit those of the set alone.
    One-slot groups run set by set: one stacked forward real transform of
    the nonzero real parts of the set's one-slot inputs (``_real_parts``),
    shared by every term, and one ``apply_linear`` call over all its
    one-slot groups."""
    _check_sets(op, sets)
    if not sets:
        return []
    # Every split before any pass: a split's crosses are freed in whole
    # pages, while an exhaustive pass leaves the heap larger.
    linear, larger = _plan(op)
    applied: list[dict[Group, tuple[SampledFunction, float]]] = [{} for _ in sets]
    for (grp, sym), split in larger:
        group = replace(op, symbol=sym)
        batch = [[fs[l] for l in grp] for fs in sets]
        if split is not None:
            outs = apply_tensor_train(group, split, batch)
        else:
            step = sets_per_pass(group)
            outs = [
                (out, 0.0)
                for start in range(0, len(batch), step)
                for out, _ in apply_general(group, batch[start : start + step])
            ]
        for done, out in zip(applied, outs):
            done[grp, sym] = out
    singles = sorted({grp[0] for (grp, _), _ in linear})
    weights = [w for _, w in linear]
    for fs, done in zip(sets, applied):
        if not linear:
            break
        parts = {l: _real_parts(fs[l].values) for l in singles}
        rows = [part for l in singles for _, part in parts[l]]
        half = iter(_real_forward(np.stack(rows), op.grid.n) if rows else ())
        comps = {l: [(unit, next(half)) for unit, _ in parts[l]] for l in singles}
        outs = apply_linear(op.grid, weights, [comps[grp[0]] for (grp, _), _ in linear])
        for (key, _), out in zip(linear, outs):
            done[key] = out, 0.0
    terms = op.symbol.partitions
    results = []
    for done in applied:
        outs = [[done[key] for key in zip(part.groups, part.symbols)] for part in terms]
        bound = 0.0
        for term in outs:
            if any(b for _, b in term):
                sups = [f.max_abs() for f, _ in term]
                bound += math.prod(s + b for s, (_, b) in zip(sups, term)) - math.prod(sups)
        results.append(Factors((tuple(f for f, _ in term) for term in outs), bound))
    return results


def sum_of_products(factors: Factors) -> SampledFunction:
    """Sum over terms of the pointwise product of each term's factors,
    multiplied and added in place: one complex128 product buffer serves
    every term whatever the factors' dtypes, so a factor's exactly zero part
    stays exactly zero in the products."""
    grid = factors[0][0].grid
    total = np.zeros(grid.shape, dtype=np.complex128)
    buf = np.empty(grid.shape, dtype=np.complex128)
    for term in factors:
        prod = term[0].values
        for f in term[1:]:
            prod = np.multiply(prod, f.values, out=buf)
        total += prod
    return SampledFunction(grid, _frozen(total))


def apply_operator(op: MultilinearOperator, fs: Sequence[SampledFunction]) -> SampledFunction:
    """Apply the operator: the sum over its partition terms of the product
    of per-group applications (``operator_factors``)."""
    return sum_of_products(operator_factors(op, [fs])[0])


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

    out = idft(g)
    vals = out.values
    mask = np.abs(vals) > 1e-13 * np.max(np.abs(vals)) if np.any(vals) else np.zeros_like(vals, bool)
    spatial = _masked_moment(out, grid.points(), alpha, mask)
    return MomentEstimate(alpha, spectral, spatial)

