"""Application of multilinear multiplier operators to sampled functions.

Every route takes the ``MultilinearOperator``, reads its grid, cutoff and
budget from it, and checks its inputs with ``_check_inputs``.  All routes
read one frequency lattice, k * dxi (``Grid.frequencies``), and drop
frequencies through one cutoff mask, ``_slot_mask``, so a one-slot group is
bit for bit the general engine at m = 1 for any L.

One application route, ``apply_operator``: every symbol is read as a sum
of partition terms (``Symbol.partitions``; a general symbol is one term with
one group of all m slots), ``operator_factors`` applies each group, and
``sum_of_products`` sums over terms the pointwise product of their group
outputs.  A group is applied by one of four engines:

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
  frequencies are processed in chunks of at most ``_MAX_CHUNK_ELEMENTS``
  tuples of the whole lattice, so the working set stays in cache.
  Every group of four or more slots runs here, and a two- or three-slot
  group that its cost rule below keeps, as the operator with that group's
  symbol on its own inputs.  One pass takes a batch of input sets: each chunk's index
  windows and symbol values are computed once for all of them, and each
  set's output is bit for bit that of a pass over it alone.
  ``operator_factors`` gives a pass as many sets as keep their free
  products within ``_MAX_BATCH_BYTES`` (``sets_per_pass``).  It is also the
  reference every other engine is tested against.
* ``apply_low_rank`` — a two-slot group whose symbol splits as
  sigma(xi_1, xi_2) ~ sum_r u_r(xi_1) v_r(xi_2) on the masked lattice of
  the cutoff's box (``low_rank_factors``: the exact cross through xi = 0,
  adaptive cross approximation, recompression), applied as sum_r (T_{u_r}
  f_1)(T_{v_r} f_2): 2r + 2 transforms of length S = M^n per set, against
  S W^n symbol products.  The cost rule takes it when its rank r stays
  below W^n / (2 log2 S) (``_rank_cap``), a rule of (symbol, grid, cutoff)
  alone, so a replay takes the engine its ensemble took, bit for bit; ACA
  stops as soon as the rank reaches that cap.  The split is in the
  symbol's own precision.  Per set it reports a bound on its distance
  from the exhaustive sum, eps dxi^(2n) |f^_1|_1 |f^_2|_1, where eps is ten
  times the largest residual of the split sampled on seeded lattice pairs,
  rows and columns; ``operator_factors`` carries it into ``Factors.bound``.
* ``apply_tensor_train`` — a three-slot group whose symbol splits in
  tensor-train form, sigma(xi_1, xi_2, xi_3) ~ sum_{a,b} u_a(xi_1)
  g_ab(xi_2) v_b(xi_3), on the masked lattice of the cutoff's box
  (``tensor_train_factors``: two crosses that read only fibres, the fibres
  through xi = 0 exact, then recompression, the core kept in a basis of
  its mode-2 span), applied as sum_a (T_{u_a} f_1) sum_b (T_{g_ab}
  f_2)(T_{v_b} f_3): r1 + r1 r2 + r2 + 3 transforms of length S per set,
  against S W^(2n) symbol products.  The cost rule
  takes it while (r1 + r1 r2 + r2) log2 S < W^(2n) (``_train_cost_cap``),
  again a rule of (symbol, grid, cutoff) alone.  Its bound is eps
  dxi^(3n) |f^_1|_1 |f^_2|_1 |f^_3|_1, eps ten times the largest residual
  sampled on seeded fibres of all three modes.
* ``apply_linear`` — a one-slot group is a 1-linear multiplier on its
  input's forward transform, computed once per input and shared by every
  term; bit for bit ``apply_general`` at m = 1, at a third of its cost.

Each group's split, or the rule's "exhaustive", is found when the
operator is first applied (``_group_split``) and kept for as long as that
operator is the one applied.  Each distinct group factor is applied once
per input set and each one-slot weight array is evaluated once per
operator.  The pointwise
majorants are built from the factor outputs, and the output is one shared
sum over terms of their products, so the factors and the output come from a
single application.

``apply_oracle`` evaluates the same frequency sum literally, term by term in
lexicographic order with exactly-rounded accumulation, at a handful of
arbitrary spatial points.  It shares no transforms or grouping with the fast
paths and serves as the independent cross-check.

Determinism: within each output frequency the summation runs over free
frequency tuples in lexicographic order, reduced along a contiguous axis by
numpy's fixed pairwise tree, so results are bitwise independent of how the
output-frequency range is partitioned into chunks or across workers, and of
how the last slot's values are gathered into that axis.  The axis is the
row of all M^(n(m-1)) free tuples, zero outside the box, so the tree sees
the row a sum over the whole lattice would.  The low-rank engine and the
tensor train take each set through the same steps in the same order, so
their outputs do not depend on the batch either.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    Grid,
    SampledFunction,
    Spectrum,
    _fft_forward,
    _frozen,
    _half_shift,
    _masked_moment,
    dft,
    idft,
)
from .symbols import Symbol

__all__ = [
    "MultilinearOperator",
    "MomentEstimate",
    "apply_general",
    "apply_low_rank",
    "apply_tensor_train",
    "apply_oracle",
    "apply_operator",
    "operator_factors",
    "low_rank_factors",
    "LowRankFactors",
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
    radius is a ValueError.
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


def _check_budget(op: MultilinearOperator) -> None:
    """The cost budget counts the S^m tuples of the whole lattice, whichever
    engine applies the operator; it is checked before either runs."""
    tuples = op.grid.size**op.m
    if tuples > op.budget:
        raise ValueError(
            f"a {op.m}-slot group on {op.grid.size} grid points has S^m = {tuples} "
            f"frequency tuples, over the cost budget {op.budget}"
        )


def _slot_mask(xi: np.ndarray, cutoff: float | None) -> np.ndarray:
    """1.0 where the slot frequency has |xi| <= cutoff, else 0.0."""
    if cutoff is None:
        return np.ones(xi.shape[:-1])
    return (np.linalg.norm(xi, axis=-1) <= cutoff).astype(np.float64)


def _box(grid: Grid, cutoff: float | None) -> tuple[int, int]:
    """Start and width (a, W) of the contiguous run of axis indices whose
    frequency has |xi| <= cutoff; (0, M) with no cutoff.  The cube of these
    runs holds every lattice point ``_slot_mask`` keeps, since no coordinate
    of a point is larger in magnitude than its norm.

    A run of one frequency (cutoff < dxi) is widened to two: numpy forms a
    one-element in-place complex product in a scalar loop that rounds
    differently from its vector loop, so the engine's arrays keep at least
    two elements, as they have on the whole lattice."""
    keep = np.flatnonzero(np.abs(grid.axis_frequencies()) <= (np.inf if cutoff is None else cutoff))
    return int(keep[0]), max(2, len(keep))


# Tuples per chunk of output frequencies.  Measured on this engine for
# sigma1_bilinear at M=4096, a shape the cost rule now sends to the low-rank
# engine (4,096 tuples per frequency), passes of 1, 5 and 32 sets across
# 2^13..2^17 (2 cores, numpy 2.4, medians of 5): 2^15 was fastest for 1 and
# 5 sets (0.18 s and 0.62 s, against 0.20 s and 0.65 s at 2^16; 32 sets ran
# fastest at 2^13, 3.3 s against 3.7 s), and each chunk temporary is 512 KiB,
# so the chunk stays in cache.  The count is of rows of the whole lattice,
# M^(n(m-1)) tuples each, since every row is reduced at that length; the
# symbol runs on the box's W^(n(m-1)) of them.  A row longer than the chunk
# runs one frequency at a time: a trilinear group at M=256 has 65,536, of
# which the default cutoff's box holds 129^2 = 16,641, but the cost rule
# sends sigma4's trilinear group there to its tensor train, and the
# exhaustive engine now sees such rows only for trilinear symbols of high
# rank (sigma1) and in the tests.
_MAX_CHUNK_ELEMENTS = 2**15

# Bytes of per-set free products one engine pass may hold.  The sets of a
# batch share every chunk's index windows and symbol values; this caps what
# each set adds (16 W^(n(m-1)) bytes, one per box tuple): 7 sets at M=256
# trilinear with the default cutoff, and 32, the trials' batch, for lemmas'
# bilinear group at M=4096.  Both of those groups now run on a split
# (lemmas' on the low-rank engine, sigma4's trilinear group on its tensor
# train, each set by set), but the cap still sets the trials' batches
# (``sets_per_pass``), which no output depends on.
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
    spectra = [dft(f).coefficients.ravel() * mask for f in inputs]
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
    eta, carrying the quadrature weight of the m-1 free frequency integrals.
    The spatial output is exactly idft(g).

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
    free tuple has a masked slot and its term is an exact zero.  Each set's
    terms, formed over the box, are written to their lexicographic positions
    in a row of all F = M^(n(m-1)) free tuples that is zero elsewhere and
    kept for the pass, and that row is what ``sum(axis=1)`` reduces.  So
    the pairwise tree adds the same values at the same positions as it
    would over the whole lattice, where the dropped terms were zeros too
    (possibly -0.0; a zero leaves every partial sum that is not itself zero
    unchanged, so at most the sign of an exactly-zero row sum could move,
    and the uint64 tests against the whole-lattice engine see none move).

    Window gather: the box tuples split into blocks of B = W consecutive
    tuples (B = 1 when m = 1) in which only the last axis of the last free
    slot moves, by one per tuple.  Within a block the wrapped last-slot index
    is constant on its leading axes and steps down cyclically on its last
    axis, so the block reads one contiguous window of the last slot's
    spectrum reversed and doubled along that axis; its frequencies come the
    same way from the 1-D axis frequencies.  Only the leading indices and
    the window start are computed per (output frequency, block).  The gather
    places the same values at the same positions of each output frequency's
    (F,) row as an index gather would, and every row is reduced by one
    ``sum(axis=1)`` over the whole row, so no bit of the output depends on
    the gather or on the chunk size.
    """
    _check_sets(op, sets)
    _check_budget(op)
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
    F, Fb = M**d, W**d  # free tuples of the whole lattice, of the box
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
    chunk = max(1, min(S, _MAX_CHUNK_ELEMENTS // F))
    # Rows of all F free tuples, zero outside the box (see the docstring);
    # each set's terms are written into the box view.
    row = np.zeros((chunk, F), dtype=np.complex128)
    in_box = row.reshape((chunk,) + (M,) * d)[(slice(None),) + (slice(a, a + W),) * d]
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
        sigma = sigma.reshape((C,) + (W,) * d)
        for g_flat, (free_prod, spec_win) in zip(g_flats, operands):
            terms = np.multiply(sigma, free_prod.reshape((W,) * d), out=in_box[:C])
            terms *= spec_win[lead + win].reshape(sigma.shape)
            g_flat[start:stop] = row[:C].sum(axis=1)

    results = []
    for g_flat in g_flats:
        g_flat *= grid.dxi ** ((m - 1) * n)
        g = Spectrum(grid, g_flat.reshape(grid.shape))
        results.append((idft(g), g))
    return results


# ACA stops when its latest term is this small against the approximation:
# |u_k| |v_k| <= _ACA_TOL * |S_k|_F, with |S_k|_F the running Frobenius norm
# of the sum of the terms so far.
_ACA_TOL = 3e-15

# The reported residual eps is _RESIDUAL_SAFETY times the largest residual
# |sigma - sum_r u_r v_r| seen on _RESIDUAL_PAIRS lattice pairs and on
# _RESIDUAL_LINES whole rows and as many whole columns, drawn from a fixed seed.
_RESIDUAL_SAFETY = 10.0
_RESIDUAL_PAIRS = 2**14
_RESIDUAL_LINES = 4
_RESIDUAL_SEED = 2000


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """A two-slot symbol on the masked lattice of the cutoff's box, split as
    sigma(xi_i, xi_j) ~ sum_r u[r][i] v[r][j].

    The P = W^n box points are in FFT order (``_box_lattice``): ``index``
    places them in the flat FFT-order lattice (a whole slice when the box is
    the lattice), and ``mask`` is ``_slot_mask`` on them.  ``u`` and ``v``
    are read-only (rank, P) arrays in the symbol's own dtype, a row of P
    values per term, zero where the mask is.  ``eps`` bounds |sigma - sum_r
    u_r v_r| on the box: _RESIDUAL_SAFETY times the largest sampled
    residual.
    """

    index: np.ndarray | slice
    mask: np.ndarray
    u: np.ndarray
    v: np.ndarray
    eps: float

    @property
    def rank(self) -> int:
        return len(self.u)


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


def _rank_cap(grid: Grid, cutoff: float | None) -> float:
    """The cost rule: the rank r at which 2 r log2(S) >= W^n, where the
    exhaustive engine's W^n symbol products per output frequency cost no
    more than the low-rank engine's 2r transforms of length S."""
    _, W = _box(grid, cutoff)
    return W**grid.n / (2 * math.log2(grid.size)) if grid.size > 1 else math.inf


def _term_rows(rows: int, P: int, dtype: np.dtype) -> tuple[np.ndarray, mmap.mmap]:
    """A (rows, P) array of terms in an anonymous memory map of its own: a
    page costs memory once it is written, and every page goes back to the
    system when the array is freed, or earlier through ``_release_rows``,
    whatever malloc's thresholds have become.  A plain numpy buffer costs
    more: numpy advises huge pages for arrays of 4 MiB or more, as the
    buffers at the rank cap are (5.6 MB each at M=4096), so where THP runs
    in ``madvise`` mode a first write commits a whole 2 MiB page.  On
    lemmas.ini, np.zeros buffers (which ``_release_rows`` cannot reach) put
    peak RSS up by 2.9 MB (2 cores, Linux 6.18, numpy 2.4)."""
    buf = mmap.mmap(-1, max(1, rows * P * dtype.itemsize))
    return np.frombuffer(buf, dtype=dtype, count=rows * P).reshape(rows, P), buf


def _release_rows(buf: mmap.mmap, rows: np.ndarray, keep: int) -> None:
    """Return the pages past the first ``keep`` rows of ``rows`` (which
    ``buf`` holds) to the system, where it takes that advice; they read as
    zeros afterwards.  Recompression leaves about a quarter of ACA's rows
    unused, and keeping their pages put lemmas.ini's peak RSS up by 0.9 MB
    (2 cores, Linux 6.18, numpy 2.4)."""
    start = -(-keep * rows.shape[1] * rows.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
    if start < len(buf) and hasattr(mmap, "MADV_DONTNEED"):
        buf.madvise(mmap.MADV_DONTNEED, start, len(buf) - start)


def _cross_start(
    line: Callable[[int, int], np.ndarray], shape: tuple[int, int], capacity: int
) -> tuple[np.ndarray, mmap.mmap, np.ndarray, mmap.mmap, float]:
    """The first two terms of a cross of the (rows, columns) matrix that
    ``line`` reads (row i for slot 0, column i for slot 1), whose row 0 and
    column 0 pass through xi = 0: that row and that column, exactly, as
    e_0 (x) row_0 and column_0 (x) e_0 with the shared entry counted once.
    Returns the term buffers (``_term_rows``, ``capacity`` rows each) and
    the squared Frobenius norm of the two terms."""
    first_row, first_column = line(0, 0), line(0, 1)
    dtype = np.result_type(first_row, first_column)
    (U, u_buf), (V, v_buf) = _term_rows(capacity, shape[0], dtype), _term_rows(capacity, shape[1], dtype)
    U[0, 0] = V[1, 0] = 1.0
    V[0], U[1] = first_row, first_column
    U[1, 0] = 0.0
    frob2 = float(np.vdot(V[0], V[0]).real + np.vdot(U[1], U[1]).real)
    return U, u_buf, V, v_buf, frob2


def _aca(
    line: Callable[[int, int], np.ndarray],
    U: np.ndarray,
    V: np.ndarray,
    r: int,
    frob2: float,
    used: np.ndarray,
    i: int,
    max_rank: float,
    pivots: list[tuple[int, int]] | None = None,
) -> tuple[int, float]:
    """ACA with partial pivoting on the remainder of the r terms in U and V,
    from row i: each next row the largest entry of the last column among
    rows not yet used (the first on ties), a row whose residual is exactly
    zero passed over for the first unused row, until |u_k| |v_k| <=
    _ACA_TOL |S_k|_F, the rank reaches ``max_rank`` or every row is used.
    Marks the rows it reads in ``used``, appends each term's (row, column)
    pivot to ``pivots``, and returns the new r and |S|_F^2."""
    while r < max_rank and i < len(used) and not used[i]:
        row = line(i, 0) - U[:r, i] @ V[:r]
        used[i] = True
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0:
            i = int(np.argmin(used)) if not used.all() else len(used)
            continue
        V[r] = row / row[j]
        U[r] = line(j, 1) - V[:r, j] @ U[:r]
        frob2 += 2.0 * float(np.sum((U[:r] @ U[r].conj()) * (V[:r] @ V[r].conj())).real)
        size = float(np.linalg.norm(U[r]) * np.linalg.norm(V[r]))
        frob2 += size * size
        r += 1
        if pivots is not None:
            pivots.append((i, j))
        if size <= _ACA_TOL * math.sqrt(max(frob2, 0.0)):
            break
        i = int(np.argmax(np.where(used, -1.0, np.abs(U[r - 1]))))
    return r, frob2


def low_rank_factors(
    symbol: Symbol, grid: Grid, cutoff: float | None, max_rank: float
) -> LowRankFactors | None:
    """Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 86, 2000) of the masked matrix A[i, j] = sigma(xi_i, xi_j) over the
    box points, recompressed (``_recompress``), or None once ACA's rank
    reaches ``max_rank`` (the cost rule passes ``_rank_cap``).

    The row and the column through xi = 0 are taken exactly as two rank-one
    terms first (``_cross_start``): ``_safe_div`` makes sigma(0, 0) = 0 next
    to sigma(0, b) = 1, a jump that ACA alone does not resolve.  ACA
    (``_aca``) then runs on the remainder from the row after xi = 0.  The
    split is then recompressed and its residual sampled
    (``_sampled_residual``); a sampled entry above _ACA_TOL |S|_F means ACA
    stopped early, and it goes on from that entry's row.  Every step is
    fixed by (symbol, grid, cutoff), so the factors and every bit the engine
    computes from them are too.  The terms live in memory maps
    (``_term_rows``)."""
    if max_rank <= 2:  # the cross alone reaches it
        return None
    index, xi, mask = _box_lattice(grid, cutoff)
    P = len(xi)

    def line(i: int, slot: int) -> np.ndarray:
        """Row i (slot 0 held at xi_i) or column i (slot 1 held) of A."""
        held = np.broadcast_to(xi[i], xi.shape)
        pair = (held, xi) if slot == 0 else (xi, held)
        return np.asarray(symbol.evaluate(*pair)) * (mask * mask[i])

    capacity = int(min(max_rank, P)) + 1
    U, u_buf, V, v_buf, frob2 = _cross_start(line, (P, P), capacity)
    r = 2
    used = np.zeros(P, dtype=bool)
    used[0] = True
    i = 1
    while True:
        r, frob2 = _aca(line, U, V, r, frob2, used, i, max_rank)
        if r >= max_rank:
            return None
        r, frob = _recompress(U[:r], V[:r])
        frob2 = frob * frob
        for rows, buf in ((U, u_buf), (V, v_buf)):
            _release_rows(buf, rows, r)
        worst, i = _sampled_residual(symbol, mask, xi, line, U[:r], V[:r])
        # No entry of a residual whose Frobenius norm is _ACA_TOL |S|_F is
        # larger than that: a larger one shows that ACA stopped on a small
        # term while the residual is large elsewhere.
        if worst <= _ACA_TOL * frob or used.all():
            break
        if used[i]:
            i = int(np.argmin(used))
    # Read-only, since the cache hands the same factors to every caller.
    U, V = U[:r], V[:r]
    for arr in (mask, U, V):
        arr.setflags(write=False)
    return LowRankFactors(index, mask, U, V, _RESIDUAL_SAFETY * worst)


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the rows in place, each projection done twice, so
    they end orthonormal (or zero, where a row depends on those before it).
    Returns the upper-triangular R with row_k = sum_l R[l, k] q_l."""
    r = len(rows)
    R = np.zeros((r, r), dtype=rows.dtype)
    for k in range(r):
        for _ in range(2):
            c = (rows[:k] @ rows[k].conj()).conj()
            rows[k] -= c @ rows[:k]
            R[:k, k] += c
        R[k, k] = np.linalg.norm(rows[k])
        if R[k, k] > 0:
            rows[k] /= R[k, k]
    return R


def _column_basis(K: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns Q with |K - Q Q^H K|_F <= tol |K|_F: Gram-Schmidt
    with column pivoting, each step taking the column of K least explained
    so far, until what is left of K is that small."""
    rest = K.copy()
    limit = tol * float(np.linalg.norm(K))
    basis = np.zeros((len(K), 0), dtype=K.dtype)
    while True:
        norms2 = np.sum(np.abs(rest) ** 2, axis=0)
        if math.sqrt(float(np.sum(norms2))) <= limit or basis.shape[1] == min(K.shape):
            return basis
        q = rest[:, int(np.argmax(norms2))].copy()
        for _ in range(2):
            q -= basis @ (basis.conj().T @ q)
        q /= np.linalg.norm(q)
        basis = np.column_stack([basis, q])
        rest -= np.outer(q, q.conj() @ rest)


# Columns per block when the recompressed terms are written over the old.
_RECOMPRESS_BLOCK = 512


def _recompress(U: np.ndarray, V: np.ndarray) -> tuple[int, float]:
    """Rewrite the split sum_k u_k v_k, rows of U and V, in place in its
    first r' rows, with the fewest terms that keep it within _ACA_TOL of its
    Frobenius norm, in that norm; return r' and that norm.  With U = R_u^T
    Q_u and V = R_v^T Q_v (``_orthonormalize``) the split is Q_u^T K Q_v,
    K = R_u R_v^T; a pivoted basis Q of K's columns (``_column_basis``)
    gives the terms u'_k = (Q^T Q_u)_k and v'_k = (Q^H K Q_v)_k.  ACA's terms are far
    from orthogonal, and this drops about a quarter of them.  The new terms
    are written over the old a block of columns at a time, so the terms
    never exist twice."""
    K = _orthonormalize(U) @ _orthonormalize(V).T
    Q = _column_basis(K, _ACA_TOL)
    QK = Q.conj().T @ K
    for rows, T in ((U, Q.T), (V, QK)):
        for start in range(0, rows.shape[1], _RECOMPRESS_BLOCK):
            cols = slice(start, start + _RECOMPRESS_BLOCK)
            rows[: len(T), cols] = T @ rows[:, cols]
    return len(QK), float(np.linalg.norm(QK))


def _sampled_residual(
    symbol: Symbol,
    mask: np.ndarray,
    xi: np.ndarray,
    line: Callable[[int, int], np.ndarray],
    U: np.ndarray,
    V: np.ndarray,
) -> tuple[float, int]:
    """The largest |sigma - sum_r u_r v_r| on _RESIDUAL_PAIRS seeded lattice
    pairs, taken 512 at a time, and on _RESIDUAL_LINES seeded rows and as
    many columns, with the row it lies in."""
    P = len(xi)
    rng = np.random.default_rng(_RESIDUAL_SEED)
    ii, jj = rng.integers(0, P, size=(2, _RESIDUAL_PAIRS))
    worst, at = 0.0, 0
    for start in range(0, _RESIDUAL_PAIRS, 512):
        i, j = ii[start : start + 512], jj[start : start + 512]
        exact = np.asarray(symbol.evaluate(xi[i], xi[j])) * (mask[i] * mask[j])
        residual = np.abs(exact - np.einsum("ri,ri->i", U[:, i], V[:, j]))
        k = int(np.argmax(residual))
        if residual[k] > worst:
            worst, at = float(residual[k]), int(i[k])
    for i in rng.integers(0, P, size=_RESIDUAL_LINES):
        residual = float(np.max(np.abs(line(i, 0) - U[:, i] @ V)))
        if residual > worst:
            worst, at = residual, int(i)
    for j in rng.integers(0, P, size=_RESIDUAL_LINES):
        residual = np.abs(line(j, 1) - V[:, j] @ U)
        k = int(np.argmax(residual))
        if residual[k] > worst:
            worst, at = float(residual[k]), k
    return worst, at


def apply_low_rank(
    op: MultilinearOperator, factors: LowRankFactors, sets: Sequence[Sequence[SampledFunction]]
) -> list[tuple[SampledFunction, float]]:
    """Apply a two-slot operator, given its symbol's ``low_rank_factors``,
    to each input set (f_1, f_2), as sum_r (T_{u_r} f_1)(T_{v_r} f_2).

    Each input is transformed once, in FFT order (``_fft_forward``).  For
    each term the weighted spectra are inverse-transformed into two reused
    buffers, and their product is added into one accumulator, which is
    shifted to centred order at the end.  The unscaled transforms need no
    weight: dx^n of the forward transform cancels 1/dx^n of each inverse,
    and the free integral's dxi^n is the inverse's 1/S.  The cost is 2r + 2
    transforms of length S per set.  The sets run one after another through
    the same steps, so each output is bit for bit that of the set alone.

    Per set it returns the output and a bound on its sup-norm distance from
    the exhaustive sum over the same lattice: eps dxi^(2n) |f^_1|_1 |f^_2|_1,
    the l1 norms over the masked box."""
    _check_sets(op, sets)
    grid = op.grid
    if op.m != 2 or len(factors.mask) != _box(grid, op.cutoff)[1] ** grid.n:
        raise ValueError("the factors are not a split of this two-slot operator's box")
    S = grid.size
    index = factors.index
    # Both slots' weighted spectra, zero off the box, and their inverse
    # transforms, in one call per term.
    spectra = np.zeros((2, S), dtype=np.complex128)
    waves = np.empty((2,) + grid.shape, dtype=np.complex128)
    axes = tuple(range(1, grid.n + 1))
    results = []
    for fs in sets:
        coeffs = [_fft_forward(f.values).ravel()[index] for f in fs]
        total = np.zeros(grid.shape, dtype=np.complex128)
        for u, v in zip(factors.u, factors.v):
            spectra[0, index] = coeffs[0] * u
            spectra[1, index] = coeffs[1] * v
            if grid.n == 1:  # ifftn's axis handling costs as much as a length-4096 transform
                np.fft.ifft(spectra, out=waves)
            else:
                np.fft.ifftn(spectra.reshape(waves.shape), axes=axes, out=waves)
            waves[0] *= waves[1]
            total += waves[0]
        bound = factors.eps
        for c in coeffs:
            bound *= float(np.abs(c) @ factors.mask) / S
        results.append((SampledFunction(grid, _frozen(_half_shift(total))), bound))
    return results


@lru_cache(maxsize=1)
def _group_splits(
    op: MultilinearOperator,
) -> dict[Symbol, LowRankFactors | TensorTrainFactors | None]:
    """The splits ``_group_split`` has found for the groups of ``op``, by
    group symbol.  Keyed on the operator, so every group of one operator
    keeps its answer for as long as that operator is the one applied."""
    return {}


def _group_split(
    op: MultilinearOperator, symbol: Symbol
) -> LowRankFactors | TensorTrainFactors | None:
    """The split of the operator's group with this symbol where the cost
    rule picks one, else None: a two-slot group's ``low_rank_factors`` when
    its rank stays under ``_rank_cap``, a three-slot group's
    ``tensor_train_factors`` when its ranks stay under ``_train_cost_cap``.
    The group's cost budget is checked first.  Computed when the group is
    first applied, and kept in ``_group_splits``."""
    splits = _group_splits(op)
    if symbol not in splits:
        group = replace(op, symbol=symbol)
        _check_budget(group)
        grid, cutoff = op.grid, op.cutoff
        if group.m == 2:
            splits[symbol] = low_rank_factors(symbol, grid, cutoff, _rank_cap(grid, cutoff))
        elif group.m == 3:
            splits[symbol] = tensor_train_factors(symbol, grid, cutoff, _train_cost_cap(grid, cutoff))
        else:
            splits[symbol] = None
    return splits[symbol]


def _apply_group(
    op: MultilinearOperator,
    sets: Sequence[Sequence[SampledFunction]],
    split: LowRankFactors | TensorTrainFactors | None,
) -> list[tuple[SampledFunction, float]]:
    """A group of two or more slots, as the operator ``op``, applied to each
    set, with a bound on each output's error: on the low-rank engine or the
    tensor train when ``split`` is one (``_group_split``), and otherwise in
    ``apply_general`` passes of ``sets_per_pass`` sets, exact up to rounding
    (bound 0).  The split depends on (symbol, grid, cutoff) alone, never on
    the sets."""
    if isinstance(split, LowRankFactors):
        return apply_low_rank(op, split, sets)
    if isinstance(split, TensorTrainFactors):
        return apply_tensor_train(op, split, sets)
    step = sets_per_pass(op)
    return [
        (out, 0.0)
        for start in range(0, len(sets), step)
        for out, _ in apply_general(op, sets[start : start + step])
    ]


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


@lru_cache(maxsize=8)
def _one_slot_weights(op: MultilinearOperator) -> Mapping[Symbol, np.ndarray]:
    """Per distinct one-slot symbol of the operator's terms, its weights
    sym(k * dxi) * ``_slot_mask`` on the lattice (read-only).  Keyed on the
    operator, so each weight array is computed once however many terms
    share it."""
    freqs = op.grid.frequencies()
    mask = _slot_mask(freqs, op.cutoff)
    weights = {}
    for part in op.symbol.partitions:
        for grp, sym in zip(part.groups, part.symbols):
            if len(grp) == 1 and sym not in weights:
                weights[sym] = np.asarray(sym.evaluate(freqs)) * mask
                weights[sym].setflags(write=False)
    return MappingProxyType(weights)


def apply_linear(weights: np.ndarray, spec: Spectrum) -> SampledFunction:
    """A 1-linear multiplier, given by its weights on the lattice, applied to
    an input given by its spectrum."""
    return idft(Spectrum(spec.grid, spec.coefficients * weights))


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


def operator_factors(
    op: MultilinearOperator, sets: Sequence[Sequence[SampledFunction]]
) -> list[Factors]:
    """Per input set, per term of ``Symbol.partitions``, the output of each
    group: T_j^rho f_j for a one-slot group (one forward transform per
    input, shared by every term), T_{I_g} on its own inputs for a larger
    one, which for a general symbol is the whole operator.  Every group
    inherits the operator's cutoff and budget.  A group that several terms
    name with the same symbol is applied once, and its output stands in
    every one of them.  Each group of two or more slots runs on all the
    sets at once (``_apply_group``): on its split (the low-rank engine or
    the tensor train) when the cost rule picks one, else in
    ``apply_general`` passes of ``sets_per_pass`` sets, whose symbol is
    evaluated once for all of them.  Either way each set's factors are bit
    for bit those of the set alone; one-slot groups run set by set."""
    _check_sets(op, sets)
    terms = op.symbol.partitions
    groups = dict.fromkeys(
        (grp, sym) for part in terms for grp, sym in zip(part.groups, part.symbols)
    )
    weights = _one_slot_weights(op)
    singles = sorted({grp[0] for grp, _ in groups if len(grp) == 1})
    applied: list[dict[tuple[tuple[int, ...], Symbol], tuple[SampledFunction, float]]] = [
        {} for _ in sets
    ]
    # Every split before any pass: a split's crosses are freed in whole
    # pages, while an exhaustive pass leaves the heap larger.
    splits = {sym: _group_split(op, sym) for grp, sym in groups if len(grp) > 1 and sets}
    for grp, sym in groups:
        if sym in splits:
            batch = [[fs[l] for l in grp] for fs in sets]
            outs = _apply_group(replace(op, symbol=sym), batch, splits[sym])
            for done, out in zip(applied, outs):
                done[grp, sym] = out
    for fs, done in zip(sets, applied):
        spectra = {l: dft(fs[l]) for l in singles}
        for grp, sym in groups:
            if len(grp) == 1:
                done[grp, sym] = apply_linear(weights[sym], spectra[grp[0]]), 0.0
    results = []
    for done in applied:
        outs = [[done[grp, sym] for grp, sym in zip(part.groups, part.symbols)] for part in terms]
        bound = 0.0
        for term in outs:
            if any(b for _, b in term):
                sups = [f.max_abs() for f, _ in term]
                bound += math.prod(s + b for s, (_, b) in zip(sups, term)) - math.prod(sups)
        results.append(Factors((tuple(f for f, _ in term) for term in outs), bound))
    return results


def sum_of_products(factors: Factors) -> SampledFunction:
    """Sum over terms of the pointwise product of each term's factors."""
    grid = factors[0][0].grid
    total = np.zeros(grid.shape, dtype=np.complex128)
    for term in factors:
        prod = None
        for f in term:
            prod = f.values if prod is None else prod * f.values
        total = total + prod
    return SampledFunction(grid, total)


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


# The tensor train lives in a module of its own and uses this one's cross
# machinery, so it is imported last.  Kept apart because Python compiles a
# module from source whenever no bytecode is cached, and the compiler's peak
# memory grows with the module: compiling this module peaked at 3.8 MB with
# the train inside and at 2.6 MB without, and with the train inside the peak
# RSS of the product workload, which runs no split, was 0.3-0.4 MB above its
# parent's, against 0.03-0.2 MB apart (perfbench, 2 cores, Python 3.11,
# PYTHONDONTWRITEBYTECODE=1).
from .train import (  # noqa: E402
    TensorTrainFactors,
    _train_cost_cap,
    apply_tensor_train,
    tensor_train_factors,
)
