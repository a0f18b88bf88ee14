"""The split engine for groups of two or more slots (see ``operators``).

``tensor_train_factors`` splits an m-slot symbol on the masked lattice of the
cutoff's box in tensor-train form (Oseledets and Tyrtyshnikov, Linear
Algebra Appl. 432, 2010),

    sigma(xi_1, ..., xi_m) ~ sum_{a_1, ..., a_{m-1}} G_1[0, a_1](xi_1)
        G_2[a_1, a_2](xi_2) ... G_m[a_{m-1}, 0](xi_m),

one core G_k of shape (r_{k-1}, r_k, P) per slot, r_0 = r_m = 1, with
crosses that read only fibres of the symbol (``_cross``, by recursion on the
order).  A low-rank matrix is the train of order 2: sigma(xi_1, xi_2) ~
sum_r u_r(xi_1) v_r(xi_2), from adaptive cross approximation.
``apply_tensor_train`` applies it with sum_k r_{k-1} r_k + m transforms of
length S = M^n per input set.  The cost rule (``_cost_cap``) takes it while
sum_k r_{k-1} r_k log2(S) < W^(n(m-1)).

The engine is a module of its own because Python compiles a module from
source whenever no bytecode is cached, and the compiler's peak memory grows
with the module: with the three-slot train inside ``operators``, the peak
RSS of the product workload, which runs no split, was 0.3-0.4 MB above its
parent's (perfbench, 2 cores, Python 3.11, PYTHONDONTWRITEBYTECODE=1).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .grid import (
    _MAX_CHUNK_ELEMENTS, Grid, SampledFunction, _box, _box_lattice, _fft_forward, _fft_inverse, _frozen,
    _half_shift,
)
from .symbols import Symbol

if TYPE_CHECKING:
    from .operators import MultilinearOperator

# ACA stops when its latest term is this small against the approximation:
# |u_k| |v_k| <= _ACA_TOL * |S_k|_F, with |S_k|_F the running Frobenius norm
# of the sum of the terms so far.
_ACA_TOL = 3e-15

# The reported residual eps is _RESIDUAL_SAFETY times the largest residual
# |sigma - split| seen on _RESIDUAL_PAIRS seeded lattice entries (each drawn
# pair of end indices read with every middle index) and on _RESIDUAL_LINES
# whole fibres along each end mode, drawn from a fixed seed (``_residual``).
_RESIDUAL_SAFETY = 10.0
_RESIDUAL_PAIRS = 2**14
_RESIDUAL_LINES = 4
_RESIDUAL_SEED = 2000

Entries = Callable[..., np.ndarray]  # a tensor's entries at broadcast index arrays


@dataclass(frozen=True, eq=False)
class TensorTrainFactors:
    """An m-slot symbol on the masked lattice of the cutoff's box, split as
    a tensor train.

    The P = W^n box points are in FFT order (``_box_lattice``): ``index``
    places them in the flat FFT-order lattice (a whole slice when the box is
    the lattice), and ``mask`` is ``_slot_mask`` on them.  Slot k's core G_k
    (r_{k-1}, r_k, P), r_0 = r_m = 1, is ``cores[k]`` @ ``bases[k]``: a
    middle core whose values span q_k < P dimensions over xi_k is kept as
    (r_{k-1}, r_k, q_k) coefficients in an orthonormal basis (q_k, P) of
    that span, which is what a run holds (27 x 27 x 27 values against
    27 x 27 x 129 for sigma4's trilinear group at M=256); any other core is
    kept whole, with basis None.  At m = 2, u = cores[0][0] and v =
    cores[1][:, 0].  The arrays are read-only, in the symbol's own dtype and
    zero where the mask is.  ``eps`` bounds |sigma - split| on the box:
    _RESIDUAL_SAFETY times the largest sampled residual.
    """

    index: np.ndarray | slice
    mask: np.ndarray
    cores: tuple[np.ndarray, ...]
    bases: tuple[np.ndarray | None, ...]
    eps: float

    @property
    def ranks(self) -> tuple[int, ...]:
        """The bond ranks r_1, ..., r_{m-1}."""
        return tuple(len(core) for core in self.cores[1:])

    def core(self, k: int, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of slot k's core G_k, over the P box points."""
        basis = self.bases[k]
        return self.cores[k][rows] if basis is None else self.cores[k][rows] @ basis


def _cost_cap(grid: Grid, cutoff: float | None, m: int) -> float:
    """The cost rule: the train is taken while sum_k r_{k-1} r_k log2(S) <
    W^(n(m-1)), its transforms of length S against the exhaustive engine's
    W^(n(m-1)) symbol products per output frequency.  Returns W^(n(m-1)) /
    log2(S), the bound on sum_k r_{k-1} r_k: 2r at m = 2, r1 + r1 r2 + r2 at
    m = 3."""
    _, W = _box(grid, cutoff)
    return W ** (grid.n * (m - 1)) / math.log2(grid.size) if grid.size > 1 else math.inf


def _bond_cap(ranks: Sequence[int], b: int, max_cost: float) -> float:
    """The rank at which bond b takes the cost sum_k r_{k-1} r_k to
    ``max_cost``, the other bonds at ``ranks`` (r_0, ..., r_m; a lower bound
    where a bond is not crossed yet)."""
    rest = sum(ranks[k - 1] * ranks[k] for k in range(1, len(ranks)) if k not in (b, b + 1))
    return (max_cost - rest) / (ranks[b - 1] + ranks[b + 1])


def tensor_train_factors(
    symbol: Symbol, grid: Grid, cutoff: float | None, max_cost: float
) -> TensorTrainFactors | None:
    """A cross of the masked tensor A[i_1, ..., i_m] = sigma(xi_{i_1}, ...,
    xi_{i_m}) over the box points in tensor-train form, reading fibres only,
    or None once its cost sum_k r_{k-1} r_k reaches ``max_cost`` (the cost
    rule passes ``_cost_cap``).  The cost is read on each cross's ranks
    before recompression, which are at least the final ones, and on lower
    bounds for the bonds not crossed yet (``_cross``).  Every step is fixed
    by (symbol, grid, cutoff), so the factors and every bit the engine
    computes from them are too."""
    m = symbol.m
    floor = [1] + [2] * (m - 1) + [1]
    if _bond_cap(floor, 1, max_cost) <= 2:  # the crosses' exact terms alone reach it
        return None
    index, xi, mask = _box_lattice(grid, cutoff)
    P = len(xi)
    masked = bool(np.any(mask != 1.0))

    def entries(*idx) -> np.ndarray:
        """A at the broadcast indices idx: ints, index arrays, or slice(None)
        for a whole mode.  The symbol reads the gathered frequencies
        unbroadcast (``Symbol``), an int as a one-point axis: on a numpy
        scalar, power is libm's and can differ from the array loop's in the
        last bit.  The mask product is skipped where it is the identity, an
        all-ones mask (every n = 1 box) on float64 values; on complex
        values x * 1.0 can flip the sign of a zero part."""
        values = np.asarray(
            symbol.evaluate(*(xi[x : x + 1] if isinstance(x, (int, np.integer)) else xi[x] for x in idx))
        )
        if masked or values.dtype != mask.dtype:
            values = values * math.prod(mask[x] for x in idx)
        return values

    split = _cross(entries, (P,) * m, max_cost, floor, (0,) * m, True)
    if split is None:
        return None
    cores, frob, _, worst = split
    # A middle core lies in the memory map of the cross that made it, with
    # that cross's other terms: it is copied out, in a basis of its span
    # where that is smaller (``_slab_basis``), and the map is freed.
    bases: list[np.ndarray | None] = [None] * m
    for k in range(1, m - 1):
        basis = _slab_basis(cores[k], _ACA_TOL * frob)
        full = basis.shape[1] == P
        cores = cores[:k] + (cores[k].copy() if full else cores[k] @ basis.conj(),) + cores[k + 1 :]
        bases[k] = None if full else basis.T.copy()
    # Read-only, since the cache hands the same factors to every caller.
    for arr in (mask, *cores, *(b for b in bases if b is not None)):
        arr.setflags(write=False)
    return TensorTrainFactors(index, mask, cores, tuple(bases), _RESIDUAL_SAFETY * worst)


def _cross(
    entries: Entries,
    shape: tuple[int, ...],
    max_cost: float,
    ranks: list[int],
    at: tuple[int, ...],
    whole: bool,
) -> tuple[tuple[np.ndarray, ...], float, list[tuple[int, ...]], float] | None:
    """A train of the order-k tensor ``entries`` (k = len(shape)), crossing
    bonds 1..k-1 of ``ranks`` under the cost rule, from the index ``at``.
    Returns the cores, the train's Frobenius norm, the pivot rows of its
    last bond (index tuples of its first k-1 modes) and the largest sampled
    residual, or None once the cost reaches ``max_cost``.  ``whole`` says
    that an order-2 tensor is the symbol's, whose residual the split reports
    (``_residual``); a matrix inside a larger cross keeps ACA's terms as
    they come and tests fewer lines (``_matrix_cross``).

    At k = 2 it is the matrix cross (``_matrix_cross``): the row and the
    column through xi = 0 exact, then ACA from the row of ``at`` (at least
    row 1).  At k > 2 a set of held left index tuples (i_1, ..., i_{k-2})
    starts as the origin's, the largest sampled entry's and the pivot rows
    of a cross of the slices through the origin and through that entry,
    [A(..., J0), delta] with J0 their last indices (``_slabs``); its ranks
    are lower bounds for bonds 1..k-2, which the cost rule reads until those
    bonds are crossed.  Then a matrix cross of the unfolding ((i_1, ...,
    i_{k-1}), i_k) on the held rows (``_right_bond``) gives the pivot
    columns J and A(..., :) ~ [A(..., J), delta] w v, and the train of the
    order-(k-1) tensor [A(..., J), delta] (``_slabs``), its last core times
    w and recompressed, is the rest.  The held set grows by the worst
    sampled entry's and that train's pivot rows until the sampled residual
    is below _ACA_TOL |A|_F, or nothing new comes."""
    k = len(shape)
    if k == 2:
        sample = (lambda U, V: _residual(entries, shape, (U[None], V[:, None]))) if whole else None
        cap = _bond_cap(ranks, 1, max_cost)
        bond = _matrix_cross(entries, shape, cap, max(at[0], 1), sample)
        if bond is None:
            return None
        U, V, frob, pivots, worst = bond
        return (U[None], V[:, None]), frob, [(i,) for i, _ in pivots], worst
    worst, at = _residual(entries, shape, None)
    J = np.array(list(dict.fromkeys([0, at[-1]])))
    N = shape[-2]
    seed_shape = shape[:-2] + ((len(J) + 1) * N,)
    seed = _cross(_slabs(entries, shape, J), seed_shape, math.inf, [1] * k, at[:-1], False)
    for b, core in enumerate(seed[0][1:], 1):
        ranks[b] = max(ranks[b], len(core))
    held = list(dict.fromkeys([(0,) * (k - 2), at[: k - 2]] + seed[2]))
    while True:
        start = held.index(at[: k - 2]) * N + at[k - 2]
        right = _right_bond(entries, shape, held, _bond_cap(ranks, k - 1, max_cost), start)
        if right is None:
            return None
        J, w, v, pivots = right
        sub_ranks = ranks[: k - 1] + [len(w)] + ranks[k:]
        sub_shape = shape[:-2] + (len(w) * N,)
        sub = _cross(_slabs(entries, shape, J), sub_shape, max_cost, sub_ranks, at[:-1], False)
        if sub is None:
            return None
        cores, frob = _absorb(sub[0], w, v)
        worst, at = _residual(entries, shape, cores)
        grown = [x for x in dict.fromkeys([at[: k - 2]] + sub[2]) if x not in held]
        if worst <= _ACA_TOL * frob or not grown:
            return cores, frob, pivots, worst
        held += grown
        del cores, sub  # the next pass's crosses need their memory maps


def _absorb(
    cores: tuple[np.ndarray, ...], w: np.ndarray, v: np.ndarray
) -> tuple[tuple[np.ndarray, ...], float]:
    """The train of ``_cross`` from the train of [A(..., J), delta] and the
    right bond's w and v: the last core times w, written over itself slab
    by slab (row a's slabs end before row a + 1's start), each bond then
    recompressed right to left, since w can take a direction of a bond
    away, and v as the last core.  Returns the cores and the train's
    Frobenius norm, the last bond's recompression's (v has orthonormal
    rows)."""
    s, q = w.shape
    r, N = len(cores[-1]), cores[-1].shape[-1] // s
    last = cores[-1].reshape(-1)
    for a in range(r):
        last[a * q * N : (a + 1) * q * N] = (w.T @ cores[-1][a, 0].reshape(s, N)).ravel()
    cores = [*cores[:-1], last[: r * q * N].reshape(r, q, N)]
    norms = []
    for b in range(len(cores) - 1, 0, -1):
        before, after = cores[b - 1], cores[b]
        rows = before.transpose(1, 0, 2).reshape(len(after), -1)  # copies unless r = 1
        terms = after.reshape(len(after), -1)  # copies unless contiguous
        rank, norm = _recompress(rows, terms)
        norms.append(norm)
        cores[b - 1] = rows[:rank].reshape(rank, len(before), -1).transpose(1, 0, 2)
        cores[b] = terms[:rank].reshape(rank, *after.shape[1:])
    return (*cores, v[:, None]), norms[0]


def _right_bond(
    entries: Entries, shape: tuple[int, ...], held: list[tuple[int, ...]], cap: float, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, ...]]] | None:
    """The right bond of ``_cross``: a ``_matrix_cross`` of the unfolding
    ((i_1, ..., i_{k-1}), i_k) on the rows whose first k-2 indices are
    ``held``, from row ``start``, kept unrecompressed until its pivots are
    read.  Returns its pivot columns J, the rows w and an orthonormal basis
    v of the recompressed rows, with A(h, j, :) ~ [A(h, j, J), delta(h, j)]
    w v on every row, and its pivot rows; or None once its rank reaches
    ``cap``."""
    N = shape[-2]
    columns = (*(ax[:, None] for ax in np.array(held).T), np.arange(N)[None, :])

    def unfolding(x, y) -> np.ndarray:
        """Row x = (h, j) (slice(None): every row)."""
        if isinstance(x, slice):
            return entries(*columns, y).ravel()
        h, j = divmod(int(x), N)
        return entries(*held[h], j, y)

    bond = _matrix_cross(unfolding, (len(held) * N, shape[-1]), cap, start, None)
    if bond is None:
        return None
    U, V, _, pivots, _ = bond
    r = len(V)
    J = np.array([0] + [j for _, j in pivots])
    # The cross's columns are [delta, A(..., J)] T: T[:, 0] = e_0, and column
    # t >= 1 is A(..., J[t-1]) less the earlier columns times the earlier
    # rows' entries at J[t-1].  So A ~ [delta, A(..., J)] T V.
    T = np.zeros((r, r), dtype=V.dtype)
    T[0, 0] = 1.0
    for t in range(1, r):
        T[t, t] = 1.0
        T[:, t] -= T[:, :t] @ V[:t, J[t - 1]]
    w = (T @ V)[list(range(1, r)) + [0]]
    rank, _ = _recompress(U, V)
    basis = V[:rank].copy()
    _orthonormalize(basis)
    rows = [held[x // N] + (x % N,) for x, _ in pivots]
    return J, w @ basis.conj().T, basis, rows


def _slabs(entries: Entries, shape: tuple[int, ...], J: np.ndarray) -> Entries:
    """The tensor [A(..., J), delta] of one order less, whose last index c =
    t N + j reads A(..., j, J[t]) for t < len(J) and, for t = len(J), delta:
    1 at the origin, else 0.  Its crosses read it by lines, a row with
    slice(None) for every c and a column with one int c, which reads one
    slab's column as ``entries`` gives it.  ``shape`` is A's."""
    N = shape[-2]
    row, pivots = np.arange(N)[None, :], J[:, None]

    def sub(*idx) -> np.ndarray:
        *lead, c = idx
        if isinstance(c, slice):
            slabs = entries(*lead, row, pivots)
            out = np.zeros((len(J) + 1) * N, dtype=slabs.dtype)
            out[: slabs.size] = slabs.ravel()
            out[slabs.size] = all(x == 0 for x in lead)
            return out
        if isinstance(c, (int, np.integer)) and c < len(J) * N:  # a column of one slab
            t, j = divmod(int(c), N)
            return entries(*lead, j, J[t])
        lead = [np.arange(n) if isinstance(x, slice) else x for x, n in zip(lead, shape)]
        *lead, c = np.broadcast_arrays(*lead, c)
        t, j = np.divmod(c, N)
        on = t < len(J)
        values = entries(*(x[on] for x in lead), j[on], J[t[on]])
        out = np.zeros(c.shape, dtype=np.result_type(values, np.float64))
        out[on] = values
        out[(t == len(J)) & (j == 0) & np.logical_and.reduce([x == 0 for x in lead])] = 1.0
        return out

    return sub


def _matrix_cross(
    entries: Entries,
    shape: tuple[int, int],
    cap: float,
    start: int,
    sample: Callable[[np.ndarray, np.ndarray], tuple[float, tuple[int, ...]]] | None,
) -> tuple[np.ndarray, np.ndarray, float, list[tuple[int, int]], float] | None:
    """A cross of the (rows, columns) matrix ``entries``, whose row 0 and
    column 0 pass through xi = 0: those two exactly (``_cross_start``), then
    ACA (``_aca``) from row ``start``.  When ACA stops on a small term, the
    split is tested, and while the worst entry found is above _ACA_TOL
    |S|_F, ACA goes on from its row:

    * with ``sample``, the symbol's own split: it is recompressed
      (``_recompress``) and its residual sampled (``sample``);
    * without, a cross inside a larger one, whose terms its caller reads as
      ACA made them: _RESIDUAL_LINES seeded unused rows are read.

    Returns the terms (U, V) in memory maps (``_term_rows``), their
    Frobenius norm, ACA's (row, column) pivots and the largest sampled
    residual; or None once the rank reaches ``cap``."""
    if cap <= 2:
        return None

    def line(x: int, slot: int) -> np.ndarray:
        """Row x (slot 0) or column x (slot 1)."""
        return entries(x, slice(None)) if slot == 0 else entries(slice(None), x)

    limit = min(cap, min(shape) + 2)
    U, u_buf, V, v_buf, frob2 = _cross_start(line, shape, int(limit) + 1)
    used = np.zeros(shape[0], dtype=bool)
    used[0] = True
    pivots: list[tuple[int, int]] = []
    rng = np.random.default_rng(_RESIDUAL_SEED)
    r, i = 2, start
    while True:
        r, frob2 = _aca(line, U, V, r, frob2, used, i, limit, pivots)
        if r >= cap:
            return None
        if sample is not None:
            r, frob = _recompress(U[:r], V[:r])
            frob2 = frob * frob
            for terms, buf in ((U, u_buf), (V, v_buf)):
                _release_rows(buf, terms, r)
            worst, (i, *_) = sample(U[:r], V[:r])
        elif r >= limit or used.all():
            return U[:r], V[:r], math.sqrt(max(frob2, 0.0)), pivots, 0.0
        else:
            frob, worst = math.sqrt(max(frob2, 0.0)), 0.0
            free = np.flatnonzero(~used)
            for x in rng.choice(free, size=min(_RESIDUAL_LINES, len(free)), replace=False):
                residual = float(np.max(np.abs(line(int(x), 0) - U[:r, x] @ V[:r])))
                if residual > worst:
                    worst, i = residual, int(x)
        # No entry of a residual whose Frobenius norm is _ACA_TOL |S|_F is
        # larger than that: a larger one shows that ACA stopped on a small
        # term while the residual is large elsewhere.
        if worst <= _ACA_TOL * frob or used.all():
            return U[:r], V[:r], frob, pivots, worst
        if used[i]:
            i = int(np.argmin(used))


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
    ``_safe_div`` makes sigma(0, 0) = 0 next to sigma(0, b) = 1, a jump that
    ACA alone does not resolve.  Returns the term buffers (``_term_rows``,
    ``capacity`` rows each) and the squared Frobenius norm of the two
    terms."""
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
    pivots: list[tuple[int, int]],
) -> tuple[int, float]:
    """ACA with partial pivoting (Bebendorf, Numer. Math. 86, 2000) on the
    remainder of the r terms in U and V, from row i: each next row the
    largest entry of the last column among rows not yet used (the first on
    ties), a row whose residual is exactly zero passed over for the first
    unused row, until |u_k| |v_k| <= _ACA_TOL |S_k|_F, the rank reaches
    ``max_rank`` or every row is used.  Marks the rows it reads in ``used``,
    appends each term's (row, column) pivot to ``pivots``, and returns the
    new r and |S|_F^2."""
    while r < max_rank and i < len(used) and not used[i]:
        row = line(i, 0) - U[:r, i] @ V[:r]
        used[i] = True
        j = int(np.abs(row).argmax())
        if row[j] == 0:
            i = int(used.argmin()) if not used.all() else len(used)
            continue
        u, v = U[r], V[r]
        np.divide(row, row[j], out=v)
        np.subtract(line(j, 1), V[:r, j] @ U[:r], out=u)
        frob2 += 2.0 * float(((U[:r] @ u.conj()) * (V[:r] @ v.conj())).sum().real)
        size = float(np.linalg.norm(u) * np.linalg.norm(v))
        frob2 += size * size
        r += 1
        pivots.append((i, j))
        if size <= _ACA_TOL * math.sqrt(max(frob2, 0.0)):
            break
        i = int(np.where(used, -1.0, np.abs(u)).argmax())
    return r, frob2


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the rows in place, each projection done twice, so
    they end orthonormal (or zero, where a row depends on those before it).
    Returns the upper-triangular R with row_k = sum_l R[l, k] q_l."""
    r = len(rows)
    R = np.zeros((r, r), dtype=rows.dtype)
    for k in range(r):
        row, before = rows[k], rows[:k]
        for _ in range(2):
            c = (before @ row.conj()).conj()
            row -= c @ before
            R[:k, k] += c
        norm = np.linalg.norm(row)
        R[k, k] = norm
        if norm > 0:
            row /= norm
    return R


def _column_basis(K: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns Q with |K - Q Q^H K|_F <= tol |K|_F: Gram-Schmidt
    with column pivoting, each step taking the column of K least explained
    so far, until what is left of K is that small."""
    rest = K.copy()
    limit = tol * float(np.linalg.norm(K))
    basis = np.zeros((len(K), 0), dtype=K.dtype)
    while True:
        norms2 = (np.abs(rest) ** 2).sum(axis=0)
        if math.sqrt(float(norms2.sum())) <= limit or basis.shape[1] == min(K.shape):
            return basis
        q = rest[:, int(norms2.argmax())].copy()
        for _ in range(2):
            q -= basis @ (basis.conj().T @ q)
        q /= np.linalg.norm(q)
        basis = np.column_stack([basis, q])
        rest -= q[:, None] * (q.conj() @ rest)


def _slab_basis(slabs: np.ndarray, limit: float) -> np.ndarray:
    """Orthonormal columns Q (P, q <= P) with |X - X conj(Q) Q^T|_F <=
    ``limit`` over the rows X of all the slabs (..., P), built one slab at a
    time: what of a slab's rows lies outside the basis so far gets a pivoted
    basis of its own (``_column_basis``) down to limit / sqrt(slabs), each
    new column projected off the basis once more, so no temporary is larger
    than one slab."""
    P = slabs.shape[-1]
    slabs = slabs.reshape(-1, slabs.shape[-2], P)
    basis = np.zeros((P, 0), dtype=slabs.dtype)
    share = limit / math.sqrt(max(len(slabs), 1))
    for slab in slabs:
        rest = slab.T.copy()
        for _ in range(2):
            rest -= basis @ (basis.conj().T @ rest)
        size = float(np.linalg.norm(rest))
        if size <= share:
            continue
        for q in _column_basis(rest, share / size).T:
            if basis.shape[1] == P:  # the basis spans the lattice: exact
                return basis
            for _ in range(2):
                q = q - basis @ (basis.conj().T @ q)
            basis = np.column_stack([basis, q / np.linalg.norm(q)])
    return basis


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


def _residual(
    entries: Entries, shape: tuple[int, ...], cores: tuple[np.ndarray, ...] | None
) -> tuple[float, tuple[int, ...]]:
    """The largest |A - train| over the tensor ``entries`` of ``shape``,
    with the index where it lies; with no train, the largest sampled |A|.
    From a generator seeded with _RESIDUAL_SEED it draws _RESIDUAL_PAIRS //
    (N_2 ... N_{m-1}) pairs (i_1, i_m), each read with every middle index
    (at m = 2, _RESIDUAL_PAIRS entries), 512 pairs at a time, and then
    _RESIDUAL_LINES fibres along the last mode and as many along the
    first."""
    rng = np.random.default_rng(_RESIDUAL_SEED)
    middle = shape[1:-1]
    count = _RESIDUAL_PAIRS // math.prod(middle)
    ends = np.stack([rng.integers(0, shape[0], size=count), rng.integers(0, shape[-1], size=count)])
    axes = [
        np.arange(N).reshape((1,) * (t + 1) + (N,) + (1,) * (len(middle) - 1 - t))
        for t, N in enumerate(middle)
    ]
    worst, at = 0.0, (0,) * len(shape)
    for start in range(0, count, 512):
        i, k = ends[:, start : start + 512].reshape(2, -1, *(1,) * len(middle))
        residual = np.abs(entries(i, *axes, k) - _train_slabs(cores, i.ravel(), k.ravel()))
        f = np.unravel_index(int(np.argmax(residual)), residual.shape)
        if residual[f] > worst:
            worst, at = float(residual[f]), (int(i.flat[f[0]]), *map(int, f[1:]), int(k.flat[f[0]]))
    for mode in (len(shape) - 1, 0):
        others = [N for k, N in enumerate(shape) if k != mode]
        for fixed in rng.integers(0, others, size=(_RESIDUAL_LINES, len(others))):
            point = list(fixed)
            point.insert(mode, slice(None))
            residual = np.abs(entries(*point) - _train_fibre(cores, fixed, mode))
            f = int(np.argmax(residual))
            if residual[f] > worst:
                point[mode] = f
                worst, at = float(residual[f]), tuple(int(x) for x in point)
    return worst, at


def _train_slabs(
    cores: tuple[np.ndarray, ...] | None, i: np.ndarray, k: np.ndarray
) -> np.ndarray | float:
    """The train at the index pairs (i[f], k[f]) of its end modes, with
    every middle index: an (F, N_2, ..., N_{m-1}) array, 0 with no cores.
    The pairs are contracted about 512 entries at a time, so no temporary
    holds more than about 512 r values."""
    if cores is None:
        return 0.0
    middle = tuple(core.shape[-1] for core in cores[1:-1])
    out = np.empty((len(i),) + middle, dtype=np.result_type(*cores))
    step = max(1, 512 // math.prod(middle))
    for start in range(0, len(i), step):
        block = slice(start, start + step)
        left = cores[0][0][:, i[block]]  # (r_1, F), then (r_j, N_2, ..., N_j, F)
        for core in cores[1:-1]:
            r, s, N = core.shape
            left = (core.reshape(r, -1).T @ left.reshape(r, -1)).reshape(s, N, *left.shape[1:])
            left = np.moveaxis(left, 1, -2)
        out[block] = np.einsum("b...f,bf->f...", left, cores[-1][:, 0][:, k[block]])
    return out


def _train_fibre(
    cores: tuple[np.ndarray, ...] | None, fixed: Sequence[int], mode: int
) -> np.ndarray | float:
    """The train along ``mode`` with the other indices at ``fixed``, 0 with
    no cores: the cores before it contracted from the left, those after it
    from the right."""
    if cores is None:
        return 0.0
    left = right = None
    for core, i in zip(cores[:mode], fixed[:mode]):
        left = core[0, :, i] if left is None else left @ core[:, :, i]
    for core, i in zip(cores[:mode:-1], fixed[mode:][::-1]):
        right = core[:, 0, i] if right is None else core[:, :, i] @ right
    core = cores[mode]
    X = core[0] if left is None else (left @ core.reshape(len(left), -1)).reshape(core.shape[1:])
    return X[0] if right is None else right @ X


def apply_tensor_train(
    op: MultilinearOperator,
    factors: TensorTrainFactors,
    sets: Sequence[Sequence[SampledFunction]],
) -> list[tuple[SampledFunction, float]]:
    """Apply an m-slot operator, given its symbol's ``tensor_train_factors``,
    to each input set (f_1, ..., f_m), as sum over the bonds of the products
    of one-slot transforms T_{G_k[a, b]} f_k.

    Each input is transformed once, in FFT order (``_fft_forward``).  The
    sweep goes left to right: the waves of slots 1..k, summed over their
    bonds, are held as r_k rows, one row per index of bond k (none before
    slot 1, r_0 = 1), and slot k + 1 adds to them one block of r_{k+1}
    transforms per row.  The last two slots stream over the last bond: per
    index b, the r_{m-2} waves of slot m-1 into b and the one wave of slot m
    from b are transformed, and the left waves' sum times the last wave is
    added into one accumulator, b by b.  Two indices b share one inverse
    call where their rows fit in _MAX_CHUNK_ELEMENTS: at m = 2 that is four
    transforms per call, two terms.  The products are formed on the P box
    points and transformed in place in one reused buffer, which holds what
    separate spectra and waves buffers of one index each did.  The grid's
    unscaled pair needs no weight: each free integral's (dx dxi)^n = 1/S is
    one inverse's 1/S.
    The cost is sum_k r_{k-1} r_k + m transforms of length S per set.  The
    sets run one after another through the same steps, so each output is
    bit for bit that of the set alone.  The caller checks the sets.

    Per set it returns the output and a bound on its sup-norm distance from
    the exhaustive sum over the same lattice: eps dxi^(mn) prod_k |f^_k|_1,
    the l1 norms over the masked box."""
    grid, cores, index = op.grid, factors.cores, factors.index
    if len(cores) != op.m or len(factors.mask) != _box(grid, op.cutoff)[1] ** grid.n:
        raise ValueError("the factors are not a split of this operator's box")
    S, P = grid.size, len(factors.mask)
    count = len(cores[-2])  # per index of the last bond: count waves of slot m-1, one of slot m
    group = max(1, min(2, _MAX_CHUNK_ELEMENTS // ((count + 1) * S)))  # last-bond indices per call
    width = max([group * (count + 1)] + [core.shape[1] for core in cores[:-2]])
    spectra = np.zeros((width, S), dtype=np.complex128)
    rows = spectra.reshape((width,) + grid.shape)  # the same spectra, one grid-shaped row each
    # The products are formed on the P box points; a box smaller than the
    # lattice reaches zeroed rows through one flat index per call.
    box = spectra if isinstance(index, slice) else np.empty((width, P), dtype=np.complex128)
    flat = None if box is spectra else (np.arange(width)[:, None] * S + index).ravel()

    def inverse(k: int) -> np.ndarray:
        """The inverse transforms of the first k rows of ``box``, in place."""
        if flat is not None:
            spectra[:k] = 0.0
            spectra.reshape(-1)[flat[: k * P]] = box[:k].reshape(-1)
        return _fft_inverse(rows[:k], grid.n)

    results = []
    for fs in sets:
        coeffs = [_fft_forward(f.values).ravel()[index] for f in fs]
        acc = None  # the left waves, one row per index of the bond reached
        for k, c in enumerate(coeffs[:-2]):
            new = np.zeros((cores[k].shape[1],) + grid.shape, dtype=np.complex128)
            for a in range(len(cores[k])):
                weights = factors.core(k, a)
                np.multiply(c, weights, out=box[: len(weights)])
                block = inverse(len(weights))
                new += block if acc is None else acc[a] * block
            acc = new
        total = np.zeros(grid.shape, dtype=np.complex128)
        bonds = range(len(cores[-1]))
        for start in range(0, len(bonds), group):
            step = bonds[start : start + group]  # the last-bond indices of one inverse call
            for t, b in enumerate(step):
                at = t * (count + 1)
                np.multiply(coeffs[-2], factors.core(op.m - 2, (slice(None), b)), out=box[at : at + count])
                np.multiply(coeffs[-1], factors.core(op.m - 1, (b, 0)), out=box[at + count])
            for block in inverse(len(step) * (count + 1)).reshape(len(step), count + 1, *grid.shape):
                waves = block[:count]  # spent after this, so the products overwrite them
                left = waves[0] if acc is None else np.multiply(acc, waves, out=waves).sum(axis=0)
                left *= block[count]
                total += left
        bound = factors.eps
        for c in coeffs:
            bound *= float(np.abs(c) @ factors.mask) / S
        results.append((SampledFunction(grid, _frozen(_half_shift(total))), bound))
    return results
