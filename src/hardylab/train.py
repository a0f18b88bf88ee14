"""The tensor-train engine for three-slot groups (see ``operators``).

``tensor_train_factors`` splits a three-slot symbol on the masked lattice of
the cutoff's box as sigma(xi_1, xi_2, xi_3) ~ sum_{a,b} u_a(xi_1) g_ab(xi_2)
v_b(xi_3), with two crosses that read only fibres of the symbol, and
``apply_tensor_train`` applies it with r1 + r1 r2 + r2 + 3 transforms of
length S per input set.  The crosses reuse the two-slot engine's ACA steps
(``operators._cross_start``, ``operators._aca``), recompression and term
buffers.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, SampledFunction, _fft_forward, _frozen, _half_shift
from .operators import (
    _ACA_TOL,
    _RESIDUAL_LINES,
    _RESIDUAL_PAIRS,
    _RESIDUAL_SAFETY,
    _RESIDUAL_SEED,
    MultilinearOperator,
    _aca,
    _box,
    _box_lattice,
    _check_sets,
    _column_basis,
    _cross_start,
    _orthonormalize,
    _recompress,
    _release_rows,
)
from .symbols import Symbol


@dataclass(frozen=True, eq=False)
class TensorTrainFactors:
    """A three-slot symbol on the masked lattice of the cutoff's box, split
    in tensor-train form as sigma(xi_i, xi_j, xi_k) ~ sum_{a,b} u[a][i]
    g_ab[j] v[b][k], with the core g_ab[j] = sum_c core[a][b][c] basis[c][j].

    ``index`` and ``mask`` are as in ``LowRankFactors``.  ``u`` (r1, P),
    ``core`` (r1, r2, q), ``basis`` (q, P) and ``v`` (r2, P) are read-only
    arrays in the symbol's own dtype, zero where the mask is; ``u``,
    ``basis`` and ``v`` have orthonormal rows.  The core is kept in its
    mode-2 basis because the run keeps it: 27 x 27 x 27 values, against 27
    x 27 x 129, for sigma4's trilinear group at M=256.  ``eps`` bounds
    |sigma - split| on the box: _RESIDUAL_SAFETY times the largest sampled
    residual.
    """

    index: np.ndarray | slice
    mask: np.ndarray
    u: np.ndarray
    core: np.ndarray
    basis: np.ndarray
    v: np.ndarray
    eps: float

    @property
    def ranks(self) -> tuple[int, int]:
        return len(self.u), len(self.v)


def _train_cost_cap(grid: Grid, cutoff: float | None) -> float:
    """The three-slot cost rule: the tensor train is taken while (r1 + r1 r2
    + r2) log2(S) < W^(2n), its r1 + r1 r2 + r2 transforms of length S
    against the exhaustive engine's W^(2n) symbol products per output
    frequency.  Returns W^(2n) / log2(S), the bound on r1 + r1 r2 + r2."""
    _, W = _box(grid, cutoff)
    return W ** (2 * grid.n) / math.log2(grid.size) if grid.size > 1 else math.inf


def _bond_cross(
    line: Callable[[int, int], np.ndarray], shape: tuple[int, int], max_rank: float, start: int
) -> tuple[np.ndarray, mmap.mmap, np.ndarray, mmap.mmap, int, list[tuple[int, int]]] | None:
    """A cross of the (rows, columns) matrix that ``line`` reads, whose row 0
    and column 0 pass through xi = 0: those two exactly (``_cross_start``),
    then ACA (``_aca``) from row ``start``.  When ACA stops on a small term,
    _RESIDUAL_LINES seeded unused rows are read, and it goes on from the
    worst of them while that one's residual is above _ACA_TOL |S|_F.
    Returns the term buffers, the rank and ACA's (row, column) pivots, or
    None once the rank reaches ``max_rank``."""
    if max_rank <= 2:
        return None
    limit = min(max_rank, min(shape) + 2)
    U, u_buf, V, v_buf, frob2 = _cross_start(line, shape, int(limit) + 1)
    used = np.zeros(shape[0], dtype=bool)
    used[0] = True
    pivots: list[tuple[int, int]] = []
    rng = np.random.default_rng(_RESIDUAL_SEED)
    r, i = 2, start
    while True:
        r, frob2 = _aca(line, U, V, r, frob2, used, i, limit, pivots)
        if r >= max_rank:
            return None
        if r >= limit or used.all():
            break
        free = np.flatnonzero(~used)
        worst = 0.0
        for x in rng.choice(free, size=min(_RESIDUAL_LINES, len(free)), replace=False):
            residual = float(np.max(np.abs(line(int(x), 0) - U[:r, x] @ V[:r])))
            if residual > worst:
                worst, i = residual, int(x)
        if worst <= _ACA_TOL * math.sqrt(max(frob2, 0.0)):
            break
    return U, u_buf, V, v_buf, r, pivots


def _right_cross(
    entries: Callable[..., np.ndarray], P: int, rows: list[int], max_cost: float, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The right cross of ``tensor_train_factors``: a ``_bond_cross`` of A
    on the rows (i, j), i in ``rows`` (rows[0] = 0), unfolded as ((i, j),
    k), from row ``start``, then recompressed (``_recompress``).  Returns
    its pivot columns J, the rows w and an orthonormal basis v of the
    recompressed rows, with A(i, j, :) ~ [A(i, j, J), delta(i, j)] w v on
    every row, or None once its rank r2 has 1 + 2 r2 >= ``max_cost``."""
    held = np.asarray(rows)
    every = np.arange(P)

    def line(x: int, slot: int) -> np.ndarray:
        """Row x = (a, j), A(rows[a], j, :), or column x, A(rows, :, x)."""
        if slot == 0:
            a, j = divmod(x, P)
            return entries(held[a], j, every)
        return entries(held[:, None], every[None, :], x).ravel()

    bond = _bond_cross(line, (len(rows) * P, P), (max_cost - 1) / 2, start)
    if bond is None:
        return None
    U, _, V, _, r2, pivots = bond
    J = np.array([0] + [j for _, j in pivots])
    # The cross's columns are [delta, A(:, :, J)] T: T[:, 0] = e_0, and
    # column t >= 1 is A(:, :, J[t-1]) less the earlier columns times the
    # earlier rows' entries at J[t-1].  So A ~ [delta, A(:, :, J)] T V.
    T = np.zeros((r2, r2), dtype=V.dtype)
    T[0, 0] = 1.0
    for t in range(1, r2):
        T[t, t] = 1.0
        T[:, t] -= T[:, :t] @ V[:t, J[t - 1]]
    w = (T @ V[:r2])[list(range(1, r2)) + [0]]
    rank, _ = _recompress(U[:r2], V[:r2])
    basis = V[:rank].copy()
    _orthonormalize(basis)
    return J, w @ basis.conj().T, basis


def tensor_train_factors(
    symbol: Symbol, grid: Grid, cutoff: float | None, max_cost: float
) -> TensorTrainFactors | None:
    """A cross of the masked tensor A[i, j, k] = sigma(xi_i, xi_j, xi_k) over
    the box points in tensor-train form (Oseledets and Tyrtyshnikov, Linear
    Algebra Appl. 432, 2010), reading fibres only, or None once r1 + r1 r2
    + r2 reaches ``max_cost`` (the cost rule passes ``_train_cost_cap``).

    Two crosses (``_bond_cross``) run one after the other, each with the
    row and the column through xi = 0 exact, so the three fibres through
    the origin are.  The right one (``_right_cross``) runs on the rows (i,
    j) with i in a set of mode-1 indices, reading mode-3 fibres as rows and
    one mode-2 fibre per index of the set as columns: A(i, j, :) ~ [A(i, j,
    J), delta] w v on every row, where J are its pivot columns, delta the
    row term through the origin and v a recompressed basis.  The left one
    (``_left_cross``) splits [A(:, :, J), delta] (P rows of (|J| + 1) P),
    reading |J| mode-2 fibres per row and one mode-1 fibre per column; its
    rows times w are the core g, kept in a basis of its mode-2 span
    (``_slab_basis``), and its columns u.  The set of mode-1
    indices starts as {0}, the largest sampled entry's and the pivot rows of
    a cross of the slice through that entry, and grows by the left cross's
    pivot rows until the sampled residual (``_train_residual``) is below
    _ACA_TOL |S|_F, or nothing new comes.  The cost rule is read on each
    cross's ranks before recompression, which are at least the final ones.
    Every step is fixed by (symbol, grid, cutoff).  The crosses' terms live
    in memory maps (``_term_rows``); u stays in the left cross's."""
    if max_cost <= 8:  # each cross's exact terms alone reach it
        return None
    index, xi, mask = _box_lattice(grid, cutoff)
    P = len(xi)

    def entries(i, j, k) -> np.ndarray:
        """A at the broadcast index arrays (i, j, k)."""
        shape = np.broadcast_shapes(np.shape(i), np.shape(j), np.shape(k))
        held = [np.broadcast_to(xi[x], shape + xi.shape[1:]) for x in (i, j, k)]
        return np.asarray(symbol.evaluate(*held)) * (mask[i] * mask[j] * mask[k])

    worst, (i0, j0, k0) = _train_residual(entries, P, None)
    every = np.arange(P)

    def seed(x: int, slot: int) -> np.ndarray:
        """Row x, A(x, :, k0), or column x, A(:, x, k0), of the slice through
        the largest sampled entry."""
        return entries(x, every, k0) if slot == 0 else entries(every, x, k0)

    pivots = _bond_cross(seed, (P, P), math.inf, max(i0, 1))[-1]
    rows = list(dict.fromkeys([0, i0] + [i for i, _ in pivots]))
    while True:
        right = _right_cross(entries, P, rows, max_cost, rows.index(i0) * P + j0)
        if right is None:
            return None
        left = _left_cross(entries, P, *right, max_cost, max(i0, 1))
        if left is None:
            return None
        train, frob, pivot_rows = left
        worst, (i0, j0, _) = _train_residual(entries, P, train)
        grown = [x for x in dict.fromkeys([i0] + pivot_rows) if x not in rows]
        if worst <= _ACA_TOL * frob or not grown:
            break
        rows += grown
        del train, left  # the next pass's crosses need the memory
    # Read-only, since the cache hands the same factors to every caller.
    for arr in (mask,) + train:
        arr.setflags(write=False)
    return TensorTrainFactors(index, mask, *train, _RESIDUAL_SAFETY * worst)


def _left_cross(
    entries: Callable[..., np.ndarray],
    P: int,
    J: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    max_cost: float,
    start: int,
) -> tuple[tuple[np.ndarray, ...], float, list[int]] | None:
    """The left cross of ``tensor_train_factors``: a ``_bond_cross`` of the
    P x s P matrix [A(:, :, J), delta] (s = len(w) slabs of P), from row
    ``start``.  Each row's slabs are then combined by w in place, into r2 =
    len(v) slabs, and the split recompressed (``_recompress``; v has
    orthonormal rows), so the core never exists twice.  The core's slabs
    are then written in a basis of their span (``_slab_basis``), and the
    cross's terms are freed.  Returns the train (u, core, basis, v), its
    Frobenius norm and the cross's pivot rows, or None once its rank r1 has
    r1 + r1 s + s >= ``max_cost``."""
    every = np.arange(P)
    s, r2 = w.shape

    def line(x: int, slot: int) -> np.ndarray:
        """Row x, [A(x, :, J), delta(x, :)], or column x = (t, j)."""
        if slot == 0:
            slab = entries(x, every[None, :], J[:, None])
            row = np.zeros((s, P), dtype=slab.dtype)
            row[:-1] = slab
            row[-1, 0] = x == 0
            return row.ravel()
        t, j = divmod(x, P)
        if t == len(J):
            return (every == 0) * float(j == 0)
        return entries(every, j, J[t])

    bond = _bond_cross(line, (P, s * P), (max_cost - s) / (1 + s), start)
    if bond is None:
        return None
    U, u_buf, V, _, r1, pivots = bond
    flat = V.reshape(-1)
    for a in range(r1):  # row a's slabs end before row a + 1's start
        flat[a * r2 * P : (a + 1) * r2 * P] = (w.T @ V[a].reshape(s, P)).ravel()
    core = flat[: r1 * r2 * P].reshape(r1, r2 * P)
    r1, frob = _recompress(U[:r1], core)
    _release_rows(u_buf, U, r1)
    slabs = core[:r1].reshape(r1, r2, P)
    basis = _slab_basis(slabs, _ACA_TOL * frob)
    return (U[:r1], slabs @ basis.conj(), basis.T.copy(), v), frob, [i for i, _ in pivots]


def _slab_basis(slabs: np.ndarray, limit: float) -> np.ndarray:
    """Orthonormal columns Q (P, q <= P) with |X - X conj(Q) Q^T|_F <=
    ``limit`` over the rows X of all the slabs, built one slab at a time:
    what of a slab's rows lies outside the basis so far gets a pivoted basis
    of its own (``_column_basis``) down to limit / sqrt(len(slabs)), each
    new column projected off the basis once more, so no temporary is larger
    than one slab."""
    P = slabs.shape[-1]
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


# Bytes of the train's values one block of sampled mode-2 fibres may hold
# (r2 q per fibre): a block above the allocator's mmap threshold would leave
# the heap larger for the rest of the run.
_FIBRE_BLOCK_BYTES = 2**17


def _train_residual(
    entries: Callable[..., np.ndarray],
    P: int,
    train: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[float, tuple[int, int, int]]:
    """The largest |A - split| on _RESIDUAL_PAIRS // P seeded mode-2 fibres,
    in blocks of _FIBRE_BLOCK_BYTES, and on _RESIDUAL_LINES seeded mode-1
    and as many mode-3 fibres, with the (i, j, k) where it lies; with no
    train, the largest sampled |A|."""
    rng = np.random.default_rng(_RESIDUAL_SEED)
    ii, kk = rng.integers(0, P, size=(2, max(1, _RESIDUAL_PAIRS // P)))
    every = np.arange(P)
    worst, at = 0.0, (0, 0, 0)
    u, core, basis, v = train if train is not None else (None,) * 4

    def note(residual: np.ndarray, place) -> None:
        nonlocal worst, at
        flat = int(np.argmax(residual))
        if residual.flat[flat] > worst:
            worst, at = float(residual.flat[flat]), place(np.unravel_index(flat, residual.shape))

    block = max(1, _FIBRE_BLOCK_BYTES // (8 * max(P, 0 if train is None else core.shape[1] * core.shape[2])))
    for start in range(0, len(ii), block):
        i, k = ii[start : start + block], kk[start : start + block]
        residual = entries(i[:, None], every[None, :], k[:, None])
        if train is not None:
            inner = np.tensordot(u[:, i].T, core, axes=(1, 0))  # (fibres, r2, q)
            residual = residual - (v[:, k].T[:, None, :] @ inner)[:, 0] @ basis
        note(np.abs(residual), lambda f: (int(i[f[0]]), int(f[1]), int(k[f[0]])))
    for j, k in rng.integers(0, P, size=(_RESIDUAL_LINES, 2)):
        residual = entries(every, j, k)
        if train is not None:
            residual = residual - u.T @ ((core @ basis[:, j]) @ v[:, k])
        note(np.abs(residual), lambda f: (int(f[0]), int(j), int(k)))
    for i, j in rng.integers(0, P, size=(_RESIDUAL_LINES, 2)):
        residual = entries(i, j, every)
        if train is not None:
            residual = residual - (u[:, i] @ (core @ basis[:, j])) @ v
        note(np.abs(residual), lambda f: (int(i), int(j), int(f[0])))
    return worst, at


def apply_tensor_train(
    op: MultilinearOperator,
    factors: TensorTrainFactors,
    sets: Sequence[Sequence[SampledFunction]],
) -> list[tuple[SampledFunction, float]]:
    """Apply a three-slot operator, given its symbol's
    ``tensor_train_factors``, to each input set (f_1, f_2, f_3), as sum_a
    (T_{u_a} f_1) sum_b (T_{g_ab} f_2)(T_{v_b} f_3).

    Each input is transformed once, in FFT order (``_fft_forward``); the r1
    waves T_{u_a} f_1 and the r2 waves T_{v_b} f_3 are inverse-transformed
    in one call each, and then, per a, the r2 waves T_{g_ab} f_2 in one
    (r2, S) block (g_a from the core and its basis), whose products with
    the v-waves are summed over b and
    added, times the a-th u-wave, into one accumulator.  The cost is r1 +
    r1 r2 + r2 + 3 transforms of length S per set, as ``apply_low_rank``
    scales them.  The sets run one after another through the same steps, so
    each output is bit for bit that of the set alone.

    Per set it returns the output and a bound on its sup-norm distance from
    the exhaustive sum over the same lattice: eps dxi^(3n) |f^_1|_1 |f^_2|_1
    |f^_3|_1, the l1 norms over the masked box."""
    _check_sets(op, sets)
    grid = op.grid
    if op.m != 3 or len(factors.mask) != _box(grid, op.cutoff)[1] ** grid.n:
        raise ValueError("the factors are not a split of this three-slot operator's box")
    S = grid.size
    index = factors.index
    r1, r2 = factors.ranks
    spectra = np.zeros((max(r1, r2), S), dtype=np.complex128)
    axes = tuple(range(1, grid.n + 1))

    def waves(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The inverse transforms of coeffs times each row of weights."""
        block = spectra[: len(weights)]
        block[:, index] = coeffs * weights
        if grid.n == 1:
            return np.fft.ifft(block)
        return np.fft.ifftn(block.reshape(block.shape[:1] + grid.shape), axes=axes).reshape(-1, S)

    results = []
    for fs in sets:
        coeffs = [_fft_forward(f.values).ravel()[index] for f in fs]
        first, last = waves(coeffs[0], factors.u), waves(coeffs[2], factors.v)
        total = np.zeros(S, dtype=np.complex128)
        for a in range(r1):
            middle = waves(coeffs[1], factors.core[a] @ factors.basis)
            middle *= last
            total += first[a] * middle.sum(axis=0)
        bound = factors.eps
        for c in coeffs:
            bound *= float(np.abs(c) @ factors.mask) / S
        results.append((SampledFunction(grid, _frozen(_half_shift(total.reshape(grid.shape)))), bound))
    return results


