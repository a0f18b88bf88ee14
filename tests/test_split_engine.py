"""The split engine against literal copies of its earlier per-call forms.

The reads, the ACA step, Gram-Schmidt, the pivoted column basis and the
sweep below are the engine's forms before their per-call waste was taken
out: every fibre broadcast and multiplied by the mask, a Gram-Schmidt that
indexes its rows on every use, and a sweep that transforms one last-bond
index per call through separate spectra and waves buffers.  The engine must
give the same factors and outputs as these, bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylab.train as train
from hardylab.grid import (
    _MAX_CHUNK_ELEMENTS,
    SampledFunction,
    _box,
    _box_lattice,
    _fft_forward,
    _fft_inverse,
    _frozen,
    _half_shift,
    make_grid,
)
from hardylab.operators import MultilinearOperator, default_cutoff
from hardylab.symbols import BUILTIN_NAMES, Symbol, _sigma4_terms, builtin_symbol


def reference_read(symbol, xi, mask):
    """The tensor's entries, read as before: the gathered frequencies
    broadcast against each other, times the product of the slot masks."""

    def entries(*idx):
        held = np.broadcast_arrays(*(xi[x] for x in idx))
        return np.asarray(symbol.evaluate(*held)) * math.prod(mask[x] for x in idx)

    return entries


def reference_slabs(entries, shape, J):
    N = shape[-2]

    def sub(*idx):
        *lead, c = idx
        lead = [np.arange(n) if isinstance(x, slice) else x for x, n in zip(lead, shape)]
        if isinstance(c, slice):
            slabs = entries(*lead, np.arange(N)[None, :], J[:, None])
            delta = np.zeros((1, N), dtype=slabs.dtype)
            delta[0, 0] = all(x == 0 for x in lead)
            return np.concatenate([slabs, delta]).ravel()
        *lead, c = np.broadcast_arrays(*lead, c)
        t, j = np.divmod(c, N)
        on = t < len(J)
        values = entries(*(x[on] for x in lead), j[on], J[t[on]])
        out = np.zeros(c.shape, dtype=np.result_type(values, np.float64))
        out[on] = values
        out[(t == len(J)) & (j == 0) & np.logical_and.reduce([x == 0 for x in lead])] = 1.0
        return out

    return sub


def reference_right_bond(entries, shape, held, cap, start):
    N = shape[-2]
    lead = np.array(held).T

    def unfolding(x, y):
        if isinstance(x, slice):
            return entries(*(ax[:, None] for ax in lead), np.arange(N)[None, :], y).ravel()
        h, j = divmod(int(x), N)
        return entries(*held[h], j, y)

    bond = train._matrix_cross(unfolding, (len(held) * N, shape[-1]), cap, start, None)
    if bond is None:
        return None
    U, V, _, pivots, _ = bond
    r = len(V)
    J = np.array([0] + [j for _, j in pivots])
    T = np.zeros((r, r), dtype=V.dtype)
    T[0, 0] = 1.0
    for t in range(1, r):
        T[t, t] = 1.0
        T[:, t] -= T[:, :t] @ V[:t, J[t - 1]]
    w = (T @ V)[list(range(1, r)) + [0]]
    rank, _ = train._recompress(U, V)
    basis = V[:rank].copy()
    train._orthonormalize(basis)
    rows = [held[x // N] + (x % N,) for x, _ in pivots]
    return J, w @ basis.conj().T, basis, rows


def reference_aca(line, U, V, r, frob2, used, i, max_rank, pivots):
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
        pivots.append((i, j))
        if size <= train._ACA_TOL * math.sqrt(max(frob2, 0.0)):
            break
        i = int(np.argmax(np.where(used, -1.0, np.abs(U[r - 1]))))
    return r, frob2


def reference_orthonormalize(rows):
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


def reference_column_basis(K, tol):
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


def reference_factors(symbol, grid, cutoff, max_cost):
    """``tensor_train_factors`` with every changed step in its reference
    form: the outermost cross reads ``reference_read``."""
    _, xi, mask = _box_lattice(grid, cutoff)
    read = reference_read(symbol, xi, mask)
    cross = train._cross

    def outermost(entries, shape, cost, ranks, at, whole):
        return cross(read if whole else entries, shape, cost, ranks, at, whole)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "_cross", outermost)
        patch.setattr(train, "_slabs", reference_slabs)
        patch.setattr(train, "_right_bond", reference_right_bond)
        patch.setattr(train, "_aca", reference_aca)
        patch.setattr(train, "_orthonormalize", reference_orthonormalize)
        patch.setattr(train, "_column_basis", reference_column_basis)
        return train.tensor_train_factors(symbol, grid, cutoff, max_cost)


def reference_sweep(op, factors, sets):
    """``apply_tensor_train`` one last-bond index per inverse call, through
    separate spectra and waves buffers, and every product scattered through
    the box index."""
    grid, cores, index = op.grid, factors.cores, factors.index
    S = grid.size
    width = max([len(cores[-2]) + 1] + [core.shape[1] for core in cores[:-2]])
    spectra = np.zeros((width, S), dtype=np.complex128)
    waves = np.empty((width,) + grid.shape, dtype=np.complex128)
    rows = spectra.reshape(waves.shape)
    results = []
    for fs in sets:
        coeffs = [_fft_forward(f.values).ravel()[index] for f in fs]
        acc = None
        for k, c in enumerate(coeffs[:-2]):
            new = np.zeros((cores[k].shape[1],) + grid.shape, dtype=np.complex128)
            for a in range(len(cores[k])):
                weights = factors.core(k, a)
                spectra[: len(weights), index] = c * weights
                block = _fft_inverse(rows[: len(weights)], grid.n, out=waves[: len(weights)])
                new += block if acc is None else acc[a] * block
            acc = new
        total = np.zeros(grid.shape, dtype=np.complex128)
        count = len(cores[-2])
        for b in range(len(cores[-1])):
            spectra[:count, index] = coeffs[-2] * factors.core(op.m - 2, (slice(None), b))
            spectra[count, index] = coeffs[-1] * factors.core(op.m - 1, (b, 0))
            block = _fft_inverse(rows[: count + 1], grid.n, out=waves[: count + 1])
            left = block[0] if acc is None else (acc * block[:count]).sum(axis=0)
            left *= block[count]
            total += left
        bound = factors.eps
        for c in coeffs:
            bound *= float(np.abs(c) @ factors.mask) / S
        results.append((SampledFunction(grid, _frozen(_half_shift(total))), bound))
    return results


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def sigma4_group(m):
    (sym,) = [s for part in _sigma4_terms() for g, s in zip(part.groups, part.symbols) if len(g) == m]
    return sym


def complex_pair():
    return Symbol(
        m=2,
        n=1,
        evaluate=lambda a, b: np.exp(1j * (a - b)[..., 0]) / (1.0 + (a * a + b * b)[..., 0]),
        name="complex-pair",
    )


def planar_triple():
    """A non-separable three-slot symbol on (R^2)^3."""

    def evaluate(*xis):
        total = sum(xis)
        out = np.cos(total[..., 0] - 0.5 * total[..., 1])
        for j, xi in enumerate(xis):
            u, v = xi[..., 0], xi[..., 1]
            out = out * (1.0 + (j + 1) * u * v) / (1.0 + u * u + 2.0 * v * v)
        return out

    return Symbol(m=3, n=2, evaluate=evaluate, name="planar3")


def single_precision_triple():
    """sigma4's trilinear group in float32, which the mask product casts to
    float64."""
    group = sigma4_group(3)
    return Symbol(m=3, n=1, evaluate=lambda *xis: group.evaluate(*xis).astype(np.float32), name="f32")


def split_case(name):
    """(symbol, grid, cutoff, cost cap): lemmas' split, mixed-trilinear's
    trilinear split, a complex two-slot symbol with and without a cutoff, a
    float32 train, sigma2_factored, whose (1 + a^2)^1.5 reads one held
    frequency (as a numpy scalar it would move by an ulp), and a
    two-dimensional train whose box has masked corners."""
    if name == "lemmas":
        grid = make_grid(1, 8.0, 4096)
        return builtin_symbol("sigma1_bilinear"), grid, None, train._cost_cap(grid, None, 2)
    if name == "mixed-trilinear":
        grid = make_grid(1, 8.0, 256)
        cut = default_cutoff(grid)
        return sigma4_group(3), grid, cut, train._cost_cap(grid, cut, 3)
    if name.startswith("complex"):
        grid = make_grid(1, 8.0, 256)
        return complex_pair(), grid, default_cutoff(grid) if name == "complex-cut" else None, np.inf
    if name == "float32":
        return single_precision_triple(), make_grid(1, 8.0, 64), None, np.inf
    if name == "sigma2_factored":
        return builtin_symbol("sigma2_factored"), make_grid(1, 8.0, 128), None, np.inf
    grid = make_grid(2, 4.0, 8)
    return planar_triple(), grid, 2.5 * grid.dxi, np.inf


def split_sets(grid, m, count, seed):
    """Real and complex input sets."""
    rng = np.random.default_rng(seed)
    sets = []
    for s in range(count):
        values = rng.standard_normal((m,) + grid.shape)
        if s % 2:
            values = values + 1j * rng.standard_normal((m,) + grid.shape)
        sets.append([SampledFunction(grid, v) for v in values])
    return sets


CASES = ["lemmas", "mixed-trilinear", "complex", "complex-cut", "float32", "sigma2_factored", "planar-ball"]


@pytest.mark.parametrize("name", CASES)
def test_factors_equal_reference_forms(name):
    symbol, grid, cutoff, cap = split_case(name)
    got = train.tensor_train_factors(symbol, grid, cutoff, cap)
    want = reference_factors(symbol, grid, cutoff, cap)
    assert got is not None and want is not None
    assert got.ranks == want.ranks
    assert bits(np.float64(got.eps)) == bits(np.float64(want.eps))
    for a, b in zip(got.cores, want.cores):
        assert a.dtype == b.dtype and np.array_equal(bits(a), bits(b))
    for a, b in zip(got.bases, want.bases):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(bits(a), bits(b))
    if name == "mixed-trilinear":
        assert got.ranks == (27, 27) and got.bases[1] is not None


@pytest.mark.parametrize("name", CASES)
def test_sweep_equals_reference_sweep(name):
    symbol, grid, cutoff, cap = split_case(name)
    factors = train.tensor_train_factors(symbol, grid, cutoff, cap)
    op = MultilinearOperator(symbol, grid, cutoff)
    sets = split_sets(grid, op.m, 5, 90)
    for (out, bound), (want, want_bound) in zip(
        train.apply_tensor_train(op, factors, sets), reference_sweep(op, factors, sets)
    ):
        assert np.array_equal(bits(out.values), bits(want.values))
        assert bound == want_bound


def test_two_slot_sweep_stacks_terms_within_the_chunk(monkeypatch):
    # lemmas' sweep transforms two terms (four rows of 4096) per inverse
    # call, within _MAX_CHUNK_ELEMENTS: 25 calls for its 49 terms.
    symbol, grid, cutoff, cap = split_case("lemmas")
    factors = train.tensor_train_factors(symbol, grid, cutoff, cap)
    rows = []
    inverse = train._fft_inverse

    def counting(coeffs, n, out=None):
        rows.append(len(coeffs))
        return inverse(coeffs, n, out=out)

    monkeypatch.setattr(train, "_fft_inverse", counting)
    train.apply_tensor_train(MultilinearOperator(symbol, grid), factors, split_sets(grid, 2, 1, 91))
    assert factors.ranks == (49,)
    assert rows == [4] * 24 + [2]
    assert max(rows) * grid.size <= _MAX_CHUNK_ELEMENTS


def test_two_slot_sweep_memory_is_chunk_sized():
    # The bound was written before the first measurement: one buffer of at
    # most _MAX_CHUNK_ELEMENTS complex values, the m input spectra, the
    # running output and its shifted copy, and one output per set, each of
    # S complex values.  A first call builds the transforms' plans, which
    # the bound does not count.
    symbol, grid, cutoff, cap = split_case("lemmas")
    factors = train.tensor_train_factors(symbol, grid, cutoff, cap)
    op = MultilinearOperator(symbol, grid)
    sets = split_sets(grid, 2, 5, 92)
    train.apply_tensor_train(op, factors, sets[:1])
    S = grid.size
    bound = 16 * (_MAX_CHUNK_ELEMENTS + (op.m + 2) * S + len(sets) * S)
    tracemalloc.start()
    try:
        train.apply_tensor_train(op, factors, sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def group_symbols():
    """Every builtin and each of its groups of two or more slots: the
    evaluators the split engine reads."""
    symbols = {}
    for name in BUILTIN_NAMES:
        sym = builtin_symbol(name)
        symbols[name] = sym
        for t, part in enumerate(sym.partitions):
            for g, group in zip(part.groups, part.symbols):
                if len(g) > 1 and group is not sym:
                    symbols[f"{name}-{t}-{''.join(map(str, g))}"] = group
    return symbols


GROUP_SYMBOLS = group_symbols()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(GROUP_SYMBOLS))
def test_evaluators_read_broadcast_compatible_arrays(name, data):
    # Each evaluator gives the same values, as uint64, and shape on
    # broadcast-compatible arrays as on their np.broadcast_arrays: lattice
    # frequencies k / 16, the origin included, in shapes of one or two
    # leading axes, each full or 1.  (With none, an evaluator's values are
    # numpy scalars, whose power is libm's: sigma2's (1 + b^2 + c^2)^1.5
    # then moves by an ulp.)
    sym = GROUP_SYMBOLS[name]
    full = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    args = []
    for _ in range(sym.m):
        ndim = data.draw(st.integers(1, 2))
        shape = tuple(data.draw(st.sampled_from([1, n])) for n in full[2 - ndim :])
        k = data.draw(st.lists(st.integers(-8, 7), min_size=math.prod(shape), max_size=math.prod(shape)))
        args.append((np.array(k, dtype=np.float64) / 16.0).reshape(shape + (1,)))
    got = np.asarray(sym.evaluate(*args))
    want = np.asarray(sym.evaluate(*np.broadcast_arrays(*args)))
    assert got.shape == want.shape == np.broadcast_shapes(*(a.shape for a in args))[:-1]
    assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want))


def test_box_lattice_mask_is_all_ones_on_every_n1_box():
    # entries skips the mask product there: every n = 1 box is the run of
    # axis indices inside the cutoff.
    for M in (8, 64, 256, 4096):
        grid = make_grid(1, 8.0, M)
        for cutoff in (None, default_cutoff(grid), 0.5 * grid.dxi, 2.5 * grid.dxi):
            _, xi, mask = _box_lattice(grid, cutoff)
            assert len(mask) == _box(grid, cutoff)[1] and np.all(mask == 1.0)
