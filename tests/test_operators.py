from pathlib import Path

import numpy as np
import pytest

import hardylab.operators
import hardylab.verify
from hardylab.grid import (
    SampledFunction,
    Spectrum,
    _box,
    dft,
    idft,
    make_grid,
    pointwise_product,
    sample,
)
from hardylab.operators import (
    MultilinearOperator,
    apply_general,
    apply_operator,
    apply_oracle,
    default_cutoff,
    operator_factors,
    spectral_moment,
)
from hardylab.symbols import (
    BUILTIN_NAMES,
    Partition,
    Symbol,
    _sigma2_terms,
    _sigma4_terms,
    builtin_symbol,
    make_mixed_symbol,
    make_product_symbol,
    power_symbol,
)
from hardylab.atoms import Cube, make_atom


def band_limited(grid, seed, band=6):
    """Random mean-zero function with spectrum confined to |k| <= band cells."""
    rng = np.random.default_rng(seed)
    M = grid.M
    spec = np.zeros(M, dtype=complex)
    c = M // 2
    spec[c - band : c + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(
        2 * band + 1
    )
    spec[c] = 0.0
    return idft(Spectrum(grid, spec))


def spectral_dilate_two(f):
    """Exact twofold dilation x -> x/2 of a band-limited sampled function."""
    grid = f.grid
    M = grid.M
    spec = dft(f).coefficients
    out = np.zeros(M, dtype=complex)
    c = M // 2
    for k in range(-M // 4, M // 4):
        out[c + k] = 2.0 * spec[c + 2 * k]
    return idft(Spectrum(grid, out))


def planar_symbol(m):
    """A non-separable m-linear symbol on (R^2)^m (every builtin is n = 1)."""

    def evaluate(*xis):
        total = sum(xis)
        out = np.cos(total[..., 0] - 0.5 * total[..., 1])
        for j, xi in enumerate(xis):
            u, v = xi[..., 0], xi[..., 1]
            out = out * (1.0 + (j + 1) * u * v) / (1.0 + u * u + 2.0 * v * v)
        return out

    return Symbol(m=m, n=2, evaluate=evaluate, name=f"planar{m}")


def random_inputs(grid, m, seed):
    rng = np.random.default_rng(seed)
    shape = (m,) + grid.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return [SampledFunction(grid, v) for v in values]


def literal_half_parts(w):
    """FFT-order lattice weights as (unit, half-lattice weights) parts, by
    the literal formula: the Hermitian part (w + conj w(-k))/2 with unit 1
    and -i times the anti-Hermitian part with unit 1j, w(-k) taken with
    np.flip and np.roll, on the first M/2 + 1 entries of the last axis, a
    part that is exactly zero dropped."""
    w = np.asarray(w, dtype=np.complex128)
    axes = tuple(range(w.ndim))
    mirror = np.conj(np.roll(np.flip(w, axes), 1, axes))
    herm = (w + mirror) / 2
    diff = (w - mirror) / 2
    anti = np.empty_like(diff)
    anti.real, anti.imag = diff.imag, -diff.real
    h = w.shape[-1] // 2 + 1
    return [(u, part[..., :h]) for u, part in ((1, herm), (1j, anti)) if np.any(part[..., :h])]


def half_spectrum_form(values, parts, shape):
    """A one-slot group's output in its half-spectrum per-group form, from
    lone transforms: each nonzero real part (unit u, row a) of the input
    and each weight part (unit v, weights w) give the product
    rfftn(a) * w, which reaches the real part of a zeroed complex row, or
    its imaginary part when u v is imaginary, with the sign of u v; the
    products that reach one part are summed in order and take one irfftn."""
    axes = tuple(range(len(shape)))
    if values.dtype == np.float64:
        comps = [(1, values)]
    else:
        comps = [(u, a) for u, a in ((1, values.real), (1j, values.imag)) if np.any(a)]
    sums = {}
    for u, a in comps:
        spec = np.fft.rfftn(a)
        for v, w in parts:
            unit, prod = u * v, spec * w
            if unit.real + unit.imag < 0:
                prod = -prod
            key = unit.imag != 0
            sums[key] = sums[key] + prod if key in sums else prod
    out = np.zeros(shape, dtype=np.complex128)
    for imag, total in sums.items():
        (out.imag if imag else out.real)[...] = np.fft.irfftn(total, shape, axes=axes)
    return out


def engine_case(m, n, seed):
    """A small non-separable m-linear case on a grid of 32 (n = 1) or 8 x 8
    (n = 2) points, with one input per slot."""
    if n == 1:
        grid = make_grid(1, 8.0, 32)
        sym = builtin_symbol({1: "constant_one", 2: "sigma1_bilinear", 3: "sigma1"}[m], m=m)
        return grid, sym, [band_limited(grid, seed + j) for j in range(m)]
    grid = make_grid(2, 4.0, 8)
    return grid, planar_symbol(m), random_inputs(grid, m, seed)


def case_cutoff(grid, cut):
    """An engine case's cutoff: none, the default, half a frequency step (a
    one-frequency box), or 2.5 steps, whose box |k| <= 2 has its corners
    (norm 2 sqrt(2) steps at n = 2) outside the ball."""
    return {
        "uncut": None,
        "cut": default_cutoff(grid),
        "one-frequency": 0.5 * grid.dxi,
        "ball": 2.5 * grid.dxi,
    }[cut]


# (m, n, cut) for the engine's bit-parity cases: every arity and dimension
# with no cutoff, the default one and a one-frequency box, and at n = 2 a
# box whose corners lie outside the cutoff's ball.
ENGINE_CUTS = [
    (m, n, cut) for m in (1, 2, 3) for n in (1, 2) for cut in ("uncut", "cut", "one-frequency")
] + [(m, 2, "ball") for m in (1, 2, 3)]


def index_tuple_engine(op, *fs):
    """Reference copy of the exhaustive engine with no window gathers.  The
    free slots run in lexicographic order over the tuples of the cutoff's
    box, the axis frequencies with |xi| <= cutoff on each axis, and the
    wrapped last slot is gathered from grid-shaped arrays with one (chunk, F)
    index array per axis.  Each output frequency is reduced over its row of
    F box tuples.  Returns the output spectrum."""
    grid = op.grid
    m, n, M, S = op.m, grid.n, grid.M, grid.size
    ks = np.arange(-M // 2, M // 2, dtype=np.int32)
    axes = np.meshgrid(*[ks] * n, indexing="ij")
    k_flat = np.stack([ax.ravel() for ax in axes], axis=1)
    xi_flat = k_flat * grid.dxi
    mask = np.ones(S)
    box_axis = np.arange(M)
    if op.cutoff is not None:
        mask = (np.linalg.norm(xi_flat, axis=-1) <= op.cutoff).astype(np.float64)
        box_axis = np.flatnonzero(np.abs(ks * grid.dxi) <= op.cutoff)
    box = np.ravel_multi_index(np.meshgrid(*[box_axis] * n, indexing="ij"), grid.shape).ravel()
    spectra = [dft(f).coefficients.ravel() * mask for f in fs]
    free_idx = box[np.indices((box.size,) * (m - 1)).reshape(m - 1, box.size ** (m - 1))]
    F = free_idx.shape[1]
    free_prod = np.ones(F, dtype=np.complex128)
    free_ksum = np.zeros((F, n), dtype=np.int64)
    for spec, idx in zip(spectra, free_idx):
        free_prod *= spec[idx]
        free_ksum += k_flat[idx]
    free_xis = [xi_flat[idx][None, :, :] for idx in free_idx]
    last_spec = spectra[m - 1].reshape(grid.shape)
    xi_grid = xi_flat.reshape(grid.shape + (n,))
    g = np.empty(S, dtype=np.complex128)
    chunk = max(1, 2**18 // F)
    for start in range(0, S, chunk):
        k_eta = k_flat[start : start + chunk]
        wrapped = (k_eta[:, None, :] - free_ksum[None, :, :] + M // 2) & (M - 1)
        last = tuple(np.moveaxis(wrapped, -1, 0))
        terms = np.asarray(op.symbol.evaluate(*free_xis, xi_grid[last])) * free_prod[None, :]
        terms *= last_spec[last]
        g[start : start + chunk] = terms.sum(axis=1)
    g *= grid.dxi ** ((m - 1) * n)
    return g.reshape(grid.shape)


def sigma4_trilinear_group():
    parts = _sigma4_terms()
    (sym,) = [s for part in parts for g, s in zip(part.groups, part.symbols) if len(g) == 3]
    return sym


@pytest.fixture(scope="module")
def grid32():
    return make_grid(1, 8.0, 32)


class TestApplyGeneral:
    def test_constant_symbol_is_pointwise_product(self, grid32):
        f = band_limited(grid32, 1)
        g = band_limited(grid32, 2)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        out, _ = apply_general(op, [[f, g]])[0]
        prod = pointwise_product(f, g)
        err = np.max(np.abs(out.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-10

    def test_zero_input_gives_zero(self, grid32):
        f = band_limited(grid32, 3)
        zero = SampledFunction(grid32, np.zeros(32))
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        out, spec = apply_general(op, [[zero, f]])[0]
        assert np.all(out.values == 0)
        assert np.all(spec.coefficients == 0)

    def test_output_spectrum_inverts_to_output(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1"), grid32)
        fs = [band_limited(grid32, s) for s in (4, 5, 6)]
        out, spec = apply_general(op, [fs])[0]
        back = idft(spec)
        err = np.max(np.abs(back.values - out.values))
        assert err <= 1e-10 * max(np.max(np.abs(out.values)), 1e-300)

    def test_multilinearity_each_slot(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 7)
        h = band_limited(grid32, 8)
        g = band_limited(grid32, 9)
        lhs, _ = apply_general(op, [[2.0 * f + 3.0 * h, g]])[0]
        a, _ = apply_general(op, [[f, g]])[0]
        b, _ = apply_general(op, [[h, g]])[0]
        combo = 2.0 * a + 3.0 * b
        scale = np.max(np.abs(combo.values))
        assert np.max(np.abs(lhs.values - combo.values)) < 1e-10 * scale

    def test_translation_equivariance(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 10)
        g = band_limited(grid32, 11)
        base, _ = apply_general(op, [[f, g]])[0]
        shift = 5
        fr = SampledFunction(grid32, np.roll(f.values, shift))
        gr = SampledFunction(grid32, np.roll(g.values, shift))
        moved, _ = apply_general(op, [[fr, gr]])[0]
        expected = np.roll(base.values, shift)
        err = np.max(np.abs(moved.values - expected)) / np.max(np.abs(expected))
        assert err < 1e-12

    def test_cost_budget_guard(self):
        g = make_grid(1, 8.0, 64)
        op = MultilinearOperator(builtin_symbol("sigma1"), g, budget=1000)
        fs = [band_limited(g, s) for s in (1, 2, 3)]
        with pytest.raises(ValueError, match="budget"):
            apply_general(op, [fs])[0]

    def test_cost_budget_message(self):
        # The check runs before either engine, so it names the group's tuple
        # count and the budget, not an engine.
        g = make_grid(1, 8.0, 64)
        op = MultilinearOperator(builtin_symbol("sigma4"), g, budget=1000)
        fs = [band_limited(g, s) for s in (1, 2, 3)]
        message = "a 2-slot group on 64 grid points has S^m = 4096 frequency tuples, over the cost budget 1000"
        with pytest.raises(ValueError) as raised:
            operator_factors(op, [fs])
        assert str(raised.value) == message

    def test_each_group_budget_is_checked_before_its_cross(self, monkeypatch):
        # sigma4's bilinear group comes first in term order.  Over budget,
        # it stops the plan before any cross runs; within budget, its cross
        # runs and the trilinear group then stops the plan before its own.
        calls = []
        original = hardylab.operators.tensor_train_factors

        def counting(symbol, *args):
            calls.append(symbol.m)
            return original(symbol, *args)

        monkeypatch.setattr(hardylab.operators, "tensor_train_factors", counting)
        g = make_grid(1, 8.0, 256)
        fs = [band_limited(g, s) for s in (1, 2, 3)]
        for budget, slots, done in ((256**2 - 1, 2, []), (256**2, 3, [2])):
            op = MultilinearOperator(builtin_symbol("sigma4"), g, default_cutoff(g), budget)
            with pytest.raises(ValueError, match=rf"^a {slots}-slot group on 256 grid points"):
                operator_factors(op, [fs])
            assert calls == done

    def test_grid_mismatch(self, grid32):
        other = make_grid(1, 8.0, 64)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        with pytest.raises(ValueError, match="grid"):
            apply_general(op, [[band_limited(grid32, 1), band_limited(other, 2)]])[0]

    @pytest.mark.parametrize(
        "m, n, cut, chunk",
        [
            pytest.param(3, 1, "uncut", 2048, id="n1-uncut"),
            pytest.param(3, 1, "cut", 2048, id="n1-cut"),
            pytest.param(3, 2, "uncut", 2048, id="n2-uncut"),
            pytest.param(3, 2, "cut", 2048, id="n2-cut"),
        ]
        + [pytest.param(m, n, cut, "ragged", id=f"m{m}-n{n}-{cut}-ragged") for m, n, cut in ENGINE_CUTS],
    )
    def test_chunking_is_bitwise_invariant(self, m, n, cut, chunk, monkeypatch):
        # Partitioning the output-frequency range must not change a single bit.
        import hardylab.operators as ops

        grid, sym, fs = engine_case(m, n, seed=12)
        op = MultilinearOperator(sym, grid, cutoff=case_cutoff(grid, cut))
        base, _ = apply_general(op, [fs])[0]
        if chunk == "ragged":
            # Three output frequencies per chunk, each holding two rows of
            # the box's free tuples; 3 divides neither 32 nor 64.
            _, W = _box(grid, op.cutoff)
            chunk = 3 * 2 * W ** (n * (m - 1))
            assert grid.size % 3
        monkeypatch.setattr(ops, "_MAX_CHUNK_ELEMENTS", chunk)
        chunked, _ = apply_general(op, [fs])[0]
        assert np.array_equal(base.values.view(np.uint64), chunked.values.view(np.uint64))

    @pytest.mark.parametrize(
        "m, n, cut", [pytest.param(*case, id="m{}-n{}-{}".format(*case)) for case in ENGINE_CUTS]
    )
    def test_window_gather_equals_index_tuple_engine(self, m, n, cut):
        # The window gather reads the same values into the same rows of the
        # box's free tuples as the index-tuple reference, so every bit of the
        # output matches it (compared as uint64 views, so the sign of zero
        # counts).  Four draws; in a one-frequency box each row is one term.
        for seed in range(70, 74):
            grid, sym, fs = engine_case(m, n, seed=seed)
            op = MultilinearOperator(sym, grid, cutoff=case_cutoff(grid, cut))
            if cut == "ball":
                corner = np.sqrt(n) * 2 * grid.dxi
                assert 2 * grid.dxi <= op.cutoff < min(corner, 3 * grid.dxi)
            out, g = apply_general(op, [fs])[0]
            ref = index_tuple_engine(op, *fs)
            assert np.array_equal(g.coefficients.view(np.uint64), ref.view(np.uint64))
            back = idft(Spectrum(grid, ref)).values
            assert np.array_equal(out.values.view(np.uint64), back.view(np.uint64))

    @pytest.mark.parametrize("workload", ["lemmas", "mixed-trilinear"])
    def test_window_gather_on_workload_shapes(self, workload):
        # The two shapes the engine runs in practice: many output rows of a
        # few thousand tuples, and one row of 65,536 tuples.
        if workload == "lemmas":
            grid = make_grid(1, 8.0, 4096)
            op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid)
        else:
            grid = make_grid(1, 8.0, 256)
            op = MultilinearOperator(sigma4_trilinear_group(), grid, cutoff=default_cutoff(grid))
        fs = random_inputs(grid, op.m, 80)
        _, g = apply_general(op, [fs])[0]
        ref = index_tuple_engine(op, *fs)
        assert np.array_equal(g.coefficients.view(np.uint64), ref.view(np.uint64))

    def test_peak_memory_is_chunk_sized(self):
        # Bound from the design: at most 8 live chunk-sized temporaries of
        # 16 bytes per element, plus 16 arrays of 16 bytes per grid point for
        # the free-tuple and spectrum arrays; never above 32 MiB.  Both
        # workload shapes: sigma1_bilinear at M=4096 with no cutoff, and
        # sigma4's trilinear group at M=256 with the default cutoff, whose
        # rows of 65,536 tuples run one at a time over a box of 16,641.
        import tracemalloc

        import hardylab.operators as ops

        big = make_grid(1, 8.0, 4096)
        small = make_grid(1, 8.0, 256)
        cases = [
            MultilinearOperator(builtin_symbol("sigma1_bilinear"), big),
            MultilinearOperator(sigma4_trilinear_group(), small, cutoff=default_cutoff(small)),
        ]
        for op in cases:
            fs = random_inputs(op.grid, op.m, 81)
            bound = min(32 * 2**20, 16 * (8 * ops._MAX_CHUNK_ELEMENTS + 16 * op.grid.size))
            tracemalloc.start()
            try:
                apply_general(op, [fs])[0]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound

    def test_train_peaks_below_the_exhaustive_pass(self):
        # Factoring sigma4's trilinear group at M=256 with the default cutoff
        # and applying it to four sets holds less memory than the exhaustive
        # pass over the same sets.  The crosses' terms live in memory maps,
        # which tracemalloc does not see; the crosses run one after another,
        # each freeing its terms before the next reads a fibre, and the last
        # one's terms hold the cores until they are copied out.  So the
        # train's peak is at most the traced peak plus the largest cross's
        # terms, at their final rank.
        import tracemalloc

        import hardylab.train as train

        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(sigma4_trilinear_group(), grid, cutoff=default_cutoff(grid))
        sets = [random_inputs(grid, 3, seed) for seed in range(81, 85)]
        tracemalloc.start()
        try:
            apply_general(op, sets)
            exhaustive = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        crosses = []
        matrix_cross = train._matrix_cross

        def counting(entries, shape, *args):
            bond = matrix_cross(entries, shape, *args)
            crosses.append(len(bond[0]) * (shape[0] + shape[1]) * bond[0].itemsize)
            return bond

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(train, "_matrix_cross", counting)
                factors = train.tensor_train_factors(
                    op.symbol, grid, op.cutoff, train._cost_cap(grid, op.cutoff, 3)
                )
            train.apply_tensor_train(op, factors, sets)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(crosses) >= 3
        assert traced + max(crosses) < exhaustive

    def test_dilation_equivariance_homogeneous(self):
        # Degree-zero symbols commute with simultaneous dilation; with wave
        # packets resolved at both scales the discrete outputs agree too.
        g = make_grid(1, 8.0, 256)

        def packet(center, width, freq):
            return sample(
                lambda x: np.exp(-(((x - center) / width) ** 2))
                * np.exp(2j * np.pi * freq * (x - center)),
                g,
            )

        op = MultilinearOperator(builtin_symbol("sigma1"), g)
        fs = [packet(0.3, 0.4, 3.0), packet(-0.5, 0.5, 2.0), packet(0.1, 0.45, -1.5)]
        base, _ = apply_general(op, [fs])[0]
        dilated_inputs = [spectral_dilate_two(f) for f in fs]
        dilated_out, _ = apply_general(op, [dilated_inputs])[0]
        expected = spectral_dilate_two(base)
        x = g.axis_points()
        interior = np.abs(x) <= g.L / 2
        num = np.max(np.abs(dilated_out.values[interior] - expected.values[interior]))
        den = np.max(np.abs(expected.values[interior]))
        assert num / den < 0.01


class TestOracle:
    def test_constant_inputs(self, grid32):
        one = sample(lambda x: np.ones_like(x), grid32)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        vals = apply_oracle(op, [one, one], [[0.0], [1.0], [-3.5]])
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_multilinearity(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        f = band_limited(grid32, 20)
        h = band_limited(grid32, 21)
        g = band_limited(grid32, 22)
        pts = [[0.5], [2.0]]
        lhs = apply_oracle(op, [f + h, g], pts)
        rhs = apply_oracle(op, [f, g], pts) + apply_oracle(op, [h, g], pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(np.max(np.abs(rhs)), 1.0)

    @pytest.mark.parametrize("trial", range(5))
    def test_agreement_with_general(self, grid32, trial):
        op = MultilinearOperator(builtin_symbol("sigma1"), grid32)
        fs = [band_limited(grid32, 100 + 3 * trial + j) for j in range(3)]
        out, _ = apply_general(op, [fs])[0]
        rng = np.random.default_rng(trial)
        idx = rng.choice(grid32.M, size=5, replace=False)
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - out.values[idx])) < 1e-10 * scale

    @pytest.mark.parametrize(
        "cut, L",
        [
            pytest.param(False, 4.0, id="uncut"),
            pytest.param(True, 4.0, id="cut"),
            # Neither dx nor dxi is a power of two at L = 3, so the engine's
            # unscaled transforms and M^-(m-1)n weight round apart from the
            # oracle's rectangle rule.
            pytest.param(False, 3.0, id="uncut-L3"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    @pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
    def test_general_matches_oracle(self, m, n, cut, L):
        # Every arity, dimension and cutoff runs through one engine path.
        grid = make_grid(n, L, 16 if m <= 2 else 8)
        if n == 1:
            sym = builtin_symbol({1: "constant_one", 2: "sigma1_bilinear", 3: "sigma1"}[m], m=m)
        else:
            sym = planar_symbol(m)
        op = MultilinearOperator(sym, grid, cutoff=default_cutoff(grid) if cut else None)
        fs = random_inputs(grid, m, 10 * m + n)
        out, _ = apply_general(op, [fs])[0]
        rng = np.random.default_rng(m + n)
        idx = rng.choice(grid.size, size=5, replace=False)
        pts = grid.points().reshape(-1, n)[idx]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - out.values.ravel()[idx])) < 1e-10 * scale

    def test_point_limit(self, grid32):
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid32)
        one = sample(lambda x: np.ones_like(x), grid32)
        pts = np.linspace(-8, 7, 17)[:, None]
        with pytest.raises(ValueError, match="16"):
            apply_oracle(op, [one, one], pts)


class TestProductPath:
    def test_single_term_identity_symbols(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        fs = [band_limited(grid32, s) for s in (30, 31, 32)]
        sym = make_product_symbol([(one1, one1, one1)])
        out = apply_operator(MultilinearOperator(sym, grid32), fs)
        prod = pointwise_product(pointwise_product(fs[0], fs[1]), fs[2])
        err = np.max(np.abs(out.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-12

    def test_cancelling_terms(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        neg = power_symbol(one1, 1)
        from hardylab.symbols import Symbol, _lift1

        minus = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -np.ones_like(u)), name="-1")
        fs = [band_limited(grid32, s) for s in (33, 34)]
        sym = make_product_symbol([(one1, one1), (minus, one1)])
        out = apply_operator(MultilinearOperator(sym, grid32), fs)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_sigma3_structure_matches_general(self, grid32):
        s3 = builtin_symbol("sigma3")
        fs = [band_limited(grid32, s) for s in (35, 36, 37)]
        fast = apply_operator(MultilinearOperator(s3, grid32), fs)
        dense, _ = apply_general(MultilinearOperator(s3, grid32), [fs])[0]
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_oracle_agreement(self, grid32):
        s3 = builtin_symbol("sigma3")
        op = MultilinearOperator(s3, grid32)
        fs = [band_limited(grid32, s) for s in (38, 39, 40)]
        fast = apply_operator(op, fs)
        idx = [2, 9, 16, 23, 30]
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - fast.values[idx])) < 1e-10 * scale


class TestMixedPath:
    def test_degenerate_partition_equals_general(self, grid32):
        s1 = builtin_symbol("sigma1")
        part = Partition(((0, 1, 2),), (s1,))
        fs = [band_limited(grid32, s) for s in (41, 42, 43)]
        mixed = apply_operator(MultilinearOperator(make_mixed_symbol([part]), grid32), fs)
        dense, _ = apply_general(MultilinearOperator(s1, grid32), [fs])[0]
        assert np.array_equal(mixed.values, dense.values)

    def test_singleton_groups_give_product(self, grid32):
        one1 = builtin_symbol("constant_one", m=1)
        part = Partition(((0,), (1,), (2,)), (one1, one1, one1))
        fs = [band_limited(grid32, s) for s in (44, 45, 46)]
        mixed = apply_operator(MultilinearOperator(make_mixed_symbol([part]), grid32), fs)
        prod = pointwise_product(pointwise_product(fs[0], fs[1]), fs[2])
        err = np.max(np.abs(mixed.values - prod.values)) / np.max(np.abs(prod.values))
        assert err < 1e-12

    def test_sigma4_structure_matches_general(self, grid32):
        s4 = builtin_symbol("sigma4")
        fs = [band_limited(grid32, s) for s in (47, 48, 49)]
        fast = apply_operator(MultilinearOperator(s4, grid32), fs)
        dense, _ = apply_general(MultilinearOperator(s4, grid32), [fs])[0]
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_sigma2_structure_matches_general(self, grid32):
        s2 = builtin_symbol("sigma2")
        fs = [band_limited(grid32, s) for s in (50, 51, 52)]
        fast = apply_operator(MultilinearOperator(s2, grid32), fs)
        dense, _ = apply_general(MultilinearOperator(s2, grid32), [fs])[0]
        scale = np.max(np.abs(dense.values))
        assert np.max(np.abs(fast.values - dense.values)) < 1e-9 * scale

    def test_oracle_agreement(self, grid32):
        s4 = builtin_symbol("sigma4")
        op = MultilinearOperator(s4, grid32)
        fs = [band_limited(grid32, s) for s in (53, 54, 55)]
        fast = apply_operator(op, fs)
        idx = [1, 8, 15, 22, 29]
        pts = grid32.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(oracle - fast.values[idx])) < 1e-10 * scale

    def test_invalid_partition_rejected(self, grid32):
        s1 = builtin_symbol("sigma1")
        part = Partition(((0, 1, 2),), (s1,))
        fs = [band_limited(grid32, s) for s in (56, 57)]
        with pytest.raises(ValueError, match="arity"):
            apply_operator(MultilinearOperator(make_mixed_symbol([part]), grid32), fs)


class TestOneSlotGroups:
    # apply_operator sends a one-slot group to apply_linear on the input's
    # half spectra.  Its weights must be those of the general engine's
    # lattice at m = 1 bit for bit (compared as uint64 views, so the sign of
    # zero counts), and its output must agree with the general engine's
    # within a bound fixed before the first run: 1e-12 times sum |f^ w| / M,
    # the sup-norm bound of the output read from its spectrum.  L = 3 and 5
    # give a frequency spacing 1/(2L) that is not a power of two, so the
    # weights agree only if both routes read the same frequency lattice.
    @pytest.mark.parametrize("terms", [_sigma2_terms, _sigma4_terms], ids=["sigma2", "sigma4"])
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize(
        "source, L",
        [
            # The id names L only where it differs from the shipped L = 8.
            pytest.param(source, L, id=source if L == 8.0 else f"{source}-L{L:g}")
            for L in (8.0, 3.0, 5.0)
            for source in ("atom", "random")
        ],
    )
    def test_linear_equals_general_bitwise(self, terms, cut, source, L):
        grid = make_grid(1, L, 256)
        cutoff = default_cutoff(grid) if cut else None
        if source == "atom":
            # The cube scales with the box: (0.5, side 1) at L = 8.
            f = make_atom(Cube((L / 16,), L / 8), 1.0, 2, seed=7, grid=grid).values
        else:
            (f,) = random_inputs(grid, 1, 8)
        singles = {
            id(sym): sym
            for part in terms()
            for grp, sym in zip(part.groups, part.symbols)
            if len(grp) == 1
        }
        assert singles
        from hardylab.grid import _slot_mask
        from hardylab.operators import _flat_freq_ints, _plan

        xi_flat = _flat_freq_ints(grid) * grid.dxi  # apply_general's lattice
        mask = _slot_mask(xi_flat, cutoff)
        for sym in singles.values():
            single = MultilinearOperator(make_product_symbol([[sym]]), grid, cutoff)
            fast = operator_factors(single, [[f]])[0][0][0].values
            lattice = np.fft.ifftshift(np.asarray(sym.evaluate(xi_flat)) * mask)
            ((_, parts),) = _plan(single)[0]
            want = literal_half_parts(lattice)
            assert [u for u, _ in parts] == [u for u, _ in want]
            for (_, got), (_, ref) in zip(parts, want):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            dense = apply_general(MultilinearOperator(sym, grid, cutoff), [[f]])[0][0].values
            bound = 1e-12 * np.sum(np.abs(np.fft.fft(np.fft.ifftshift(f.values)) * lattice)) / grid.M
            assert np.max(np.abs(fast - dense)) <= bound


class TestDistinctFactorsOnce:
    # sigma3's six rank-one terms name 18 one-slot factors; 12 of them are
    # distinct (slot, symbol) pairs, and each is applied once.
    def test_sigma3_factors_equal_term_by_term(self):
        from hardylab.operators import _slot_mask

        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(builtin_symbol("sigma3"), grid, cutoff=default_cutoff(grid))
        fs = random_inputs(grid, 3, 90)
        factors = operator_factors(op, [fs])[0]
        freqs = grid.frequencies()
        mask = _slot_mask(freqs, op.cutoff)
        for part, term in zip(op.symbol.terms, factors):
            for (slot,), sym, got in zip(part.groups, part.symbols, term):
                parts = literal_half_parts(np.fft.ifftshift(np.asarray(sym.evaluate(freqs)) * mask))
                assert len(parts) == 1  # every sigma3 factor is exactly even or odd
                want = half_spectrum_form(fs[slot].values, parts, grid.shape)
                assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
        assert len({id(f) for term in factors for f in term}) == 12

    def test_second_application_evaluates_no_slot_symbol(self):
        from hardylab.operators import _plan
        from hardylab.symbols import _sigma3_terms

        calls = []

        def counting(sym):
            def evaluate(*xis):
                calls.append(sym.name)
                return sym.evaluate(*xis)

            return Symbol(m=1, n=1, evaluate=evaluate, name=sym.name)

        wrapped = {}
        terms = [[wrapped.setdefault(id(s), counting(s)) for s in t] for t in _sigma3_terms()]
        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(make_product_symbol(terms), grid, cutoff=default_cutoff(grid))
        fs = random_inputs(grid, 3, 91)
        first = apply_operator(op, fs)
        assert len(calls) == 6
        second = apply_operator(op, fs)
        assert len(calls) == 6
        assert np.array_equal(first.values.view(np.uint64), second.values.view(np.uint64))
        linear, larger = _plan(op)
        weights = {sym: parts for (_, sym), parts in linear}
        assert len(weights) == 6 and larger == ()
        # One half-lattice part each: l2 and l4 are even (unit 1), l1 odd
        # (unit 1j, -i times its anti-Hermitian part).
        units = [u for parts in weights.values() for u, _ in parts]
        assert len(units) == 6 and set(units) == {1, 1j}
        for parts in weights.values():
            for _, w in parts:
                assert w.shape == (grid.M // 2 + 1,) and not w.flags.writeable


def planar_linear(j):
    """A complex one-slot symbol on R^2, one per j, neither Hermitian nor
    anti-Hermitian on the lattice: its even real and odd imaginary terms
    are Hermitian, its odd real term is not."""

    def evaluate(xi):
        u, v = xi[..., 0], xi[..., 1]
        even = (1.0 + (j + 1) * u * v) / (1.0 + u * u + 2.0 * v * v)
        return even + 0.5j * np.sin(u - j * v) + 0.25 * (u - j * v) / (1.0 + u * u + v * v)

    return Symbol(m=1, n=2, evaluate=evaluate, name=f"planar_linear{j}")


class TestStackedOneSlotGroups:
    # operator_factors transforms the real parts of a set's one-slot inputs
    # in one stacked forward real call and applies all its one-slot groups
    # in one apply_linear call, whose stack's rows are the factors.
    @pytest.mark.parametrize("case", ["sigma3-M8192", "product-n2-M64"])
    def test_factors_equal_per_group_form(self, case):
        # Each factor, as uint64, is the half-spectrum per-group form
        # (half_spectrum_form), lone real transforms per group on the plan's
        # weight parts.  The complex inputs have both parts, and so do the
        # planar symbols' weights, so there every output part sums two
        # products.
        from hardylab.operators import _plan

        if case == "sigma3-M8192":
            grid = make_grid(1, 8.0, 8192)
            sym = builtin_symbol("sigma3")
        else:
            grid = make_grid(2, 4.0, 64)
            a, b, c = (planar_linear(j) for j in range(3))
            sym = make_product_symbol([[a, b, c], [b, c, a], [a, a, c]])
        op = MultilinearOperator(sym, grid, cutoff=default_cutoff(grid))
        fs = random_inputs(grid, 3, 92)
        factors = operator_factors(op, [fs])[0]
        weights = dict(_plan(op)[0])
        assert {len(parts) for parts in weights.values()} == {1 if case == "sigma3-M8192" else 2}
        seen = set()
        for part, term in zip(op.symbol.partitions, factors):
            for (slot,), single, got in zip(part.groups, part.symbols, term):
                seen.add((slot, single))
                want = half_spectrum_form(fs[slot].values, weights[(slot,), single], grid.shape)
                assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
        assert len(seen) == (12 if case == "sigma3-M8192" else 7)

    def test_factors_are_read_only_rows_of_one_stack(self):
        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(builtin_symbol("sigma3"), grid)
        factors = operator_factors(op, [random_inputs(grid, 3, 93)])[0]
        outs = list({id(f): f for term in factors for f in term}.values())
        assert len(outs) == 12
        stack = outs[0].values.base
        for f in outs:
            assert not f.values.flags.writeable
            assert f.values.base is stack
            with pytest.raises(ValueError):
                f.values[0] = 1.0
        assert not stack.flags.writeable and stack.shape == (12, 256)

    def test_peak_memory_of_a_product_trial_stage(self):
        # Bound from the design, fixed before the first run: the outputs
        # plus at most 4 rows of 16 S bytes, for one smooth_maximal call
        # and one sigma3 operator_factors call at M=8192.  Caches (kernel
        # spectra, one-slot weights, transform plans) are warmed first.
        import tracemalloc

        from hardylab.maximal import make_bump, make_ladder, smooth_maximal

        grid = make_grid(1, 8.0, 8192)
        S = grid.size
        op = MultilinearOperator(builtin_symbol("sigma3"), grid, cutoff=default_cutoff(grid))
        bump, ladder = make_bump(1), make_ladder(grid)
        fs = random_inputs(grid, 3, 94)
        operator_factors(op, [fs])
        smooth_maximal(fs[0], bump, ladder)
        for stage in ("maximal", "factors"):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                if stage == "maximal":
                    out = smooth_maximal(fs[0], bump, ladder)
                    outputs = out.values.nbytes
                else:
                    out = operator_factors(op, [fs])[0]
                    outputs = sum(
                        f.values.nbytes for f in {id(f): f for t in out for f in t}.values()
                    )
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= outputs + 4 * 16 * S, (stage, peak, outputs)


@pytest.mark.parametrize("cutoff", [-1.0, -1e-300, float("nan")])
def test_bad_cutoff_rejected(grid32, cutoff):
    # A negative or NaN radius would mask every frequency and leave the
    # engine's box empty.
    with pytest.raises(ValueError, match="cutoff must be a non-negative radius"):
        MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32, cutoff=cutoff)


def test_zero_and_infinite_cutoffs_accepted(grid32):
    # Radius 0 keeps the zero frequency alone; an infinite one keeps them all.
    fs = random_inputs(grid32, 2, 3)
    sym = builtin_symbol("sigma1_bilinear")
    (_, zero), = apply_general(MultilinearOperator(sym, grid32, cutoff=0.0), [fs])
    assert np.count_nonzero(zero.coefficients) <= 1
    (_, inf), = apply_general(MultilinearOperator(sym, grid32, cutoff=float("inf")), [fs])
    (_, none), = apply_general(MultilinearOperator(sym, grid32), [fs])
    assert np.array_equal(inf.coefficients.view(np.uint64), none.coefficients.view(np.uint64))


class TestOneValidation:
    # Every route checks its inputs through the operator, with one message.
    ROUTES = {
        "apply_general": lambda op, fs: apply_general(op, [fs])[0],
        "apply_operator": apply_operator,
        "operator_factors": lambda op, fs: operator_factors(op, [fs])[0],
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_inputs_checked(self, route, grid32):
        op = MultilinearOperator(builtin_symbol("sigma4"), grid32)
        fs = [band_limited(grid32, s) for s in (64, 65, 66)]
        with pytest.raises(ValueError, match="operator has arity 3, got 2 inputs"):
            self.ROUTES[route](op, fs[:2])
        foreign = band_limited(make_grid(1, 4.0, 32), 67)
        with pytest.raises(ValueError, match="all inputs must share the operator's grid"):
            self.ROUTES[route](op, fs[:2] + [foreign])


class TestOneSignature:
    # The engine, the factors and the atom application each take a list of
    # input sets; the single-set call forms are gone.
    @pytest.mark.parametrize("route", [apply_general, operator_factors], ids=lambda r: r.__name__)
    def test_flat_set_names_the_sets_form(self, route, grid32):
        # One set passed without its enclosing list.
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        fs = [band_limited(grid32, 1), band_limited(grid32, 2)]
        with pytest.raises(TypeError, match=r"expected \(op, sets\).*list of one"):
            route(op, fs)

    def test_removed_call_forms(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        with pytest.raises(TypeError):
            apply_general(op, band_limited(grid32, 1), band_limited(grid32, 2))
        twins = {name for name in dir(hardylab.operators) if name.startswith("operator_factors")}
        assert twins == {"operator_factors"}
        twins = {name for name in dir(hardylab.verify) if name.startswith("apply_to_atom")}
        assert twins == {"apply_to_atoms"}


class TestSpectralMoment:
    def test_zeroth_moment_is_dc_coefficient(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        out, spec = apply_general(op, [[band_limited(grid32, 60), band_limited(grid32, 61)]])[0]
        est = spectral_moment(spec, (0,))
        assert est.spectral == spec.at_zero()
        direct = np.sum(out.values) * grid32.dx
        assert abs(est.spatial - direct) <= 1e-12 * max(abs(direct), 1e-300)

    def test_sigma1_zeroth_moment_vanishes_on_atoms(self):
        g = make_grid(1, 8.0, 256)
        s1 = builtin_symbol("sigma1")
        op = MultilinearOperator(s1, g, cutoff=default_cutoff(g))
        atoms = [
            make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=1, grid=g),
            make_atom(Cube((0.5,), 1.0), 1.0, 4, seed=2, grid=g),
            make_atom(Cube((-1.0,), 1.0), 1.0, 4, seed=3, grid=g),
        ]
        out, spec = apply_general(op, [[a.values for a in atoms]])[0]
        est = spectral_moment(spec, (0,))
        scale = np.sum(np.abs(out.values)) * g.dx
        assert abs(est.spectral) < 1e-11 * scale

    def test_sigma1_squared_first_moment_small(self):
        # The spatial-quadrature companion corroborates the spectral estimate.
        # 32 cells per atom keep the truncation ringing below the tolerance.
        g = make_grid(1, 8.0, 512)
        sq = power_symbol(builtin_symbol("sigma1"), 2)
        op = MultilinearOperator(sq, g, cutoff=default_cutoff(g), budget=2**28)
        atoms = [
            make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=4, grid=g),
            make_atom(Cube((0.5,), 1.0), 1.0, 2, seed=5, grid=g),
            make_atom(Cube((-1.0,), 1.0), 1.0, 2, seed=6, grid=g),
        ]
        out, spec = apply_general(op, [[a.values for a in atoms]])[0]
        est = spectral_moment(spec, (1,))
        scale = np.sum(np.abs(out.values)) * g.dx * atoms[0].cube.side
        assert abs(est.spectral) < 1e-6 * scale
        assert abs(est.spatial) < 1e-6 * scale

    def test_order_cap(self, grid32):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid32)
        _, spec = apply_general(op, [[band_limited(grid32, 62), band_limited(grid32, 63)]])[0]
        with pytest.raises(ValueError, match="capped"):
            spectral_moment(spec, (5,))


class TestOneRoute:
    @pytest.mark.parametrize("route", ["apply_operator", "operator_factors"])
    def test_general_operator_is_one_factor(self, route, grid32):
        # A general symbol is one term with one group of all m slots, so its
        # factors are one output and apply_operator sums that one term onto
        # zeros.  Where the cost rule keeps the group exhaustive the output
        # is the general engine's, bit for bit; sigma3_factored (ranks 3/3)
        # goes to its tensor train at M=32, and is within the train's bound.
        general = [builtin_symbol(name) for name in BUILTIN_NAMES]
        general = [sym for sym in general if sym.kind == "general"]
        assert len(general) == 4
        for sym in general:
            for cutoff in (None, default_cutoff(grid32)):
                op = MultilinearOperator(sym, grid32, cutoff)
                fs = [band_limited(grid32, s) for s in range(68, 68 + sym.m)]
                want = apply_general(op, [fs])[0][0].values
                factors = operator_factors(op, [fs])[0]
                assert (factors.bound > 0) == (sym.name == "sigma3_factored")
                if route == "operator_factors":
                    assert len(factors) == 1 and len(factors[0]) == 1
                    got = factors[0][0].values
                else:
                    got = apply_operator(op, fs).values
                    want = np.zeros(grid32.shape, dtype=np.complex128) + want
                if factors.bound:
                    scale = float(np.prod([input_scale(f) for f in fs]))
                    assert np.max(np.abs(got - want)) <= factors.bound + LOW_RANK_ROUNDING * scale
                else:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# The split engine: a tensor train of every order
# ---------------------------------------------------------------------------


def two_slot_symbols():
    """The builtin two-slot symbols: sigma1_bilinear, sigma4's bilinear
    group and sigma2's four groups on slots {2, 3}."""
    (bilinear,) = [
        s for part in _sigma4_terms() for g, s in zip(part.groups, part.symbols) if len(g) == 2
    ]
    symbols = {"sigma1_bilinear": builtin_symbol("sigma1_bilinear"), "sigma4-bilinear": bilinear}
    for k, part in enumerate(_sigma2_terms()):
        symbols[f"sigma2-{k}"] = part.symbols[1]
    return symbols


TWO_SLOT = two_slot_symbols()

# What the two engines' own sums and transforms may differ by, as a share
# of the inputs' scales dxi^n |f^|_1 (``input_scale``): the exhaustive sum's
# pairwise tree and the split's r products of transforms each lose a few
# tens of rounding units.  Fixed before any example ran.
LOW_RANK_ROUNDING = 1e-14


def input_scale(f):
    """dxi^n |f^|_1: a bound on sup |f| read from the spectrum."""
    return float(np.sum(np.abs(dft(f).coefficients))) * f.grid.dxi**f.grid.n


def low_rank_inputs(grid):
    """Two atom pairs (side 0.5, cancellation orders 2 and 0) and two pairs
    of smooth wave packets."""
    atoms = [
        [
            make_atom(Cube((0.25,), 0.5), 1.0, 2, seed, grid).values,
            make_atom(Cube((-0.5,), 0.5), 1.0, 0, seed + 1, grid).values,
        ]
        for seed in (3, 5)
    ]
    x = grid.axis_points()
    packets = [
        [
            SampledFunction(grid, np.exp(-((x - c) ** 2) / 2) * np.exp(2j * np.pi * k * x))
            for c, k in ((0.3 * s, 0.7), (-0.4, 1.3 * s))
        ]
        for s in (1.0, -1.0)
    ]
    return atoms + packets


def three_slot_symbols():
    """The builtin three-slot symbols: sigma4's trilinear group and the
    three general trilinear builtins."""
    symbols = {"sigma4-trilinear": sigma4_trilinear_group()}
    for name in ("sigma1", "sigma2_factored", "sigma3_factored"):
        symbols[name] = builtin_symbol(name)
    return symbols


THREE_SLOT = three_slot_symbols()


def four_slot_symbol():
    """cos(xi_1 + ... + xi_4) times 1/(1 + xi_k^2) per slot: cos of a sum
    is a sum of two products in every split of the slots, so its train has
    ranks (2, 2, 2)."""

    def evaluate(*xis):
        out = np.cos(sum(xi[..., 0] for xi in xis))
        for xi in xis:
            out = out / (1.0 + xi[..., 0] ** 2)
        return out

    return Symbol(m=4, n=1, evaluate=evaluate, name="cos4")


SPLIT = {**TWO_SLOT, **THREE_SLOT, "cos4": four_slot_symbol()}


def train_packets(grid):
    """Two triples of smooth wave packets."""
    x = grid.axis_points()
    return [
        [
            SampledFunction(grid, np.exp(-((x - c) ** 2) / 2) * np.exp(2j * np.pi * k * x))
            for c, k in ((0.3 * s, 0.7), (-0.4, 1.3 * s), (0.8, -0.5 * s))
        ]
        for s in (1.0, -1.0)
    ]


def train_inputs(grid):
    """Two atom triples (side 1, cancellation orders 2, 0 and 1) and
    ``train_packets``."""
    atoms = [
        [
            make_atom(Cube((c,), 1.0), 1.0, N, seed + k, grid).values
            for k, (c, N) in enumerate(((0.25, 2), (-0.5, 0), (0.75, 1)))
        ]
        for seed in (3, 5)
    ]
    return atoms + train_packets(grid)


def split_inputs(grid, m, M):
    """The agreement cases' input sets, by arity."""
    if m == 2:
        return low_rank_inputs(grid)[:: 1 if M < 4096 else 2]
    if m == 3:
        return train_inputs(grid)
    return [random_inputs(grid, m, seed) for seed in (40, 41)]


def train_tensor(factors):
    """The split as a whole (P,) * m array."""
    out = factors.core(0)[0].T
    for k in range(1, len(factors.cores)):
        out = np.moveaxis(np.tensordot(out, factors.core(k), axes=(-1, 0)), -1, -2)
    return out[..., 0]


def lemmas_check_outputs():
    """T applied to the two atom sets configs/lemmas.ini checks (the full-
    order atoms and the decay atoms), through the rule's engine."""
    import hardylab.cli
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / "lemmas.ini"
    config, _ = hardylab.cli.load_config(str(path))
    ctx = hardylab.verify.run_context(config)
    sets = [hardylab.cli._check_atoms(ctx, order) for order in (ctx.idx.N, 0)]
    return ctx, hardylab.verify.apply_to_atoms(ctx.op, sets)


def check_split_against_oracle(symbol, grid, cut, idx, sets):
    """The split's output at the points ``idx`` is within its bound of the
    oracle's."""
    from hardylab.operators import apply_tensor_train, tensor_train_factors

    op = MultilinearOperator(symbol, grid, case_cutoff(grid, cut))
    factors = tensor_train_factors(op.symbol, grid, op.cutoff, np.inf)
    for fs in sets:
        ((out, bound),) = apply_tensor_train(op, factors, [fs])
        oracle = apply_oracle(op, fs, grid.axis_points()[idx][:, None])
        scale = float(np.prod([input_scale(f) for f in fs]))
        assert np.max(np.abs(out.values[idx] - oracle)) <= bound + LOW_RANK_ROUNDING * scale


def check_planar_split(m, M, cut):
    """The split of ``planar_symbol(m)`` on an n = 2 grid agrees with the
    exhaustive sum within its bound."""
    from hardylab.operators import apply_tensor_train, tensor_train_factors

    grid = make_grid(2, 4.0, M)
    op = MultilinearOperator(planar_symbol(m), grid, case_cutoff(grid, cut))
    factors = tensor_train_factors(op.symbol, grid, op.cutoff, np.inf)
    sets = [random_inputs(grid, m, seed) for seed in (40, 41)]
    for (out, bound), (want, _), fs in zip(
        apply_tensor_train(op, factors, sets), apply_general(op, sets), sets
    ):
        scale = float(np.prod([input_scale(f) for f in fs]))
        assert np.max(np.abs(out.values - want.values)) <= bound + LOW_RANK_ROUNDING * scale


def check_bound_attained(symbol, M):
    """Plane waves at the tuple of largest residual meet the bound within a
    factor of a thousand."""
    from hardylab.grid import _box_lattice
    from hardylab.operators import apply_tensor_train, tensor_train_factors

    grid = make_grid(1, 8.0, M)
    op = MultilinearOperator(symbol, grid)
    factors = tensor_train_factors(op.symbol, grid, None, np.inf)
    _, xi, mask = _box_lattice(grid, None)
    expand = [(None,) * k + (slice(None),) + (None,) * (op.m - 1 - k) for k in range(op.m)]
    A = op.symbol.evaluate(*[xi[e] for e in expand])
    for e in expand:
        A = A * mask[e]
    residual = A - train_tensor(factors)
    at = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
    x = grid.axis_points()
    fs = [SampledFunction(grid, np.exp(2j * np.pi * xi[k, 0] * x)) for k in at]
    ((out, bound),) = apply_tensor_train(op, factors, [fs])
    err = np.max(np.abs(out.values - apply_general(op, [fs])[0][0].values))
    assert err <= bound <= 1e3 * err


def check_batch_of_one(symbol, grid, cut):
    """Set 2 of a batch of five comes out bit for bit as it does alone."""
    op = MultilinearOperator(symbol, grid, case_cutoff(grid, cut))
    sets = [random_inputs(grid, op.m, seed) for seed in range(50, 55)]
    batch = operator_factors(op, sets)
    assert batch[2].bound > 0
    hardylab.operators._plan.cache_clear()  # the second call factors again
    (alone,) = operator_factors(op, [sets[2]])
    got, want = alone[0][0].values, batch[2][0][0].values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert alone.bound == batch[2].bound


class TestLowRank:
    @pytest.mark.parametrize("cut", ["uncut", "cut"])
    @pytest.mark.parametrize(
        "name, M",
        [(name, M) for name in TWO_SLOT for M in (1024, 4096)]
        + [(name, 256) for name in THREE_SLOT]
        + [("cos4", 16)],
    )
    def test_agrees_with_exhaustive_within_bound(self, name, M, cut):
        # The engine is called directly, whatever the cost rule picks.
        from hardylab.operators import apply_tensor_train, tensor_train_factors

        grid = make_grid(1, 8.0, M)
        op = MultilinearOperator(SPLIT[name], grid, case_cutoff(grid, cut))
        factors = tensor_train_factors(op.symbol, grid, op.cutoff, np.inf)
        sets = split_inputs(grid, op.m, M)
        for (out, bound), (want, _), fs in zip(
            apply_tensor_train(op, factors, sets), apply_general(op, sets), sets
        ):
            scale = float(np.prod([input_scale(f) for f in fs]))
            assert 0 < bound <= factors.eps * scale * (1 + 1e-12)
            assert np.max(np.abs(out.values - want.values)) <= bound + LOW_RANK_ROUNDING * scale

    @pytest.mark.parametrize("cut", ["uncut", "cut"])
    def test_agrees_with_oracle_within_bound(self, cut):
        grid = make_grid(1, 8.0, 1024)
        check_split_against_oracle(
            TWO_SLOT["sigma1_bilinear"], grid, cut, [300, 700], low_rank_inputs(grid)[1:2]
        )

    @pytest.mark.parametrize("cut", ["uncut", "cut"])
    def test_train_agrees_with_oracle_within_bound(self, cut):
        grid = make_grid(1, 8.0, 64)
        check_split_against_oracle(
            THREE_SLOT["sigma4-trilinear"], grid, cut, [20, 40], train_packets(grid)[:1]
        )

    @pytest.mark.parametrize("cut", ["uncut", "cut", "ball"])
    def test_two_dimensional_split(self, cut):
        # n = 2 runs the same code on the flattened box; "ball" keeps a box
        # whose corners the cutoff masks.
        check_planar_split(2, 16, cut)

    @pytest.mark.parametrize("cut", ["uncut", "cut", "ball"])
    def test_train_two_dimensional(self, cut):
        check_planar_split(3, 8, cut)

    def test_bound_is_attained_within_a_thousand(self):
        # Plane waves at the tuple where the split's residual over the whole
        # box is largest make the error that residual itself, the worst case
        # the bound covers.
        check_bound_attained(TWO_SLOT["sigma1_bilinear"], 1024)

    def test_train_bound_is_attained_within_a_thousand(self):
        check_bound_attained(THREE_SLOT["sigma4-trilinear"], 64)

    def test_bound_on_lemmas_keeps_every_decay_probe(self):
        # On lemmas' check atoms the bound is under 1e-8 of max |T|, and as
        # the decay fit's floor it drops no probe.
        import dataclasses

        ctx, outputs = lemmas_check_outputs()
        for t in outputs:
            assert 0 < t.error_bound <= 1e-8 * t.out.max_abs()
        decay = outputs[1]
        with_bound = hardylab.verify.check_decay_lemma(decay, ctx.idx.N)
        exact = dataclasses.replace(decay, error_bound=0.0)
        without = hardylab.verify.check_decay_lemma(exact, ctx.idx.N)
        assert with_bound.probe_count == without.probe_count
        assert with_bound.slope == without.slope

    def test_closed_form_fit_on_lemmas_decay_probes(self, monkeypatch):
        # The decay fit's slope and stderr, from centred sums, agree with a
        # least-squares solve on the probes lemmas.ini fits.
        fits = []
        line_fit = hardylab.verify._line_fit

        def recording(x, y):
            fits.append((x, y, line_fit(x, y)))
            return fits[-1][2]

        monkeypatch.setattr(hardylab.verify, "_line_fit", recording)
        ctx, outputs = lemmas_check_outputs()
        report = hardylab.verify.check_decay_lemma(outputs[1], ctx.idx.N)
        ((x, y, (slope, stderr)),) = fits
        assert x.size == report.probe_count
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, residuals, _, _ = np.linalg.lstsq(A, y, rcond=None)
        want = np.sqrt(residuals[0] / (x.size - 2) / np.sum((x - x.mean()) ** 2))
        assert slope == pytest.approx(coef[0], rel=1e-12)
        assert stderr == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", list(TWO_SLOT) + ["complex"])
    def test_split_rows_have_the_symbols_dtype(self, name):
        # One precision: u = cores[0][0] and v = cores[1][:, 0] are (rank,
        # P) arrays in the symbol's dtype.
        from hardylab.operators import tensor_train_factors

        grid = make_grid(1, 8.0, 256)
        if name == "complex":
            sym = Symbol(
                m=2,
                n=1,
                evaluate=lambda a, b: np.exp(1j * (a - b)[..., 0]) / (1.0 + (a * a + b * b)[..., 0]),
                name="complex-pair",
            )
        else:
            sym = TWO_SLOT[name]
        factors = tensor_train_factors(sym, grid, None, np.inf)
        dtype = np.asarray(sym.evaluate(np.zeros((1, 1)), np.ones((1, 1)))).dtype
        assert dtype == (np.complex128 if name == "complex" else np.float64)
        (rank,) = factors.ranks
        for rows in (factors.cores[0][0], factors.cores[1][:, 0]):
            assert isinstance(rows, np.ndarray) and rows.shape == (rank, grid.M)
            assert rows.dtype == dtype

    def test_batch_of_one_equals_batch_of_five(self):
        check_batch_of_one(TWO_SLOT["sigma1_bilinear"], make_grid(1, 8.0, 4096), "uncut")

    def test_train_batch_of_one_equals_batch_of_five(self):
        check_batch_of_one(THREE_SLOT["sigma4-trilinear"], make_grid(1, 8.0, 256), "cut")

    def test_cost_rule(self):
        # The rule, sum_k r_{k-1} r_k log2 S < W^(n(m-1)), depends on (symbol,
        # grid, cutoff) alone and is read on the cross's ranks.  At m = 2
        # (2 r log2 S < W^n): mixed-trilinear's bilinear group (M=256,
        # W=129) and every two-slot builtin at n = 1 up to M=512 stay
        # exhaustive; lemmas' and boundedness.ini's grids split.
        from hardylab.operators import _cost_cap, tensor_train_factors

        for M in (8, 16, 32, 64, 128, 256, 512):
            grid = make_grid(1, 8.0, M)
            for sym in TWO_SLOT.values():
                for cutoff in (None, default_cutoff(grid)):
                    assert tensor_train_factors(sym, grid, cutoff, _cost_cap(grid, cutoff, 2)) is None
        for M in (2048, 4096):
            grid = make_grid(1, 8.0, M)
            sym = TWO_SLOT["sigma1_bilinear"]
            factors = tensor_train_factors(sym, grid, None, _cost_cap(grid, None, 2))
            assert factors is not None and 2 * factors.ranks[0] * np.log2(M) < M

    def test_train_cost_rule(self):
        # At m = 3 the rule is (r1 + r1 r2 + r2) log2 S < W^2, by builtin,
        # grid and cutoff at n = 1: the cross gives sigma3_factored ranks
        # 3/3, sigma2_factored 3 and 27-36, sigma4's trilinear group 27/27 at
        # M=128 uncut and at M=256 cut (the exhaustive SVD ranks at 3e-15
        # there), and sigma1 about 53/53 at M=256 cut, too many: it stays
        # exhaustive, as exact SVD ranks say.
        from hardylab.operators import _cost_cap, tensor_train_factors

        train = {  # (M, cut) -> the three-slot builtins that split
            (16, False): {"sigma3_factored"},
            (16, True): set(),
            (32, False): {"sigma3_factored"},
            (32, True): {"sigma3_factored"},
            (64, False): {"sigma3_factored", "sigma2_factored"},
            (64, True): {"sigma3_factored"},
            (128, False): {"sigma3_factored", "sigma2_factored", "sigma4-trilinear"},
            (128, True): {"sigma3_factored", "sigma2_factored"},
            (256, True): {"sigma3_factored", "sigma2_factored", "sigma4-trilinear"},
        }
        for (M, cut), want in train.items():
            grid = make_grid(1, 8.0, M)
            cutoff = default_cutoff(grid) if cut else None
            cap = _cost_cap(grid, cutoff, 3)
            got = set()
            for name, sym in THREE_SLOT.items():
                factors = tensor_train_factors(sym, grid, cutoff, cap)
                if factors is not None:
                    r1, r2 = factors.ranks
                    assert r1 + r1 * r2 + r2 < cap
                    got.add(name)
            assert got == want, (M, cut)
        grid = make_grid(1, 8.0, 256)
        factors = tensor_train_factors(
            THREE_SLOT["sigma4-trilinear"], grid, default_cutoff(grid), np.inf
        )
        assert factors.ranks == (27, 27)

    def test_cost_cap_binds_before_the_left_bond(self):
        # sigma1 at M=256 with the default cutoff stays exhaustive.  The
        # ranks of its seed, the slices through the origin and the largest
        # sampled entry, bound r1 from below, so the cost rule stops the
        # right bond before the left one is read: under the 486,201 entries
        # that crossing both bonds reads.
        from dataclasses import replace

        from hardylab.operators import _cost_cap, tensor_train_factors

        grid = make_grid(1, 8.0, 256)
        cutoff = default_cutoff(grid)
        read = []
        sym = THREE_SLOT["sigma1"]

        def counting(*xis):
            out = np.asarray(sym.evaluate(*xis))
            read.append(out.size)
            return out

        counted = replace(sym, evaluate=counting)
        assert tensor_train_factors(counted, grid, cutoff, _cost_cap(grid, cutoff, 3)) is None
        assert sum(read) < 486_201

    def test_routes_by_the_rule(self, monkeypatch):
        # operator_factors sends a two-slot group to its split only where the
        # rule picks it; apply_general is never routed.
        calls = []
        original = hardylab.operators.apply_general

        def counting(op, sets):
            calls.append(op.grid.M)
            return original(op, sets)

        monkeypatch.setattr(hardylab.operators, "apply_general", counting)
        sym = TWO_SLOT["sigma1_bilinear"]
        for M in (512, 4096):
            grid = make_grid(1, 8.0, M)
            out = operator_factors(MultilinearOperator(sym, grid), [random_inputs(grid, 2, 60)])[0]
            assert (out.bound > 0) == (M == 4096)
        assert calls == [512]

    def test_factor_bound_times_other_factors(self, monkeypatch):
        # sigma2's {2, 3} groups split at M=2048 and its {1} factors are
        # exact, so each term's bound is b times the one-slot factor's sup
        # norm, and the sum of products is within the sum of those of the
        # one with every group exhaustive.
        from hardylab.operators import (
            _cost_cap,
            apply_tensor_train,
            sum_of_products,
            tensor_train_factors,
        )

        grid = make_grid(1, 8.0, 2048)
        op = MultilinearOperator(builtin_symbol("sigma2"), grid)
        inputs = low_rank_inputs(grid)
        fs = inputs[0] + [inputs[2][0]]
        factors = operator_factors(op, [fs])[0]
        want = 0.0
        for part, (single, _) in zip(op.symbol.partitions, factors):
            pair_op = MultilinearOperator(part.symbols[1], grid)
            split = tensor_train_factors(pair_op.symbol, grid, None, _cost_cap(grid, None, 2))
            ((_, b),) = apply_tensor_train(pair_op, split, [fs[1:]])
            want += b * single.max_abs()
        assert factors.bound > 0
        assert factors.bound == pytest.approx(want, rel=1e-9)
        monkeypatch.setattr(hardylab.operators, "_cost_cap", lambda grid, cutoff, m: 0)
        hardylab.operators._plan.cache_clear()  # the operator's splits are kept
        exhaustive = operator_factors(op, [fs])[0]
        assert exhaustive.bound == 0.0
        err = np.max(np.abs(sum_of_products(factors).values - sum_of_products(exhaustive).values))
        scale = float(np.prod([input_scale(f) for f in fs]))
        assert err <= factors.bound + LOW_RANK_ROUNDING * scale

    def test_train_of_a_symbol_of_known_rank(self):
        # sigma3_factored is a sum of three products in (xi_1 | xi_2, xi_3)
        # and in (xi_1, xi_2 | xi_3); cos4 one of two products across every
        # bond.  Each split is exact up to rounding.
        from hardylab.operators import tensor_train_factors

        cases = ((THREE_SLOT["sigma3_factored"], 256, (3, 3)), (SPLIT["cos4"], 16, (2, 2, 2)))
        for symbol, M, ranks in cases:
            grid = make_grid(1, 8.0, M)
            for cutoff in (None, default_cutoff(grid)):
                factors = tensor_train_factors(symbol, grid, cutoff, np.inf)
                assert factors.ranks == ranks
                assert factors.eps < 1e-12

    def test_train_routing_on_mixed_trilinear(self, monkeypatch):
        # On sigma4 at M=256 with the default cutoff, apply_general runs the
        # bilinear group and never the trilinear one, which the train takes.
        arities = []
        original = hardylab.operators.apply_general

        def counting(op, sets):
            arities.append(op.m)
            return original(op, sets)

        monkeypatch.setattr(hardylab.operators, "apply_general", counting)
        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(builtin_symbol("sigma4"), grid, default_cutoff(grid))
        factors = operator_factors(op, [random_inputs(grid, 3, seed) for seed in (60, 61)])
        assert arities == [2]
        assert all(f.bound > 0 for f in factors)

    def test_split_factored_once_per_operator(self, tmp_path, monkeypatch):
        # One mixed-trilinear ensemble plus its checks factors each group
        # once: every group of the operator keeps its split, the bilinear
        # group's None included.
        import hardylab.cli

        calls = []
        original = hardylab.operators.tensor_train_factors

        def counting(symbol, *args):
            calls.append(symbol.name)
            return original(symbol, *args)

        monkeypatch.setattr(hardylab.operators, "tensor_train_factors", counting)
        path = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "mixed-trilinear.ini"
        out = tmp_path / "out"
        assert hardylab.cli.main(["run", str(path), "--out", str(out), "--jobs", "1"]) == 0
        parts = _sigma4_terms()
        groups = {sym.name for part in parts for g, sym in zip(part.groups, part.symbols) if len(g) > 1}
        assert sorted(calls) == sorted(groups)
        assert len(calls) == 2

    def test_previous_plan_is_dropped_before_the_next_cross(self, monkeypatch):
        # Only one operator's splits are held at a time: a second operator's
        # cross runs after the first operator's plan has gone.
        held = []
        original = hardylab.operators.tensor_train_factors

        def counting(*args):
            held.append(hardylab.operators._plan.cache_info().currsize)
            return original(*args)

        monkeypatch.setattr(hardylab.operators, "tensor_train_factors", counting)
        sym = TWO_SLOT["sigma1_bilinear"]
        for M in (512, 1024):
            grid = make_grid(1, 8.0, M)
            operator_factors(MultilinearOperator(sym, grid), [random_inputs(grid, 2, 62)])
        assert held == [0, 0]

    def test_train_bound_on_mixed_trilinear_check_atoms(self):
        # On the check atoms of mixed-trilinear the trilinear group's bound
        # is under 1e-8 of max |T|.
        import hardylab.cli

        path = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "mixed-trilinear.ini"
        config, _ = hardylab.cli.load_config(str(path))
        ctx = hardylab.verify.run_context(config)
        atoms = hardylab.cli._check_atoms(ctx, ctx.idx.N)
        (t,) = hardylab.verify.apply_to_atoms(ctx.op, [atoms])
        assert 0 < t.error_bound <= 1e-8 * t.out.max_abs()
