import itertools
import math

import numpy as np
import pytest

import hardylab.operators
import hardylab.verify
from hardylab.atoms import Cube, _monomial_exponents, dilate_cube, make_atom
from hardylab.grid import dft, lp_quasinorm, make_grid
from hardylab.maximal import make_ladder
from hardylab.operators import MultilinearOperator, apply_operator, default_cutoff, spectral_moment
from hardylab.symbols import (
    BUILTIN_NAMES,
    Partition,
    Symbol,
    builtin_symbol,
    make_mixed_symbol,
    make_product_symbol,
)
from hardylab.verify import (
    ExperimentConfig,
    LocalEstimateReport,
    ScaleInvarianceReport,
    apply_to_atoms,
    check_cancellation,
    check_decay_lemma,
    check_fs_inequality,
    check_local_estimate,
    check_pointwise_majorant,
    index_arithmetic,
    replay_trial,
    run_boundedness_ensemble,
    run_context,
    run_trial,
    scale_invariance_test,
    trial_seed,
)


class TestIndexArithmetic:
    def test_two_ones(self):
        idx = index_arithmetic((1.0, 1.0), 1)
        assert idx.p == pytest.approx(0.5)
        assert idx.s == 1
        assert idx.N == 8

    def test_two_twos(self):
        idx = index_arithmetic((2.0, 2.0), 1)
        assert idx.p == pytest.approx(1.0)
        assert idx.s == 0
        assert idx.N == 4

    def test_trilinear_thirds(self):
        idx = index_arithmetic((1.5, 1.5, 1.5), 1)
        assert idx.p == pytest.approx(0.5)
        assert idx.s == 1
        assert idx.N == 3 * (1 + 1 + 2)

    def test_boundary_integer_kept(self):
        # n(1/p - 1) landing exactly on an integer keeps that integer.
        idx = index_arithmetic((2.0, 2.0, 2.0), 2)
        assert idx.p == pytest.approx(2.0 / 3.0)
        assert idx.s == 1

    def test_infinite_exponent_allowed_general(self):
        idx = index_arithmetic((1.0, math.inf), 1, symbol=builtin_symbol("sigma1_bilinear"))
        assert idx.p == pytest.approx(1.0)

    def test_all_infinite_rejected_for_types(self):
        sb = builtin_symbol("sigma1_bilinear")
        one = builtin_symbol("constant_one", m=1)
        symbols = {
            "general": sb,
            "product": make_product_symbol([(one, one)]),
            "mixed": make_mixed_symbol([Partition(((0, 1),), (sb,))]),
        }
        for kind, sym in symbols.items():
            assert sym.kind == kind
            with pytest.raises(ValueError, match="inf"):
                index_arithmetic((math.inf, math.inf), 1, symbol=sym)

    def test_product_rejects_any_infinite(self):
        one = builtin_symbol("constant_one", m=1)
        with pytest.raises(ValueError, match="product"):
            index_arithmetic((1.0, math.inf), 1, symbol=make_product_symbol([(one, one)]))

    def test_mixed_group_needs_finite_slot(self):
        sb = builtin_symbol("sigma1_bilinear")
        lin = builtin_symbol("constant_one", m=1)
        sym = make_mixed_symbol([Partition(((0, 1), (2,)), (sb, lin))])
        idx = index_arithmetic((math.inf, 1.0, 2.0), 1, symbol=sym)
        assert idx.p == pytest.approx(2.0 / 3.0)
        with pytest.raises(ValueError, match="finite"):
            index_arithmetic((1.0, 2.0, math.inf), 1, symbol=sym)

    @pytest.mark.parametrize(
        "name, pattern",
        [
            (name, "".join(p))
            for name in BUILTIN_NAMES
            for p in itertools.product("2i", repeat=builtin_symbol(name).m)
        ],
    )
    def test_exponent_rule_table(self, name, pattern):
        # The patterns each builtin rejects, written out: "i" is p = inf.
        # A general symbol is one group of all slots, a product symbol's
        # groups are single slots, sigma2 groups {1} + {2, 3}, and sigma4's
        # terms group {1, 2} + {3} and {1, 2, 3}.
        rejected = {
            "sigma1": {"iii"},
            "sigma2": {"i22", "i2i", "ii2", "iii", "2ii"},
            "sigma2_factored": {"iii"},
            "sigma3": {"i22", "2i2", "22i", "ii2", "i2i", "2ii", "iii"},
            "sigma3_factored": {"iii"},
            "sigma4": {"22i", "i2i", "2ii", "iii", "ii2"},
            "constant_one": {"i22", "2i2", "22i", "ii2", "i2i", "2ii", "iii"},
            "sigma1_bilinear": {"ii"},
        }[name]
        exponents = [math.inf if c == "i" else 2.0 for c in pattern]
        sym = builtin_symbol(name)
        if pattern in rejected:
            with pytest.raises(ValueError, match=f"{sym.kind} type .*finite"):
                index_arithmetic(exponents, 1, symbol=sym)
        else:
            idx = index_arithmetic(exponents, 1, symbol=sym)
            assert idx.p == 2.0 / pattern.count("2")

    def test_n_override(self):
        assert index_arithmetic((1.0, 1.0), 1, N_override=3).N == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_arithmetic((0.0, 1.0), 1)


@pytest.fixture(scope="module")
def grid256():
    return make_grid(1, 8.0, 256)


@pytest.fixture(scope="module")
def trilinear_atoms(grid256):
    return [
        make_atom(Cube((0.0,), 1.0), 1.0, 6, seed=1, grid=grid256),
        make_atom(Cube((0.5,), 1.0), 1.0, 6, seed=2, grid=grid256),
        make_atom(Cube((-1.0,), 1.0), 1.0, 6, seed=3, grid=grid256),
    ]


class TestCancellation:
    def test_sigma1_zeroth_moment(self, grid256, trilinear_atoms):
        op = MultilinearOperator(
            builtin_symbol("sigma1"), grid256, cutoff=default_cutoff(grid256)
        )
        rep = check_cancellation(apply_to_atoms(op, [trilinear_atoms])[0], s=0)
        assert rep.max_normalized < 1e-10
        assert rep.passed

    def test_negative_control_flagged(self, grid256):
        # Same atom twice under the constant symbol: the output is a square,
        # so its mean cannot cancel.
        a = make_atom(Cube((0.0,), 1.0), 1.0, 6, seed=5, grid=grid256)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid256)
        rep = check_cancellation(apply_to_atoms(op, [[a, a]])[0], s=0, tolerance=1e-2)
        assert rep.max_normalized > 1e-2
        assert not rep.passed

    def test_product_path_spectrum(self, grid256):
        s3 = builtin_symbol("sigma3")
        op = MultilinearOperator(s3, grid256, cutoff=default_cutoff(grid256))
        atoms = [
            make_atom(Cube((0.0,), 1.0), 1.0, 4, seed=6, grid=grid256),
            make_atom(Cube((0.5,), 1.0), 1.0, 4, seed=7, grid=grid256),
            make_atom(Cube((-0.5,), 1.0), 1.0, 4, seed=8, grid=grid256),
        ]
        rep = check_cancellation(apply_to_atoms(op, [atoms])[0], s=0, tolerance=1e-10)
        assert rep.passed


def _moment_maximum(t, s):
    """The largest of |spectral| and |spatial| / (|T|_1 ell^|alpha|) over
    |alpha| <= s, as a per-multi-index record of both moments reads it."""
    spectrum = dft(t.out)
    scale = max(lp_quasinorm(t.out, 1.0), np.finfo(float).tiny)
    ell = min(a.cube.side for a in t.atoms)
    spectral, spatial = [], []
    for alpha in _monomial_exponents(t.op.grid.n, s):
        est = spectral_moment(spectrum, alpha)
        spectral.append(abs(est.spectral) / (scale * ell ** sum(alpha)))
        spatial.append(abs(est.spatial) / (scale * ell ** sum(alpha)))
    return max(max(spectral), max(spatial))


def _planar_bump():
    return Symbol(
        m=1,
        n=2,
        evaluate=lambda xi: (xi[..., 0] + 2.0 * xi[..., 1]) / (1.0 + np.sum(xi * xi, axis=-1)),
        name="planar_bump",
    )


class TestCancellationMaximum:
    # check_cancellation keeps only the largest normalized moment; it is
    # the maximum of every multi-index's spectral and spatial moment.
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_n1(self, grid256, trilinear_atoms, s):
        op = MultilinearOperator(
            builtin_symbol("sigma1"), grid256, cutoff=default_cutoff(grid256)
        )
        t = apply_to_atoms(op, [trilinear_atoms])[0]
        rep = check_cancellation(t, s=s)
        want = np.float64(_moment_maximum(t, s))
        assert np.float64(rep.max_normalized).view(np.uint64) == want.view(np.uint64)

    def test_n2(self):
        grid = make_grid(2, 8.0, 512)
        op = MultilinearOperator(_planar_bump(), grid)
        atom = make_atom(Cube((0.0, 0.0), 0.5), 1.0, 2, seed=4, grid=grid)
        t = apply_to_atoms(op, [[atom]])[0]
        rep = check_cancellation(t, s=1)
        want = np.float64(_moment_maximum(t, 1))
        assert want > 0
        assert np.float64(rep.max_normalized).view(np.uint64) == want.view(np.uint64)


class TestDecay:
    def test_slope_with_cancellation(self):
        g = make_grid(1, 8.0, 4096)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 0.5)
        a1 = make_atom(q, 1.0, 2, seed=11, grid=g)
        a2 = make_atom(q, 1.0, 0, seed=12, grid=g)
        rep = check_decay_lemma(apply_to_atoms(op, [[a1, a2]])[0], N=2)
        assert rep.slope <= -(1 + 2 + 1) + 0.75
        assert rep.passed

    def test_negative_control_rises(self):
        g = make_grid(1, 8.0, 4096)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 0.5)
        b1 = make_atom(q, 1.0, 2, seed=11, grid=g, skip_projection=True)
        b2 = make_atom(q, 1.0, 0, seed=12, grid=g, skip_projection=True)
        rep = check_decay_lemma(apply_to_atoms(op, [[b1, b2]])[0], N=2)
        assert rep.slope > -(1 + 1) - 0.5
        assert not rep.passed

    def test_probe_guard(self):
        g = make_grid(1, 8.0, 512)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 1.0)
        a1 = make_atom(q, 1.0, 0, seed=1, grid=g)
        a2 = make_atom(q, 1.0, 0, seed=2, grid=g)
        with pytest.raises(ValueError, match="octave"):
            check_decay_lemma(apply_to_atoms(op, [[a1, a2]])[0], N=0, max_distance=3.5)


class TestMedianAndFit:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 49, 50])
    def test_median_is_numpy_median_bitwise(self, size):
        # Odd and even counts, duplicates, signed zeros, subnormals and NaN.
        rng = np.random.default_rng(size)
        cases = [
            rng.standard_normal(size),
            rng.integers(-2, 3, size).astype(float),
            rng.choice([0.0, -0.0], size),
            rng.choice([-0.0, 0.0, 1.0, -1.0], size),
            rng.choice([-5e-324, -0.0, 0.0, 5e-324], size),
        ]
        nan = rng.standard_normal(size)
        nan[rng.integers(size)] = np.nan
        cases.append(nan)
        for values in cases:
            got = np.float64(hardylab.verify._median(list(values)))
            want = np.float64(np.median(values))
            assert got.view(np.uint64) == want.view(np.uint64), values

    @pytest.mark.parametrize("seed", range(5))
    def test_line_fit_matches_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        x = np.log(rng.uniform(0.5, 8.0, 40 + seed))
        y = -3.0 * x + 0.7 + 0.1 * rng.standard_normal(x.size)
        slope, stderr = hardylab.verify._line_fit(x, y)
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, residuals, _, _ = np.linalg.lstsq(A, y, rcond=None)
        want = np.sqrt(residuals[0] / (x.size - 2) / np.sum((x - x.mean()) ** 2))
        assert slope == pytest.approx(coef[0], rel=1e-12)
        assert stderr == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def grid1024():
    return make_grid(1, 8.0, 1024)


@pytest.fixture(scope="module")
def bilinear_atoms(grid1024):
    idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
    return [
        make_atom(Cube((0.25,), 0.25), 2.0, idx.N, seed=1, grid=grid1024),
        make_atom(Cube((-1.0,), 0.5), 2.0, idx.N, seed=2, grid=grid1024),
    ]


class TestLocalEstimate:
    def test_equal_cubes_ratio_finite(self, grid1024):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        atoms = [
            make_atom(Cube((0.0,), 1.0), 2.0, 2, seed=3, grid=grid1024),
            make_atom(Cube((0.0,), 1.0), 2.0, 2, seed=4, grid=grid1024),
        ]
        rep = check_local_estimate(apply_to_atoms(op, [atoms])[0], r=2.0, N=2)
        assert np.isfinite(rep.ratio_direct) and rep.ratio_direct > 0
        assert np.isfinite(rep.ratio_maximal)

    def test_disjoint_geometry(self, grid1024, bilinear_atoms):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        rep = check_local_estimate(apply_to_atoms(op, [bilinear_atoms])[0], r=2.0, N=2)
        assert np.isfinite(rep.ratio_direct)

    def test_r_guard(self, grid1024, bilinear_atoms):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        with pytest.raises(ValueError):
            check_local_estimate(apply_to_atoms(op, [bilinear_atoms])[0], r=1.0, N=2)

    def test_zero_atoms_trivially_pass(self, grid1024):
        from hardylab.atoms import Atom
        from hardylab.grid import SampledFunction

        zero = SampledFunction(grid1024, np.zeros(grid1024.shape))
        atoms = [
            Atom(Cube((0.0,), 1.0), zero, 2.0, 2, None),
            Atom(Cube((0.5,), 1.0), zero, 2.0, 2, None),
        ]
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        rep = check_local_estimate(apply_to_atoms(op, [atoms])[0], r=2.0, N=2)
        assert rep.lhs_direct == 0.0 and rep.ratio_direct == 0.0


def _product_pair_symbol():
    from hardylab.symbols import Symbol, _lift1, make_product_symbol

    hilb = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -1j * u / np.sqrt(1.0 + u * u)))
    low = Symbol(m=1, n=1, evaluate=_lift1(lambda u: 1.0 / (1.0 + u * u)))
    return make_product_symbol([(hilb, low)], name="pair")


def _mixed_trilinear_symbol():
    from hardylab.symbols import Symbol, _lift1, make_mixed_symbol

    sb = builtin_symbol("sigma1_bilinear")
    hilb = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -1j * u / np.sqrt(1.0 + u * u)))
    return make_mixed_symbol([Partition(((0, 1), (2,)), (sb, hilb))], name="mix")


class TestPointwiseMajorant:
    def test_general_kind(self, grid1024, bilinear_atoms):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        rep = check_pointwise_majorant(apply_to_atoms(op, [bilinear_atoms])[0], idx)
        assert rep.passed
        assert rep.ratio_sup > 0

    def test_product_kind_disjoint_far_cubes(self, grid1024):
        # sigma_j = 1 on each slot makes T the pointwise product, which is
        # identically zero for disjoint supports.
        one1 = builtin_symbol("constant_one", m=1)
        from hardylab.symbols import make_product_symbol

        sym = make_product_symbol([(one1, one1)], name="ones")
        op = MultilinearOperator(sym, grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        atoms = [
            make_atom(Cube((2.0,), 0.5), 2.0, 2, seed=5, grid=grid1024),
            make_atom(Cube((-2.0,), 0.5), 2.0, 2, seed=6, grid=grid1024),
        ]
        out = apply_operator(op, [a.values for a in atoms])
        assert np.max(np.abs(out.values)) < 1e-15  # zero up to transform rounding
        rep = check_pointwise_majorant(apply_to_atoms(op, [atoms])[0], idx)
        assert rep.ratio_sup < 1e-12
        assert rep.passed

    def test_product_kind_generic(self, grid1024, bilinear_atoms):
        sym = _product_pair_symbol()
        op = MultilinearOperator(sym, grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        rep = check_pointwise_majorant(apply_to_atoms(op, [bilinear_atoms])[0], idx)
        assert rep.passed

    def test_mixed_kind(self, grid1024):
        sym = _mixed_trilinear_symbol()
        op = MultilinearOperator(sym, grid1024)
        idx = index_arithmetic((2.0, 2.0, 2.0), 1, N_override=2)
        atoms = [
            make_atom(Cube((0.25,), 0.25), 2.0, 2, seed=1, grid=grid1024),
            make_atom(Cube((-1.0,), 0.5), 2.0, 2, seed=2, grid=grid1024),
            make_atom(Cube((1.5,), 0.5), 2.0, 2, seed=3, grid=grid1024),
        ]
        rep = check_pointwise_majorant(apply_to_atoms(op, [atoms])[0], idx)
        assert rep.passed

    def test_degenerate_mixed_reproduces_general(self, grid1024, bilinear_atoms):
        sb = builtin_symbol("sigma1_bilinear")
        from hardylab.symbols import make_mixed_symbol

        degenerate = make_mixed_symbol([Partition(((0, 1),), (sb,))], name="deg")
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        op_gen = MultilinearOperator(sb, grid1024)
        op_mix = MultilinearOperator(degenerate, grid1024)
        rep_gen = check_pointwise_majorant(apply_to_atoms(op_gen, [bilinear_atoms])[0], idx)
        rep_mix = check_pointwise_majorant(apply_to_atoms(op_mix, [bilinear_atoms])[0], idx)
        assert abs(rep_mix.ratio_sup - rep_gen.ratio_sup) <= 1e-10 * rep_gen.ratio_sup


class TestMaximalIndicatorOnce:
    def test_majorant_reuses_the_local_estimates_indicators(
        self, grid1024, bilinear_atoms, monkeypatch
    ):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        t = apply_to_atoms(op, [bilinear_atoms])[0]
        hardylab.verify._maximal_indicator.cache_clear()
        expected = check_pointwise_majorant(t, idx)
        hardylab.verify._maximal_indicator.cache_clear()
        check_local_estimate(t, r=2.0, N=2)
        calls = []
        original = hardylab.verify.hl_maximal

        def counting(f, ladder):
            calls.append(f)
            return original(f, ladder)

        monkeypatch.setattr(hardylab.verify, "hl_maximal", counting)
        rep = check_pointwise_majorant(t, idx)
        assert calls == []
        assert rep.ratio_sup == expected.ratio_sup
        mx = hardylab.verify._maximal_indicator(t.atoms[0].cube, grid1024, make_ladder(grid1024))
        with pytest.raises(ValueError):
            mx[0] = 0.0


class TestMajorantReadsTheFactors:
    @pytest.mark.parametrize("name", ["sigma3", "sigma4"])
    def test_output_is_the_applied_operator(self, grid256, trilinear_atoms, name):
        op = MultilinearOperator(builtin_symbol(name), grid256)
        t = apply_to_atoms(op, [trilinear_atoms])[0]
        assert np.array_equal(t.out.values, apply_operator(op, [a.values for a in t.atoms]).values)

    @pytest.mark.parametrize("name", ["sigma3", "sigma4"])
    def test_majorant_applies_no_factor(self, grid256, trilinear_atoms, monkeypatch, name):
        # The product and mixed majorants are built from the factor outputs
        # apply_to_atoms computed; measuring them applies nothing again.
        op = MultilinearOperator(builtin_symbol(name), grid256)
        t = apply_to_atoms(op, [trilinear_atoms])[0]
        calls = []
        for fname in ("apply_linear", "apply_general"):
            original = getattr(hardylab.operators, fname)

            def counting(*args, _original=original, _name=fname, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(hardylab.operators, fname, counting)
            monkeypatch.setattr(hardylab.verify, fname, counting, raising=False)
        idx = index_arithmetic((2.0, 2.0, 2.0), 1, N_override=6)
        rep = check_pointwise_majorant(t, idx)
        assert calls == []
        assert rep.kind == op.symbol.kind and rep.passed

    @pytest.mark.parametrize("name, distinct, occurrences", [("sigma3", 12, 18), ("sigma2", 7, 8)])
    def test_majorant_takes_each_distinct_factor_once(
        self, grid256, trilinear_atoms, monkeypatch, name, distinct, occurrences
    ):
        # sigma3's six terms name 18 one-slot factors, 12 of them distinct
        # (group, symbol) pairs; sigma2's four terms name 8 factors, 7 of
        # them distinct.  power_maximal runs once for each distinct one, and
        # the ratio is bit for bit that of a loop over every occurrence.
        op = MultilinearOperator(builtin_symbol(name), grid256)
        t = apply_to_atoms(op, [trilinear_atoms])[0]
        idx = index_arithmetic((2.0, 2.0, 2.0), 1, N_override=6)
        calls = []
        original = hardylab.verify.power_maximal

        def counting(f, r, ladder):
            calls.append(id(f))
            return original(f, r, ladder)

        def per_occurrence_product(t, mchis, star_mask, idx, ladder):
            grid = t.op.grid
            n, m, N = grid.n, len(t.atoms), idx.N
            e = (n + N + 1) / (m * n)
            terms = []
            for applied_term in t.factors:
                first = np.ones(grid.shape)
                inf_prod = 1.0
                for mx, applied in zip(mchis, applied_term):
                    fac = 1.0 + counting(applied, float(m), ladder).values
                    first = first * mx**e * fac
                    inf_prod *= float(np.min((mx**e * fac)[star_mask]))
                terms.append((first, inf_prod))
            return terms

        def per_occurrence_mixed(t, mchis, star_mask, idx, ladder):
            atoms, grid = t.atoms, t.op.grid
            n, m, N = grid.n, len(atoms), idx.N
            e = (n + N + 1) / (m * n)
            terms = []
            for part, applied_part in zip(t.op.symbol.partitions, t.factors):
                first = np.ones(grid.shape)
                inf_prod = 1.0
                for grp, applied in zip(part.groups, applied_part):
                    smallest = min(grp, key=lambda l: atoms[l].cube.side)
                    mg_pow = counting(applied, float(part.group_count), ladder).values
                    star = dilate_cube(atoms[smallest].cube, "star")
                    star_small = hardylab.verify._maximal_indicator(star, grid, ladder)
                    b = star_small ** (len(grp) * (n + N + 1) / (m * n)) * mg_pow
                    prod = np.ones(grid.shape)
                    for l in grp:
                        prod = prod * mchis[l] ** e
                    b = b + prod
                    first = first * b
                    inf_prod *= float(np.min(b[star_mask]))
                terms.append((first, inf_prod))
            return terms

        monkeypatch.setattr(hardylab.verify, "power_maximal", counting)
        rep = check_pointwise_majorant(t, idx)
        assert len(calls) == len(set(calls)) == distinct
        reference = per_occurrence_product if name == "sigma3" else per_occurrence_mixed
        monkeypatch.setattr(hardylab.verify, f"_{op.symbol.kind}_majorant", reference)
        want = check_pointwise_majorant(t, idx)
        assert len(calls) == distinct + occurrences
        sups = np.array([rep.ratio_sup, want.ratio_sup]).view(np.uint64)
        assert sups[0] == sups[1] and rep.kind == want.kind == op.symbol.kind


class TestFsInequality:
    def test_single_unit_cube_value(self, grid1024):
        # Continuum oracle: M chi_[-1/2,1/2] is 2 inside and 1/(1/2 + dist)
        # outside under the r^{-n} normalization, so ||(M chi)^2||_1 = 4 + 2 = 6;
        # the discrete ladder lands near that value from below.
        rep = check_fs_inequality([Cube((0.0,), 1.0)], [1.0], 2.0, 1.0, grid1024)
        assert rep.ratio == pytest.approx(6.0, rel=0.3)

    def test_vacuous(self, grid1024):
        rep = check_fs_inequality([Cube((0.0,), 1.0)], [0.0], 2.0, 1.0, grid1024)
        assert rep.vacuous and rep.passed

    def test_gamma_guard(self, grid1024):
        with pytest.raises(ValueError, match="gamma"):
            check_fs_inequality([Cube((0.0,), 1.0)], [1.0], 1.0, 1.0, grid1024)
        with pytest.raises(ValueError, match="gamma"):
            check_fs_inequality([Cube((0.0,), 1.0)], [1.0], 1.5, 0.5, grid1024)

    def test_many_cubes_stable_under_refinement(self):
        rng = np.random.default_rng(17)
        cubes = []
        lambdas = []
        for _ in range(50):
            side = float(rng.choice([0.25, 0.5, 1.0]))
            center = float(rng.uniform(-2, 2))
            cubes.append(Cube((center,), side))
            lambdas.append(float(2.0 ** (-rng.integers(0, 3))))
        ratios = {}
        for M in (512, 1024):
            g = make_grid(1, 8.0, M)
            ratios[M] = check_fs_inequality(cubes, lambdas, 1.5, 1.0, g).ratio
        assert ratios[1024] / ratios[512] < 2.0
        assert ratios[512] / ratios[1024] < 2.0


def _ensemble_config(**overrides):
    base = dict(
        symbol="sigma1_bilinear",
        exponents=(1.0, 1.0),
        n=1,
        L=8.0,
        M=512,
        trials=6,
        max_atoms=3,
        seed=99,
        ell_choices=(0.5,),
        center_span=0.2,
        N_override=2,
        dilatable=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBoundednessEnsemble:
    def test_runs_and_records(self):
        cfg = _ensemble_config()
        rep = run_boundedness_ensemble(cfg)
        assert rep.passed
        assert len(rep.trials) == 6
        assert rep.ratio_sup >= rep.ratio_median > 0

    def test_seed_determinism(self):
        cfg = _ensemble_config()
        a = run_boundedness_ensemble(cfg)
        b = run_boundedness_ensemble(cfg)
        for ta, tb in zip(a.trials, b.trials):
            assert ta == tb

    def test_parallel_matches_serial(self):
        cfg = _ensemble_config(trials=4)
        serial = run_boundedness_ensemble(cfg, jobs=1)
        parallel = run_boundedness_ensemble(cfg, jobs=2)
        for ts, tp in zip(serial.trials, parallel.trials):
            assert ts.lhs == tp.lhs and ts.rhs == tp.rhs and ts.ratio == tp.ratio

    def test_replay_bit_exact(self):
        cfg = _ensemble_config(trials=3)
        rep = run_boundedness_ensemble(cfg)
        for trial in rep.trials:
            lhs, rhs, ratio = replay_trial(run_context(cfg), trial)
            assert lhs == trial.lhs and rhs == trial.rhs and ratio == trial.ratio

    def test_trial_record_roundtrip(self):
        cfg = _ensemble_config(trials=2)
        rec = run_trial(run_context(cfg), 1)
        from hardylab.verify import TrialRecord

        again = TrialRecord.from_dict(rec.to_dict())
        assert again == rec

    def test_distinct_trial_seeds(self):
        seeds = {trial_seed(5, i) for i in range(50)}
        assert len(seeds) == 50

    def test_precondition_failure_aborts_trial_with_record(self):
        # ell too large for the dilation headroom: every draw fails, each
        # trial carries an aborted record instead of crashing the run.
        cfg = _ensemble_config(trials=2, ell_choices=(1.0,), dilatable=True)
        rep = run_boundedness_ensemble(cfg)
        assert all(t.flags.startswith("aborted") for t in rep.trials)
        assert not rep.passed
        with pytest.raises(ValueError, match="aborted"):
            replay_trial(run_context(cfg), rep.trials[0])

    def test_some_aborted_trials_fail_the_ensemble(self):
        # Side 1.0 has no room for the twofold dilation, side 0.5 has: on
        # this seed one trial draws only half-unit cubes and three abort.
        cfg = _ensemble_config(trials=4, seed=0, ell_choices=(0.5, 1.0), dilatable=True)
        rep = run_boundedness_ensemble(cfg)
        aborted = [t.flags.startswith("aborted") for t in rep.trials]
        assert any(aborted) and not all(aborted)
        assert np.isfinite(rep.ratio_sup) and rep.ratio_sup > 0
        assert rep.passed is False

    def test_fault_in_a_trial_names_the_trial(self, monkeypatch):
        # A ValueError aborts the trial; any other exception is a fault and
        # propagates with the trial id and seed.
        def failing(*args, **kwargs):
            raise AssertionError("atomic sum broken")

        monkeypatch.setattr(hardylab.verify, "make_atomic_sum", failing)
        cfg = _ensemble_config(trials=2)
        seed = trial_seed(cfg.seed, 1)
        with pytest.raises(RuntimeError, match=rf"trial 1 \(seed {seed}\): AssertionError") as info:
            run_trial(run_context(cfg), 1)
        assert isinstance(info.value.__cause__, AssertionError)
        with pytest.raises(RuntimeError, match="trial 0"):
            run_boundedness_ensemble(cfg)

    def test_fault_in_a_replay_names_the_trial(self, monkeypatch):
        # A replay stages the recorded trial under its own id and seed.
        cfg = _ensemble_config(trials=3)
        records = run_boundedness_ensemble(cfg).trials

        def failing(*args, **kwargs):
            raise AssertionError("atomic sum broken")

        monkeypatch.setattr(hardylab.verify, "make_atomic_sum", failing)
        seed = trial_seed(cfg.seed, 2)
        with pytest.raises(RuntimeError, match=rf"^trial 2 \(seed {seed}\): AssertionError"):
            replay_trial(run_context(cfg), records[2])


# One small config per operator class; the mixed one runs its three trials in
# one pass, the product one trial by trial.
BATCHED_CONFIGS = {
    "general": dict(trials=4),
    "mixed": dict(
        symbol="sigma4", exponents=(2.0, 2.0, 2.0), M=256, trials=3, max_atoms=2, seed=5,
        ell_choices=(1.0,), center_span=0.25, N_override=None, use_cutoff=True,
    ),
    "product": dict(
        symbol="sigma3", exponents=(2.0, 2.0, 2.0), trials=3, max_atoms=2, seed=3,
        center_span=0.25, N_override=None, use_cutoff=True,
    ),
}


class TestStagedTrials:
    def test_inadmissible_draw_aborts_only_its_trial(self):
        # sigma4 at M=256 runs seven trials per pass.  With sides 0.5 and 1,
        # trials 1 and 3 draw admissible atoms and share the first pass with
        # trials 0, 2, 4, 5 and 6, whose half-unit cubes are too narrow.
        cfg = _ensemble_config(
            symbol="sigma4", exponents=(2.0, 2.0, 2.0), M=256, trials=8, max_atoms=2, seed=5,
            ell_choices=(0.5, 1.0), center_span=0.25, N_override=None, use_cutoff=True,
        )
        ctx = run_context(cfg)
        assert hardylab.operators.sets_per_pass(ctx.op) == 7
        records = run_boundedness_ensemble(cfg).trials
        live = [t.trial_id for t in records if not t.flags]
        assert live == [1, 3]
        for t in records:
            alone = run_trial(ctx, t.trial_id)
            if t.flags:
                assert t.flags == "aborted: cube side 0.5 spans 8.00 grid cells, need at least 16"
                assert alone.flags == t.flags
            else:
                assert t == alone

    def test_fault_in_the_shared_pass_names_every_trial(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("engine broken")

        monkeypatch.setattr(hardylab.verify, "operator_factors", failing)
        cfg = _ensemble_config(trials=3)
        names = ", ".join(f"trial {i} \\(seed {trial_seed(cfg.seed, i)}\\)" for i in range(3))
        with pytest.raises(RuntimeError, match=rf"^{names}: AssertionError") as info:
            run_boundedness_ensemble(cfg)
        assert isinstance(info.value.__cause__, AssertionError)

    @pytest.mark.parametrize("kind", BATCHED_CONFIGS)
    def test_every_batched_trial_replays(self, kind):
        cfg = _ensemble_config(**BATCHED_CONFIGS[kind])
        ctx = run_context(cfg)
        assert ctx.op.symbol.kind == kind
        records = run_boundedness_ensemble(cfg).trials
        assert not any(t.flags for t in records)
        for trial in records:
            assert replay_trial(ctx, trial) == (trial.lhs, trial.rhs, trial.ratio)

    @pytest.mark.parametrize("kind", BATCHED_CONFIGS)
    def test_two_jobs_equal_one(self, kind):
        cfg = _ensemble_config(**BATCHED_CONFIGS[kind])
        assert run_boundedness_ensemble(cfg, jobs=2) == run_boundedness_ensemble(cfg, jobs=1)


class TestWorkerCap:
    # The pool opens at most one worker per trial slice and per CPU,
    # whatever --jobs asks for.  No test here starts a process: the pool is
    # a stand-in that runs its map in this process and records the worker
    # count each pool was opened with.
    @pytest.fixture
    def opened(self, monkeypatch):
        import concurrent.futures

        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return opened

    def test_one_trial_opens_one_worker(self, opened):
        cfg = _ensemble_config(trials=1)
        assert run_boundedness_ensemble(cfg, jobs=3) == run_boundedness_ensemble(cfg, jobs=1)
        assert opened == [1]

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1), (64, 3)])
    def test_capped_by_cpus(self, monkeypatch, opened, cpus, workers):
        # Six trials in slices of two: three slices.
        monkeypatch.setattr(hardylab.verify.os, "cpu_count", lambda: cpus)
        cfg = _ensemble_config(trials=6)
        assert run_boundedness_ensemble(cfg, jobs=3) == run_boundedness_ensemble(cfg, jobs=1)
        assert opened == [workers]

    def test_no_trials_opens_no_pool(self, opened):
        rep = run_boundedness_ensemble(_ensemble_config(trials=0), jobs=2)
        assert rep.trials == () and opened == []


class TestBudgetAtContext:
    def test_over_budget_group_is_refused_before_any_trial(self):
        # sigma1_bilinear at M=512 has 512^2 = 262144 frequency tuples.  The
        # operator refuses a budget below that; a run, whose budget is the
        # default 2^26, is refused at M=16384 before any trial.
        grid = make_grid(1, 8.0, 512)
        sym = builtin_symbol("sigma1_bilinear")
        with pytest.raises(ValueError, match="over the cost budget 262143"):
            MultilinearOperator(sym, grid, budget=512**2 - 1)
        assert MultilinearOperator(sym, grid, budget=512**2).budget == 512**2
        with pytest.raises(ValueError, match="over the cost budget 67108864"):
            run_context(_ensemble_config(M=16384))

    def test_one_slot_groups_are_not_counted(self):
        # sigma3's groups are all one slot: no S^m cross or pass runs.
        op = MultilinearOperator(builtin_symbol("sigma3"), make_grid(1, 8.0, 512), budget=1)
        assert op.symbol.kind == "product"


class TestNarrowEllAtContext:
    def test_no_ell_can_hold_an_atom(self):
        # At L = 1e308 a grid cell is far wider than any ell: no trial could
        # build an atom, so the context refuses the config.  The threshold
        # is the atoms' own: 16 cells of the largest ell.
        with pytest.raises(ValueError, match=r"no \[ensemble\] ell can hold an atom: cube side 0.5"):
            run_context(_ensemble_config(L=1e308))
        dx = 2 * 8.0 / 512
        with pytest.raises(ValueError, match="spans 15.00 grid cells, need at least 16"):
            run_context(_ensemble_config(ell_choices=(15 * dx,)))
        assert run_context(_ensemble_config(ell_choices=(0.25, 16 * dx))).grid.M == 512


class TestVerdictsFromReports:
    # The command line writes each check's verdict, and its threshold where
    # it has one, from the check's report.
    def test_scale_invariance_passes_below_its_tolerance(self):
        rep = ScaleInvarianceReport(2.0, (0.1, 0.3), 0.3)
        assert rep.max_deviation == 0.3 and not rep.passed
        assert ScaleInvarianceReport(2.0, (0.1, 0.3), 0.5).passed

    @pytest.mark.parametrize(
        "direct, maximal, passed", [(1.0, 2.0, True), (math.inf, 2.0, False), (1.0, math.nan, False)]
    )
    def test_local_estimate_passes_when_both_ratios_are_finite(self, direct, maximal, passed):
        assert LocalEstimateReport(1.0, 1.0, 1.0, direct, maximal).passed == passed


class TestScaleInvariance:
    def test_requires_homogeneous_symbol(self):
        cfg = _ensemble_config(symbol="sigma2", exponents=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="homogeneous"):
            scale_invariance_test(run_context(cfg), (), 2.0)

    def test_aborted_base_trial_raises_its_reason(self):
        cfg = _ensemble_config(trials=4, seed=0, ell_choices=(0.5, 1.0), dilatable=True)
        records = run_boundedness_ensemble(cfg).trials
        assert records[0].flags.startswith("aborted")
        with pytest.raises(ValueError, match="cannot fit"):
            scale_invariance_test(run_context(cfg), records, 2.0)

    def test_aborted_base_trial_raises_before_any_trial_runs(self, monkeypatch):
        # With the live record first, its dilated trial is not run either.
        cfg = _ensemble_config(trials=4, seed=0, ell_choices=(0.5, 1.0), dilatable=True)
        records = sorted(run_boundedness_ensemble(cfg).trials, key=lambda t: bool(t.flags))
        first_aborted = next(t for t in records if t.flags.startswith("aborted"))
        assert not records[0].flags
        calls = []
        engine = hardylab.verify.operator_factors
        monkeypatch.setattr(
            hardylab.verify, "operator_factors", lambda *a: calls.append(1) or engine(*a)
        )
        with pytest.raises(ValueError) as info:
            scale_invariance_test(run_context(cfg), records, 2.0)
        assert str(info.value) == f"trial {first_aborted.trial_id} {first_aborted.flags}"
        assert calls == []

    def test_identity_dilation(self):
        cfg = _ensemble_config(trials=2, dilatable=True)
        records = run_boundedness_ensemble(cfg).trials
        rep = scale_invariance_test(run_context(cfg), records, 1.0)
        assert rep.max_deviation == 0.0

    def test_doubling_small_deviation(self):
        cfg = _ensemble_config(M=2048, trials=3, dilatable=True)
        records = run_boundedness_ensemble(cfg).trials
        rep = scale_invariance_test(run_context(cfg), records, 2.0)
        assert rep.max_deviation < 0.2
