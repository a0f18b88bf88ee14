import math

import numpy as np
import pytest

import hardylab.operators
import hardylab.verify
from hardylab.atoms import Cube, make_atom
from hardylab.grid import make_grid
from hardylab.maximal import make_ladder
from hardylab.operators import MultilinearOperator, apply_operator, default_cutoff
from hardylab.symbols import Partition, builtin_symbol
from hardylab.verify import (
    ExperimentConfig,
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
        idx = index_arithmetic((1.0, math.inf), 1, kind="general")
        assert idx.p == pytest.approx(1.0)

    def test_all_infinite_rejected_for_types(self):
        for kind in ("general", "product", "mixed"):
            with pytest.raises(ValueError, match="inf"):
                index_arithmetic((math.inf, math.inf), 1, kind=kind)

    def test_product_rejects_any_infinite(self):
        with pytest.raises(ValueError, match="product"):
            index_arithmetic((1.0, math.inf), 1, kind="product")

    def test_mixed_group_needs_finite_slot(self):
        sb = builtin_symbol("sigma1_bilinear")
        lin = builtin_symbol("constant_one", m=1)
        part = Partition(((0, 1), (2,)), (sb, lin))
        idx = index_arithmetic((math.inf, 1.0, 2.0), 1, kind="mixed", partitions=[part])
        assert idx.p == pytest.approx(2.0 / 3.0)
        with pytest.raises(ValueError, match="finite"):
            index_arithmetic((1.0, 2.0, math.inf), 1, kind="mixed", partitions=[part])

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
        rep = check_cancellation(apply_to_atoms(op, trilinear_atoms), s=0)
        assert rep.max_normalized < 1e-10
        assert rep.passed

    def test_negative_control_flagged(self, grid256):
        # Same atom twice under the constant symbol: the output is a square,
        # so its mean cannot cancel.
        a = make_atom(Cube((0.0,), 1.0), 1.0, 6, seed=5, grid=grid256)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid256)
        rep = check_cancellation(apply_to_atoms(op, [a, a]), s=0, tolerance=1e-2)
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
        rep = check_cancellation(apply_to_atoms(op, atoms), s=0, tolerance=1e-10)
        assert rep.passed


class TestDecay:
    def test_slope_with_cancellation(self):
        g = make_grid(1, 8.0, 4096)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 0.5)
        a1 = make_atom(q, 1.0, 2, seed=11, grid=g)
        a2 = make_atom(q, 1.0, 0, seed=12, grid=g)
        rep = check_decay_lemma(apply_to_atoms(op, [a1, a2]), N=2)
        assert rep.slope <= -(1 + 2 + 1) + 0.75
        assert rep.passed

    def test_negative_control_rises(self):
        g = make_grid(1, 8.0, 4096)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 0.5)
        b1 = make_atom(q, 1.0, 2, seed=11, grid=g, skip_projection=True)
        b2 = make_atom(q, 1.0, 0, seed=12, grid=g, skip_projection=True)
        rep = check_decay_lemma(apply_to_atoms(op, [b1, b2]), N=2)
        assert rep.slope > -(1 + 1) - 0.5
        assert not rep.passed

    def test_probe_guard(self):
        g = make_grid(1, 8.0, 512)
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), g)
        q = Cube((0.0,), 1.0)
        a1 = make_atom(q, 1.0, 0, seed=1, grid=g)
        a2 = make_atom(q, 1.0, 0, seed=2, grid=g)
        with pytest.raises(ValueError, match="octave"):
            check_decay_lemma(apply_to_atoms(op, [a1, a2]), N=0, max_distance=3.5)


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
        rep = check_local_estimate(apply_to_atoms(op, atoms), r=2.0, N=2)
        assert np.isfinite(rep.ratio_direct) and rep.ratio_direct > 0
        assert np.isfinite(rep.ratio_maximal)

    def test_disjoint_geometry(self, grid1024, bilinear_atoms):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        rep = check_local_estimate(apply_to_atoms(op, bilinear_atoms), r=2.0, N=2)
        assert np.isfinite(rep.ratio_direct)

    def test_r_guard(self, grid1024, bilinear_atoms):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        with pytest.raises(ValueError):
            check_local_estimate(apply_to_atoms(op, bilinear_atoms), r=1.0, N=2)

    def test_zero_atoms_trivially_pass(self, grid1024):
        from hardylab.atoms import Atom
        from hardylab.grid import SampledFunction

        zero = SampledFunction(grid1024, np.zeros(grid1024.shape))
        atoms = [
            Atom(Cube((0.0,), 1.0), zero, 2.0, 2, None),
            Atom(Cube((0.5,), 1.0), zero, 2.0, 2, None),
        ]
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        rep = check_local_estimate(apply_to_atoms(op, atoms), r=2.0, N=2)
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
        rep = check_pointwise_majorant(apply_to_atoms(op, bilinear_atoms), idx)
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
        from hardylab.operators import apply_product

        out = apply_product(sym.product_terms, [a.values for a in atoms])
        assert np.max(np.abs(out.values)) < 1e-15  # zero up to transform rounding
        rep = check_pointwise_majorant(apply_to_atoms(op, atoms), idx)
        assert rep.ratio_sup < 1e-12
        assert rep.passed

    def test_product_kind_generic(self, grid1024, bilinear_atoms):
        sym = _product_pair_symbol()
        op = MultilinearOperator(sym, grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        rep = check_pointwise_majorant(apply_to_atoms(op, bilinear_atoms), idx)
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
        rep = check_pointwise_majorant(apply_to_atoms(op, atoms), idx)
        assert rep.passed

    def test_degenerate_mixed_reproduces_general(self, grid1024, bilinear_atoms):
        sb = builtin_symbol("sigma1_bilinear")
        from hardylab.symbols import make_mixed_symbol

        degenerate = make_mixed_symbol([Partition(((0, 1),), (sb,))], name="deg")
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        op_gen = MultilinearOperator(sb, grid1024)
        op_mix = MultilinearOperator(degenerate, grid1024)
        rep_gen = check_pointwise_majorant(apply_to_atoms(op_gen, bilinear_atoms), idx)
        rep_mix = check_pointwise_majorant(apply_to_atoms(op_mix, bilinear_atoms), idx)
        assert abs(rep_mix.ratio_sup - rep_gen.ratio_sup) <= 1e-10 * rep_gen.ratio_sup


class TestMaximalIndicatorOnce:
    def test_majorant_reuses_the_local_estimates_indicators(
        self, grid1024, bilinear_atoms, monkeypatch
    ):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), grid1024)
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        t = apply_to_atoms(op, bilinear_atoms)
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
        t = apply_to_atoms(op, trilinear_atoms)
        assert np.array_equal(t.out.values, apply_operator(op, [a.values for a in t.atoms]).values)

    @pytest.mark.parametrize("name", ["sigma3", "sigma4"])
    def test_majorant_applies_no_factor(self, grid256, trilinear_atoms, monkeypatch, name):
        # The product and mixed majorants are built from the factor outputs
        # apply_to_atoms computed; measuring them applies nothing again.
        op = MultilinearOperator(builtin_symbol(name), grid256)
        t = apply_to_atoms(op, trilinear_atoms)
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
        kind="general",
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


class TestScaleInvariance:
    def test_requires_homogeneous_symbol(self):
        cfg = _ensemble_config(symbol="sigma2", kind="mixed", exponents=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="homogeneous"):
            scale_invariance_test(run_context(cfg), (), 2.0)

    def test_aborted_base_trial_raises_its_reason(self):
        cfg = _ensemble_config(trials=4, seed=0, ell_choices=(0.5, 1.0), dilatable=True)
        records = run_boundedness_ensemble(cfg).trials
        assert records[0].flags.startswith("aborted")
        with pytest.raises(ValueError, match="cannot fit"):
            scale_invariance_test(run_context(cfg), records, 2.0)

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
