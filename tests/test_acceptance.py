"""Acceptance suite: one test (or a few sub-tests) per criterion, each printing
a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Scales are desk-sized: n = 1, m in {2, 3}, M <= 8192 for transforms and
M = 32 for oracle comparisons.
"""

import numpy as np
import pytest

from hardylab.atoms import Cube, make_atom
from hardylab.grid import (
    SampledFunction,
    Spectrum,
    idft,
    lp_quasinorm,
    make_grid,
    sample,
)
from hardylab.maximal import (
    hl_maximal,
    hp_quasinorm,
    make_bump,
    make_ladder,
    power_maximal,
    smooth_maximal,
)
from hardylab.operators import (
    MultilinearOperator,
    apply_general,
    apply_operator,
    apply_oracle,
    default_cutoff,
)
from hardylab.symbols import (
    Partition,
    Symbol,
    _lift1,
    builtin_symbol,
    cm_condition_ratio,
    dyadic_shells,
    forms_agree,
    make_mixed_symbol,
    make_product_symbol,
    plane_samples,
    power_symbol,
    random_frequency_tuples,
    sphere_directions,
)
from hardylab.verify import (
    ExperimentConfig,
    apply_to_atoms,
    check_cancellation,
    check_decay_lemma,
    check_fs_inequality,
    check_local_estimate,
    check_pointwise_majorant,
    index_arithmetic,
    run_boundedness_ensemble,
    run_context,
    run_trial,
    scale_invariance_test,
)


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def band_limited(grid, seed, band=6):
    rng = np.random.default_rng(seed)
    M = grid.M
    spec = np.zeros(M, dtype=complex)
    c = M // 2
    spec[c - band : c + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(
        2 * band + 1
    )
    spec[c] = 0.0
    return idft(Spectrum(grid, spec))


# ---------------------------------------------------------------------------
# 1. Oracle equivalence
# ---------------------------------------------------------------------------


class TestCriterion1OracleEquivalence:
    GRID = make_grid(1, 8.0, 32)

    def _check(self, op, fast_values, fs, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.GRID.M, size=5, replace=False)
        pts = self.GRID.axis_points()[idx][:, None]
        oracle = apply_oracle(op, fs, pts)
        scale = np.max(np.abs(oracle))
        return float(np.max(np.abs(oracle - fast_values[idx]))) / scale

    def test_general(self):
        s1 = builtin_symbol("sigma1")
        op = MultilinearOperator(s1, self.GRID)
        worst = 0.0
        for trial in range(20):
            fs = [band_limited(self.GRID, 1000 + 3 * trial + j) for j in range(3)]
            out, _ = apply_general(op, [fs])[0]
            worst = max(worst, self._check(op, out.values, fs, trial))
        report_line("1 oracle equivalence (general)", worst <= 1e-10, f"max rel err {worst:.2e}")
        assert worst <= 1e-10

    def test_product(self):
        s3 = builtin_symbol("sigma3")
        op = MultilinearOperator(s3, self.GRID)
        worst = 0.0
        for trial in range(20):
            fs = [band_limited(self.GRID, 2000 + 3 * trial + j) for j in range(3)]
            out = apply_operator(op, fs)
            worst = max(worst, self._check(op, out.values, fs, trial))
        report_line("1 oracle equivalence (product)", worst <= 1e-10, f"max rel err {worst:.2e}")
        assert worst <= 1e-10

    def test_mixed(self):
        worst = 0.0
        for name, base_seed in (("sigma4", 3000), ("sigma2", 4000)):
            sym = builtin_symbol(name)
            op = MultilinearOperator(sym, self.GRID)
            for trial in range(10):
                fs = [band_limited(self.GRID, base_seed + 3 * trial + j) for j in range(3)]
                out = apply_operator(op, fs)
                worst = max(worst, self._check(op, out.values, fs, trial))
        report_line("1 oracle equivalence (mixed)", worst <= 1e-10, f"max rel err {worst:.2e}")
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 2. Symbol identities
# ---------------------------------------------------------------------------


class TestCriterion2SymbolIdentities:
    def test_plane_vanishing(self):
        pts = plane_samples(3, 1, 200, seed=11)
        worst = 0.0
        for name in ("sigma1", "sigma2", "sigma3", "sigma4"):
            sym = builtin_symbol(name)
            vals = np.abs(sym(pts[:, 0], pts[:, 1], pts[:, 2]))
            worst = max(worst, float(np.max(vals)))
        report_line("2 plane vanishing", worst < 1e-12, f"max |sigma| {worst:.2e}")
        assert worst < 1e-12

    def test_form_agreement(self):
        pts = random_frequency_tuples(3, 1, 1000, seed=12)
        d2 = forms_agree(builtin_symbol("sigma2"), builtin_symbol("sigma2_factored"), pts)
        d3 = forms_agree(builtin_symbol("sigma3"), builtin_symbol("sigma3_factored"), pts)
        ok = d2 < 1e-12 and d3 < 1e-12
        report_line("2 sum vs factored forms", ok, f"dev {max(d2, d3):.2e}")
        assert ok

    def test_shell_invariance(self):
        s1 = builtin_symbol("sigma1")
        pts = random_frequency_tuples(3, 1, 200, seed=13, lo=1.0, hi=1.0)
        base = s1(pts[:, 0], pts[:, 1], pts[:, 2])
        worst = 0.0
        for radius in dyadic_shells():
            vals = s1(radius * pts[:, 0], radius * pts[:, 1], radius * pts[:, 2])
            worst = max(worst, float(np.max(np.abs(vals - base) / (1.0 + np.abs(base)))))
        report_line("2 shell invariance", worst < 1e-6, f"max rel dev {worst:.2e}")
        assert worst < 1e-6


# ---------------------------------------------------------------------------
# 3. Derivative (multiplier) condition
# ---------------------------------------------------------------------------


class TestCriterion3MultiplierCondition:
    DIRS = sphere_directions(3, 1, 64, seed=0)
    ALPHAS = [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]

    def test_sigma1_supremum(self):
        val = cm_condition_ratio(builtin_symbol("sigma1"), (0, 0, 0), self.DIRS)
        ok = abs(val - 3.0) <= 1e-6
        report_line("3 sigma1 alpha=0 supremum", ok, f"value {val:.9f}")
        assert ok

    def test_all_builtins_finite(self):
        ok = True
        for name in ("sigma1", "sigma2", "sigma3", "sigma4", "constant_one"):
            sym = builtin_symbol(name)
            for alpha in self.ALPHAS:
                for radius in dyadic_shells():
                    val = cm_condition_ratio(sym, alpha, self.DIRS * radius)
                    ok = ok and bool(np.isfinite(val))
        report_line("3 ratios finite, |alpha| <= 2, shells 2^-4..2^4", ok)
        assert ok

    def test_sigma1_shell_stable(self):
        # Shell stability within 10% is the homogeneous-symbol half of the
        # criterion; the non-homogeneous builtins are only required finite.
        s1 = builtin_symbol("sigma1")
        worst = 0.0
        for alpha in self.ALPHAS:
            per_shell = [
                cm_condition_ratio(s1, alpha, self.DIRS * radius)
                for radius in dyadic_shells()
            ]
            hi, lo = max(per_shell), min(per_shell)
            if hi > 0:
                worst = max(worst, (hi - lo) / hi)
        report_line("3 sigma1 shell stability", worst <= 0.10, f"max spread {worst:.2%}")
        assert worst <= 0.10


# ---------------------------------------------------------------------------
# 4. Atom correctness
# ---------------------------------------------------------------------------


class TestCriterion4Atoms:
    def test_hundred_random_atoms(self):
        grid = make_grid(1, 8.0, 1024)
        rng = np.random.default_rng(2024)
        pts = grid.points()
        x = grid.axis_points()
        ok_sup = ok_support = ok_moments = ok_determinism = True
        for k in range(100):
            N = int(rng.integers(0, 9))
            side = float(rng.choice([0.5, 1.0]))
            cmax = grid.L - 5.5 * side
            center = float(rng.integers(-int(cmax / grid.dx), int(cmax / grid.dx) + 1)) * grid.dx
            seed = int(rng.integers(0, 2**31))
            cube = Cube((center,), side)
            atom = make_atom(cube, 1.0, N, seed, grid)
            vals = atom.values.values
            ok_sup &= bool(np.max(np.abs(vals)) <= 1.0)
            ok_support &= bool(np.max(np.abs(vals[~cube.contains(pts)])) == 0.0)
            # Moments in cube-centered coordinates: the dilation-invariant
            # tolerance is unattainable in doubles about the box origin.
            for order in range(N + 1):
                mom = abs(np.sum((x - center) ** order * vals) * grid.dx)
                tol = 1e-8 * cube.volume * (side / 2.0) ** order
                ok_moments &= bool(mom <= tol)
            again = make_atom(cube, 1.0, N, seed, grid)
            ok_determinism &= bool(np.array_equal(vals, again.values.values))
        ok = ok_sup and ok_support and ok_moments and ok_determinism
        report_line(
            "4 atom correctness (100 random atoms, N <= 8)",
            ok,
            f"sup {ok_sup}, support {ok_support}, moments {ok_moments}, determinism {ok_determinism}",
        )
        assert ok


# ---------------------------------------------------------------------------
# 5. Cancellation
# ---------------------------------------------------------------------------


def _trilinear_atoms(grid, rng, N, span=None):
    atoms = []
    for _ in range(3):
        side = 1.0
        cmax = grid.L - 5.5 * side if span is None else span
        center = float(rng.integers(-int(cmax / grid.dx), int(cmax / grid.dx) + 1)) * grid.dx
        atoms.append(make_atom(Cube((center,), side), 1.0, N, int(rng.integers(0, 2**31)), grid))
    return atoms


class TestCriterion5Cancellation:
    def test_sigma1_zeroth_moment(self):
        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(builtin_symbol("sigma1"), grid, cutoff=default_cutoff(grid))
        rng = np.random.default_rng(55)
        sets = [_trilinear_atoms(grid, rng, N=6) for _ in range(20)]
        worst = max(
            check_cancellation(t, s=0, tolerance=1e-10).max_normalized
            for t in apply_to_atoms(op, sets)
        )
        report_line("5 sigma1 (s=0) zeroth moment", worst < 1e-10, f"max normalized {worst:.2e}")
        assert worst < 1e-10

    def test_sigma1_squared_first_moments(self):
        # Clustered geometry: with far-separated atoms the output drops to
        # the size of discretization tails and the normalized first moment
        # measures resolution rather than the cancellation mechanism.
        grid = make_grid(1, 8.0, 512)
        sym = power_symbol(builtin_symbol("sigma1"), 2)
        op = MultilinearOperator(sym, grid, cutoff=default_cutoff(grid), budget=2**28)
        rng = np.random.default_rng(56)
        worst = 0.0
        for _ in range(3):
            atoms = _trilinear_atoms(grid, rng, N=2, span=1.0)
            rep = check_cancellation(apply_to_atoms(op, [atoms])[0], s=1, tolerance=1e-5)
            worst = max(worst, rep.max_normalized)
        report_line("5 sigma1^2 (s=1) moments |alpha| <= 1", worst < 1e-5, f"max normalized {worst:.2e}")
        assert worst < 1e-5

    def test_negative_control(self):
        grid = make_grid(1, 8.0, 256)
        op = MultilinearOperator(builtin_symbol("constant_one", m=2), grid)
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 6, seed=7, grid=grid)
        rep = check_cancellation(apply_to_atoms(op, [[atom, atom]])[0], s=0, tolerance=1e-2)
        ok = rep.max_normalized > 1e-2 and not rep.passed
        report_line("5 negative control flagged", ok, f"normalized {rep.max_normalized:.2e}")
        assert ok


# ---------------------------------------------------------------------------
# 6. Decay exponent
# ---------------------------------------------------------------------------


class TestCriterion6Decay:
    GRID = make_grid(1, 8.0, 8192)

    def _atoms(self, N, skip=False):
        q = Cube((0.0,), 0.5)
        a1 = make_atom(q, 1.0, N, seed=11, grid=self.GRID, skip_projection=skip)
        a2 = make_atom(q, 1.0, 0, seed=12, grid=self.GRID, skip_projection=skip)
        return [a1, a2]

    @pytest.mark.parametrize("N", [0, 2, 4])
    def test_slope_bound(self, N):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), self.GRID)
        rep = check_decay_lemma(apply_to_atoms(op, [self._atoms(N)])[0], N)
        ok = rep.passed
        report_line(
            f"6 decay slope (N={N})",
            ok,
            f"slope {rep.slope:.2f} <= {rep.slope_bound:.2f}",
        )
        assert ok

    @pytest.mark.parametrize("N", [2, 4])
    def test_negative_control(self, N):
        op = MultilinearOperator(builtin_symbol("sigma1_bilinear"), self.GRID)
        rep = check_decay_lemma(apply_to_atoms(op, [self._atoms(N, skip=True)])[0], N)
        violated = rep.slope > rep.slope_bound
        rose = rep.slope > -(1 + 1) - 0.5
        report_line(
            f"6 decay negative control (N={N})",
            violated and rose,
            f"slope {rep.slope:.2f} > bound {rep.slope_bound:.2f}",
        )
        assert violated and rose


# ---------------------------------------------------------------------------
# 7. Maximal functions
# ---------------------------------------------------------------------------


class TestCriterion7Maximal:
    GRID = make_grid(1, 8.0, 1024)
    BUMP = make_bump(1)
    LADDER = make_ladder(GRID)

    def test_smooth_maximal_of_constant(self):
        one = sample(lambda x: np.ones_like(x), self.GRID)
        out = smooth_maximal(one, self.BUMP, self.LADDER)
        dev = float(np.max(np.abs(out.values - 1.0)))
        report_line("7 M_phi(1) = 1", dev <= 1e-8, f"max dev {dev:.2e}")
        assert dev <= 1e-8

    def test_rough_maximal_values(self):
        x = self.GRID.axis_points()
        f = SampledFunction(self.GRID, ((x >= 0.0) & (x <= 1.0)).astype(float))
        out = hl_maximal(f, self.LADDER)
        at2 = float(out.values[np.argmin(np.abs(x - 2.0))].real)
        at_half = float(out.values[np.argmin(np.abs(x - 0.5))].real)
        ok = abs(at2 - 0.5) <= 0.05 * 0.5 and abs(at_half - 2.0) <= 0.05 * 2.0
        report_line("7 rough maximal indicator values", ok, f"M(2)={at2:.4f}, M(0.5)={at_half:.4f}")
        assert ok

    def test_power_maximal_monotonicity(self):
        # hl_maximal uses the r^{-n} normalization (pinned by the indicator
        # values above), so its discrete ball measure at radius r has mass
        # W_r = dx^n #{cells with |y| < r} / r^n, up to c_n = 2 for n = 1,
        # rather than 1.  Cauchy-Schwarz on each ball gives
        # A_r|f| <= W_r^{1/2} (A_r|f|^2)^{1/2}, hence M^(1) <= W^{1/2} M^(2)
        # with W = max over ladder radii of W_r.  This is the monotonicity in
        # the exponent of the probability-normalized W^{-1/s} M^(s).
        dx = self.GRID.dx
        W = 0.0
        for r in self.LADDER.scales:
            reach = int(np.ceil(r / dx))
            k = np.arange(-reach, reach + 1)
            W = max(W, dx * np.count_nonzero(np.abs(k) * dx < r) / r)
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=9, grid=self.GRID)
        m1 = hl_maximal(atom.values, self.LADDER).values.real
        m2 = power_maximal(atom.values, 2.0, self.LADDER).values.real
        gap = float(np.min(m2 - m1 / np.sqrt(W)))
        # The constant is nearly attained by f = 1 on the box, so a looser
        # one would not pass.
        one = SampledFunction(self.GRID, np.ones(self.GRID.M))
        ratio = float(
            np.max(
                hl_maximal(one, self.LADDER).values.real
                / power_maximal(one, 2.0, self.LADDER).values.real
            )
        )
        sharp = abs(ratio / np.sqrt(W) - 1.0) <= 1e-3
        ok = gap >= -1e-12 * float(np.max(m1)) and sharp
        report_line(
            "7 power maximal monotonicity",
            ok,
            f"min(M2 - M1/sqrt(W)) = {gap:.3e}, "
            f"max(M1/M2) = {ratio:.5f} vs sqrt(W) = {np.sqrt(W):.5f}",
        )
        assert ok

    def test_hp_exact_homogeneity(self):
        atom = make_atom(Cube((0.0,), 1.0), 1.0, 2, seed=10, grid=self.GRID)
        worst = 0.0
        for p in (0.5, 1.0, 2.0):
            a = hp_quasinorm(2.0 * atom.values, p, self.BUMP, self.LADDER)
            b = 2.0 * hp_quasinorm(atom.values, p, self.BUMP, self.LADDER)
            worst = max(worst, abs(a - b) / b)
        report_line("7 hp quasinorm 1-homogeneous", worst < 1e-13, f"rel dev {worst:.2e}")
        assert worst < 1e-13

    def test_hp_lp_window(self):
        rng = np.random.default_rng(777)
        x = self.GRID.axis_points()
        spreads = {}
        for p in (1.5, 2.0, 4.0):
            ratios = []
            for _ in range(30):
                coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
                vals = np.zeros(self.GRID.M, dtype=complex)
                for k, c in enumerate(coeffs):
                    vals += c * np.exp(2j * np.pi * (k - 5) * x / 16.0)
                f = SampledFunction(self.GRID, vals)
                ratios.append(hp_quasinorm(f, p, self.BUMP, self.LADDER) / lp_quasinorm(f, p))
            spreads[p] = max(ratios) / min(ratios)
        worst = max(spreads.values())
        report_line("7 hp/Lp comparability window", worst <= 20.0, f"max spread {worst:.2f}")
        assert worst <= 20.0


# ---------------------------------------------------------------------------
# 8. Majorant inequalities
# ---------------------------------------------------------------------------


def _pair_symbol():
    hilb = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -1j * u / np.sqrt(1.0 + u * u)))
    low = Symbol(m=1, n=1, evaluate=_lift1(lambda u: 1.0 / (1.0 + u * u)))
    return make_product_symbol([(hilb, low)], name="pair")


def _mixed_symbol():
    sb = builtin_symbol("sigma1_bilinear")
    hilb = Symbol(m=1, n=1, evaluate=_lift1(lambda u: -1j * u / np.sqrt(1.0 + u * u)))
    return make_mixed_symbol([Partition(((0, 1), (2,)), (sb, hilb))], name="mix")


class TestCriterion8Majorants:
    @staticmethod
    def _ensemble_sup(check, M, dilation=1.0, seed=808):
        grid = make_grid(1, 8.0, M)
        rng = np.random.default_rng(seed)
        sup = 0.0
        for _ in range(20):
            sup = max(sup, check(grid, rng, dilation))
        return sup

    @staticmethod
    def _draw_atoms(grid, rng, count, dilation, N=2):
        atoms = []
        for _ in range(count):
            side = 0.5
            # dilated cube (2c, 2 side) must stay admissible: |c| <= L/2 - 5.5 side
            cmax = grid.L / 2.0 - 5.5 * side
            cells = max(1, int(cmax / grid.dx))
            center = float(rng.integers(-cells, cells + 1)) * grid.dx
            seed = int(rng.integers(0, 2**31))
            atoms.append(
                make_atom(Cube((center * dilation,), side * dilation), 2.0, N, seed, grid)
            )
        return atoms

    def _stability(self, name, runner):
        base = self._ensemble_sup(runner, 1024)
        refined = self._ensemble_sup(runner, 2048)
        dilated = self._ensemble_sup(runner, 1024, dilation=2.0)
        finite = all(np.isfinite(v) and v > 0 for v in (base, refined, dilated))
        refine_ok = 0.5 <= refined / base <= 2.0
        dilate_ok = 0.25 <= dilated / base <= 4.0
        ok = finite and refine_ok and dilate_ok
        report_line(
            f"8 {name}",
            ok,
            f"sup {base:.3e}, refine x{refined / base:.2f}, dilate x{dilated / base:.2f}",
        )
        assert ok

    def test_local_estimate(self):
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        sym = builtin_symbol("sigma1_bilinear")

        def runner(grid, rng, dilation):
            op = MultilinearOperator(sym, grid)
            atoms = self._draw_atoms(grid, rng, 2, dilation)
            rep = check_local_estimate(apply_to_atoms(op, [atoms])[0], r=2.0, N=idx.N)
            return max(rep.ratio_direct, rep.ratio_maximal)

        self._stability("local estimate", runner)

    def test_pointwise_majorant_general(self):
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        sym = builtin_symbol("sigma1_bilinear")

        def runner(grid, rng, dilation):
            op = MultilinearOperator(sym, grid)
            atoms = self._draw_atoms(grid, rng, 2, dilation)
            return check_pointwise_majorant(apply_to_atoms(op, [atoms])[0], idx).ratio_sup

        self._stability("pointwise majorant (general)", runner)

    def test_pointwise_majorant_product(self):
        idx = index_arithmetic((2.0, 2.0), 1, N_override=2)
        sym = _pair_symbol()

        def runner(grid, rng, dilation):
            op = MultilinearOperator(sym, grid)
            atoms = self._draw_atoms(grid, rng, 2, dilation)
            return check_pointwise_majorant(apply_to_atoms(op, [atoms])[0], idx).ratio_sup

        self._stability("pointwise majorant (product)", runner)

    def test_pointwise_majorant_mixed(self):
        idx = index_arithmetic((2.0, 2.0, 2.0), 1, N_override=2)
        sym = _mixed_symbol()

        def runner(grid, rng, dilation):
            op = MultilinearOperator(sym, grid)
            atoms = self._draw_atoms(grid, rng, 3, dilation)
            return check_pointwise_majorant(apply_to_atoms(op, [atoms])[0], idx).ratio_sup

        self._stability("pointwise majorant (mixed)", runner)

    def test_fs_inequality(self):
        def runner(grid, rng, dilation):
            cubes = []
            lambdas = []
            for _ in range(int(rng.integers(10, 51))):
                side = float(rng.choice([0.25, 0.5, 1.0])) * dilation
                center = float(rng.uniform(-2, 2)) * dilation
                cubes.append(Cube((center,), side))
                lambdas.append(float(2.0 ** (-rng.integers(0, 4))))
            return check_fs_inequality(cubes, lambdas, 1.5, 1.0, grid).ratio

        self._stability("summed maximal-indicator inequality", runner)


# ---------------------------------------------------------------------------
# 9. Boundedness ratio
# ---------------------------------------------------------------------------


class TestCriterion9Boundedness:
    # Supports clustered in the central region: widely separated single atoms
    # push the output toward the discretization floor, where the dilation
    # comparison measures resolution instead of the continuum identity.
    CONFIG = ExperimentConfig(
        symbol="sigma1_bilinear",
        exponents=(1.0, 1.0),
        n=1,
        L=8.0,
        M=2048,
        trials=50,
        max_atoms=4,
        seed=909,
        ell_choices=(0.5,),
        center_span=0.05,
        N_override=2,
        dilatable=True,
    )

    def test_ensemble_sup_finite(self):
        rep = run_boundedness_ensemble(self.CONFIG)
        ok = rep.passed and np.isfinite(rep.ratio_sup) and rep.ratio_sup > 0
        report_line(
            "9 boundedness ratio ensemble (50 trials)",
            ok,
            f"sup {rep.ratio_sup:.3e}, median {rep.ratio_median:.3e}",
        )
        assert ok

    def test_dilation_invariance(self):
        ctx = run_context(self.CONFIG)
        rep = scale_invariance_test(ctx, [run_trial(ctx, i) for i in range(20)], 2.0)
        ok = rep.max_deviation < 0.2
        report_line(
            "9 per-trial dilation invariance",
            ok,
            f"max deviation {rep.max_deviation:.2%} over {len(rep.deviations)} trials",
        )
        assert ok

    def test_degenerate_mixed_matches_general(self):
        grid = make_grid(1, 8.0, 512)
        sb = builtin_symbol("sigma1_bilinear")
        degenerate = make_mixed_symbol([Partition(((0, 1),), (sb,))], name="deg")
        bump = make_bump(1)
        ladder = make_ladder(grid)
        rng = np.random.default_rng(91)
        worst = 0.0
        for trial in range(5):
            atoms = [
                make_atom(
                    Cube((float(rng.integers(-64, 65)) * grid.dx,), 0.5),
                    1.0,
                    2,
                    int(rng.integers(0, 2**31)),
                    grid,
                )
                for _ in range(2)
            ]
            fs = [a.values for a in atoms]
            rhs = 1.0
            for a in atoms:
                from hardylab.atoms import cube_indicator

                rhs *= lp_quasinorm(cube_indicator(a.cube, grid), 1.0)
            out_gen, _ = apply_general(MultilinearOperator(sb, grid), [fs])[0]
            out_mix = apply_operator(MultilinearOperator(degenerate, grid), fs)
            r_gen = hp_quasinorm(out_gen, 0.5, bump, ladder) / rhs
            r_mix = hp_quasinorm(out_mix, 0.5, bump, ladder) / rhs
            worst = max(worst, abs(r_mix - r_gen) / r_gen)
        report_line("9 degenerate mixed = general", worst <= 1e-10, f"rel dev {worst:.2e}")
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 10. Determinism and replay
# ---------------------------------------------------------------------------


CLI_CONFIG = """
[operator]
symbol = sigma1_bilinear
cutoff = none

[indices]
p = 1, 1
n_moments = 2

[grid]
n = 1
L = 8
M = 512

[ensemble]
trials = 5
max_atoms = 2
seed = 1010
ell = 0.5
center_span = 0.2

[checks]
boundedness = true
"""


class TestCriterion10Determinism:
    def test_replay_and_byte_identical_reruns(self, tmp_path):
        import json

        from hardylab.cli import main

        cfg = tmp_path / "run.ini"
        cfg.write_text(CLI_CONFIG)
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["run", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        assert main(["run", str(cfg), "--out", str(out3), "--jobs", "1"]) == 0

        identical = (
            (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
            and (out1 / "summary.csv").read_bytes() == (out3 / "summary.csv").read_bytes()
        )
        report = json.loads((out1 / "report.json").read_text())
        replays = [
            main(["replay", str(out1 / "report.json"), str(t["trial_id"])])
            for t in report["trials"]
        ]
        replay_ok = all(code == 0 for code in replays)
        ok = identical and replay_ok
        report_line(
            "10 determinism and replay",
            ok,
            f"byte-identical {identical}, replays {replays}",
        )
        assert ok
