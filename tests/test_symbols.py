import itertools
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hardylab.symbols import (
    BUILTIN_NAMES,
    FD_STEP_SCALE,
    Partition,
    Symbol,
    builtin_symbol,
    cm_condition_ratio,
    dyadic_shells,
    forms_agree,
    homogeneity_deviation,
    make_mixed_symbol,
    make_product_symbol,
    plane_samples,
    plane_vanishing_order,
    power_symbol,
    random_frequency_tuples,
    sphere_directions,
)

VANISHING = ["sigma1", "sigma2", "sigma2_factored", "sigma3", "sigma3_factored", "sigma4"]


class TestBuiltins:
    def test_sigma1_point_values(self):
        s1 = builtin_symbol("sigma1")
        assert s1(1.0, 1.0, 1.0) == pytest.approx(3.0)
        assert s1(1.0, -1.0, 0.0) == 0.0

    def test_sigma4_vanishes_on_plane_point(self):
        s4 = builtin_symbol("sigma4")
        assert abs(s4(1.0, 2.0, -3.0)) < 1e-15

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            builtin_symbol("nosuch")

    def test_unicode_alias(self):
        assert builtin_symbol("σ1").name == "sigma1"

    def test_constant_one_any_arity(self):
        for m in (1, 2, 3, 4):
            one = builtin_symbol("constant_one", m=m)
            args = [1.0] * m
            assert one(*args) == 1.0

    def test_constant_one_is_one_at_origin(self):
        # The constant symbol is not singular; the origin convention applies
        # only to the rational builtins.
        one = builtin_symbol("constant_one", m=2)
        assert one(0.0, 0.0) == 1.0

    def test_singular_builtins_are_zero_at_origin(self):
        assert builtin_symbol("sigma1")(0.0, 0.0, 0.0) == 0.0
        assert builtin_symbol("sigma4")(0.0, 0.0, 0.0) == 0.0
        assert builtin_symbol("sigma1_bilinear")(0.0, 0.0) == 0.0

    def test_kinds(self):
        assert builtin_symbol("sigma1").kind == "general"
        assert builtin_symbol("sigma2").kind == "mixed"
        assert builtin_symbol("sigma3").kind == "product"
        assert builtin_symbol("sigma4").kind == "mixed"

    def test_sigma4_group_counts_vary(self):
        s4 = builtin_symbol("sigma4")
        counts = sorted(part.group_count for part in s4.terms)
        assert counts == [1, 2]

    def test_product_terms_are_singleton_partitions(self):
        one = builtin_symbol("constant_one", m=1)
        cube = power_symbol(one, 3)
        terms = [(one, cube), (cube, one), (one, one)]
        sym = make_product_symbol(terms)
        assert sym.terms == tuple(Partition(((0,), (1,)), t) for t in terms)

    def test_kind_follows_terms(self):
        # The kind is read from the terms alone: no terms is general, all
        # single-slot groups is product, and any larger group is mixed.
        assert "kind" not in {f.name for f in fields(Symbol)}
        factorized = {
            "sigma2": "mixed",
            "sigma3": "product",
            "sigma4": "mixed",
            "constant_one": "product",
        }
        for name in BUILTIN_NAMES:
            sym = builtin_symbol(name)
            assert (sym.terms is None) == (name not in factorized)
            assert sym.kind == factorized.get(name, "general")
        one = builtin_symbol("constant_one", m=1)
        singletons = Partition(((0,), (1,), (2,)), (one, one, one))
        assert make_mixed_symbol([singletons]).kind == "product"
        assert power_symbol(builtin_symbol("sigma4"), 2).kind == "general"
        with pytest.raises(ValueError, match="at least one term"):
            Symbol(m=1, n=1, evaluate=one.evaluate, terms=())

    @pytest.mark.parametrize("name", VANISHING)
    def test_plane_vanishing_all_builtins(self, name):
        sym = builtin_symbol(name)
        pts = plane_samples(3, 1, 200, seed=5)
        rep = plane_vanishing_order(sym, 0, pts)
        assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_point_call_equals_array_evaluation(self, name):
        # A call at one point evaluates on a leading axis of one, as the
        # array evaluation does: on numpy scalars a power is libm's, and
        # sigma2 at (0, 1/16, 5/16) read one ulp off its array value.
        sym = builtin_symbol(name)
        pts = np.vstack([random_frequency_tuples(sym.m, 1, 200, seed=3)[..., 0], [0.0, 1 / 16, 5 / 16][: sym.m]])
        array = sym(*pts.T)
        point = [sym(*row) for row in pts]
        assert all(value.shape == () for value in point)
        assert np.array_equal(np.asarray(point).view(np.uint64), array.view(np.uint64))

    def test_finite_on_random_tuples(self):
        pts = random_frequency_tuples(3, 1, 500, seed=9)
        for name in VANISHING + ["constant_one"]:
            vals = builtin_symbol(name)(pts[:, 0], pts[:, 1], pts[:, 2])
            assert np.all(np.isfinite(vals))


class TestFormsAgree:
    def test_sigma2_sum_vs_factored(self):
        pts = random_frequency_tuples(3, 1, 1000, seed=1)
        dev = forms_agree(builtin_symbol("sigma2"), builtin_symbol("sigma2_factored"), pts)
        assert dev < 1e-12

    def test_sigma3_sum_vs_factored(self):
        pts = random_frequency_tuples(3, 1, 1000, seed=2)
        dev = forms_agree(builtin_symbol("sigma3"), builtin_symbol("sigma3_factored"), pts)
        assert dev < 1e-12

    def test_self_agreement(self):
        pts = random_frequency_tuples(3, 1, 100, seed=3)
        s1 = builtin_symbol("sigma1")
        assert forms_agree(s1, s1, pts) == 0.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            forms_agree(builtin_symbol("sigma1"), builtin_symbol("sigma1_bilinear"), [])


class TestHomogeneity:
    def test_sigma1_degree_zero(self):
        s1 = builtin_symbol("sigma1")
        assert s1.homogeneous_degree_zero
        assert homogeneity_deviation(s1, 128, seed=0) < 1e-13

    def test_sigma1_quarter_to_four(self):
        s1 = builtin_symbol("sigma1")
        pts = random_frequency_tuples(3, 1, 64, seed=4)
        base = s1(pts[:, 0], pts[:, 1], pts[:, 2])
        for lam in (0.25, 0.5, 2.0, 4.0):
            scaled = s1(lam * pts[:, 0], lam * pts[:, 1], lam * pts[:, 2])
            assert np.max(np.abs(scaled - base)) < 1e-13 * np.max(1 + np.abs(base))

    def test_sigma2_not_flagged(self):
        assert not builtin_symbol("sigma2").homogeneous_degree_zero


class TestPowerSymbol:
    def test_square_values(self):
        s1 = builtin_symbol("sigma1")
        sq = power_symbol(s1, 2)
        assert sq(1.0, 1.0, 1.0) == pytest.approx(9.0)
        assert sq(1.0, -1.0, 0.0) == 0.0

    def test_matches_pointwise_power(self):
        s1 = builtin_symbol("sigma1")
        cube = power_symbol(s1, 3)
        pts = random_frequency_tuples(3, 1, 200, seed=6)
        base = s1(pts[:, 0], pts[:, 1], pts[:, 2])
        vals = cube(pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.max(np.abs(vals - base**3)) <= 1e-13 * np.max(1 + np.abs(base) ** 3)

    def test_constant_power(self):
        one = builtin_symbol("constant_one", m=3)
        assert power_symbol(one, 5)(1.0, 2.0, 3.0) == 1.0

    def test_preserves_homogeneity_flag(self):
        assert power_symbol(builtin_symbol("sigma1"), 2).homogeneous_degree_zero


class TestCmCondition:
    def test_sigma1_order_zero_supremum(self):
        # Oracle: the supremum of (a+b+c)^2/(a^2+b^2+c^2) on the sphere is 3,
        # attained on the diagonal; dense sampling never exceeds it.
        s1 = builtin_symbol("sigma1")
        rng = np.random.default_rng(123)
        dense = rng.standard_normal((20000, 3, 1))
        dense /= np.linalg.norm(dense.reshape(-1, 3), axis=1)[:, None, None]
        dense_max = np.max(np.abs(s1(dense[:, 0], dense[:, 1], dense[:, 2])))
        assert dense_max <= 3.0 + 1e-12

        dirs = sphere_directions(3, 1, 64, seed=0)
        assert cm_condition_ratio(s1, (0, 0, 0), dirs) == pytest.approx(3.0, abs=1e-9)

    def test_constant_derivatives_vanish(self):
        one = builtin_symbol("constant_one", m=3)
        dirs = sphere_directions(3, 1, 32, seed=1)
        for alpha in [(1, 0, 0), (0, 1, 1), (2, 0, 0)]:
            assert cm_condition_ratio(one, alpha, dirs) < 1e-8

    def test_sigma1_first_derivative_shell_independent(self):
        # Degree-zero homogeneity forces the weighted derivative supremum to
        # agree between shells; oracle = evaluate on two shells directly.
        s1 = builtin_symbol("sigma1")
        dirs = sphere_directions(3, 1, 64, seed=2)
        vals = [cm_condition_ratio(s1, (1, 0, 0), dirs * r) for r in (1.0, 2.0, 4.0, 8.0)]
        for v in vals[1:]:
            assert abs(v - vals[0]) / vals[0] < 1e-6

    @pytest.mark.parametrize("name", VANISHING + ["constant_one"])
    def test_all_builtins_finite_up_to_order_two(self, name):
        sym = builtin_symbol(name)
        dirs = sphere_directions(3, 1, 16, seed=3)
        for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]:
            for radius in dyadic_shells():
                val = cm_condition_ratio(sym, alpha, dirs * radius)
                assert np.isfinite(val)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            cm_condition_ratio(builtin_symbol("sigma1"), (3, 0, 0), sphere_directions(3, 1, 8, 0))

    def test_rejects_origin_sample(self):
        pts = np.zeros((1, 3, 1))
        with pytest.raises(ValueError, match="origin"):
            cm_condition_ratio(builtin_symbol("sigma1"), (0, 0, 0), pts)


class TestPlaneVanishing:
    def test_sigma1_square_first_transverse_derivative(self):
        # Oracle: symbolic differentiation of the squared rational function
        # along the diagonal direction at three plane points.
        import sympy as sp

        a, b, c, t = sp.symbols("a b c t", real=True)
        u = 1 / sp.sqrt(3)
        expr = ((a + b + c) ** 2 / (a**2 + b**2 + c**2)) ** 2
        shifted = expr.subs({a: a + t * u, b: b + t * u, c: c + t * u})
        deriv = sp.diff(shifted, t).subs(t, 0)
        for pa, pb in [(1.0, 0.5), (-2.0, 1.0), (0.7, 0.7)]:
            pc = -(pa + pb)
            val = float(deriv.subs({a: pa, b: pb, c: pc}))
            assert abs(val) < 1e-12

        sq = power_symbol(builtin_symbol("sigma1"), 2)
        pts = plane_samples(3, 1, 50, seed=7)
        rep = plane_vanishing_order(sq, 1, pts)
        assert rep.residuals[1] < 1e-6

    def test_constant_does_not_vanish(self):
        one = builtin_symbol("constant_one", m=3)
        pts = plane_samples(3, 1, 20, seed=8)
        rep = plane_vanishing_order(one, 0, pts)
        assert rep.max_residual == pytest.approx(1.0)

    def test_rejects_off_plane_samples(self):
        pts = random_frequency_tuples(3, 1, 5, seed=9)
        with pytest.raises(ValueError, match="plane"):
            plane_vanishing_order(builtin_symbol("sigma1"), 0, pts)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _evaluate(sym, pts):
    return np.asarray(sym.evaluate(*[pts[:, j] for j in range(sym.m)]))


def _splitting_cm_ratio(sym, alpha, pts):
    """cm_condition_ratio with d^alpha from a stencil of integer offsets that
    splits each point into an up and a down one per unit of alpha."""
    m, n = sym.m, sym.n
    scales = np.sum(np.linalg.norm(pts, axis=2), axis=1)
    order = sum(alpha)
    if order == 0:
        return float(np.max(np.abs(_evaluate(sym, pts))))
    h = FD_STEP_SCALE * scales
    stencil = [(np.zeros(m * n, dtype=np.int64), 1.0)]
    for d in [d for d, a in enumerate(alpha) for _ in range(a)]:
        split = []
        for vec, sgn in stencil:
            up, dn = vec.copy(), vec.copy()
            up[d] += 1
            dn[d] -= 1
            split += [(up, sgn), (dn, -sgn)]
        stencil = split
    deriv = np.zeros(pts.shape[0], dtype=np.complex128)
    for vec, sgn in stencil:
        deriv += sgn * _evaluate(sym, pts + h[:, None, None] * vec.reshape(m, n)[None])
    return float(np.max(np.abs(deriv / (2.0 * h) ** order) * scales**order))


def _binomial_plane_residual(sym, k, pts):
    """The order-k plane residual from the (k+1)-point binomial stencil
    sum_i (-1)^i C(k, i) sigma(xi + (k/2 - i) h u) / h^k."""
    u = np.full((sym.m, sym.n), 1.0 / np.sqrt(sym.m * sym.n))
    h = FD_STEP_SCALE * np.sum(np.linalg.norm(pts, axis=2), axis=1)
    acc = np.zeros(pts.shape[0], dtype=np.complex128)
    for i in range(k + 1):
        moved = pts + ((k / 2.0 - i) * h)[:, None, None] * u[None]
        acc += (-1.0) ** i * math.comb(k, i) * _evaluate(sym, moved)
    return float(np.max(np.abs(acc / h**k)))


class TestSlotNormUnderflow:
    # Each slot is scaled by its largest |coordinate| before its norm, so a
    # slot far below sqrt(tiny) still has a length.
    SAMPLE = [[[1e-170], [-1e-170]]]

    def test_plane_residual_of_a_tiny_sample(self):
        rep = plane_vanishing_order(builtin_symbol("sigma1_bilinear"), 0, self.SAMPLE)
        assert rep.residuals == (0.0,)

    @pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (0, 1)])
    def test_cm_ratio_accepts_a_tiny_sample(self, alpha):
        assert cm_condition_ratio(builtin_symbol("sigma1_bilinear"), alpha, self.SAMPLE) == 0.0

    def test_second_order_divisor_underflow_raises_without_warning(self):
        # (2 step)^2 underflows to 0 at this sample, so order 2 is an error
        # naming the sample, raised before sigma is evaluated.
        sym = builtin_symbol("sigma1_bilinear")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not a normal float at samples \[0\]"):
                cm_condition_ratio(sym, (1, 1), self.SAMPLE)
            with pytest.raises(ValueError, match=r"not a normal float at samples \[0\]"):
                plane_vanishing_order(sym, 2, self.SAMPLE)
            assert plane_vanishing_order(sym, 1, self.SAMPLE).residuals == (0.0, 0.0)

    def test_n1_norm_is_the_absolute_value(self):
        from hardylab.symbols import _slot_norm_sum

        # Magnitudes from 1e-200 to 1e194: squares that underflow or overflow.
        scales = 10.0 ** np.arange(-200, 200, 400 / 64)[:, None, None]
        pts = np.random.default_rng(4).standard_normal((64, 3, 1)) * scales
        want = np.abs(pts[:, 0, 0]) + np.abs(pts[:, 1, 0]) + np.abs(pts[:, 2, 0])
        assert np.array_equal(_slot_norm_sum(pts).view(np.uint64), want.view(np.uint64))


class TestCentralDifference:
    # Both symbol conditions read one central-difference stencil.  At
    # orders 1 and 2 it forms the same points, signs, summation order and
    # divisor as the stencils each condition used to build for itself, so
    # the figures agree bit for bit.
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_plane_residuals_equal_binomial_stencil(self, name):
        sym = builtin_symbol(name)
        pts = plane_samples(sym.m, sym.n, 100, seed=3)
        rep = plane_vanishing_order(sym, 2, pts)
        want = [_binomial_plane_residual(sym, k, pts) for k in (1, 2)]
        assert np.array_equal(_bits(rep.residuals[1:]), _bits(want))

    @pytest.mark.parametrize("name", ["sigma1", "sigma1_bilinear"])
    @pytest.mark.parametrize("radius", [0.5, 4.0])
    def test_cm_ratio_equals_splitting_stencil(self, name, radius):
        sym = builtin_symbol(name)
        pts = sphere_directions(sym.m, sym.n, 32, seed=4) * radius
        alphas = [a for a in itertools.product(range(3), repeat=sym.m) if sum(a) <= 2]
        assert len(alphas) == (10 if sym.m == 3 else 6)
        got = [cm_condition_ratio(sym, alpha, pts) for alpha in alphas]
        want = [_splitting_cm_ratio(sym, alpha, pts) for alpha in alphas]
        assert np.array_equal(_bits(got), _bits(want))


class TestPartition:
    def test_valid_partition(self):
        sb = builtin_symbol("sigma1_bilinear")
        lin = builtin_symbol("constant_one", m=1)
        part = Partition(((0, 1), (2,)), (sb, lin))
        assert part.m == 3
        assert part.group_count == 2

    def test_rejects_overlap(self):
        sb = builtin_symbol("sigma1_bilinear")
        with pytest.raises(ValueError, match="partition"):
            Partition(((0, 1), (1,)), (sb, builtin_symbol("constant_one", m=1)))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            Partition(((0, 1),), (builtin_symbol("constant_one", m=1),))
