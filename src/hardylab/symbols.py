"""Multilinear multiplier symbols: builtin library, structure, and checks.

A symbol is an m-linear multiplier on (R^n)^m with a vectorized pointwise
evaluator and, when it factorizes, its terms as partitions of the slots in
``Symbol.terms`` with a synthesized dense evaluator, so the same object can be
applied through the fast factorized path or the exhaustive general path.  The
kind is read from the terms: *general* without terms (only the evaluator is
known), *product* when every group of every term is one slot (a sum of
rank-one products of 1-linear multipliers), and *mixed* otherwise.
``Symbol.partitions`` reads a general symbol as one term with one group of
all m slots, so every reader of the structure sees terms.

Singular builtins (rational with a 0/0 at the frequency origin) evaluate to 0
at the all-zero tuple; the constant symbol stays 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Symbol",
    "Partition",
    "builtin_symbol",
    "make_product_symbol",
    "make_mixed_symbol",
    "power_symbol",
    "cm_condition_ratio",
    "plane_vanishing_order",
    "PlaneVanishingReport",
    "forms_agree",
    "random_frequency_tuples",
    "plane_samples",
    "sphere_directions",
    "dyadic_shells",
    "homogeneity_deviation",
    "BUILTIN_NAMES",
]

# Relative finite-difference step: h = FD_STEP_SCALE * (|xi_1| + ... + |xi_m|),
# matching the homogeneous scaling of the derivative condition.
FD_STEP_SCALE = 1e-4

# Central differences of rational symbols beyond second order lose too many
# digits to be meaningful; the checks are demonstrative, not exhaustive.
MAX_DERIVATIVE_ORDER = 2


@dataclass(frozen=True)
class Symbol:
    """An m-linear multiplier on (R^n)^m.

    ``evaluate`` takes m float arrays of broadcast-compatible shapes (..., n),
    each with at least one leading axis, and returns a complex (or float)
    array of their broadcast shape (...), equal bit for bit to what it
    returns on their ``np.broadcast_arrays``: the split engine passes the
    gathered frequencies of a fibre without broadcasting them.  Evaluators
    must be pure and reentrant.
    """

    m: int
    n: int
    evaluate: Callable[..., np.ndarray]
    name: str = ""
    homogeneous_degree_zero: bool = False
    terms: tuple["Partition", ...] | None = None

    def __post_init__(self) -> None:
        if self.terms is not None and not self.terms:
            raise ValueError("a factorized symbol needs at least one term")

    @property
    def kind(self) -> str:
        if self.terms is None:
            return "general"
        if all(len(g) == 1 for part in self.terms for g in part.groups):
            return "product"
        return "mixed"

    @property
    def partitions(self) -> tuple["Partition", ...]:
        """The terms every route applies: ``terms`` for a factorized symbol,
        and for a general one a single term whose one group holds all m
        slots with the symbol itself.  A property, since a field holding
        ``self`` would make hashing recurse."""
        if self.terms is None:
            return (Partition((tuple(range(self.m)),), (self,)),)
        return self.terms

    def __call__(self, *xis) -> np.ndarray:
        if len(xis) != self.m:
            raise ValueError(f"symbol has arity {self.m}, got {len(xis)} arguments")
        coords = [self._canonical(x) for x in xis]
        shape = np.broadcast_shapes(*(x.shape[:-1] for x in coords))
        # At least one leading axis, as ``evaluate`` requires: on a numpy
        # scalar, power is libm's and can differ in the last bit.
        return np.asarray(self.evaluate(*(x if x.ndim > 1 else x[None] for x in coords))).reshape(shape)

    def _canonical(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if self.n == 1:
            if arr.ndim == 0 or arr.shape[-1] != 1:
                arr = arr[..., None]
        elif arr.ndim == 0 or arr.shape[-1] != self.n:
            raise ValueError(f"expected points in R^{self.n}, got shape {arr.shape}")
        return arr


@dataclass(frozen=True)
class Partition:
    """A partition of the m input slots with one symbol per group."""

    groups: tuple[tuple[int, ...], ...]
    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
        )
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.groups) != len(self.symbols):
            raise ValueError("one symbol per group required")
        flat: list[int] = []
        for g, s in zip(self.groups, self.symbols):
            if len(g) == 0:
                raise ValueError("empty group in partition")
            if s.m != len(g):
                raise ValueError(f"group {g} needs arity {len(g)}, symbol has {s.m}")
            flat.extend(g)
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(f"groups {self.groups} are not a partition of the slots")

    @property
    def m(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def group_count(self) -> int:
        return len(self.groups)


def _mixed_evaluator(terms: tuple[Partition, ...]):
    def evaluate(*xis):
        total = None
        for part in terms:
            prod = None
            for grp, sym in zip(part.groups, part.symbols):
                val = sym.evaluate(*[xis[l] for l in grp])
                prod = val if prod is None else prod * val
            total = prod if total is None else total + prod
        return total

    return evaluate


def make_product_symbol(
    terms: Sequence[Sequence[Symbol]],
    name: str = "",
    homogeneous_degree_zero: bool = False,
) -> Symbol:
    """Assemble a product-type symbol sum_rho prod_j sigma_j^rho(xi_j); each
    term is stored as the partition of its slots into singletons."""
    parts = [Partition(tuple((j,) for j in range(len(t))), tuple(t)) for t in terms]
    return make_mixed_symbol(parts, name, homogeneous_degree_zero)


def make_mixed_symbol(
    terms: Sequence[Partition],
    name: str = "",
    homogeneous_degree_zero: bool = False,
) -> Symbol:
    """Assemble a factorized symbol sum_rho prod_g sigma_{I_g}({xi_l}); its
    kind is product when every group is one slot, else mixed."""
    terms_t = tuple(terms)
    if not terms_t:
        raise ValueError("need at least one term")
    m = terms_t[0].m
    n = terms_t[0].symbols[0].n
    for part in terms_t:
        if part.m != m:
            raise ValueError("all terms must cover the same slots")
        for s in part.symbols:
            if s.n != n:
                raise ValueError("dimension mismatch among term symbols")
    return Symbol(
        m=m,
        n=n,
        evaluate=_mixed_evaluator(terms_t),
        name=name,
        homogeneous_degree_zero=homogeneous_degree_zero,
        terms=terms_t,
    )


def power_symbol(sym: Symbol, k: int) -> Symbol:
    """Pointwise k-th power; keeps the degree-zero homogeneity flag."""
    if k < 1:
        raise ValueError(f"power must be a positive integer, got {k}")
    base = sym.evaluate

    def evaluate(*xis):
        return base(*xis) ** k

    return Symbol(
        m=sym.m,
        n=sym.n,
        evaluate=evaluate,
        name=f"{sym.name}^{k}" if sym.name else f"power{k}",
        homogeneous_degree_zero=sym.homogeneous_degree_zero,
    )


# ---------------------------------------------------------------------------
# Builtin trilinear symbol library (n = 1)
# ---------------------------------------------------------------------------


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the 0/0 at the frequency origin mapped to 0."""
    den = np.asarray(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(num / den)
    zero = den == 0.0
    if zero.any():
        out = np.where(zero, 0.0, out)
    return out


def _lift1(f):
    def evaluate(*xis):
        return f(*[x[..., 0] for x in xis])

    return evaluate


def _sigma1_formula(a, b, c):
    return _safe_div((a + b + c) ** 2, a * a + b * b + c * c)


def _sigma1_bilinear_formula(a, b):
    return _safe_div((a + b) ** 2, a * a + b * b)


def _sigma2_factored_formula(a, b, c):
    num = (a + b + c) * (a * a + b * b + c * c - a * b - b * c - c * a)
    den = (1.0 + a * a) ** 1.5 * (1.0 + b * b + c * c) ** 1.5
    return num / den


def _sigma3_factored_formula(a, b, c):
    num = -a * b * c * (a - b) * (b - c) * (c - a) * (a + b + c)
    den = (1.0 + a * a) ** 2 * (1.0 + b * b) ** 2 * (1.0 + c * c) ** 2
    return num / den


def _linear1(f, name: str = "") -> Symbol:
    return Symbol(m=1, n=1, evaluate=_lift1(f), name=name)


def _cube_over_single(u):
    return u**3 / (1.0 + u * u) ** 1.5


def _one_over_single(u):
    return 1.0 / (1.0 + u * u) ** 1.5


# The one-slot constant: the third factor of sigma4's first term, and every
# factor of ``constant_one``.
ONE = _linear1(lambda u: np.ones_like(u), "1")


def _sigma2_terms() -> tuple[Partition, ...]:
    # Each term multiplies a 1-linear factor in xi_1 by a bilinear factor in
    # (xi_2, xi_3); four terms share the partition {1} + {2, 3}.
    def pair_den(a, b):
        return (1.0 + a * a + b * b) ** 1.5

    g1_cube = _linear1(_cube_over_single, "u^3/(1+u^2)^{3/2}")
    g1_one = _linear1(_one_over_single, "1/(1+u^2)^{3/2}")
    g1_lin = _linear1(lambda u: -3.0 * u / (1.0 + u * u) ** 1.5, "-3u/(1+u^2)^{3/2}")

    def bi(f, name):
        return Symbol(m=2, n=1, evaluate=_lift1(f), name=name)

    g2_one = bi(lambda a, b: 1.0 / pair_den(a, b), "1/(1+a^2+b^2)^{3/2}")
    g2_a3 = bi(lambda a, b: a**3 / pair_den(a, b), "a^3/(1+a^2+b^2)^{3/2}")
    g2_b3 = bi(lambda a, b: b**3 / pair_den(a, b), "b^3/(1+a^2+b^2)^{3/2}")
    g2_ab = bi(lambda a, b: a * b / pair_den(a, b), "ab/(1+a^2+b^2)^{3/2}")

    groups = ((0,), (1, 2))
    return (
        Partition(groups, (g1_cube, g2_one)),
        Partition(groups, (g1_one, g2_a3)),
        Partition(groups, (g1_one, g2_b3)),
        Partition(groups, (g1_lin, g2_ab)),
    )


def _sigma3_terms() -> tuple[tuple[Symbol, ...], ...]:
    # Six rank-one terms built from u^k/(1+u^2)^2; signs are folded into the
    # first factor of each term.
    def ell(k, sign=1.0):
        return _linear1(lambda u, k=k, s=sign: s * u**k / (1.0 + u * u) ** 2)

    l1, l2, l4 = ell(1), ell(2), ell(4)
    m1, m2, m4 = ell(1, -1.0), ell(2, -1.0), ell(4, -1.0)
    return (
        (l4, l2, l1),
        (m4, l1, l2),
        (m2, l4, l1),
        (l1, l4, l2),
        (l2, l1, l4),
        (m1, l2, l4),
    )


def _sigma4_terms() -> tuple[Partition, ...]:
    # Two terms with different group counts: a bilinear factor times the
    # constant in the third slot, minus a genuinely trilinear factor.
    def bilinear_part(a, b):
        return _safe_div(a * b, a * a + b * b + (a + b) ** 2)

    def trilinear_part(a, b, c):
        return _safe_div(-a * b, a * a + b * b + c * c)

    g_bi = Symbol(m=2, n=1, evaluate=_lift1(bilinear_part), name="ab/(a^2+b^2+(a+b)^2)")
    g_tri = Symbol(m=3, n=1, evaluate=_lift1(trilinear_part), name="-ab/(a^2+b^2+c^2)")
    return (
        Partition(((0, 1), (2,)), (g_bi, ONE)),
        Partition(((0, 1, 2),), (g_tri,)),
    )


# Builders of the builtin symbols, in the order the CLI lists them.  Each
# takes the requested arity; only ``constant_one`` has no fixed one.
_BUILTINS: dict[str, Callable[[int | None], Symbol]] = {
    "sigma1": lambda m: Symbol(
        m=3,
        n=1,
        evaluate=_lift1(_sigma1_formula),
        name="sigma1",
        homogeneous_degree_zero=True,
    ),
    "sigma2": lambda m: make_mixed_symbol(_sigma2_terms(), name="sigma2"),
    "sigma2_factored": lambda m: Symbol(
        m=3, n=1, evaluate=_lift1(_sigma2_factored_formula), name="sigma2_factored"
    ),
    "sigma3": lambda m: make_product_symbol(_sigma3_terms(), name="sigma3"),
    "sigma3_factored": lambda m: Symbol(
        m=3, n=1, evaluate=_lift1(_sigma3_factored_formula), name="sigma3_factored"
    ),
    "sigma4": lambda m: make_mixed_symbol(_sigma4_terms(), name="sigma4"),
    "constant_one": lambda m: make_product_symbol(
        [[ONE] * (3 if m is None else int(m))], name="constant_one"
    ),
    "sigma1_bilinear": lambda m: Symbol(
        m=2,
        n=1,
        evaluate=_lift1(_sigma1_bilinear_formula),
        name="sigma1_bilinear",
        homogeneous_degree_zero=True,
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def _normalize_name(name: str) -> str:
    return name.strip().replace("σ", "sigma").replace("׳", "").lower()


def builtin_symbol(name: str, m: int | None = None) -> Symbol:
    """Look up a builtin symbol by name (unicode sigma accepted).

    ``m`` selects the arity of ``constant_one`` (default 3) and must agree
    with the fixed arity of every other builtin.
    """
    key = _normalize_name(name)
    if key not in _BUILTINS:
        raise ValueError(f"unknown symbol name {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    sym = _BUILTINS[key](m)
    if m is not None and m != sym.m:
        raise ValueError(f"builtin {key} has arity {sym.m}, requested {m}")
    return sym


# ---------------------------------------------------------------------------
# Sample-set generators
# ---------------------------------------------------------------------------


def _as_samples(samples, m: int, n: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 2 and n == 1 and arr.shape[1] == m:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[1:] != (m, n):
        raise ValueError(f"samples must have shape (K, {m}, {n}), got {arr.shape}")
    return arr


def random_frequency_tuples(
    m: int, n: int, count: int, seed: int, lo: float = 0.25, hi: float = 4.0
) -> np.ndarray:
    """Random nonzero frequency tuples, per-slot radii log-uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, m, n))
    norms = np.linalg.norm(dirs, axis=2, keepdims=True)
    norms[norms == 0] = 1.0
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, m, 1)))
    return dirs / norms * radii


def plane_samples(m: int, n: int, count: int, seed: int, scale: float = 2.0) -> np.ndarray:
    """Random tuples on the cancellation plane xi_1 + ... + xi_m = 0.

    The last slot is the negated left-to-right float sum of the others, so the
    constraint holds exactly in floating point.
    """
    rng = np.random.default_rng(seed)
    pts = np.empty((count, m, n))
    pts[:, : m - 1] = scale * rng.standard_normal((count, m - 1, n))
    acc = pts[:, 0].copy()
    for j in range(1, m - 1):
        acc = acc + pts[:, j]
    pts[:, m - 1] = -acc
    return pts


def sphere_directions(m: int, n: int, count: int, seed: int) -> np.ndarray:
    """Unit directions in (R^n)^m: random points plus the diagonal and axes.

    The all-equal diagonal is always included so suprema attained there (as
    for the degree-zero homogeneous builtins) are sampled exactly.
    """
    rng = np.random.default_rng(seed)
    mn = m * n
    special = [np.ones(mn), -np.ones(mn)]
    special.extend(np.eye(mn))
    dirs = np.concatenate(
        [np.asarray(special), rng.standard_normal((max(count - len(special), 0), mn))]
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs.reshape(-1, m, n)


def dyadic_shells(lo_exp: int = -4, hi_exp: int = 4) -> tuple[float, ...]:
    return tuple(2.0**k for k in range(lo_exp, hi_exp + 1))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _slot_norm_sum(samples: np.ndarray) -> np.ndarray:
    """|xi_1| + ... + |xi_m| per sample.  Each slot is divided by its
    largest |coordinate| before its norm is taken and multiplied back after,
    so no slot's squares underflow; at n = 1 this is |xi_j| exactly."""
    big = np.max(np.abs(samples), axis=2)
    unit = samples / np.where(big > 0, big, 1.0)[..., None]
    return np.sum(np.linalg.norm(unit, axis=2) * big, axis=1)


def _central_difference(sym: Symbol, samples: np.ndarray, directions, step: np.ndarray) -> np.ndarray:
    """Central-difference estimate of the derivative of sigma along the
    directions d_1, ..., d_k, each of shape (m, n), at each sample: sigma at
    the 2^k points samples + step * (+-d_1 +- ... +- d_k), the first sign
    varying slowest, each signed by the product of its signs, summed and
    divided by (2 step)^k.  ``step`` holds one step per sample; with no
    direction this is sigma itself.  A divisor that is not a normal float
    (a second-order step below about 1e-154 underflows) is an error."""
    m = sym.m
    if not directions:
        return np.asarray(sym.evaluate(*[samples[:, j] for j in range(m)]))
    divisor = (2.0 * step) ** len(directions)
    bad = np.nonzero(~(np.isfinite(divisor) & (divisor >= np.finfo(np.float64).tiny)))[0]
    if bad.size:
        raise ValueError(
            f"finite-difference divisor (2 step)^{len(directions)} is not a normal float"
            f" at samples {bad.tolist()}"
        )
    out = np.zeros(samples.shape[0], dtype=np.complex128)
    for signs in product((1.0, -1.0), repeat=len(directions)):
        offset = sum((s * d for s, d in zip(signs, directions)), np.zeros(samples.shape[1:]))
        pts = samples + step[:, None, None] * offset[None]
        crossed = np.nonzero(_slot_norm_sum(pts) == 0)[0]
        if crossed.size:
            raise ValueError(f"finite-difference stencil crosses the origin at samples {crossed.tolist()}")
        out += math.prod(signs) * np.asarray(sym.evaluate(*[pts[:, j] for j in range(m)]))
    return out / divisor


def cm_condition_ratio(sym: Symbol, alpha: Sequence[int], samples) -> float:
    """sup over samples of |d^alpha sigma(xi)| * (|xi_1|+...+|xi_m|)^{|alpha|}.

    A finite, shell-stable value is the numerical signature of the classical
    multiplier derivative bound.  alpha is a multi-index over the m*n
    flattened coordinates; d^alpha is estimated by ``_central_difference``
    along the coordinate axes with the relative step
    h = FD_STEP_SCALE * (|xi_1| + ... + |xi_m|), capped at second order.
    """
    m, n = sym.m, sym.n
    pts = _as_samples(samples, m, n)
    alpha = tuple(int(a) for a in alpha)
    order = sum(alpha)
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {order} exceeds cap {MAX_DERIVATIVE_ORDER}")
    if len(alpha) != m * n:
        raise ValueError(f"multi-index must have {m * n} entries, got {len(alpha)}")
    scales = _slot_norm_sum(pts)
    if np.any(scales == 0):
        raise ValueError("sample set contains the frequency origin")
    axes = np.eye(m * n).reshape(m * n, m, n)
    directions = [axes[d] for d, a in enumerate(alpha) for _ in range(a)]
    deriv = _central_difference(sym, pts, directions, FD_STEP_SCALE * scales)
    return float(np.max(np.abs(deriv) * scales**order))


@dataclass(frozen=True)
class PlaneVanishingReport:
    """Max |transverse derivative| on the plane sum(xi_j) = 0, per order."""

    residuals: tuple[float, ...]
    sample_count: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def plane_vanishing_order(sym: Symbol, order: int, samples) -> PlaneVanishingReport:
    """Residuals of sigma and its transverse derivatives on the plane.

    Order-0 residual is max |sigma| over the samples; order k probes the k-th
    directional derivative along the plane normal u = (1, ..., 1)/sqrt(m n)
    by ``_central_difference`` along k copies of u with step h/2, so its
    points lie within h of the sample.
    """
    pts = _as_samples(samples, sym.m, sym.n)
    if order < 0:
        raise ValueError("order must be nonnegative")
    slot_sum = np.sum(pts, axis=1)
    scales = _slot_norm_sum(pts)
    if np.any(scales == 0):
        raise ValueError("plane samples must exclude the origin")
    off = np.linalg.norm(slot_sum, axis=1)
    if np.any(off > 1e-12 * np.maximum(scales, 1.0)):
        raise ValueError("samples do not lie on the plane sum(xi_j) = 0")

    u = np.full((sym.m, sym.n), 1.0 / np.sqrt(sym.m * sym.n))
    step = FD_STEP_SCALE * scales / 2.0
    residuals = tuple(
        float(np.max(np.abs(_central_difference(sym, pts, [u] * k, step))))
        for k in range(order + 1)
    )
    return PlaneVanishingReport(residuals, pts.shape[0])


def forms_agree(sym_a: Symbol, sym_b: Symbol, samples) -> float:
    """Max over samples of |sigma_a - sigma_b| / (1 + |sigma_a|)."""
    if sym_a.m != sym_b.m or sym_a.n != sym_b.n:
        raise ValueError("symbols must share arity and dimension")
    pts = _as_samples(samples, sym_a.m, sym_a.n)
    slots = [pts[:, j] for j in range(sym_a.m)]
    va = np.asarray(sym_a.evaluate(*slots))
    vb = np.asarray(sym_b.evaluate(*slots))
    return float(np.max(np.abs(va - vb) / (1.0 + np.abs(va))))


def homogeneity_deviation(sym: Symbol, count: int = 64, seed: int = 0) -> float:
    """Max relative deviation of sigma(lambda xi) from sigma(xi), lambda in {2, 1/2, 3}."""
    pts = random_frequency_tuples(sym.m, sym.n, count, seed)
    slots = [pts[:, j] for j in range(sym.m)]
    base = np.asarray(sym.evaluate(*slots))
    worst = 0.0
    for lam in (2.0, 0.5, 3.0):
        scaled = np.asarray(sym.evaluate(*[lam * s for s in slots]))
        worst = max(worst, float(np.max(np.abs(scaled - base) / (1.0 + np.abs(base)))))
    return worst
