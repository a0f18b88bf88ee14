"""Experiment harness: index arithmetic, cancellation and decay checks,
majorant inequalities, and boundedness-ratio ensembles.

Every "bounded by a constant multiple" claim is tested as a reported ratio:
the suite records the ensemble supremum and checks finiteness plus stability
under grid refinement and dyadic dilation, never an absolute constant.
Trials are replayable: each derives its random stream from (master seed,
trial index), and trial records carry the full atom geometry.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .atoms import Atom, Cube, _check_side, _monomial_exponents, cube_indicator, dilate_cube, make_atomic_sum
from .grid import Grid, SampledFunction, _frozen, dft, lp_quasinorm, make_grid
from .maximal import BumpProfile, ScaleLadder, hp_quasinorm, hl_maximal, make_bump, make_ladder, power_maximal, smooth_maximal
from .operators import (
    DEFAULT_COST_BUDGET,
    MultilinearOperator,
    _check_budget,
    default_cutoff,
    operator_factors,
    sets_per_pass,
    spectral_moment,
    sum_of_products,
)
from .symbols import Symbol, builtin_symbol

__all__ = [
    "IndexData",
    "index_arithmetic",
    "AtomOutput",
    "apply_to_atoms",
    "ExperimentConfig",
    "RunContext",
    "run_context",
    "TrialRecord",
    "ExperimentReport",
    "CancellationReport",
    "DecayReport",
    "LocalEstimateReport",
    "MajorantReport",
    "FsReport",
    "ScaleInvarianceReport",
    "check_cancellation",
    "check_decay_lemma",
    "check_local_estimate",
    "check_pointwise_majorant",
    "check_fs_inequality",
    "run_boundedness_ensemble",
    "run_trial",
    "run_trials",
    "draw_trial_entries",
    "trial_seed",
    "scale_invariance_test",
]

NOISE_FLOOR_FACTOR = 100.0  # multiples of machine epsilon times problem scale
BOUNDARY_MARGIN_FACTOR = 4.0  # decay probes keep this many largest sides from the box edge


# ---------------------------------------------------------------------------
# Index arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexData:
    """Exponent bookkeeping: p from the reciprocal sum, the moment index s,
    and the atom cancellation order N."""

    exponents: tuple[float, ...]
    n: int
    p: float
    s: int
    N: int

    @property
    def m(self) -> int:
        return len(self.exponents)


def index_arithmetic(
    exponents: Sequence[float],
    n: int,
    N_override: int | None = None,
    symbol: Symbol | None = None,
) -> IndexData:
    """Derive (p, s, N) from input exponents and validate them against a symbol.

    1/p is the sum of the reciprocals; s is the integer part of the positive
    part of n(1/p - 1), with exact-integer boundaries kept; N defaults to
    m(n + 1 + 2s).  Given a symbol, there must be one exponent per slot and
    every group of its terms must hold a finite exponent; a general symbol is
    one group of all m slots, and a product symbol's groups are single slots.
    """
    ps = tuple(float(p) for p in exponents)
    m = len(ps)
    if m == 0:
        raise ValueError("need at least one exponent")
    for p in ps:
        if not (p > 0):
            raise ValueError(f"exponents must lie in (0, inf], got {p}")
    if symbol is not None:
        if m != symbol.m:
            raise ValueError(f"symbol {symbol.name!r} has arity {symbol.m}, got {m} exponents")
        for grp in (g for part in symbol.partitions for g in part.groups):
            if all(math.isinf(ps[l]) for l in grp):
                raise ValueError(
                    f"{symbol.kind} type needs a finite exponent in every group; "
                    f"group {grp} has p = inf in each slot"
                )

    inv_p = sum(0.0 if math.isinf(p) else 1.0 / p for p in ps)
    p_out = math.inf if inv_p == 0.0 else 1.0 / inv_p
    if math.isinf(p_out):
        s = 0
    else:
        v = n * (1.0 / p_out - 1.0)
        s = max(0, math.floor(v + 1e-9))
    N = int(N_override) if N_override is not None else m * (n + 1 + 2 * s)
    return IndexData(ps, n, p_out, s, N)


# ---------------------------------------------------------------------------
# The operator applied to sets of atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomOutput:
    """T(a_1, ..., a_m) for one set of atoms, which every check measures.

    ``factors`` holds, per term of ``Symbol.partitions``, its group outputs
    (``operator_factors``) that ``out`` sums the products of.
    ``error_bound`` bounds the sup-norm error the groups' tensor trains add
    to ``out`` (``Factors.bound``); it is 0.0 when every group is exact.
    """

    op: MultilinearOperator
    atoms: tuple[Atom, ...]
    out: SampledFunction
    factors: tuple[tuple[SampledFunction, ...], ...]
    error_bound: float = 0.0


def apply_to_atoms(
    op: MultilinearOperator, atom_sets: Sequence[Sequence[Atom]]
) -> list[AtomOutput]:
    """Apply the operator once to each set of atoms' values, all sets in one
    batched application (``operator_factors``)."""
    batch = operator_factors(op, [[a.values for a in atoms] for atoms in atom_sets])
    return [
        AtomOutput(op, tuple(atoms), sum_of_products(factors), factors, factors.bound)
        for atoms, factors in zip(atom_sets, batch)
    ]


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CancellationReport:
    """The largest normalized output moment over |alpha| <= s, spectral or
    spatial, against the pass threshold."""

    output_l1: float
    length_scale: float
    tolerance: float
    max_normalized: float

    @property
    def passed(self) -> bool:
        return self.max_normalized < self.tolerance


# Pass thresholds of the checks that take one; every run uses these.
DEFAULT_TOLERANCES = {"cancellation": 1e-5, "scale_invariance": 0.2}


def check_cancellation(
    t: AtomOutput,
    s: int,
    tolerance: float = DEFAULT_TOLERANCES["cancellation"],
) -> CancellationReport:
    """Verify that moments of the operator output up to order s vanish.

    For each |alpha| <= s both the spectral finite-difference moment and the
    spatial quadrature companion are computed, normalized by the output L^1
    norm times ell^|alpha| (ell = smallest atom side)."""
    norm1 = lp_quasinorm(t.out, 1.0)
    ell = min(a.cube.side for a in t.atoms)
    scale = max(norm1, np.finfo(float).tiny)
    spectrum = dft(t.out)
    normalized = []
    for alpha in _monomial_exponents(t.op.grid.n, s):
        est = spectral_moment(spectrum, alpha)
        denom = scale * ell ** sum(alpha)
        normalized += [abs(est.spectral) / denom, abs(est.spatial) / denom]
    return CancellationReport(norm1, ell, tolerance, max(normalized))


# ---------------------------------------------------------------------------
# Kernel decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """The fit, plus the points it was drawn from: every grid point outside
    the dilated supports where the output is nonzero, as distance sum and
    magnitude (the probes are the part of these inside the margins and
    above the noise floor)."""

    slope: float
    slope_stderr: float
    slope_bound: float
    ratio_sup: float
    ratio_median: float
    probe_count: int
    excluded_below_floor: int
    point_distance: np.ndarray
    point_magnitude: np.ndarray

    @property
    def passed(self) -> bool:
        outlier_ok = self.ratio_sup <= 1e3 * max(self.ratio_median, np.finfo(float).tiny)
        return self.slope <= self.slope_bound and np.isfinite(self.ratio_sup) and outlier_ok


def _distance_sum(points: np.ndarray, centers: Sequence[np.ndarray]) -> np.ndarray:
    total = np.zeros(points.shape[:-1])
    for c in centers:
        total += np.linalg.norm(points - c, axis=-1)
    return total


def _median(values) -> float:
    """``np.median``, bit for bit, without the ``numpy.ma`` import of its NaN
    check: the middle one or two sorted values, summed from +0.0 as
    ``np.mean`` sums them (so a zero median is +0.0), or NaN when a value is."""
    a = np.sort(np.asarray(values, dtype=float))
    h = a.size // 2
    if np.isnan(a[-1]):
        return float(a[-1])
    return float(0.0 + a[h] if a.size % 2 else (0.0 + a[h - 1] + a[h]) / 2)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x and its standard error, from the
    centred sums (x is not constant: the decay fit asks for two octaves)."""
    xc, yc = x - x.mean(), y - y.mean()
    x_var = float(np.sum(xc**2))
    slope = float(np.sum(xc * yc)) / x_var
    resid_var = float(np.sum((yc - slope * xc) ** 2)) / max(x.size - 2, 1)
    return slope, math.sqrt(resid_var / x_var) if x_var > 0 else math.inf


def check_decay_lemma(
    t: AtomOutput,
    N: int,
    max_distance: float | None = None,
) -> DecayReport:
    """Fit the far-field decay of |T(a_1, ..., a_m)| against the predicted rate.

    ``N`` is the cancellation order of the smallest-cube atom, which drives
    the predicted exponent.  Probes are grid points outside every
    3 sqrt(n)-dilate, at least ``BOUNDARY_MARGIN_FACTOR`` times the largest
    side from the box boundary, and (optionally) with distance sum at most
    ``max_distance``, and above the noise floor: NOISE_FLOOR_FACTOR
    rounding units of max |T|, or the output's error bound when that is
    larger.  The fitted slope of log |T| against
    log(sum_k |y - c_k|) must not exceed -(n + N + 1) + 0.75; the ratio of
    |T| to the predicted majorant must stay within three decades of its
    median.
    """
    atoms = t.atoms
    grid = t.op.grid
    pts = grid.points()
    outside = np.ones(grid.shape, dtype=bool)
    ell_max = max(a.cube.side for a in atoms)
    for a in atoms:
        star = dilate_cube(a.cube, "star")
        outside &= ~star.contains(pts)
    eligible = outside & np.all(
        np.abs(pts) <= grid.L - BOUNDARY_MARGIN_FACTOR * ell_max, axis=-1
    )
    if not np.any(eligible):
        raise ValueError("no probe points outside the dilated supports")

    centers = [np.asarray(a.cube.center) for a in atoms]
    dist_all = _distance_sum(pts, centers)
    mags_all = np.abs(t.out.values)
    plotted = outside & (mags_all > 0)
    dist = dist_all[eligible]
    mags = mags_all[eligible]
    if max_distance is not None:
        window = dist <= max_distance
        dist, mags = dist[window], mags[window]

    floor = max(NOISE_FLOOR_FACTOR * np.finfo(float).eps * float(np.max(mags_all)), t.error_bound)
    keep = mags > floor
    excluded = int(np.sum(~keep))
    dist, mags = dist[keep], mags[keep]
    if dist.size < 8:
        raise ValueError("too few probes above the noise floor")
    span = np.log2(float(np.max(dist)) / float(np.min(dist)))
    if span < 2.0:
        raise ValueError(f"insufficient octave span for the fit: {span:.2f} octaves")

    slope, stderr = _line_fit(np.log(dist), np.log(mags))

    n = grid.n
    ell_min = min(a.cube.side for a in atoms)
    rhs = ell_min ** (n + N + 1) / dist ** (n + N + 1)
    ratios = mags / rhs
    bound = -(n + N + 1) + 0.75
    return DecayReport(
        slope,
        stderr,
        bound,
        float(np.max(ratios)),
        _median(ratios),
        int(dist.size),
        excluded,
        dist_all[plotted],
        mags_all[plotted],
    )


# ---------------------------------------------------------------------------
# Local estimate near the smallest cube
# ---------------------------------------------------------------------------


def _local_lp(values: np.ndarray, mask: np.ndarray, r: float, grid: Grid) -> float:
    return float((np.sum(np.abs(values) ** r * mask) * grid.dx**grid.n) ** (1.0 / r))


@lru_cache(maxsize=16)
def _maximal_indicator(cube: Cube, grid: Grid, ladder: ScaleLadder) -> np.ndarray:
    """M chi_Q on the grid (read-only), computed once per cube, grid and ladder."""
    return hl_maximal(cube_indicator(cube, grid), ladder).values


@dataclass(frozen=True)
class LocalEstimateReport:
    lhs_direct: float
    lhs_maximal: float
    rhs: float
    ratio_direct: float
    ratio_maximal: float


def check_local_estimate(
    t: AtomOutput,
    r: float,
    N: int,
    ladder: ScaleLadder | None = None,
) -> LocalEstimateReport:
    """Local L^r size of the output over the 9n-dilate of the smallest cube,
    against the product of infimized maximal indicators.

    Both the direct output and its rough maximal function are measured.
    """
    if not (r > 1):
        raise ValueError(f"need r > 1, got {r}")
    grid = t.op.grid
    ladder = ladder or make_ladder(grid)
    q1 = min(t.atoms, key=lambda a: a.cube.side).cube

    pts = grid.points()
    mask_ss = dilate_cube(q1, "starstar").contains(pts)
    star_mask = dilate_cube(q1, "star").contains(pts)
    if not np.any(star_mask):
        raise ValueError("the 3 sqrt(n)-dilate of the smallest cube contains no grid point")

    lhs_direct = _local_lp(t.out.values, mask_ss, r, grid)
    lhs_maximal = _local_lp(hl_maximal(t.out, ladder).values, mask_ss, r, grid)

    m, n = t.op.m, grid.n
    exponent = (n + N + 1) / (m * n)
    rhs = q1.volume ** (1.0 / r)
    for a in t.atoms:
        mx = _maximal_indicator(a.cube, grid, ladder)
        rhs *= float(np.min(mx[star_mask])) ** exponent
    return LocalEstimateReport(
        lhs_direct, lhs_maximal, rhs, lhs_direct / rhs, lhs_maximal / rhs
    )


# ---------------------------------------------------------------------------
# Pointwise majorants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MajorantReport:
    kind: str
    ratio_sup: float
    included_points: int
    excluded_points: int

    @property
    def passed(self) -> bool:
        return np.isfinite(self.ratio_sup)


def _once_per_key(keys, factors, compute):
    """``compute(key, factor)`` for every factor of every term, in order,
    computed once per distinct key and dropped after the key's last use,
    so a factor that several terms share takes its maximal function once."""
    left = Counter(chain(*keys))
    kept: dict = {}
    for key, factor in zip(chain(*keys), chain(*factors)):
        if key not in kept:
            kept[key] = compute(key, factor)
        left[key] -= 1
        yield kept[key] if left[key] else kept.pop(key)


# Each builder returns one (first, inf_prod) pair per term of the operator;
# the majorant is the sum over terms of first + M(chi_Q1)^((n+s+1)/n) inf_prod.


def _general_majorant(
    mchis: Sequence[np.ndarray], star_mask: np.ndarray, idx: IndexData, n: int
) -> list[tuple[np.ndarray, float]]:
    m, N, s = len(mchis), idx.N, idx.s
    first = np.ones(star_mask.shape)
    for mx in mchis:
        first = first * mx ** ((n + N + 1) / (m * n))
    inf_prod = 1.0
    for mx in mchis:
        inf_prod *= float(np.min(mx[star_mask])) ** ((N - s) / (m * n))
    return [(first, inf_prod)]


def _product_majorant(
    t: AtomOutput,
    mchis: Sequence[np.ndarray],
    star_mask: np.ndarray,
    idx: IndexData,
    ladder: ScaleLadder,
) -> list[tuple[np.ndarray, float]]:
    grid = t.op.grid
    n, m, N = grid.n, len(t.atoms), idx.N
    e = (n + N + 1) / (m * n)
    keys = [list(zip(part.groups, part.symbols)) for part in t.op.symbol.partitions]
    facs = _once_per_key(
        keys, t.factors, lambda key, f: 1.0 + power_maximal(f, float(m), ladder).values
    )
    terms = []
    for _ in keys:
        first = np.ones(grid.shape)
        inf_prod = 1.0
        for mx, fac in zip(mchis, facs):  # one term's factors: mchis runs out first
            first = first * mx ** e * fac
            inf_prod *= float(np.min((mx ** e * fac)[star_mask]))
        terms.append((first, inf_prod))
    return terms


def _mixed_majorant(
    t: AtomOutput,
    mchis: Sequence[np.ndarray],
    star_mask: np.ndarray,
    idx: IndexData,
    ladder: ScaleLadder,
) -> list[tuple[np.ndarray, float]]:
    atoms, grid = t.atoms, t.op.grid
    n, m, N = grid.n, len(atoms), idx.N
    e = (n + N + 1) / (m * n)
    parts = t.op.symbol.partitions
    keys = [[(*key, part.group_count) for key in zip(part.groups, part.symbols)] for part in parts]
    pows = _once_per_key(
        keys, t.factors, lambda key, f: power_maximal(f, float(key[2]), ladder).values
    )
    terms = []
    for term_keys in keys:
        first = np.ones(grid.shape)
        inf_prod = 1.0
        for (grp, _, _), mg_pow in zip(term_keys, pows):  # term_keys runs out first
            smallest = min(grp, key=lambda l: atoms[l].cube.side)
            star_small = _maximal_indicator(dilate_cube(atoms[smallest].cube, "star"), grid, ladder)
            b = star_small ** (len(grp) * (n + N + 1) / (m * n)) * mg_pow
            prod = np.ones(grid.shape)
            for l in grp:
                prod = prod * mchis[l] ** e
            b = b + prod
            first = first * b
            inf_prod *= float(np.min(b[star_mask]))
        terms.append((first, inf_prod))
    return terms


def check_pointwise_majorant(
    t: AtomOutput,
    idx: IndexData,
    bump: BumpProfile | None = None,
    ladder: ScaleLadder | None = None,
) -> MajorantReport:
    """sup over the grid of M_phi(T(a)) over the majorant of the operator's kind.

    Points where the majorant sits below 1e3 times the noise floor are
    excluded from the ratio.  A product operator takes the product
    majorant; one whose every term is a single group of all m slots (a
    general operator, or a mixed one in its disguise) takes the general
    majorant; any other takes the mixed majorant.
    """
    op, atoms = t.op, t.atoms
    grid = op.grid
    n = grid.n
    bump = bump or make_bump(n)
    ladder = ladder or make_ladder(grid)
    lhs = smooth_maximal(t.out, bump, ladder).values

    smallest = min(range(len(atoms)), key=lambda i: atoms[i].cube.side)
    star_mask = dilate_cube(atoms[smallest].cube, "star").contains(grid.points())
    mchis = [_maximal_indicator(a.cube, grid, ladder) for a in atoms]
    kind = op.symbol.kind
    if kind == "product":
        terms = _product_majorant(t, mchis, star_mask, idx, ladder)
    elif all(part.group_count == 1 for part in op.symbol.partitions):
        terms = _general_majorant(mchis, star_mask, idx, n)
    else:
        terms = _mixed_majorant(t, mchis, star_mask, idx, ladder)
    lead = mchis[smallest] ** ((n + idx.s + 1) / n)
    rhs = sum((first + lead * inf_prod for first, inf_prod in terms), np.zeros(grid.shape))

    scale = max(float(np.max(rhs)), float(np.max(lhs)), np.finfo(float).tiny)
    floor = 1e3 * np.finfo(float).eps * scale
    include = rhs > floor
    if not np.any(include):
        return MajorantReport(kind, 0.0, 0, int(rhs.size))
    sup = float(np.max(lhs[include] / rhs[include]))
    return MajorantReport(kind, sup, int(np.sum(include)), int(np.sum(~include)))


# ---------------------------------------------------------------------------
# Summed maximal-indicator inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FsReport:
    lhs: float
    rhs: float
    ratio: float | None
    vacuous: bool

    @property
    def passed(self) -> bool:
        return self.vacuous or (self.ratio is not None and np.isfinite(self.ratio))


def check_fs_inequality(
    cubes: Sequence[Cube],
    lambdas: Sequence[float],
    gamma: float,
    p: float,
    grid: Grid,
    ladder: ScaleLadder | None = None,
) -> FsReport:
    """Ratio of ||sum lambda_k (M chi_k)^gamma||_p to ||sum lambda_k chi_k||_p.

    Requires gamma > max(1, 1/p), the range where the vector-valued maximal
    inequality applies."""
    if len(cubes) != len(lambdas):
        raise ValueError("one coefficient per cube required")
    if not (gamma > max(1.0, 1.0 / p)):
        raise ValueError(f"need gamma > max(1, 1/p) = {max(1.0, 1.0 / p)}, got {gamma}")
    ladder = ladder or make_ladder(grid)
    if all(lam == 0 for lam in lambdas):
        return FsReport(0.0, 0.0, None, True)
    lhs_field = np.zeros(grid.shape)
    rhs_field = np.zeros(grid.shape)
    points = grid.points()
    for cube, lam in zip(cubes, lambdas):
        if lam < 0:
            raise ValueError("coefficients must be nonnegative")
        if lam == 0:
            continue
        mx = _maximal_indicator(cube, grid, ladder)
        lhs_field += lam * mx**gamma
        rhs_field += lam * cube.contains(points)
    lhs = lp_quasinorm(SampledFunction(grid, _frozen(lhs_field)), p)
    rhs = lp_quasinorm(SampledFunction(grid, _frozen(rhs_field)), p)
    return FsReport(lhs, rhs, lhs / rhs, False)


# ---------------------------------------------------------------------------
# Boundedness ensemble
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an ensemble run."""

    symbol: str = "sigma1_bilinear"
    exponents: tuple[float, ...] = (1.0, 1.0)
    n: int = 1
    L: float = 8.0
    M: int = 512
    trials: int = 50
    max_atoms: int = 4
    seed: int = 0
    ell_choices: tuple[float, ...] = (0.5,)
    center_span: float = 0.25
    N_override: int | None = None
    use_cutoff: bool = False
    half_steps: bool = False
    budget: int = DEFAULT_COST_BUDGET
    dilatable: bool = False

    def __post_init__(self) -> None:
        # trials = 0 is a check-only run; max_atoms < 1 leaves no atom to draw.
        # Every other bound here is one that no trial could succeed outside.
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.max_atoms < 1:
            raise ValueError(f"max_atoms must be at least 1, got {self.max_atoms}")
        if not all(math.isfinite(ell) and ell > 0 for ell in self.ell_choices):
            raise ValueError(
                f"ell_choices ([ensemble] ell) must be finite and positive, got {self.ell_choices}"
            )
        if not (math.isfinite(self.center_span) and self.center_span >= 0):
            raise ValueError(f"center_span must be finite and nonnegative, got {self.center_span}")
        if self.N_override is not None and self.N_override < 0:
            raise ValueError(
                f"N_override ([indices] n_moments) must be nonnegative, got {self.N_override}"
            )
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config whose fields ``d`` sets.  A ``kind`` entry, as older
        configs and reports hold, must match the symbol's and is dropped; any
        other key that is not a field is a ValueError."""
        kwargs = dict(d)
        kind = kwargs.pop("kind", None)
        unknown = kwargs.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name in ("exponents", "ell_choices"):
            if name in kwargs:
                kwargs[name] = tuple(float(x) for x in kwargs[name])
        if kwargs.get("N_override") is not None:
            kwargs["N_override"] = int(kwargs["N_override"])
        config = cls(**kwargs)
        if kind is not None and kind != (actual := resolve_symbol(config).kind):
            raise ValueError(f"symbol {config.symbol!r} is of kind {actual}, config says {kind}")
        return config


def resolve_symbol(config: ExperimentConfig) -> Symbol:
    """The config's builtin symbol; ``constant_one`` takes its arity from ``p``."""
    return builtin_symbol(config.symbol, m=len(config.exponents))


def resolve_operator(config: ExperimentConfig, grid: Grid) -> MultilinearOperator:
    cutoff = default_cutoff(grid) if config.use_cutoff else None
    return MultilinearOperator(resolve_symbol(config), grid, cutoff=cutoff, budget=config.budget)


def resolve_index(config: ExperimentConfig) -> IndexData:
    return index_arithmetic(
        config.exponents, config.n, N_override=config.N_override, symbol=resolve_symbol(config)
    )


@dataclass(frozen=True)
class RunContext:
    """What every trial and check of one config shares, built once per config."""

    config: ExperimentConfig
    grid: Grid
    op: MultilinearOperator
    idx: IndexData
    bump: BumpProfile
    ladder: ScaleLadder


@lru_cache(maxsize=8)
def run_context(config: ExperimentConfig) -> RunContext:
    """The run context of a config; repeated calls return the same object,
    so the ensemble, its pool workers and the checks each build it once.
    A group of two or more slots over the cost budget is a ValueError here,
    before any trial or check runs, and so is a largest ``ell`` too narrow
    for any atom (``atoms._check_side``)."""
    grid = make_grid(config.n, config.L, config.M)
    try:
        _check_side(max(config.ell_choices), grid)
    except ValueError as exc:
        raise ValueError(f"no [ensemble] ell can hold an atom: {exc}") from None
    op = resolve_operator(config, grid)
    for part in op.symbol.partitions:
        for grp, sym in zip(part.groups, part.symbols):
            if len(grp) > 1:
                _check_budget(replace(op, symbol=sym))
    return RunContext(
        config,
        grid,
        op,
        resolve_index(config),
        make_bump(grid.n),
        make_ladder(grid, half_steps=config.half_steps),
    )


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derived per-trial seed; recorded in reports so any trial replays alone."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _max_center(grid: Grid, side: float, span: float, dilation_headroom: float) -> float:
    # Under dilation by lambda both the center and the side scale, so the
    # admissibility constraint |c| + (4.5 n + 1) ell <= L is tightest at the
    # dilated scale: |c| <= L/lambda - (4.5 n + 1) ell.
    outer = (4.5 * grid.n + 1.0) * side
    return min(span * grid.L, grid.L / dilation_headroom - outer)


def draw_trial_entries(
    config: ExperimentConfig, seed: int, m: int, grid: Grid
) -> list[list[tuple[float, Cube, int]]]:
    """Draw the (lambda, cube, seed) entries for each of the m inputs.

    Cubes are dyadic with grid-aligned centers inside the central region; when
    the config is flagged dilatable, centers and sides leave room for a
    twofold dilation to stay admissible."""
    rng = np.random.default_rng(seed)
    headroom = 2.0 if config.dilatable else 1.0
    per_input: list[list[tuple[float, Cube, int]]] = []
    for _ in range(m):
        k = int(rng.integers(1, config.max_atoms + 1))
        entries = []
        for _ in range(k):
            side = float(rng.choice(config.ell_choices))
            cmax = _max_center(grid, side, config.center_span, headroom)
            if cmax < 0:
                raise ValueError(
                    f"cube side {side} cannot fit the dilated support in the box"
                )
            center = []
            for _ in range(grid.n):
                cells = int(cmax / grid.dx)
                offset = int(rng.integers(-cells, cells + 1)) if cells > 0 else 0
                center.append(offset * grid.dx)
            lam = 2.0 ** (-float(rng.integers(0, 4)))
            entries.append((lam, Cube(tuple(center), side), int(rng.integers(0, 2**31))))
        per_input.append(entries)
    return per_input


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    seed: int
    inputs: tuple[tuple[tuple[float, Cube, int], ...], ...]  # per input, the drawn entries
    lhs: float
    rhs: float
    ratio: float
    flags: str = ""

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "seed": self.seed,
            "inputs": [
                [[lam, list(cube.center), cube.side, seed] for lam, cube, seed in inp]
                for inp in self.inputs
            ],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "flags": self.flags,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        inputs = tuple(
            tuple(
                (float(lam), Cube(center, float(side)), int(seed))
                for lam, center, side, seed in inp
            )
            for inp in d["inputs"]
        )
        return cls(
            int(d["trial_id"]),
            int(d["seed"]),
            inputs,
            float(d["lhs"]),
            float(d["rhs"]),
            float(d["ratio"]),
            str(d.get("flags", "")),
        )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    trials: tuple[TrialRecord, ...]
    ratio_sup: float
    ratio_median: float
    vacuous_trials: int
    passed: bool


Entries = Sequence[Sequence[tuple[float, Cube, int]]]  # per input, its (lambda, cube, seed)


def _attempt(labels: Sequence[str], stage: Callable, *args):
    """``stage(*args)``, or the ValueError it raised, which aborts only the
    trials it served.  Anything else is a fault, raised again naming them (a
    pool worker's exception reaches the parent with this message)."""
    try:
        return stage(*args)
    except ValueError as exc:
        return exc
    except Exception as exc:
        raise RuntimeError(f"{', '.join(labels)}: {exc!r}") from exc


def _trial_inputs(ctx: RunContext, entries: Entries):
    """Stage 1: the trial's realized inputs and its rhs, the product of the
    majorants' quasinorms (the majorants are not kept)."""
    idx = ctx.idx
    sums = [
        make_atomic_sum(inp, p_l, idx.N, ctx.grid)
        for inp, p_l in zip(entries, idx.exponents)
    ]
    rhs = 1.0
    for s, p_l in zip(sums, idx.exponents):
        rhs *= lp_quasinorm(s.majorant, p_l)
    return [s.realized for s in sums], rhs


def _apply_batch(op: MultilinearOperator, sets) -> list[SampledFunction]:
    """Stage 2: T applied to every input set of the batch at once."""
    return [sum_of_products(factors) for factors in operator_factors(op, sets)]


def _trial_values(ctx: RunContext, out: SampledFunction, rhs: float):
    """Stage 3: the output's H^p quasinorm against rhs, as lhs, rhs, ratio, flags."""
    lhs = hp_quasinorm(out, ctx.idx.p, ctx.bump, ctx.ladder)
    if rhs == 0.0:
        return lhs, rhs, 0.0, "vacuous"
    return lhs, rhs, lhs / rhs, ""


def _run_staged(
    ctx: RunContext, trials: Sequence[tuple[int, int, Entries | ValueError]]
) -> list[TrialRecord]:
    """The record of each (trial_id, seed, entries) trial; entries may be the
    ValueError its draw raised.  Trials run in batches of
    ``sets_per_pass(ctx.op)``: each builds its inputs, T is applied to all of
    them in one batched application, and each output is measured.  A
    ValueError aborts the trials its stage served, and every value is bit for
    bit that of the trial run alone."""
    step = sets_per_pass(ctx.op)
    records = []
    for start in range(0, len(trials), step):
        batch = trials[start : start + step]
        labels = [f"trial {i} (seed {seed})" for i, seed, _ in batch]
        staged = [
            e if isinstance(e, ValueError) else _attempt([name], _trial_inputs, ctx, e)
            for name, (_, _, e) in zip(labels, batch)
        ]
        live = [k for k, st in enumerate(staged) if not isinstance(st, ValueError)]
        outs = _attempt([labels[k] for k in live], _apply_batch, ctx.op, [staged[k][0] for k in live])
        for j, k in enumerate(live):
            staged[k] = outs if isinstance(outs, ValueError) else _attempt(
                [labels[k]], _trial_values, ctx, outs[j], staged[k][1]
            )
        for (i, seed, entries), values in zip(batch, staged):
            if isinstance(values, ValueError):
                entries, values = (), (math.nan, math.nan, math.nan, f"aborted: {values}")
            records.append(TrialRecord(i, seed, tuple(map(tuple, entries)), *values))
    return records


def compute_trial_values(ctx: RunContext, record: TrialRecord) -> TrialRecord:
    """The recorded trial staged alone from its entries, under its own id
    and seed; an abort raises a ValueError with its reason."""
    (again,) = _run_staged(ctx, [(record.trial_id, record.seed, record.inputs)])
    if again.flags.startswith("aborted: "):
        raise ValueError(again.flags.removeprefix("aborted: "))
    return again


def run_trials(ctx: RunContext, indices: Sequence[int]) -> list[TrialRecord]:
    """The records of the given trials, each drawn and then all staged
    together.  A precondition failure aborts just its trial; the seed in the
    record is enough to reproduce the draw."""
    config, m, grid = ctx.config, ctx.idx.m, ctx.grid
    seeds = [(i, trial_seed(config.seed, i)) for i in indices]
    return _run_staged(ctx, [
        (i, seed, _attempt([f"trial {i} (seed {seed})"], draw_trial_entries, config, seed, m, grid))
        for i, seed in seeds
    ])


def run_trial(ctx: RunContext, trial_index: int) -> TrialRecord:
    return run_trials(ctx, [trial_index])[0]


def _run_trials_in_worker(config: ExperimentConfig, indices: Sequence[int]) -> list[TrialRecord]:
    return run_trials(run_context(config), indices)


def run_boundedness_ensemble(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the ratio ensemble: per trial, the maximal-function quasinorm of the
    output over the product of majorant quasinorms, with replayable records.
    With ``jobs`` > 1 the pool workers take contiguous slices of trials; the
    pool opens no more workers than there are slices or CPUs.

    The ensemble fails when any trial aborts: an abort is a ValueError, which
    an inadmissible draw raises but so can a fault in the program."""
    ctx = run_context(config)
    indices = list(range(config.trials))
    if jobs > 1 and indices:
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, min(sets_per_pass(ctx.op), -(-len(indices) // jobs)))
        slices = [indices[k : k + size] for k in range(0, len(indices), size)]
        with ProcessPoolExecutor(max_workers=min(jobs, len(slices), os.cpu_count() or 1)) as pool:
            parts = pool.map(_run_trials_in_worker, [config] * len(slices), slices)
            records = [record for part in parts for record in part]
    else:
        records = run_trials(ctx, indices)

    ratios = [r.ratio for r in records if not r.flags]
    vacuous = sum(1 for r in records if r.flags == "vacuous")
    aborted = any(r.flags.startswith("aborted") for r in records)
    if ratios:
        sup = float(np.max(ratios))
        med = _median(ratios)
    else:
        sup = med = 0.0
    passed = bool(ratios) and all(np.isfinite(r) for r in ratios) and not aborted
    return ExperimentReport(config, tuple(records), sup, med, vacuous, passed)


def replay_trial(ctx: RunContext, record: TrialRecord) -> tuple[float, float, float]:
    """Recompute a trial from its recorded atom entries (bit-for-bit contract)."""
    if record.flags.startswith("aborted"):
        raise ValueError(f"trial {record.trial_id} aborted at construction; nothing to replay")
    again = compute_trial_values(ctx, record)
    return again.lhs, again.rhs, again.ratio


# ---------------------------------------------------------------------------
# Scale invariance
# ---------------------------------------------------------------------------


def _dilated_entries(inputs: Entries, dilation: float) -> Entries:
    return [
        [
            (lam, Cube(tuple(dilation * c for c in cube.center), dilation * cube.side), s)
            for lam, cube, s in inp
        ]
        for inp in inputs
    ]


@dataclass(frozen=True)
class ScaleInvarianceReport:
    dilation: float
    deviations: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def scale_invariance_test(
    ctx: RunContext, records: Sequence[TrialRecord], dilation: float
) -> ScaleInvarianceReport:
    """Compare each recorded trial's ratio with the ratio after dilating every
    cube of the trial.

    Only valid for degree-zero homogeneous symbols, where the continuum ratio
    is exactly dilation invariant; the reported deviations measure pure
    discretization error.  Vacuous trials are skipped; an aborted one raises
    ValueError with its reason."""
    config = ctx.config
    if not ctx.op.symbol.homogeneous_degree_zero:
        raise ValueError(
            f"symbol {config.symbol!r} is not flagged degree-zero homogeneous"
        )
    if dilation not in (0.5, 1.0, 2.0):
        raise ValueError(f"dilation must be one of 1/2, 1, 2, got {dilation}")
    aborted = next((r for r in records if r.flags.startswith("aborted")), None)
    if aborted is not None:
        raise ValueError(f"trial {aborted.trial_id} {aborted.flags}")
    live = [r for r in records if r.flags != "vacuous"]
    scaled = _run_staged(
        ctx, [(r.trial_id, r.seed, _dilated_entries(r.inputs, dilation)) for r in live]
    )
    deviations = []
    for record, again in zip(live, scaled):
        if again.flags.startswith("aborted: "):
            raise ValueError(again.flags.removeprefix("aborted: "))
        deviations.append(abs(again.ratio - record.ratio) / record.ratio)
    if not deviations:
        raise ValueError("all trials vacuous; nothing to compare")
    return ScaleInvarianceReport(dilation, tuple(deviations))
