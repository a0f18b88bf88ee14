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
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .atoms import Atom, Cube, _monomial_exponents, cube_indicator, dilate_cube, make_atomic_sum
from .grid import Grid, SampledFunction, Spectrum, dft, lp_quasinorm, make_grid
from .maximal import BumpProfile, ScaleLadder, hp_quasinorm, hl_maximal, make_bump, make_ladder, power_maximal, smooth_maximal
from .operators import (
    DEFAULT_COST_BUDGET,
    MultilinearOperator,
    _sum_of_products,
    apply_general,
    apply_operator,
    default_cutoff,
    operator_factors,
    spectral_moment,
)
from .symbols import Partition, Symbol, builtin_symbol

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
    "draw_trial_entries",
    "trial_seed",
    "scale_invariance_test",
]

NOISE_FLOOR_FACTOR = 100.0  # multiples of machine epsilon times problem scale


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
    kind: str | None = None,
    partitions: Sequence[Partition] | None = None,
) -> IndexData:
    """Derive (p, s, N) from input exponents and validate type constraints.

    1/p is the sum of the reciprocals; s is the integer part of the positive
    part of n(1/p - 1), with exact-integer boundaries kept; N defaults to
    m(n + 1 + 2s).  Product type requires every exponent finite; mixed type
    requires each partition group to contain a slot with finite exponent.
    """
    ps = tuple(float(p) for p in exponents)
    m = len(ps)
    if m == 0:
        raise ValueError("need at least one exponent")
    for p in ps:
        if not (p > 0):
            raise ValueError(f"exponents must lie in (0, inf], got {p}")

    inv_p = sum(0.0 if math.isinf(p) else 1.0 / p for p in ps)
    if inv_p == 0.0:
        if kind is not None:
            raise ValueError(
                f"all exponents infinite gives p = inf; {kind} type requires 0 < p < inf"
            )
        p_out = math.inf
    else:
        p_out = 1.0 / inv_p

    if kind == "product":
        if any(math.isinf(p) for p in ps):
            raise ValueError(
                "product type admits no infinite exponent: the mapping property "
                "fails when some p_l = inf"
            )
    if kind == "mixed":
        if partitions is None:
            raise ValueError("mixed type validation needs the partition terms")
        for part in partitions:
            for grp in part.groups:
                if all(math.isinf(ps[l]) for l in grp):
                    raise ValueError(
                        f"every partition group needs a slot with finite exponent; "
                        f"group {grp} has none"
                    )

    if math.isinf(p_out):
        s = 0
    else:
        v = n * (1.0 / p_out - 1.0)
        s = max(0, math.floor(v + 1e-9))
    N = int(N_override) if N_override is not None else m * (n + 1 + 2 * s)
    return IndexData(ps, n, p_out, s, N)


# ---------------------------------------------------------------------------
# The operator applied to one set of atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomOutput:
    """T(a_1, ..., a_m) for one set of atoms, which every check measures.

    ``spectrum`` is the exhaustive engine's grouped output spectrum for the
    general kind (``out`` is exactly its inverse transform) and ``dft(out)``
    for the product and mixed kinds, where ``factors`` holds each term's
    factor outputs (``operator_factors``) that ``out`` sums the products of.
    """

    op: MultilinearOperator
    atoms: tuple[Atom, ...]
    out: SampledFunction
    spectrum: Spectrum
    factors: tuple[tuple[SampledFunction, ...], ...] = ()


def apply_to_atoms(op: MultilinearOperator, atoms: Sequence[Atom]) -> AtomOutput:
    """Apply the operator once to the atoms' values."""
    inputs = [a.values for a in atoms]
    if op.symbol.kind == "general":
        out, g = apply_general(op, *inputs)
        return AtomOutput(op, tuple(atoms), out, g)
    factors = operator_factors(op, inputs)
    out = _sum_of_products(factors)
    return AtomOutput(op, tuple(atoms), out, dft(out), factors)


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    alpha: tuple[int, ...]
    spectral: complex
    spatial: complex
    normalized_spectral: float
    normalized_spatial: float


@dataclass(frozen=True)
class CancellationReport:
    checks: tuple[MomentCheck, ...]
    output_l1: float
    length_scale: float
    tolerance: float

    @property
    def max_normalized(self) -> float:
        return max(
            max(c.normalized_spectral for c in self.checks),
            max(c.normalized_spatial for c in self.checks),
        )

    @property
    def passed(self) -> bool:
        return self.max_normalized < self.tolerance


def check_cancellation(
    t: AtomOutput,
    s: int,
    tolerance: float = 1e-5,
) -> CancellationReport:
    """Verify that moments of the operator output up to order s vanish.

    For each |alpha| <= s both the spectral finite-difference moment and the
    spatial quadrature companion are computed, normalized by the output L^1
    norm times ell^|alpha| (ell = smallest atom side)."""
    norm1 = lp_quasinorm(t.out, 1.0)
    ell = min(a.cube.side for a in t.atoms)
    scale = max(norm1, np.finfo(float).tiny)
    checks = []
    for alpha in _monomial_exponents(t.op.grid.n, s):
        est = spectral_moment(t.spectrum, alpha)
        denom = scale * ell ** sum(alpha)
        checks.append(
            MomentCheck(
                alpha,
                est.spectral,
                est.spatial,
                abs(est.spectral) / denom,
                abs(est.spatial) / denom,
            )
        )
    return CancellationReport(tuple(checks), norm1, ell, tolerance)


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


def check_decay_lemma(
    t: AtomOutput,
    N: int,
    boundary_margin_factor: float = 4.0,
    max_distance: float | None = None,
) -> DecayReport:
    """Fit the far-field decay of |T(a_1, ..., a_m)| against the predicted rate.

    ``N`` is the cancellation order of the smallest-cube atom, which drives
    the predicted exponent.  Probes are grid points outside every
    3 sqrt(n)-dilate, at least ``boundary_margin_factor`` times the largest
    side from the box boundary, and (optionally) with distance sum at most
    ``max_distance``.  The fitted slope of log |T| against
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
        np.abs(pts) <= grid.L - boundary_margin_factor * ell_max, axis=-1
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

    floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * float(np.max(mags_all))
    keep = mags > floor
    excluded = int(np.sum(~keep))
    dist, mags = dist[keep], mags[keep]
    if dist.size < 8:
        raise ValueError("too few probes above the noise floor")
    span = np.log2(float(np.max(dist)) / float(np.min(dist)))
    if span < 2.0:
        raise ValueError(f"insufficient octave span for the fit: {span:.2f} octaves")

    x = np.log(dist)
    y = np.log(mags)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, residuals, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = max(x.size - 2, 1)
    resid_var = float(residuals[0]) / dof if residuals.size else 0.0
    x_var = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(resid_var / x_var) if x_var > 0 else math.inf

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
        float(np.median(ratios)),
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
    """|M chi_Q| on the grid (read-only), computed once per cube, grid and ladder."""
    mx = np.abs(hl_maximal(cube_indicator(cube, grid), ladder).values)
    mx.setflags(write=False)
    return mx


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
    mt = hl_maximal(t.out, ladder)
    lhs_maximal = _local_lp(mt.values, mask_ss, r, grid)

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
    terms = []
    for applied_term in t.factors:
        first = np.ones(grid.shape)
        inf_prod = 1.0
        for mx, applied in zip(mchis, applied_term):
            fac = 1.0 + np.abs(power_maximal(applied, float(m), ladder).values)
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
    terms = []
    for part, applied_part in zip(t.op.symbol.mixed_terms, t.factors):
        first = np.ones(grid.shape)
        inf_prod = 1.0
        for grp, applied in zip(part.groups, applied_part):
            smallest = min(grp, key=lambda l: atoms[l].cube.side)
            mg_pow = np.abs(power_maximal(applied, float(part.group_count), ladder).values)
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


def _is_degenerate_mixed(sym: Symbol) -> bool:
    return sym.kind == "mixed" and all(
        part.group_count == 1 for part in sym.mixed_terms
    )


def check_pointwise_majorant(
    t: AtomOutput,
    idx: IndexData,
    bump: BumpProfile | None = None,
    ladder: ScaleLadder | None = None,
) -> MajorantReport:
    """sup over the grid of M_phi(T(a)) over the majorant of the operator's kind.

    Points where the majorant sits below 1e3 times the noise floor are
    excluded from the ratio.  A mixed operator whose every term is the
    single-group partition is the general operator in disguise and is
    measured against the general majorant.
    """
    op, atoms = t.op, t.atoms
    grid = op.grid
    n = grid.n
    bump = bump or make_bump(n)
    ladder = ladder or make_ladder(grid)
    lhs = np.abs(smooth_maximal(t.out, bump, ladder).values)

    smallest = min(range(len(atoms)), key=lambda i: atoms[i].cube.side)
    star_mask = dilate_cube(atoms[smallest].cube, "star").contains(grid.points())
    mchis = [_maximal_indicator(a.cube, grid, ladder) for a in atoms]
    kind = op.symbol.kind
    if kind == "general" or _is_degenerate_mixed(op.symbol):
        terms = _general_majorant(mchis, star_mask, idx, n)
    elif kind == "product":
        terms = _product_majorant(t, mchis, star_mask, idx, ladder)
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
    for cube, lam in zip(cubes, lambdas):
        if lam < 0:
            raise ValueError("coefficients must be nonnegative")
        if lam == 0:
            continue
        mx = _maximal_indicator(cube, grid, ladder)
        lhs_field += lam * mx**gamma
        rhs_field += lam * cube.contains(grid.points())
    lhs = lp_quasinorm(SampledFunction(grid, lhs_field), p)
    rhs = lp_quasinorm(SampledFunction(grid, rhs_field), p)
    return FsReport(lhs, rhs, lhs / rhs, False)


# ---------------------------------------------------------------------------
# Boundedness ensemble
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an ensemble run."""

    kind: str
    symbol: str
    exponents: tuple[float, ...]
    n: int = 1
    L: float = 8.0
    M: int = 512
    trials: int = 50
    max_atoms: int = 4
    seed: int = 0
    ell_choices: tuple[float, ...] = (0.5, 1.0)
    center_span: float = 0.5
    N_override: int | None = None
    use_cutoff: bool = False
    half_steps: bool = False
    budget: int = DEFAULT_COST_BUDGET
    dilatable: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["exponents"] = list(self.exponents)
        d["ell_choices"] = list(self.ell_choices)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        kwargs["exponents"] = tuple(float(x) for x in kwargs["exponents"])
        kwargs["ell_choices"] = tuple(float(x) for x in kwargs["ell_choices"])
        if kwargs.get("N_override") is not None:
            kwargs["N_override"] = int(kwargs["N_override"])
        return cls(**kwargs)


def resolve_operator(config: ExperimentConfig, grid: Grid) -> MultilinearOperator:
    sym = builtin_symbol(config.symbol)
    if sym.kind != config.kind:
        raise ValueError(
            f"symbol {config.symbol!r} is of kind {sym.kind}, config says {config.kind}"
        )
    cutoff = default_cutoff(grid) if config.use_cutoff else None
    return MultilinearOperator(sym, grid, cutoff=cutoff, budget=config.budget)


def resolve_index(config: ExperimentConfig) -> IndexData:
    sym = builtin_symbol(config.symbol)
    partitions = sym.mixed_terms if sym.kind == "mixed" else None
    return index_arithmetic(
        config.exponents,
        config.n,
        N_override=config.N_override,
        kind=config.kind,
        partitions=partitions,
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
    so the ensemble, its pool workers and the checks each build it once."""
    grid = make_grid(config.n, config.L, config.M)
    return RunContext(
        config,
        grid,
        resolve_operator(config, grid),
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


def compute_trial_values(
    ctx: RunContext,
    entries: Sequence[Sequence[tuple[float, Cube, int]]],
) -> tuple[float, float, float, str]:
    """LHS, RHS, ratio for one trial given its atom entries."""
    idx = ctx.idx
    sums = [
        make_atomic_sum(inp, p_l, idx.N, ctx.grid)
        for inp, p_l in zip(entries, idx.exponents)
    ]
    rhs = 1.0
    for s, p_l in zip(sums, idx.exponents):
        rhs *= lp_quasinorm(s.majorant, p_l)
    out = apply_operator(ctx.op, [s.realized for s in sums])
    lhs = hp_quasinorm(out, idx.p, ctx.bump, ctx.ladder)
    if rhs == 0.0:
        return lhs, rhs, 0.0, "vacuous"
    return lhs, rhs, lhs / rhs, ""


def run_trial(ctx: RunContext, trial_index: int) -> TrialRecord:
    seed = trial_seed(ctx.config.seed, trial_index)
    try:
        entries = draw_trial_entries(ctx.config, seed, ctx.idx.m, ctx.grid)
        lhs, rhs, ratio, flags = compute_trial_values(ctx, entries)
    except ValueError as exc:
        # Precondition failure aborts just this trial; the seed in the record
        # is enough to reproduce the draw.
        return TrialRecord(
            trial_index, seed, (), math.nan, math.nan, math.nan, f"aborted: {exc}"
        )
    except Exception as exc:
        # Anything else is a fault, reported with the trial that met it (a
        # pool worker's exception reaches the parent with this message).
        raise RuntimeError(f"trial {trial_index} (seed {seed}): {exc!r}") from exc
    inputs = tuple(tuple(inp) for inp in entries)
    return TrialRecord(trial_index, seed, inputs, lhs, rhs, ratio, flags)


def _run_trial_in_worker(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    return run_trial(run_context(config), trial_index)


def run_boundedness_ensemble(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the ratio ensemble: per trial, the maximal-function quasinorm of the
    output over the product of majorant quasinorms, with replayable records.

    The ensemble fails when any trial aborts: an abort is a ValueError, which
    an inadmissible draw raises but so can a fault in the program."""
    ctx = run_context(config)
    indices = list(range(config.trials))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_trial_in_worker, [config] * len(indices), indices))
    else:
        records = [run_trial(ctx, i) for i in indices]

    ratios = [r.ratio for r in records if not r.flags]
    vacuous = sum(1 for r in records if r.flags == "vacuous")
    aborted = any(r.flags.startswith("aborted") for r in records)
    if ratios:
        sup = float(np.max(ratios))
        med = float(np.median(ratios))
    else:
        sup = med = 0.0
    passed = bool(ratios) and all(np.isfinite(r) for r in ratios) and not aborted
    return ExperimentReport(config, tuple(records), sup, med, vacuous, passed)


def replay_trial(ctx: RunContext, record: TrialRecord) -> tuple[float, float, float]:
    """Recompute a trial from its recorded atom entries (bit-for-bit contract)."""
    if record.flags.startswith("aborted"):
        raise ValueError(f"trial {record.trial_id} aborted at construction; nothing to replay")
    lhs, rhs, ratio, _ = compute_trial_values(ctx, record.inputs)
    return lhs, rhs, ratio


# ---------------------------------------------------------------------------
# Scale invariance
# ---------------------------------------------------------------------------


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
    deviations = []
    for record in records:
        if record.flags.startswith("aborted"):
            raise ValueError(f"trial {record.trial_id} {record.flags}")
        if record.flags == "vacuous":
            continue
        dilated = [
            [
                (lam, Cube(tuple(dilation * c for c in cube.center), dilation * cube.side), s)
                for lam, cube, s in inp
            ]
            for inp in record.inputs
        ]
        _, _, scaled, _ = compute_trial_values(ctx, dilated)
        deviations.append(abs(scaled - record.ratio) / record.ratio)
    if not deviations:
        raise ValueError("all trials vacuous; nothing to compare")
    return ScaleInvarianceReport(dilation, tuple(deviations))
