"""Independent checks of one `hardylab run` output.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/outputs.py REPORT_JSON SEED

For every trial in REPORT_JSON the recorded ``rhs`` is recomputed from the
recorded cubes.  On SAMPLED_TRIALS trials sampled with SEED:

* the inputs are rebuilt from the recorded geometry through
  ``make_atomic_sum``;
* ``apply_operator``'s output is compared, at a few grid points, with a
  direct frequency sum made here: this file's own transform (a direct
  rectangle-rule sum with the phase reduced exactly in integers), its own
  symbol formulas, the weight dxi^m, the cutoff mask on every slot, and for
  product symbols the separable per-slot sums.  At grid points the engine's
  wrapped phases and the unwrapped ones used here coincide.
* ``hardylab replay`` must report a bit-exact match.

Every tolerance is a float64 rounding bound fixed by the length of the sum,
computed alongside the sum and never from the compared value.  Where a
product symbol's rank-one terms cancel, that bound can reach a large share of
the output, and the comparison then tests little.  So trials are taken in
seeded order, and a trial whose bound is not under TIGHT_LIMIT of the direct
sum's peak is passed over, and listed, before the engine's value is compared.

The last line of standard output is a JSON object; the exit code is 0 when
every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys

import numpy as np

from hardylab.atoms import Cube, make_atomic_sum
from hardylab.cli import main as hardylab_main
from hardylab.grid import make_grid
from hardylab.operators import apply_operator
from hardylab.verify import ExperimentConfig, resolve_index, resolve_operator

U = 2.0**-53  # unit roundoff of float64
FFT_LEVEL_ROUNDING = 8  # rounding units an FFT adds per log2 level, per coefficient
CHUNK = 2**20  # symbol evaluations per block
SAMPLED_TRIALS = 2
TIGHT_LIMIT = 1e-3  # largest tolerance, as a share of the peak, a sampled trial may have


def _div0(num, den):
    """num/den with 0/0 at the frequency origin taken as 0, as the library defines."""
    safe = np.where(den == 0.0, 1.0, den)
    return np.where(den == 0.0, 0.0, num / safe)


def _sigma1_bilinear(a, b):
    return _div0((a + b) ** 2, a * a + b * b)


def _sigma4(a, b, c):
    # (1) ab/(a^2+b^2+(a+b)^2) times the constant 1 in slot 3,
    # (2) minus the trilinear ab/(a^2+b^2+c^2).
    return _div0(a * b, a * a + b * b + (a + b) ** 2) - _div0(a * b, a * a + b * b + c * c)


# sigma3 = -abc(a-b)(b-c)(c-a)(a+b+c) / ((1+a^2)(1+b^2)(1+c^2))^2, whose
# numerator expands into these six monomials (sign, powers of a, b, c).
_SIGMA3_MONOMIALS = ((1, 4, 2, 1), (-1, 4, 1, 2), (-1, 2, 4, 1),
                     (1, 1, 4, 2), (1, 2, 1, 4), (-1, 1, 2, 4))


def _sigma3_terms():
    def factor(sign, k):
        return lambda u: sign * u**k / (1.0 + u * u) ** 2

    return [
        [factor(s, i), factor(1, j), factor(1, k)] for s, i, j, k in _SIGMA3_MONOMIALS
    ]


# symbol name -> ("full", formula over all slots) or ("separable", terms)
FORMULAS = {
    "sigma1_bilinear": ("full", _sigma1_bilinear),
    "sigma4": ("full", _sigma4),
    "sigma3": ("separable", _sigma3_terms()),
}


def own_transform(values: np.ndarray, L: float) -> tuple[np.ndarray, float]:
    """fhat(xi_k) = dx sum_j f(x_j) exp(-2 pi i x_j xi_k), summed over the support.

    x_j xi_k = (j - M/2)(k - M/2)/M, so the phase index is reduced mod M in
    integers.  Returns the coefficients and a bound on each one's rounding
    error: (support size + 16) u ||f||_1.
    """
    M = values.size
    dx = 2.0 * L / M
    h = M // 2
    support = np.flatnonzero(values)
    vals = values[support]
    table = np.exp(-2j * np.pi * np.arange(M) / M)
    ks = np.arange(M, dtype=np.int64) - h
    js = support.astype(np.int64) - h
    out = np.empty(M, dtype=np.complex128)
    step = max(1, CHUNK // max(support.size, 1))
    for start in range(0, M, step):
        phase = np.outer(ks[start:start + step], js) % M
        out[start:start + step] = table[phase] @ vals
    l1 = dx * float(np.sum(np.abs(vals)))
    return out * dx, (support.size + 16) * U * l1


def _contract(sig: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """sum over (k_1..k_m) of sig[k_1..k_m] prod_l rows[l][q, k_l], for each q."""
    last = rows[-1].T
    if np.iscomplexobj(last):
        acc = sig @ last.real + 1j * (sig @ last.imag)
    else:
        acc = sig @ last
    for row in reversed(rows[:-1]):
        acc = np.einsum("...jq,qj->...q", acc, row)
    return acc


def tuple_sum(formula, xis, rows, abs_rows):
    """Direct sum over every frequency tuple, blocked over the first slot.

    Returns sum sigma prod rows (one value per row q) and sum |sigma| prod
    abs_rows (one value per abs row).
    """
    per_first = math.prod(x.size for x in xis[1:])
    step = max(1, CHUNK // per_first)
    total = np.zeros(rows[0].shape[0], dtype=np.complex128)
    abs_total = np.zeros(abs_rows[0].shape[0])
    for start in range(0, xis[0].size, step):
        block = slice(start, start + step)
        mesh = np.meshgrid(xis[0][block], *xis[1:], indexing="ij")
        sig = np.asarray(formula(*mesh), dtype=np.float64)
        total += _contract(sig, [rows[0][:, block]] + rows[1:])
        abs_total += _contract(np.abs(sig), [abs_rows[0][:, block]] + abs_rows[1:])
    return total, abs_total


def direct_output(config: ExperimentConfig, inputs: list[np.ndarray], points: np.ndarray):
    """The operator output at grid indices ``points`` and its rounding tolerance."""
    M, L = config.M, config.L
    S = M  # n = 1
    h = M // 2
    dxi = 1.0 / (2.0 * L)
    ks = np.arange(M, dtype=np.int64) - h
    xi = ks * dxi
    mask = np.ones(M, dtype=bool)
    if config.use_cutoff:
        mask = np.abs(xi) <= M / (8.0 * L)
    keep = np.flatnonzero(mask)
    up = np.exp(2j * np.pi * np.arange(M) / M)
    phases = up[np.outer(points.astype(np.int64) - h, ks[keep]) % M]  # (P, kept)
    fft_rounding = FFT_LEVEL_ROUNDING * math.log2(M) * U

    rows, abs_rows = [], []
    for values in inputs:
        fhat, tau_own = own_transform(values, L)
        l1 = (2.0 * L / M) * float(np.sum(np.abs(values)))
        # Both transforms' errors: this file's and the engine's FFT.
        tau = 2.0 * tau_own + fft_rounding * l1
        a = fhat[keep] * dxi
        rows.append(a[None, :] * phases)
        abs_rows.append(np.stack([np.abs(a), np.abs(a) + tau * dxi]))

    style, formula = FORMULAS[config.symbol]
    m = len(inputs)
    if style == "full":
        total, (A, A2) = tuple_sum(formula, [xi[keep]] * m, rows, abs_rows)
        K = S**m + FFT_LEVEL_ROUNDING * math.log2(S) + 16
        tol = 2.0 * K * U * A2 + (A2 - A)
        return total, np.full(total.shape, tol)

    total = np.zeros(points.size, dtype=np.complex128)
    loose = np.zeros(points.size)
    exact = np.zeros(points.size)
    K = S + FFT_LEVEL_ROUNDING * math.log2(S) + 16
    for term in formula:
        prod = np.ones(points.size, dtype=np.complex128)
        bound = np.ones(points.size)
        mags = np.ones(points.size)
        for factor, row, abs_row in zip(term, rows, abs_rows):
            v, (B, B2) = tuple_sum(factor, [xi[keep]], [row], [abs_row])
            e = 2.0 * K * U * B2 + (B2 - B)
            prod *= v
            mags *= np.abs(v)
            bound *= np.abs(v) + 2.0 * e
        total += prod
        loose += bound
        exact += mags
    tol = (loose - exact) + 8.0 * U * loose
    return total, tol


def own_rhs(record: dict, exponents, M: int, L: float) -> float:
    """prod_l ||sum_k lambda_k 1_{Q_k}||_{p_l} by the rectangle rule."""
    dx = 2.0 * L / M
    x = (np.arange(M) - M // 2) * dx
    rhs = 1.0
    for inp, p in zip(record["inputs"], exponents):
        field = np.zeros(M)
        for lam, center, side, _ in inp:
            field += lam * (np.abs(x - center[0]) <= side / 2.0)
        rhs *= float(np.max(field)) if math.isinf(p) else (np.sum(field**p) * dx) ** (1.0 / p)
    return rhs


def compare_trial(config: ExperimentConfig, record: dict) -> dict:
    """Engine output against the direct sum at the peak and the cube centres."""
    grid = make_grid(config.n, config.L, config.M)
    idx = resolve_index(config)
    op = resolve_operator(config, grid)
    sums = [
        make_atomic_sum([(lam, Cube(tuple(c), side), s) for lam, c, side, s in inp], p, idx.N, grid)
        for inp, p in zip(record["inputs"], idx.exponents)
    ]
    engine = apply_operator(op, [s.realized for s in sums]).values
    h = config.M // 2
    centers = [int(round(inp[0][1][0] / grid.dx)) + h for inp in record["inputs"]]
    points = np.array([int(np.argmax(np.abs(engine)))] + centers)
    direct, tol = direct_output(config, [s.realized.values for s in sums], points)
    peak = abs(direct[0])
    tol_over_peak = float(tol[0] / peak) if peak else math.inf
    if not tol_over_peak < TIGHT_LIMIT:
        return {"trial_id": record["trial_id"], "tol_over_peak": tol_over_peak}
    err = np.abs(engine[points] - direct)
    return {
        "trial_id": record["trial_id"],
        "tol_over_peak": tol_over_peak,
        "points": points.tolist(),
        "max_err_over_tol": float(np.max(err / tol)),
        "within_tol": bool(np.all(err <= tol)),
    }


def replay_bit_exact(report_path: str, trial_id: int) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return hardylab_main(["replay", report_path, str(trial_id)]) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)

    with open(args.report) as fh:
        report = json.load(fh)
    config = ExperimentConfig.from_dict(report["config"])
    failures = []
    if config.n != 1 or config.symbol not in FORMULAS:
        failures.append(f"no independent formula for {config.symbol!r} with n = {config.n}")
    trials = [t for t in report["trials"] if not t["flags"]] if not failures else []

    for t in trials:
        mine = own_rhs(t, config.exponents, config.M, config.L)
        rel = max(1.0, max(1.0 / p for p in config.exponents))
        tol = len(config.exponents) * ((config.M + 16) * U * rel + 4 * U) * abs(t["rhs"])
        if not abs(mine - t["rhs"]) <= tol:
            failures.append(f"trial {t['trial_id']}: rhs {t['rhs']!r}, recomputed {mine!r}")

    sampled, passed_over = [], []
    if not failures:
        order = random.Random(args.seed).sample(trials, len(trials))
        for record in order:
            if len(sampled) == SAMPLED_TRIALS:
                break
            result = compare_trial(config, record)
            if "within_tol" not in result:
                passed_over.append(result)
                continue
            result["replay_bit_exact"] = replay_bit_exact(args.report, record["trial_id"])
            sampled.append(result)
            for key in ("within_tol", "replay_bit_exact"):
                if not result[key]:
                    failures.append(f"trial {record['trial_id']}: {key} is false")
        if len(sampled) < min(SAMPLED_TRIALS, len(trials)):
            failures.append(f"only {len(sampled)} trials have a bound under {TIGHT_LIMIT} "
                            "of the peak")
    print(json.dumps({
        "passed": not failures,
        "rhs_checked": len(trials),
        "sampled": sampled,
        "passed_over": passed_over,
        "failures": failures,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
