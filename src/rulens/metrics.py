"""Point and probabilistic evaluation of RUL predictions.

Covers RMSE, the asymmetric exponential benchmark score, central Gaussian
prediction intervals, PICP / NMPIW, Gaussian-kernel density summaries, and
the per-unit evaluation driver that ties them to an ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cmapss import UnitSeries, make_rul_targets
from .ensemble import EnsembleModel, UncertaintyDecomposition, read_out

# score_convention -> (a1 on the early/negative branch, a2 on the late branch).
# "paper" puts the gentler divisor on the late branch (10 early / 13 late);
# "classic" is the usual benchmark orientation, penalizing late harder.
SCORE_CONSTANTS = {"paper": (10.0, 13.0), "classic": (13.0, 10.0)}


@dataclass
class MetricReport:
    rmse: float
    score: float
    picp: float
    nmpiw: float
    n: int
    alpha: float
    score_convention: str = "paper"


@dataclass
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _paired(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size < 1:
        raise ValueError("predictions and targets must be equal-length 1-d, N >= 1")
    return p, t


def rmse(predictions, targets) -> float:
    """Root mean squared error."""
    p, t = _paired(predictions, targets)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def nasa_score(predictions, targets, a1: float = 10.0, a2: float = 13.0) -> float:
    """Asymmetric exponential score, summed over samples.

    d = prediction - target; early (d < 0) contributes exp(-d/a1) - 1, late
    (d >= 0) contributes exp(d/a2) - 1. The constants decide which side is
    punished harder; see SCORE_CONSTANTS for the two supported assignments.
    """
    if not (a1 > 0 and a2 > 0):
        raise ValueError("score constants must be positive")
    p, t = _paired(predictions, targets)
    d = p - t
    early = d < 0
    return float(np.sum(np.exp(-d[early] / a1) - 1.0)
                 + np.sum(np.exp(d[~early] / a2) - 1.0))


# Rational approximation of the standard normal quantile (Acklam's method):
# three regimes, each a ratio of polynomials. Peak absolute relative error
# about 1.15e-9 over (0, 1), well inside the 1e-8 documentation target.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_NQ_SPLIT = 0.02425


def _nq_tail(q: np.ndarray) -> np.ndarray:
    c, d = _NQ_C, _NQ_D
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    return num / den


def normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1); scalar or array."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    x = np.empty_like(arr)
    lo = arr < _NQ_SPLIT
    hi = arr > 1.0 - _NQ_SPLIT
    mid = ~(lo | hi)
    if np.any(lo):
        x[lo] = _nq_tail(np.sqrt(-2.0 * np.log(arr[lo])))
    if np.any(hi):
        x[hi] = -_nq_tail(np.sqrt(-2.0 * np.log(1.0 - arr[hi])))
    if np.any(mid):
        a, b = _NQ_A, _NQ_B
        q = arr[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        x[mid] = q * num / den
    return float(x) if np.isscalar(p) or np.ndim(p) == 0 else x


def interval_bounds(mu, var, alpha: float):
    """Central Gaussian interval mu +/- z * sigma at confidence alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    mu = np.asarray(mu, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var <= 0):
        raise ValueError("variances must be strictly positive")
    z = normal_quantile((1.0 + alpha) / 2.0)
    half = z * np.sqrt(var)
    return mu - half, mu + half


def picp(bounds, targets) -> float:
    """Fraction of targets inside their closed interval [lower, upper]."""
    lower = np.asarray(bounds[0], dtype=np.float64)
    upper = np.asarray(bounds[1], dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if not (lower.shape == upper.shape == t.shape) or t.size < 1:
        raise ValueError("bounds and targets must be equal-length, N >= 1")
    return float(np.mean((t >= lower) & (t <= upper)))


def nmpiw(bounds, targets) -> float:
    """Mean interval width divided by the target range."""
    lower = np.asarray(bounds[0], dtype=np.float64)
    upper = np.asarray(bounds[1], dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if not (lower.shape == upper.shape == t.shape) or t.size < 1:
        raise ValueError("bounds and targets must be equal-length, N >= 1")
    span = float(t.max() - t.min())
    if span <= 0.0:
        raise ValueError("constant targets: interval-width normalizer is zero")
    return float(np.mean(upper - lower) / span)


def kde(values, grid_size: int = 512) -> DensityCurve:
    """Gaussian-kernel density with Silverman bandwidth 1.06 * s * N^(-1/5).

    The grid spans the data plus 4 bandwidths each side, wide enough that
    the curve integrates to ~1.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("kernel density needs at least 2 values")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    s = float(np.std(x, ddof=1))
    if s == 0.0:
        raise ValueError("kernel density undefined for all-equal values")
    h = 1.06 * s * x.size ** (-1.0 / 5.0)
    grid = np.linspace(x.min() - 4.0 * h, x.max() + 4.0 * h, grid_size)
    density = np.zeros(grid_size)
    norm = 1.0 / (x.size * h * np.sqrt(2.0 * np.pi))
    for start in range(0, x.size, 2048):
        block = x[start:start + 2048]
        z = (grid[:, None] - block[None, :]) / h
        density += np.exp(-0.5 * z * z).sum(axis=1)
    return DensityCurve(grid=grid, density=density * norm, bandwidth=h)


def unit_predictions(model: EnsembleModel,
                     test_units: Sequence[UnitSeries],
                     per_step: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                UncertaintyDecomposition]:
    """Evaluated readings for units that carry a true final RUL -> (unit
    ids, cycles, targets, decomposition), one column entry per reading.

    All units' full histories run through the ensemble in one pass.
    Default: one reading per unit at its last cycle, target = the true final
    RUL as given. With per_step, one reading per cycle, the target extended
    backward by one cycle of remaining life per step (make_rul_targets,
    uncapped).
    """
    for unit in test_units:
        if unit.true_final_rul is None:
            raise ValueError(f"unit {unit.unit_id} carries no true RUL; "
                             "evaluation needs the RUL file")
    ends = [np.arange(len(unit)) if per_step else [len(unit) - 1]
            for unit in test_units]
    unit_ids, cycles, dec = read_out(model, test_units, ends)
    targets = np.concatenate([np.zeros(0)] + [
        make_rul_targets(unit, None)[e] for unit, e in zip(test_units, ends)])
    return unit_ids, cycles, targets, dec


def report_from_predictions(predictions, targets, bounds, alpha: float,
                            score_convention: str = "paper") -> MetricReport:
    """Every metric of one evaluation, from its prediction, target and
    interval-bound columns."""
    if score_convention not in SCORE_CONSTANTS:
        raise ValueError(f"unknown score convention {score_convention!r}; "
                         f"expected one of {sorted(SCORE_CONSTANTS)}")
    preds, targets = _paired(predictions, targets)
    a1, a2 = SCORE_CONSTANTS[score_convention]
    # the width normalizer is the target range, which a single-unit (or
    # otherwise constant-target) report does not have; record NaN rather
    # than refuse the whole report
    width = nmpiw(bounds, targets) if targets.max() > targets.min() else float("nan")
    return MetricReport(
        rmse=rmse(preds, targets),
        score=nasa_score(preds, targets, a1, a2),
        picp=picp(bounds, targets),
        nmpiw=width,
        n=targets.size, alpha=alpha, score_convention=score_convention)


_REPORT_FIELDS = ("rmse", "score", "picp", "nmpiw", "n", "alpha",
                  "score_convention")


def report_to_dict(report: MetricReport) -> dict:
    """The fields of report.json; an undefined NMPIW is None (JSON null),
    since strict JSON has no NaN."""
    fields = {k: getattr(report, k) for k in _REPORT_FIELDS}
    if not np.isfinite(fields["nmpiw"]):
        fields["nmpiw"] = None
    return fields


def report_to_text(report: MetricReport, extra: dict | None = None) -> str:
    """Flat key = value lines, fixed field order, extras appended sorted."""
    lines = [f"{k} = {getattr(report, k)!r}" if isinstance(getattr(report, k), str)
             else f"{k} = {getattr(report, k)}" for k in _REPORT_FIELDS]
    for k in sorted(extra or {}):
        lines.append(f"{k} = {extra[k]}")
    return "\n".join(lines) + "\n"
