"""Deep ensembles of probabilistic sequence networks.

Members differ only in their seed (parameter draw + shuffle stream). The
ensemble predictive distribution is the uniform Gaussian mixture over
members, summarized by its first two moments; the predictive variance then
splits into an aleatoric part (mean of member log variances) and an
epistemic part (the rest), both in nats with additive constants dropped.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cmapss import NormStats, UnitSeries, WindowSample
from .config import TrainingConfig
from .errors import DivergenceError
from .network import (Architecture, PnnParams, TrainHistory, forward_stacked,
                      train_pnn)

logger = logging.getLogger(__name__)


def member_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 that is exact on ties and order-independent.

    Sorting canonicalizes member order, and averaging offsets from the
    smallest element makes the mean of M identical values return that value
    bit-for-bit. Both properties are load-bearing: epistemic uncertainty of
    a degenerate ensemble must be exactly zero, and results must not depend
    on member completion order.
    """
    a = np.asarray(values, dtype=np.float64)
    s = np.sort(a, axis=0)
    return s[0] + np.mean(s - s[0], axis=0)


@dataclass
class EnsembleModel:
    """Trained members plus everything needed to reproduce their inputs."""

    architecture: Architecture
    members: list[PnnParams]
    base_seed: int
    member_seeds: tuple[int, ...]
    norm_stats: NormStats | None = None
    preprocess: dict | None = None        # window_length, stride, rul_cap, dropped_sensors
    data_fingerprint: str | None = None

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        if len(self.member_seeds) != len(self.members):
            raise ValueError("one seed per member required")

    @property
    def n_members(self) -> int:
        return len(self.members)


@dataclass
class EnsemblePrediction:
    """Mixture moments plus the per-member predictions they came from."""

    means: np.ndarray          # [T] mixture mean
    variances: np.ndarray      # [T] mixture variance
    member_means: np.ndarray   # [M, T]
    member_vars: np.ndarray    # [M, T]


@dataclass
class UncertaintyDecomposition:
    """Log-variance split in nats (constants dropped).

    total == aleatoric + epistemic by construction; epistemic is zero for a
    degenerate ensemble and nonnegative up to float rounding otherwise.
    """

    aleatoric: float | np.ndarray
    epistemic: float | np.ndarray
    total: float | np.ndarray


@dataclass
class ProfileRow:
    """One uncertainty reading: a unit at a specific end cycle."""

    unit_id: int
    end_cycle: int
    aleatoric: float
    epistemic: float
    total: float


def aggregate(member_means: np.ndarray,
              member_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixture moments from per-member Gaussians stacked on axis 0.

    variance = mean of member variances + variance of member means, the
    numerically stable arrangement of the mixture second moment: it cannot
    go below the mean member variance through cancellation.
    """
    m = np.asarray(member_means, dtype=np.float64)
    v = np.asarray(member_vars, dtype=np.float64)
    if m.shape != v.shape or m.ndim < 1 or m.shape[0] < 1:
        raise ValueError("member means/vars must share shape [M, ...] with M >= 1")
    if np.any(v <= 0):
        raise ValueError("member variances must be strictly positive")
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        raise ValueError("non-finite member predictions")
    mu_star = member_mean(m)
    var_star = member_mean(v) + member_mean((m - mu_star) ** 2)
    return mu_star, var_star


def decompose_uncertainty(member_means: np.ndarray,
                          member_vars: np.ndarray) -> UncertaintyDecomposition:
    """Split mixture log variance into aleatoric and epistemic parts.

    aleatoric = mean over members of log sigma_i^2; total = log sigma_*^2;
    epistemic = total - aleatoric. Accepts [M] for a single reading or
    [M, ...] for vectorized use; outputs drop the member axis.
    """
    _, var_star = aggregate(member_means, member_vars)
    v = np.asarray(member_vars, dtype=np.float64)
    aleatoric = member_mean(np.log(v))
    total = np.log(var_star)
    epistemic = total - aleatoric
    if np.ndim(total) == 0:
        return UncertaintyDecomposition(float(aleatoric), float(epistemic),
                                        float(total))
    return UncertaintyDecomposition(aleatoric, epistemic, total)


def train_ensemble(arch: Architecture,
                   train_windows: Sequence[WindowSample] | tuple[np.ndarray, np.ndarray],
                   train_cfg: TrainingConfig,
                   n_members: int,
                   base_seed: int,
                   threads: int = 1,
                   progress: Callable[[int, TrainHistory], None] | None = None,
                   norm_stats: NormStats | None = None,
                   preprocess: dict | None = None,
                   data_fingerprint: str | None = None,
                   ) -> tuple[EnsembleModel, list[TrainHistory]]:
    """Train n_members networks with seeds base_seed + k, k = 0..M-1.

    Members are independent, so they may train on a thread pool; results are
    assembled by member index, making the outcome identical for any thread
    count. A diverging member raises DivergenceError naming the member.
    The optional norm_stats / preprocess / data_fingerprint ride along on the
    returned model so inference can re-create the model's input space.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    seeds = [base_seed + k for k in range(n_members)]

    def run(k: int) -> tuple[PnnParams, TrainHistory]:
        try:
            params, history = train_pnn(arch, train_windows, train_cfg, seeds[k])
        except DivergenceError as exc:
            raise DivergenceError(
                f"member {k} (seed {seeds[k]}) diverged: {exc}",
                sample_index=exc.sample_index, epoch=exc.epoch,
                member=k) from None
        logger.info("member %d (seed %d): best loss %.5f at epoch %d, %s after %d epochs",
                    k, seeds[k], history.best_loss, history.best_epoch,
                    history.stop_reason, history.stop_epoch)
        if progress is not None:
            progress(k, history)
        return params, history

    if threads == 1 or n_members == 1:
        results = [run(k) for k in range(n_members)]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, n_members)) as pool:
            results = list(pool.map(run, range(n_members)))
    model = EnsembleModel(
        architecture=arch,
        members=[r[0] for r in results],
        base_seed=base_seed,
        member_seeds=tuple(seeds),
        norm_stats=norm_stats,
        preprocess=preprocess,
        data_fingerprint=data_fingerprint,
    )
    return model, [r[1] for r in results]


def predict_members(model: EnsembleModel, seqs: Sequence[np.ndarray]
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every member over a ragged list of sequences [T_i, F] in one stacked
    pass -> per sequence, in input order, member means/vars [M, T_i].

    A reading may differ in the last bits with the sequences it is batched
    with (BLAS summation order follows the batch shape); the same call
    always returns the same bits.
    """
    arrays = {name: np.stack([p.arrays[name] for p in model.members])
              for name in model.members[0].arrays}
    return forward_stacked(model.architecture, arrays, seqs)


def predict_ensemble(model: EnsembleModel, inputs: np.ndarray) -> EnsemblePrediction:
    """Run every member over one sequence [T, F] and aggregate."""
    [(member_means, member_vars)] = predict_members(model, [inputs])
    mu_star, var_star = aggregate(member_means, member_vars)
    return EnsemblePrediction(means=mu_star, variances=var_star,
                              member_means=member_means, member_vars=member_vars)


def last_step_view(pred: EnsemblePrediction
                   ) -> tuple[float, float, UncertaintyDecomposition]:
    """(mixture mean, mixture variance, decomposition) at the final step."""
    dec = decompose_uncertainty(pred.member_means[:, -1], pred.member_vars[:, -1])
    return float(pred.means[-1]), float(pred.variances[-1]), dec


def _check_feature_space(model: EnsembleModel, unit: UnitSeries) -> None:
    if model.norm_stats is not None:
        expected = model.norm_stats.feature_names
        if tuple(unit.feature_names) != tuple(expected):
            raise ValueError(
                f"unit {unit.unit_id} feature layout {unit.feature_names} does "
                f"not match the model's {list(expected)}; drop sensors and "
                "normalize with the model's stats first")


def dataset_uncertainty_profile(model: EnsembleModel,
                                units: Sequence[UnitSeries],
                                per_window: bool = False) -> list[ProfileRow]:
    """Uncertainty readings over a dataset already in model feature space.

    Default: one row per unit, decomposed at the last step of its full
    history. With per_window, one row per sliding window (the model's
    training window length and stride); units shorter than one window are
    skipped with a warning.
    """
    for unit in units:
        _check_feature_space(model, unit)
    rows: list[ProfileRow] = []
    if not per_window:
        preds = predict_members(model, [unit.features for unit in units])
        for unit, (means, varis) in zip(units, preds):
            dec = decompose_uncertainty(means[:, -1], varis[:, -1])
            rows.append(ProfileRow(unit.unit_id, int(unit.cycles[-1]),
                                   dec.aleatoric, dec.epistemic, dec.total))
        return rows
    if model.preprocess is None:
        raise ValueError("model carries no windowing settings; "
                         "per-window profiling needs them")
    length = int(model.preprocess["window_length"])
    stride = int(model.preprocess["stride"])
    for unit in units:
        feats = unit.features
        n = feats.shape[0]
        if n < length:
            logger.warning("unit %d has %d cycles, shorter than one %d-cycle "
                           "window; skipped in per-window profile",
                           unit.unit_id, n, length)
            continue
        # one call per unit holds all of its windows, bounding memory
        starts = range(0, n - length + 1, stride)
        preds = predict_members(model, [feats[s:s + length] for s in starts])
        for s, (means, varis) in zip(starts, preds):
            dec = decompose_uncertainty(means[:, -1], varis[:, -1])
            rows.append(ProfileRow(unit.unit_id, int(unit.cycles[s + length - 1]),
                                   dec.aleatoric, dec.epistemic, dec.total))
    return rows
