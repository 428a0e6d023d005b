"""Deep ensembles of probabilistic sequence networks.

Members differ only in their seed (parameter draw + shuffle stream). The
ensemble predictive distribution is the uniform Gaussian mixture over
members, summarized by its first two moments; the predictive variance then
splits into an aleatoric part (mean of member log variances) and an
epistemic part (the rest), both in nats with additive constants dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cmapss import NormStats, UnitSeries, check_features, window_starts
from .config import TrainingConfig
from .errors import DivergenceError
from .network import (Architecture, PnnParams, TrainHistory, forward_stacked,
                      train_pnn)


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
    """Log-variance split in nats (constants dropped), with the mixture
    moments it splits.

    total == aleatoric + epistemic by construction; epistemic is zero for a
    degenerate ensemble and nonnegative up to float rounding otherwise.
    mean and variance are the mixture moments of aggregate; total is
    log(variance).
    """

    aleatoric: float | np.ndarray
    epistemic: float | np.ndarray
    total: float | np.ndarray
    mean: float | np.ndarray
    variance: float | np.ndarray


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
    mu_star, var_star = aggregate(member_means, member_vars)
    v = np.asarray(member_vars, dtype=np.float64)
    aleatoric = member_mean(np.log(v))
    total = np.log(var_star)
    epistemic = total - aleatoric
    if np.ndim(total) == 0:
        return UncertaintyDecomposition(float(aleatoric), float(epistemic),
                                        float(total), float(mu_star),
                                        float(var_star))
    return UncertaintyDecomposition(aleatoric, epistemic, total, mu_star,
                                    var_star)


def train_ensemble(arch: Architecture,
                   train_windows: tuple,
                   train_cfg: TrainingConfig,
                   n_members: int,
                   base_seed: int,
                   resume: Callable[[int, int], PnnParams | None] | None = None,
                   progress: Callable[[int, PnnParams, TrainHistory], None]
                   | None = None,
                   norm_stats: NormStats | None = None,
                   preprocess: dict | None = None,
                   data_fingerprint: str | None = None,
                   ) -> tuple[EnsembleModel, list[TrainHistory | None]]:
    """Train n_members networks with seeds base_seed + k, k = 0..M-1.

    train_windows is the (inputs, targets) pair train_pnn takes; a member
    depends only on its seed and the data. resume(k, seed) may return
    finished parameters, used as they are (history None). progress(k,
    params, history) sees each newly trained member at once, so a caller
    can persist it. A diverging member raises DivergenceError naming the
    member. norm_stats / preprocess / data_fingerprint ride along on the
    model so inference can re-create the model's input space.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    seeds = [base_seed + k for k in range(n_members)]
    members, histories = [], []
    for k, seed in enumerate(seeds):
        params = resume(k, seed) if resume is not None else None
        history = None
        if params is None:
            try:
                params, history = train_pnn(arch, train_windows, train_cfg, seed)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"member {k} (seed {seed}) diverged: {exc}",
                    sample_index=exc.sample_index, epoch=exc.epoch,
                    member=k) from None
            if progress is not None:
                progress(k, params, history)
        members.append(params)
        histories.append(history)
    model = EnsembleModel(
        architecture=arch,
        members=members,
        base_seed=base_seed,
        member_seeds=tuple(seeds),
        norm_stats=norm_stats,
        preprocess=preprocess,
        data_fingerprint=data_fingerprint,
    )
    return model, histories


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


def dataset_uncertainty_profile(model: EnsembleModel,
                                units: Sequence[UnitSeries],
                                per_window: bool = False) -> list[ProfileRow]:
    """Uncertainty readings over a dataset already in model feature space.

    Default: one row per unit, decomposed at the last step of its full
    history. With per_window, one row per window of cmapss.window_starts at
    the model's training window length and stride, which skips (and warns
    about) units shorter than one window.
    """
    if model.norm_stats is not None:
        for unit in units:
            check_features(unit, model.norm_stats)
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
    all_starts = window_starts(units, length, int(model.preprocess["stride"]),
                               "test")
    for unit, starts in zip(units, all_starts):
        # one call per unit holds all of its windows, bounding memory
        preds = predict_members(
            model, [unit.features[s:s + length] for s in starts])
        for s, (means, varis) in zip(starts, preds):
            dec = decompose_uncertainty(means[:, -1], varis[:, -1])
            rows.append(ProfileRow(unit.unit_id, int(unit.cycles[s + length - 1]),
                                   dec.aleatoric, dec.epistemic, dec.total))
    return rows
