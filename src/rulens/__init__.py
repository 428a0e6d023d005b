"""Ensembles of probabilistic LSTM networks for remaining-useful-life
prediction with decomposed aleatoric/epistemic uncertainty."""

from .cmapss import (DatasetSplit, NormStats, TrainWindows, UnitSeries,
                     WindowView, apply_norm, build_windows, drop_sensors,
                     fit_norm_stats, format_cmapss, load_archive,
                     load_true_rul, make_rul_targets, norm_fingerprint,
                     parse_cmapss, prepare_split, save_archive)
from .checkpoints import load_ensemble, load_member, save_member
from .config import (ArchitectureConfig, DataPaths, EnsembleConfig,
                     EvaluationConfig, PreprocessConfig, RunConfig,
                     TrainingConfig, load_config)
from .ensemble import (EnsembleModel, EnsemblePrediction, ProfileRow,
                       UncertaintyDecomposition, aggregate,
                       dataset_uncertainty_profile, decompose_uncertainty,
                       member_mean, predict_ensemble, train_ensemble)
from .errors import (CmapssFormatError, DataIntegrityError, DivergenceError,
                     RulensError)
from .metrics import (DensityCurve, MetricReport, UnitPrediction,
                      interval_bounds, kde, nasa_score, nmpiw,
                      normal_quantile, picp, rmse, unit_predictions)
from .network import (Architecture, GaussianSeqPrediction, PnnParams,
                      TrainHistory, forward, gaussian_nll, grad, init_params,
                      train_pnn)

__version__ = "0.1.0"
