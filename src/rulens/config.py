"""Run configuration: one structured file drives every CLI command.

Defaults reproduce the reference experiment profile (FD001, window 100,
RUL cap 128, 2x LSTM [32, 16] + dense head, 15 members, base seed 237).
Any field can be overridden from a YAML/JSON config file or, for a few
common knobs, from CLI flags. The fully resolved config is echoed into
every output artifact so results stay traceable.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml


@dataclass
class DataPaths:
    train_file: str = ""
    test_file: str = ""
    rul_file: str = ""


@dataclass
class PreprocessConfig:
    window_length: int = 100
    stride: int = 1
    rul_cap: int = 128
    dropped_sensors: tuple[int, ...] = (1, 5, 10, 16, 18, 19)
    # Z-norm behaviour for a retained feature with zero variance:
    #  "zero"  -- store std=1 so the feature normalizes to 0 on train data
    #  "error" -- refuse (signals the drop list is incomplete)
    # FD001 keeps op setting 3 constant, so "zero" is the usable default.
    constant_feature_policy: str = "zero"

    def __post_init__(self):
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.rul_cap < 0:
            raise ValueError("rul_cap must be >= 0")
        if self.constant_feature_policy not in ("zero", "error"):
            raise ValueError("constant_feature_policy must be 'zero' or 'error'")
        self.dropped_sensors = tuple(sorted(int(s) for s in self.dropped_sensors))


@dataclass
class ArchitectureConfig:
    recurrent_layers: tuple[int, ...] = (32, 16)
    dense_layers: tuple[int, ...] = (2,)

    def __post_init__(self):
        self.recurrent_layers = tuple(int(h) for h in self.recurrent_layers)
        self.dense_layers = tuple(int(d) for d in self.dense_layers)
        if not self.dense_layers or self.dense_layers[-1] != 2:
            raise ValueError("dense_layers must end in the 2-unit Gaussian head")


@dataclass
class TrainingConfig:
    batch_size: int = 32
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 100
    early_stop_start: int = 35
    patience: int = 3
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not self.clip_norm >= 0:
            raise ValueError("clip_norm must be >= 0")


@dataclass
class EnsembleConfig:
    members: int = 15
    base_seed: int = 237

    def __post_init__(self):
        if self.members < 1:
            raise ValueError("members must be >= 1")


@dataclass
class EvaluationConfig:
    alpha: float = 0.95
    # "paper" puts the gentler divisor on the late branch (10 early / 13
    # late); "classic" swaps them (the historical CMAPSS convention).
    score_convention: str = "paper"
    per_window: bool = False
    # optional external reference values (metric name -> number); echoed
    # into reports for side-by-side comparison, never used in computation
    reference: dict | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.score_convention not in ("paper", "classic"):
            raise ValueError("score_convention must be 'paper' or 'classic'")
        if self.reference is not None:
            self.reference = {str(k): float(v) for k, v in self.reference.items()}


@dataclass
class RunConfig:
    data: DataPaths = field(default_factory=DataPaths)
    preprocessing: PreprocessConfig = field(default_factory=PreprocessConfig)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    output_dir: str = "runs/default"
    preset: str = "default"

    def resolved(self) -> dict[str, Any]:
        """Plain-dict echo of every field, embedded in output artifacts."""
        return dataclasses.asdict(self)

    def resolved_json(self) -> str:
        return json.dumps(self.resolved(), sort_keys=True)


# Reduced-scale smoke profile for quick end-to-end runs; not the full
# default profile, results are not comparable with it.
PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "desk": {
        "ensemble": {"members": 5},
        "training": {"max_epochs": 30},
    },
}


def _merge_section(obj: Any, overrides: dict[str, Any], path: str) -> None:
    for key, value in overrides.items():
        if not hasattr(obj, key):
            raise ValueError(f"unknown config key '{path}.{key}'")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ValueError(f"config section '{path}.{key}' must be a mapping")
            _merge_section(current, value, f"{path}.{key}")
        else:
            setattr(obj, key, type_coerce(current, value))


def type_coerce(current: Any, value: Any) -> Any:
    if isinstance(current, tuple) and isinstance(value, (list, tuple)):
        return tuple(value)
    if isinstance(current, bool):
        return bool(value)
    if isinstance(current, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(current, float):
        return float(value)
    return value


def load_config(path: str | Path | None = None,
                preset: str | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from defaults + optional file + preset + overrides.

    Precedence, lowest to highest: defaults, config file, preset, overrides.
    """
    config = RunConfig()
    if path is not None:
        raw = yaml.safe_load(Path(path).read_text())
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must contain a mapping")
        _merge_section(config, raw, "config")
    if preset:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset '{preset}' (known: {sorted(PRESETS)})")
        _merge_section(config, PRESETS[preset], "preset")
        config.preset = preset
    if overrides:
        _merge_section(config, overrides, "override")
    # re-run validation on sections whose fields may have been replaced
    config.preprocessing.__post_init__()
    config.architecture.__post_init__()
    config.training.__post_init__()
    config.ensemble.__post_init__()
    config.evaluation.__post_init__()
    return config
