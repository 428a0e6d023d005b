"""Synthetic turbofan-style datasets in the 26-column text format.

Lets the full pipeline run end to end without the real data: each unit
follows a convex wear curve, informative sensors trend with wear plus noise,
and the columns that are constant in the reference dataset (operating
setting 3 and sensors 1, 5, 10, 16, 18, 19) are constant here too, so the
default feature selection and normalization behave identically.

A positive regime_shift offsets operating settings and sensor baselines,
giving an easy way to fabricate out-of-distribution test files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cmapss import N_SENSORS, N_SETTINGS, UnitSeries, format_cmapss

CONSTANT_SENSORS = {1: 518.67, 5: 14.62, 10: 1.3, 16: 0.03, 18: 2388.0, 19: 100.0}

# fixed per-sensor baseline and wear response for the informative channels
_INFORMATIVE = sorted(set(range(1, N_SENSORS + 1)) - set(CONSTANT_SENSORS))
_BASES = {sid: 100.0 + 17.0 * i for i, sid in enumerate(_INFORMATIVE)}
_AMPS = {sid: (8.0 + 0.9 * i) * (-1 if i % 3 == 0 else 1)
         for i, sid in enumerate(_INFORMATIVE)}


def make_synthetic_units(n_units: int, seed: int,
                         min_len: int = 120, max_len: int = 260,
                         regime_shift: float = 0.0,
                         noise: float = 0.3) -> list[UnitSeries]:
    """Full run-to-failure histories for n_units engines."""
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ValueError("need 1 <= min_len <= max_len")
    rng = np.random.default_rng(seed)
    units = []
    for uid in range(1, n_units + 1):
        length = int(rng.integers(min_len, max_len + 1))
        frac = np.arange(1, length + 1) / length
        wear = frac ** rng.uniform(1.5, 3.0)

        features = np.empty((length, N_SETTINGS + N_SENSORS))
        features[:, 0] = rng.normal(0.0, 0.002, length) + 0.4 * regime_shift
        features[:, 1] = rng.normal(0.0, 0.0003, length) + 0.1 * regime_shift
        features[:, 2] = 100.0
        for sid in range(1, N_SENSORS + 1):
            col = N_SETTINGS + sid - 1
            if sid in CONSTANT_SENSORS:
                features[:, col] = CONSTANT_SENSORS[sid]
                continue
            drift = 2.5 * regime_shift * np.sign(_AMPS[sid])
            features[:, col] = (_BASES[sid] + drift + _AMPS[sid] * wear
                                + rng.normal(0.0, noise, length))
        units.append(UnitSeries(unit_id=uid, cycles=np.arange(1, length + 1),
                                features=features))
    return units


def truncate_for_test(units: list[UnitSeries], seed: int,
                      min_keep: int = 20) -> list[UnitSeries]:
    """Cut each history short; the discarded tail length is the true RUL."""
    rng = np.random.default_rng(seed)
    out = []
    for unit in units:
        length = len(unit)
        keep = int(rng.integers(min_keep, max(min_keep + 1, length - 4)))
        keep = min(keep, length - 1)
        out.append(UnitSeries(
            unit_id=unit.unit_id,
            cycles=unit.cycles[:keep],
            features=unit.features[:keep],
            sensor_ids=unit.sensor_ids,
            true_final_rul=length - keep,
        ))
    return out


def write_synthetic_dataset(directory: Path | str,
                            n_train_units: int = 12,
                            n_test_units: int = 8,
                            seed: int = 0,
                            min_len: int = 120,
                            max_len: int = 260,
                            regime_shift: float = 0.0,
                            noise: float = 0.3,
                            stem: str = "synth") -> dict[str, Path]:
    """Write train/test/RUL text files; returns their paths by role."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    train = make_synthetic_units(n_train_units, seed, min_len, max_len,
                                 regime_shift, noise)
    full_test = make_synthetic_units(n_test_units, seed + 1, min_len, max_len,
                                     regime_shift, noise)
    test = truncate_for_test(full_test, seed + 2,
                             min_keep=max(20, min_len // 3))
    paths = {
        "train": directory / f"train_{stem}.txt",
        "test": directory / f"test_{stem}.txt",
        "rul": directory / f"RUL_{stem}.txt",
    }
    paths["train"].write_text(format_cmapss(train))
    paths["test"].write_text(format_cmapss(test))
    paths["rul"].write_text(
        "".join(f"{u.true_final_rul}\n" for u in test))
    return paths
