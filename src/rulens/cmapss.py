"""CMAPSS ingestion: parsing, feature selection, Z-norm, RUL targets, windows.

The text layout is the public CMAPSS distribution: 26 whitespace-separated
numeric columns per line (unit, cycle, 3 operational settings, 21 sensors),
plus a companion ground-truth file for test sets with one RUL integer per
unit. Everything downstream works on the retained feature matrix, laid out
as the 3 settings followed by the kept sensors in ascending index.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_write
from .config import PreprocessConfig
from .errors import CmapssFormatError, DataIntegrityError

logger = logging.getLogger(__name__)

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

SETTING_NAMES = tuple(f"setting_{i}" for i in range(1, N_SETTINGS + 1))


@dataclass
class UnitSeries:
    """One engine unit's multivariate record over its recorded cycles."""

    unit_id: int
    cycles: np.ndarray                   # int, consecutive from 1
    op_settings: np.ndarray              # [n_cycles, 3]
    sensors: np.ndarray                  # [n_cycles, len(sensor_ids)]
    sensor_ids: tuple[int, ...] = tuple(range(1, N_SENSORS + 1))
    true_final_rul: int | None = None    # test sets only

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return SETTING_NAMES + tuple(f"sensor_{i}" for i in self.sensor_ids)

    @property
    def features(self) -> np.ndarray:
        """[n_cycles, n_features] matrix: settings first, then sensors."""
        return np.hstack([self.op_settings, self.sensors])


@dataclass
class NormStats:
    """Per-feature Z-norm parameters fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...]
    # features whose training variance was zero and whose std was pinned to 1
    constant_features: tuple[str, ...] = ()

    def __post_init__(self):
        if np.any(self.std <= 0):
            raise DataIntegrityError("NormStats std must be strictly positive")

    @property
    def feature_index_map(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}


@dataclass
class WindowView:
    """Fixed-length windows over flat rows, picked by window start.

    ``view`` is a sliding-window view (no copy) whose entry r is rows
    r..r+L-1; ``starts`` lists the row offsets of the valid windows.
    ``len()`` is the window count, and ``[idx]`` gathers windows idx into
    a new array, so memory grows with the batch, not with the windows.
    """

    view: np.ndarray         # [n_rows - L + 1, L, ...]
    starts: np.ndarray       # int64 row offsets

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, idx) -> np.ndarray:
        return self.view[self.starts[idx]]


@dataclass
class TrainWindows:
    """Normalized training windows and their capped per-step RUL targets."""

    inputs: WindowView       # windows of [L, n_features]
    targets: WindowView      # windows of [L]

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class DatasetSplit:
    """Prepared train/test material plus the statistics that produced it."""

    train_units: list[UnitSeries]        # normalized, full history
    test_units: list[UnitSeries]         # normalized with the train stats
    norm_stats: NormStats
    window_length: int
    stride: int
    rul_cap: int
    dropped_sensors: tuple[int, ...]

    @property
    def train_windows(self) -> TrainWindows:
        """Training windows, built from train_units on each access, so only
        the code that reads them pays for them."""
        return build_windows(self.train_units, self.window_length,
                             self.stride, self.rul_cap)


def _read_lines(text_source) -> Iterable[str]:
    if isinstance(text_source, (str, Path)):
        with open(text_source, "r") as fh:
            yield from fh
    else:
        yield from text_source


def parse_cmapss(text_source) -> list[UnitSeries]:
    """Parse a 26-column CMAPSS file into per-unit series, ascending unit id.

    Raises CmapssFormatError for malformed lines (bad field count or
    non-numeric token) and DataIntegrityError when a unit's cycle column is
    not consecutive starting at 1.
    """
    rows_by_unit: dict[int, list[list[float]]] = {}
    for line_no, line in enumerate(_read_lines(text_source), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != N_COLUMNS:
            raise CmapssFormatError(
                f"expected {N_COLUMNS} fields, found {len(tokens)}", line_no)
        try:
            values = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise CmapssFormatError(f"non-numeric token: {exc}", line_no) from None
        unit = int(values[0])
        if unit != values[0] or unit <= 0:
            raise CmapssFormatError(
                f"unit id must be a positive integer, got {values[0]}", line_no)
        rows_by_unit.setdefault(unit, []).append(values)

    units: list[UnitSeries] = []
    for unit_id in sorted(rows_by_unit):
        rows = np.asarray(rows_by_unit[unit_id], dtype=np.float64)
        cycles = rows[:, 1].astype(np.int64)
        expected = np.arange(1, len(cycles) + 1)
        if not np.array_equal(cycles, expected):
            raise DataIntegrityError(
                f"unit {unit_id}: cycles are not consecutive from 1")
        units.append(UnitSeries(
            unit_id=unit_id,
            cycles=expected,
            op_settings=np.ascontiguousarray(rows[:, 2:2 + N_SETTINGS]),
            sensors=np.ascontiguousarray(rows[:, 2 + N_SETTINGS:]),
        ))
    return units


def format_cmapss(units: Sequence[UnitSeries]) -> str:
    """Serialize full (21-sensor) units back to the 26-column text layout.

    Uses shortest round-trip float formatting, so parse(format(units))
    reproduces the exact values.
    """
    lines = []
    for unit in units:
        if len(unit.sensor_ids) != N_SENSORS:
            raise ValueError("only full 21-sensor units serialize to 26 columns")
        for i, cycle in enumerate(unit.cycles):
            fields = [str(unit.unit_id), str(int(cycle))]
            fields += [repr(float(v)) for v in unit.op_settings[i]]
            fields += [repr(float(v)) for v in unit.sensors[i]]
            lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def load_true_rul(text_source, units: Sequence[UnitSeries]) -> list[UnitSeries]:
    """Attach the per-unit ground-truth RUL file (one integer per line, in
    unit order) to a test split. Line count must equal unit count."""
    values: list[int] = []
    for line_no, line in enumerate(_read_lines(text_source), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = int(float(token))
            if value != float(token):
                raise ValueError(token)
        except ValueError:
            raise CmapssFormatError(
                f"expected one integer RUL, got {token!r}", line_no) from None
        if value < 0:
            raise DataIntegrityError(f"line {line_no}: RUL must be nonnegative")
        values.append(value)
    if len(values) != len(units):
        raise DataIntegrityError(
            f"RUL file has {len(values)} values for {len(units)} units")
    return [replace(unit, true_final_rul=value)
            for unit, value in zip(units, values)]


def drop_sensors(units: Sequence[UnitSeries],
                 drop_list: Iterable[int]) -> list[UnitSeries]:
    """Remove the listed sensor indices (1..21) from every unit."""
    drop = set(int(s) for s in drop_list)
    bad = drop - set(range(1, N_SENSORS + 1))
    if bad:
        raise ValueError(f"sensor indices out of range 1..{N_SENSORS}: {sorted(bad)}")
    out = []
    for unit in units:
        keep = [k for k, sid in enumerate(unit.sensor_ids) if sid not in drop]
        out.append(replace(
            unit,
            sensors=np.ascontiguousarray(unit.sensors[:, keep]),
            sensor_ids=tuple(unit.sensor_ids[k] for k in keep),
        ))
    return out


def fit_norm_stats(train_units: Sequence[UnitSeries],
                   on_constant: str = "error") -> NormStats:
    """Per-feature mean and population std over all training rows.

    A zero-variance feature either raises (on_constant="error", naming the
    feature so the drop list can be fixed) or gets std pinned to 1 so it
    normalizes to exactly 0 on the training data (on_constant="zero").
    """
    if on_constant not in ("error", "zero"):
        raise ValueError("on_constant must be 'error' or 'zero'")
    if not train_units:
        raise ValueError("need at least one training unit")
    names = train_units[0].feature_names
    for unit in train_units:
        if unit.feature_names != names:
            raise DataIntegrityError("training units disagree on feature layout")
    stacked = np.vstack([unit.features for unit in train_units])
    if stacked.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit normalization stats")
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population convention (divide by N)
    constant = [names[j] for j in np.flatnonzero(std == 0.0)]
    if constant:
        if on_constant == "error":
            raise DataIntegrityError(
                "constant feature(s) with zero variance: "
                f"{', '.join(constant)} (extend the drop configuration)")
        std = std.copy()
        std[std == 0.0] = 1.0
    return NormStats(mean=mean, std=std, feature_names=names,
                     constant_features=tuple(constant))


def check_features(unit: UnitSeries, stats: NormStats) -> None:
    """Refuse a unit whose feature layout is not the one stats were fit on."""
    if unit.feature_names != stats.feature_names:
        raise DataIntegrityError(
            f"unit {unit.unit_id} feature layout {unit.feature_names} does not "
            f"match normalization stats {stats.feature_names}; drop sensors "
            "and normalize with the model's stats first")


def apply_norm(units: Sequence[UnitSeries], stats: NormStats) -> list[UnitSeries]:
    """Replace every value by (x - mean) / std using the fitted stats."""
    out = []
    for unit in units:
        check_features(unit, stats)
        normed = (unit.features - stats.mean) / stats.std
        out.append(replace(
            unit,
            op_settings=np.ascontiguousarray(normed[:, :N_SETTINGS]),
            sensors=np.ascontiguousarray(normed[:, N_SETTINGS:]),
        ))
    return out



def make_rul_targets(unit: UnitSeries, rul_cap: int) -> np.ndarray:
    """Piecewise-linear target per cycle: min(rul_cap, last_cycle - cycle).

    Assumes a run-to-failure unit whose last recorded cycle is the failure.
    """
    remaining = unit.cycles[-1] - unit.cycles
    return np.minimum(float(rul_cap), remaining.astype(np.float64))


def _sliding(rows: np.ndarray, length: int) -> np.ndarray:
    """[n - length + 1, length, ...] view whose entry r is rows r..r+length-1."""
    if len(rows) < length:
        return np.empty((0, length) + rows.shape[1:])
    return np.moveaxis(sliding_window_view(rows, length, axis=0), -1, 1)


def build_windows(units: Sequence[UnitSeries], window_length: int,
                  stride: int, rul_cap: int) -> TrainWindows:
    """Full-length windows at offsets 0, stride, 2*stride, ... of each unit.

    A unit of n cycles gives floor((n - l) / s) + 1 windows when n >= l;
    shorter units are skipped with a warning, and no window crosses from
    one unit into the next. Windows are views into one flat copy of the
    units' rows and targets.
    """
    if window_length < 1 or stride < 1:
        raise ValueError("window_length and stride must be >= 1")
    starts, offset = [], 0
    for unit in units:
        n = len(unit)
        if n < window_length:
            logger.warning(
                "skipping train unit %d: %d cycles < window length %d",
                unit.unit_id, n, window_length)
        starts.append(offset + np.arange(0, n - window_length + 1, stride))
        offset += n
    starts = np.concatenate(starts)
    rows = np.vstack([u.features for u in units])
    targets = np.concatenate([make_rul_targets(u, rul_cap) for u in units])
    return TrainWindows(WindowView(_sliding(rows, window_length), starts),
                        WindowView(_sliding(targets, window_length), starts))


def prepare_split(train_units: Sequence[UnitSeries],
                  test_units: Sequence[UnitSeries],
                  cfg: PreprocessConfig) -> DatasetSplit:
    """Run the full preprocessing chain and assemble a DatasetSplit.

    Test units are normalized with the training stats, never their own.
    """
    train_sel = drop_sensors(train_units, cfg.dropped_sensors)
    test_sel = drop_sensors(test_units, cfg.dropped_sensors)
    stats = fit_norm_stats(train_sel, on_constant=cfg.constant_feature_policy)
    train_norm = apply_norm(train_sel, stats)
    test_norm = apply_norm(test_sel, stats)
    return DatasetSplit(
        train_units=train_norm,
        test_units=test_norm,
        norm_stats=stats,
        window_length=cfg.window_length,
        stride=cfg.stride,
        rul_cap=cfg.rul_cap,
        dropped_sensors=cfg.dropped_sensors,
    )


# --------------------------------------------------------------------------
# Dataset archive: ingestion runs once, training/evaluation read the archive.
# Layout (documented, versioned): <dir>/manifest.json + <dir>/arrays.npz.
# The manifest echoes the resolved config and carries the normalization
# fingerprint used to pair checkpoints with archives.
# --------------------------------------------------------------------------

ARCHIVE_VERSION = 1
ARCHIVE_MANIFEST = "manifest.json"
ARCHIVE_ARRAYS = "arrays.npz"


def norm_fingerprint(stats: NormStats, window_length: int, stride: int,
                     rul_cap: int, dropped_sensors: tuple[int, ...]) -> str:
    """Hash of the preprocessing identity: feature layout, Z-norm stats and
    windowing parameters. Two artifacts with equal fingerprints were produced
    by the same preprocessing pipeline."""
    h = hashlib.sha256()
    key = json.dumps({
        "feature_names": list(stats.feature_names),
        "constant_features": list(stats.constant_features),
        "window_length": window_length,
        "stride": stride,
        "rul_cap": rul_cap,
        "dropped_sensors": list(dropped_sensors),
    }, sort_keys=True)
    h.update(key.encode())
    h.update(np.ascontiguousarray(stats.mean, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(stats.std, dtype="<f8").tobytes())
    return h.hexdigest()


def split_fingerprint(split: DatasetSplit) -> str:
    return norm_fingerprint(split.norm_stats, split.window_length, split.stride,
                            split.rul_cap, split.dropped_sensors)


def _pack_units(units: Sequence[UnitSeries]):
    ids = np.array([u.unit_id for u in units], dtype=np.int64)
    lengths = np.array([len(u) for u in units], dtype=np.int64)
    if units:
        features = np.vstack([u.features for u in units])
    else:
        features = np.zeros((0, 0))
    ruls = np.array(
        [np.nan if u.true_final_rul is None else float(u.true_final_rul)
         for u in units], dtype=np.float64)
    return ids, lengths, features, ruls


def _unpack_units(ids, lengths, features, ruls, feature_names) -> list[UnitSeries]:
    units = []
    offset = 0
    sensor_ids = tuple(int(n.split("_", 1)[1]) for n in feature_names[N_SETTINGS:])
    for k in range(len(ids)):
        n = int(lengths[k])
        block = features[offset:offset + n]
        offset += n
        rul = None if np.isnan(ruls[k]) else int(ruls[k])
        units.append(UnitSeries(
            unit_id=int(ids[k]),
            cycles=np.arange(1, n + 1),
            op_settings=np.ascontiguousarray(block[:, :N_SETTINGS]),
            sensors=np.ascontiguousarray(block[:, N_SETTINGS:]),
            sensor_ids=sensor_ids,
            true_final_rul=rul,
        ))
    return units


def save_archive(split: DatasetSplit, directory, config_echo: dict,
                 force: bool = False) -> dict:
    """Persist a DatasetSplit; refuses to overwrite unless force=True."""
    directory = Path(directory)
    manifest_path = directory / ARCHIVE_MANIFEST
    if manifest_path.exists() and not force:
        raise FileExistsError(
            f"archive already exists at {directory} (use force to overwrite)")

    train_ids, train_lengths, train_features, _ = _pack_units(split.train_units)
    test_ids, test_lengths, test_features, test_ruls = _pack_units(split.test_units)
    manifest = {
        "format_version": ARCHIVE_VERSION,
        "kind": "rulens-dataset",
        "feature_names": list(split.norm_stats.feature_names),
        "constant_features": list(split.norm_stats.constant_features),
        "window_length": split.window_length,
        "stride": split.stride,
        "rul_cap": split.rul_cap,
        "dropped_sensors": list(split.dropped_sensors),
        "n_train_units": len(split.train_units),
        "n_test_units": len(split.test_units),
        "n_train_windows": len(split.train_windows),
        "fingerprint": split_fingerprint(split),
        "config": config_echo,
    }
    arrays = io.BytesIO()
    np.savez(
        arrays,
        norm_mean=split.norm_stats.mean,
        norm_std=split.norm_stats.std,
        train_ids=train_ids, train_lengths=train_lengths,
        train_features=train_features,
        test_ids=test_ids, test_lengths=test_lengths,
        test_features=test_features, test_ruls=test_ruls,
    )
    atomic_write(directory / ARCHIVE_ARRAYS, arrays.getvalue())
    atomic_write(manifest_path,
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_archive(directory) -> tuple[DatasetSplit, dict]:
    """Load an archive's units and statistics."""
    directory = Path(directory)
    manifest_path = directory / ARCHIVE_MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"no dataset archive at {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != ARCHIVE_VERSION:
        raise DataIntegrityError(
            f"unsupported archive version {manifest.get('format_version')}")
    feature_names = tuple(manifest["feature_names"])
    with np.load(directory / ARCHIVE_ARRAYS) as arrays:
        stats = NormStats(
            mean=arrays["norm_mean"], std=arrays["norm_std"],
            feature_names=feature_names,
            constant_features=tuple(manifest["constant_features"]),
        )
        train_units = _unpack_units(
            arrays["train_ids"], arrays["train_lengths"],
            arrays["train_features"],
            np.full(len(arrays["train_ids"]), np.nan), feature_names)
        test_units = _unpack_units(
            arrays["test_ids"], arrays["test_lengths"],
            arrays["test_features"], arrays["test_ruls"], feature_names)

    split = DatasetSplit(
        train_units=train_units,
        test_units=test_units,
        norm_stats=stats,
        window_length=int(manifest["window_length"]),
        stride=int(manifest["stride"]),
        rul_cap=int(manifest["rul_cap"]),
        dropped_sensors=tuple(manifest["dropped_sensors"]),
    )
    if split_fingerprint(split) != manifest["fingerprint"]:
        raise DataIntegrityError(f"archive at {directory} failed its fingerprint check")
    return split, manifest
