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
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_write
from .config import N_SENSORS, PreprocessConfig
from .errors import (FLOATS, INT, INTS, STR, STRS, CmapssFormatError,
                     DataIntegrityError, read_manifest)

logger = logging.getLogger(__name__)

N_SETTINGS = 3
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

SETTING_NAMES = tuple(f"setting_{i}" for i in range(1, N_SETTINGS + 1))


@dataclass
class UnitSeries:
    """One engine unit's multivariate record over its recorded cycles."""

    unit_id: int
    cycles: np.ndarray                   # int, consecutive from 1
    features: np.ndarray                 # [n_cycles, 3 + len(sensor_ids)]
    sensor_ids: tuple[int, ...] = tuple(range(1, N_SENSORS + 1))
    true_final_rul: int | None = None    # test sets only

    def __post_init__(self):
        width = np.shape(self.features)[1:]
        if width != (N_SETTINGS + len(self.sensor_ids),):
            raise DataIntegrityError(
                f"unit {self.unit_id}: feature matrix of shape "
                f"{np.shape(self.features)} for "
                f"{N_SETTINGS + len(self.sensor_ids)} feature names")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return SETTING_NAMES + tuple(f"sensor_{i}" for i in self.sensor_ids)


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


@dataclass
class WindowView:
    """Fixed-length windows over flat rows, picked by window start.

    Window i is ``rows[starts[i]:starts[i] + length]`` and ``len()`` is the
    window count. It is the one window record: training gathers each batch
    from the rows (see network.train_pnn), so memory grows with the batch,
    not with the windows, and the per-window read-out runs a unit's windows
    as one pass over the rows they read (see network.forward_windows).
    """

    rows: np.ndarray         # [n_rows, ...], C-contiguous
    length: int
    starts: np.ndarray       # int64 row offsets

    def __len__(self) -> int:
        return len(self.starts)


def _read_lines(text_source) -> Iterable[str]:
    if isinstance(text_source, (str, Path)):
        with open(text_source, "r") as fh:
            yield from fh
    else:
        yield from text_source


def parse_cmapss(text_source) -> list[UnitSeries]:
    """Parse a 26-column CMAPSS file into per-unit series, ascending unit id.

    Raises CmapssFormatError for malformed lines (bad field count, or a
    non-numeric, non-finite or, for unit and cycle, non-integer token, or a
    unit id of 2**53 or more, which float64 cannot hold exactly) and
    DataIntegrityError when a unit's cycle column is not consecutive
    starting at 1.
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
        if not all(map(math.isfinite, values)):
            raise CmapssFormatError("non-finite value", line_no)
        # float64 holds every integer below 2**53 exactly; above it,
        # distinct ids can round to one
        if not (values[0].is_integer() and 0 < values[0] < 2 ** 53):
            raise CmapssFormatError(
                f"unit id must be a positive integer below 2**53, "
                f"got {tokens[0]}", line_no)
        if not values[1].is_integer():
            raise CmapssFormatError(
                f"cycle must be an integer, got {values[1]}", line_no)
        rows_by_unit.setdefault(int(values[0]), []).append(values)

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
            features=np.ascontiguousarray(rows[:, 2:]),
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
            fields += [repr(float(v)) for v in unit.features[i]]
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
            value = float(token)
        except ValueError:
            value = math.nan
        if not value.is_integer():    # also refuses nan and inf
            raise CmapssFormatError(
                f"expected one integer RUL, got {token!r}", line_no)
        if value < 0:
            raise DataIntegrityError(f"line {line_no}: RUL must be nonnegative")
        values.append(int(value))
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
        columns = list(range(N_SETTINGS)) + [N_SETTINGS + k for k in keep]
        # take, not [:, columns]: that gives a Fortran-ordered copy, and the
        # fitted stats' bits follow the summation order of the layout
        out.append(replace(unit, features=unit.features.take(columns, axis=1),
                           sensor_ids=tuple(unit.sensor_ids[k] for k in keep)))
    return out


def fit_norm_stats(train_units: Sequence[UnitSeries],
                   on_constant: str) -> NormStats:
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
    for unit in units:
        check_features(unit, stats)
    return [replace(unit, features=(unit.features - stats.mean) / stats.std)
            for unit in units]


def make_rul_targets(unit: UnitSeries, rul_cap: int | None) -> np.ndarray:
    """Piecewise-linear RUL target per cycle, as float64.

    The remaining life at each cycle is the unit's true final RUL (0 for a
    run-to-failure unit, whose last recorded cycle is the failure) plus the
    cycles left to its last one, capped at rul_cap unless rul_cap is None.
    """
    remaining = (unit.true_final_rul or 0) + (unit.cycles[-1] - unit.cycles)
    remaining = remaining.astype(np.float64)
    if rul_cap is None:
        return remaining
    return np.minimum(float(rul_cap), remaining)


def window_starts(units: Sequence[UnitSeries], window_length: int,
                  stride: int, split: str) -> list[np.ndarray]:
    """Per unit, the offsets 0, stride, 2*stride, ... of its full-length
    windows.

    A unit of n cycles gives floor((n - l) / s) + 1 windows when n >= l; a
    shorter unit gets none and a warning naming its split.
    """
    if window_length < 1 or stride < 1:
        raise ValueError("window_length and stride must be >= 1")
    starts = []
    for unit in units:
        n = len(unit)
        if n < window_length:
            logger.warning(
                "skipping %s unit %d: %d cycles < window length %d",
                split, unit.unit_id, n, window_length)
        starts.append(np.arange(0, n - window_length + 1, stride))
    return starts


def build_windows(units: Sequence[UnitSeries], window_length: int,
                  stride: int, rul_cap: int) -> tuple[WindowView, np.ndarray]:
    """Training windows at the window_starts offsets -> (windows, targets):
    the windows over one flat copy of the units' rows, and the capped RUL
    target of each of those rows.

    No window crosses from one unit into the next.
    """
    offsets = np.cumsum([0] + [len(unit) for unit in units])
    starts = np.concatenate([
        offset + s for offset, s in
        zip(offsets, window_starts(units, window_length, stride, "train"))])
    rows = np.vstack([u.features for u in units])
    targets = np.concatenate([make_rul_targets(u, rul_cap) for u in units])
    return WindowView(rows, window_length, starts), targets


@dataclass(frozen=True)
class Preprocessing:
    """Everything that turns raw units into a model's input space: sensor
    selection, Z-norm stats fitted on the training units, and windowing.
    ``fingerprint`` identifies it, so archives and checkpoints can tell
    whether they share one."""

    norm_stats: NormStats
    window_length: int
    stride: int
    rul_cap: int
    dropped_sensors: tuple[int, ...]

    @property
    def fingerprint(self) -> str:
        """Hash of the feature layout, the Z-norm stats and the windowing."""
        stats = self.norm_stats
        h = hashlib.sha256()
        h.update(json.dumps({
            "feature_names": list(stats.feature_names),
            "constant_features": list(stats.constant_features),
            "window_length": self.window_length,
            "stride": self.stride,
            "rul_cap": self.rul_cap,
            "dropped_sensors": list(self.dropped_sensors),
        }, sort_keys=True).encode())
        h.update(np.ascontiguousarray(stats.mean, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(stats.std, dtype="<f8").tobytes())
        return h.hexdigest()

    def apply(self, raw_units: Sequence[UnitSeries]) -> list[UnitSeries]:
        """Raw 21-sensor units -> units in the model's feature space."""
        return apply_norm(drop_sensors(raw_units, self.dropped_sensors),
                          self.norm_stats)

    def to_manifest(self) -> dict:
        """The norm_stats, preprocess and data_fingerprint entries of
        ensemble.json and of an archive's manifest.json."""
        stats = self.norm_stats
        return {
            "norm_stats": {"feature_names": list(stats.feature_names),
                           "mean": [float(v) for v in stats.mean],
                           "std": [float(v) for v in stats.std],
                           "constant_features": list(stats.constant_features)},
            "preprocess": {"window_length": self.window_length,
                           "stride": self.stride, "rul_cap": self.rul_cap,
                           "dropped_sensors": list(self.dropped_sensors)},
            "data_fingerprint": self.fingerprint,
        }

    @classmethod
    def from_manifest(cls, manifest: dict, path) -> Preprocessing:
        """Inverse of to_manifest, for the manifest at path, whose entries
        read_manifest checked. Refuses stats and windowing that are invalid
        or do not hash to the recorded data fingerprint, naming path."""
        stats, windowing = manifest["norm_stats"], manifest["preprocess"]
        try:
            norm_stats = NormStats(np.array(stats["mean"], dtype=np.float64),
                                   np.array(stats["std"], dtype=np.float64),
                                   tuple(stats["feature_names"]),
                                   tuple(stats["constant_features"]))
        except DataIntegrityError as exc:
            raise DataIntegrityError(f"{path}: {exc}") from None
        prep = cls(norm_stats, windowing["window_length"], windowing["stride"],
                   windowing["rul_cap"], tuple(windowing["dropped_sensors"]))
        if prep.fingerprint != manifest["data_fingerprint"]:
            raise DataIntegrityError(
                f"{path}: normalization stats and windowing do not match "
                "the recorded data fingerprint")
        return prep


# the entries Preprocessing.to_manifest writes, in errors.check_entries form
PREPROCESSING_ENTRIES = {
    "norm_stats": ((dict,), {"feature_names": STRS, "mean": FLOATS,
                             "std": FLOATS, "constant_features": STRS}),
    "preprocess": ((dict,), {"window_length": INT, "stride": INT,
                             "rul_cap": INT, "dropped_sensors": INTS}),
    "data_fingerprint": STR,
}


@dataclass
class DatasetSplit:
    """Prepared train/test material plus the preprocessing that produced it."""

    train_units: list[UnitSeries]        # normalized, full history
    test_units: list[UnitSeries]         # normalized with the train stats
    prep: Preprocessing


def prepare_split(train_units: Sequence[UnitSeries],
                  test_units: Sequence[UnitSeries],
                  cfg: PreprocessConfig) -> DatasetSplit:
    """Fit the preprocessing on the training units and apply it to both.

    Test units are normalized with the training stats, never their own.
    """
    stats = fit_norm_stats(drop_sensors(train_units, cfg.dropped_sensors),
                           on_constant=cfg.constant_feature_policy)
    prep = Preprocessing(stats, cfg.window_length, cfg.stride, cfg.rul_cap,
                         cfg.dropped_sensors)
    return DatasetSplit(prep.apply(train_units), prep.apply(test_units), prep)


# --------------------------------------------------------------------------
# Dataset archive: ingestion runs once, training/evaluation read the archive.
# Layout (documented, versioned): <dir>/manifest.json + <dir>/arrays.npz.
# The manifest echoes the resolved config, holds the preprocessing in the
# form ensemble.json uses (Preprocessing.to_manifest), whose fingerprint
# pairs checkpoints with archives, and the SHA-256 of arrays.npz.
# --------------------------------------------------------------------------

ARCHIVE_VERSION = 2
ARCHIVE_KIND = "rulens-dataset"
ARCHIVE_MANIFEST = "manifest.json"
ARCHIVE_ARRAYS = "arrays.npz"


def _pack_units(units: Sequence[UnitSeries], split: str) -> dict:
    """A split's units as the arrays.npz entries <split>_ids, _lengths,
    _features (the units' rows stacked) and _ruls (nan for none)."""
    features = (np.vstack([u.features for u in units]) if units
                else np.zeros((0, 0)))
    ruls = [np.nan if u.true_final_rul is None else float(u.true_final_rul)
            for u in units]
    return {f"{split}_ids": np.array([u.unit_id for u in units], np.int64),
            f"{split}_lengths": np.array([len(u) for u in units], np.int64),
            f"{split}_features": features,
            f"{split}_ruls": np.array(ruls, dtype=np.float64)}


def _unpack_units(arrays, split: str, feature_names) -> list[UnitSeries]:
    ids, lengths, features, ruls = (arrays[f"{split}_{key}"] for key in
                                    ("ids", "lengths", "features", "ruls"))
    sensor_ids = tuple(int(n.split("_", 1)[1]) for n in feature_names[N_SETTINGS:])
    ends = np.cumsum(lengths)
    return [UnitSeries(unit_id=int(uid), cycles=np.arange(1, end - start + 1),
                       features=features[start:end], sensor_ids=sensor_ids,
                       true_final_rul=None if np.isnan(rul) else int(rul))
            for uid, start, end, rul in zip(ids, ends - lengths, ends, ruls)]


def save_archive(split: DatasetSplit, directory, config_echo: dict,
                 force: bool = False) -> dict:
    """Persist a DatasetSplit; refuses to overwrite unless force=True."""
    directory = Path(directory)
    manifest_path = directory / ARCHIVE_MANIFEST
    if manifest_path.exists() and not force:
        raise FileExistsError(
            f"archive already exists at {directory} (use force to overwrite)")

    prep = split.prep
    buffer = io.BytesIO()
    np.savez(buffer, **_pack_units(split.train_units, "train"),
             **_pack_units(split.test_units, "test"))
    arrays = buffer.getvalue()
    manifest = {
        "format_version": ARCHIVE_VERSION,
        "kind": ARCHIVE_KIND,
        **prep.to_manifest(),
        "n_train_units": len(split.train_units),
        "n_test_units": len(split.test_units),
        "n_train_windows": sum(map(len, window_starts(
            split.train_units, prep.window_length, prep.stride, "train"))),
        "arrays_checksum": hashlib.sha256(arrays).hexdigest(),
        "config": config_echo,
    }
    atomic_write(directory / ARCHIVE_ARRAYS, arrays)
    atomic_write(manifest_path,
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_archive(directory) -> tuple[DatasetSplit, dict]:
    """Load an archive's units and preprocessing, verifying the
    preprocessing against its fingerprint and arrays.npz against its
    checksum."""
    directory = Path(directory)
    manifest_path = directory / ARCHIVE_MANIFEST
    manifest = read_manifest(manifest_path, ARCHIVE_KIND, ARCHIVE_VERSION,
                             {**PREPROCESSING_ENTRIES, "arrays_checksum": STR})
    prep = Preprocessing.from_manifest(manifest, manifest_path)
    arrays_path = directory / ARCHIVE_ARRAYS
    checksum = hashlib.sha256(arrays_path.read_bytes()).hexdigest()
    if checksum != manifest["arrays_checksum"]:
        raise DataIntegrityError(f"{arrays_path}: checksum mismatch; "
                                 "file corrupted")
    with np.load(arrays_path) as arrays:
        train_units, test_units = (
            _unpack_units(arrays, name, prep.norm_stats.feature_names)
            for name in ("train", "test"))
    return DatasetSplit(train_units, test_units, prep), manifest
