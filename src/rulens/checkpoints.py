"""Deterministic on-disk formats for members and ensembles.

A member checkpoint is a single file: one JSON manifest line, then the raw
little-endian float64 parameter bytes in canonical order. An ensemble
checkpoint is a directory of member files plus ensemble.json. Both formats
contain no timestamps and serialize with sorted keys, so identical runs
produce byte-identical artifacts; payloads carry SHA-256 checksums that are
verified on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import TrainingConfig
from .ensemble import EnsembleModel
from .errors import DataIntegrityError
from .network import Architecture, PnnParams, TrainHistory

FORMAT_VERSION = 1
MEMBER_KIND = "pnn-member"
ENSEMBLE_KIND = "pnn-ensemble"


def member_path(ckpt_dir: Path | str, k: int) -> Path:
    return Path(ckpt_dir) / "members" / f"member_{k:03d}.ckpt"


def _history_dict(history: TrainHistory) -> dict:
    return {
        "epoch_losses": list(history.epoch_losses),
        "stop_epoch": history.stop_epoch,
        "stop_reason": history.stop_reason,
        "best_epoch": history.best_epoch,
        "best_loss": history.best_loss,
        "clip_events": history.clip_events,
    }


def save_member(path: Path | str, params: PnnParams, history: TrainHistory,
                train_cfg: TrainingConfig,
                data_fingerprint: str | None = None) -> str:
    """Write one member checkpoint; returns the payload checksum.

    The header records what the parameters were trained from (seed,
    architecture, training config and the archive's data fingerprint), so
    a resumed run can tell whether the member still applies.
    """
    shapes = params.arch.param_shapes()
    payload = b"".join(
        np.ascontiguousarray(params.arrays[name], dtype="<f8").tobytes()
        for name in shapes)
    checksum = hashlib.sha256(payload).hexdigest()
    manifest = {
        "kind": MEMBER_KIND,
        "format_version": FORMAT_VERSION,
        "seed": params.seed,
        "architecture": params.arch.to_dict(),
        "param_names": list(shapes),
        "history": _history_dict(history),
        "train_config": dataclasses.asdict(train_cfg),
        "data_fingerprint": data_fingerprint,
        "checksum": checksum,
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    atomic_write(path, header + b"\n" + payload)
    return checksum


def load_member(path: Path | str) -> tuple[PnnParams, dict]:
    """Read and verify one member checkpoint -> (params, manifest)."""
    path = Path(path)
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataIntegrityError(f"{path}: no manifest line")
    try:
        manifest = json.loads(blob[:nl])
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"{path}: bad manifest: {exc}") from None
    if manifest.get("kind") != MEMBER_KIND:
        raise DataIntegrityError(f"{path}: not a member checkpoint")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataIntegrityError(
            f"{path}: format version {manifest.get('format_version')}, "
            f"expected {FORMAT_VERSION}")
    payload = blob[nl + 1:]
    if hashlib.sha256(payload).hexdigest() != manifest["checksum"]:
        raise DataIntegrityError(f"{path}: checksum mismatch; file corrupted")
    arch = Architecture.from_dict(manifest["architecture"])
    shapes = arch.param_shapes()
    if list(shapes) != manifest["param_names"]:
        raise DataIntegrityError(f"{path}: parameter names do not match "
                                 "the declared architecture")
    expected = sum(int(np.prod(s)) for s in shapes.values()) * 8
    if len(payload) != expected:
        raise DataIntegrityError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        size = int(np.prod(shape)) * 8
        arrays[name] = np.frombuffer(
            payload[offset:offset + size], dtype="<f8").reshape(shape).copy()
        offset += size
    return PnnParams(arch=arch, seed=int(manifest["seed"]), arrays=arrays), manifest


def _norm_stats_dict(model: EnsembleModel) -> dict | None:
    ns = model.norm_stats
    if ns is None:
        return None
    return {
        "feature_names": list(ns.feature_names),
        "mean": [float(v) for v in ns.mean],
        "std": [float(v) for v in ns.std],
        "constant_features": list(ns.constant_features),
    }


def ensemble_fingerprint(manifest: dict) -> str:
    """Identity of a trained ensemble: architecture, seeds, member bytes,
    and the preprocessing fingerprint of the data it was trained on."""
    ident = {
        "architecture": manifest["architecture"],
        "base_seed": manifest["base_seed"],
        "member_seeds": manifest["member_seeds"],
        "member_checksums": manifest["member_checksums"],
        "data_fingerprint": manifest["data_fingerprint"],
    }
    blob = json.dumps(ident, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_ensemble_manifest(ckpt_dir: Path | str, model: EnsembleModel,
                            train_cfg: TrainingConfig,
                            config_echo: dict | None = None) -> str:
    """Write ensemble.json describing member files already on disk."""
    ckpt_dir = Path(ckpt_dir)
    checksums = []
    files = []
    for k in range(model.n_members):
        path = member_path(ckpt_dir, k)
        _, manifest = load_member(path)
        if manifest["seed"] != model.member_seeds[k]:
            raise DataIntegrityError(
                f"{path}: seed {manifest['seed']} does not match "
                f"expected member seed {model.member_seeds[k]}")
        checksums.append(manifest["checksum"])
        files.append(str(path.relative_to(ckpt_dir)))
    manifest = {
        "kind": ENSEMBLE_KIND,
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture.to_dict(),
        "n_members": model.n_members,
        "base_seed": model.base_seed,
        "member_seeds": list(model.member_seeds),
        "member_files": files,
        "member_checksums": checksums,
        "data_fingerprint": model.data_fingerprint,
        "norm_stats": _norm_stats_dict(model),
        "preprocess": model.preprocess,
        "train_config": dataclasses.asdict(train_cfg),
        "config": config_echo,
    }
    manifest["fingerprint"] = ensemble_fingerprint(manifest)
    atomic_write(ckpt_dir / "ensemble.json",
                 json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest["fingerprint"]


def load_ensemble(ckpt_dir: Path | str) -> tuple[EnsembleModel, dict]:
    """Read and verify an ensemble checkpoint -> (model, manifest)."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / "ensemble.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no ensemble manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("kind") != ENSEMBLE_KIND:
        raise DataIntegrityError(f"{manifest_path}: not an ensemble manifest")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataIntegrityError(
            f"{manifest_path}: format version {manifest.get('format_version')}, "
            f"expected {FORMAT_VERSION}")
    arch = Architecture.from_dict(manifest["architecture"])
    members = []
    for k, rel in enumerate(manifest["member_files"]):
        params, m_manifest = load_member(ckpt_dir / rel)
        if m_manifest["checksum"] != manifest["member_checksums"][k]:
            raise DataIntegrityError(
                f"{ckpt_dir / rel}: checksum differs from the ensemble manifest")
        members.append(params)
    norm_stats = None
    if manifest.get("norm_stats") is not None:
        from .cmapss import NormStats
        ns = manifest["norm_stats"]
        norm_stats = NormStats(
            mean=np.array(ns["mean"], dtype=np.float64),
            std=np.array(ns["std"], dtype=np.float64),
            feature_names=tuple(ns["feature_names"]),
            constant_features=tuple(ns["constant_features"]))
    model = EnsembleModel(
        architecture=arch,
        members=members,
        base_seed=int(manifest["base_seed"]),
        member_seeds=tuple(manifest["member_seeds"]),
        norm_stats=norm_stats,
        preprocess=manifest.get("preprocess"),
        data_fingerprint=manifest.get("data_fingerprint"),
    )
    if ensemble_fingerprint(manifest) != manifest["fingerprint"]:
        raise DataIntegrityError(f"{manifest_path}: fingerprint mismatch")
    return model, manifest
