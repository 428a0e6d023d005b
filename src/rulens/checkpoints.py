"""Deterministic on-disk formats for members and ensembles.

A member checkpoint is a single file: one JSON manifest line, then the
member's parameter vector (network.PnnParams.vector) as raw little-endian
float64 bytes, exactly as it is held in memory. An ensemble
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
from typing import Sequence

import numpy as np

from .atomic import atomic_write
from .cmapss import PREPROCESSING_ENTRIES, Preprocessing
from .config import TrainingConfig
from .ensemble import EnsembleModel
from .errors import INT, INTS, STR, STRS, DataIntegrityError, read_manifest
from .network import Architecture, PnnParams, TrainHistory, numerics

FORMAT_VERSION = 1
MEMBER_KIND = "pnn-member"
ENSEMBLE_KIND = "pnn-ensemble"


def member_path(ckpt_dir: Path | str, k: int) -> Path:
    return Path(ckpt_dir) / "members" / f"member_{k:03d}.ckpt"


def member_provenance(seed: int, arch: Architecture,
                      train_cfg: TrainingConfig,
                      data_fingerprint: str) -> dict:
    """What a member's parameters were trained from: its seed, architecture,
    training config, the archive's data fingerprint and the numerics in
    force (see network.numerics). A member header records it, and a resumed
    run reuses a member only if it is unchanged."""
    return {"seed": seed, "architecture": arch.to_dict(),
            "train_config": dataclasses.asdict(train_cfg),
            "data_fingerprint": data_fingerprint, "numerics": numerics()}


def save_member(path: Path | str, params: PnnParams, history: TrainHistory,
                train_cfg: TrainingConfig, data_fingerprint: str) -> str:
    """Write one member checkpoint; returns the payload checksum. The
    header holds the member's provenance (member_provenance)."""
    payload = params.vector.astype("<f8", copy=False).tobytes()
    checksum = hashlib.sha256(payload).hexdigest()
    manifest = {
        "kind": MEMBER_KIND,
        "format_version": FORMAT_VERSION,
        **member_provenance(params.seed, params.arch, train_cfg,
                            data_fingerprint),
        "param_names": list(params.arch.param_shapes()),
        "history": dataclasses.asdict(history),
        "checksum": checksum,
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    atomic_write(path, header + b"\n" + payload)
    return checksum


# the header entries load_member reads, in errors.check_entries form
_ARCHITECTURE = ((dict,), {"input_dim": INT, "recurrent_layers": INTS,
                           "dense_layers": INTS})
_MEMBER_ENTRIES = {"architecture": _ARCHITECTURE, "param_names": STRS,
                   "seed": INT, "checksum": STR}


def _architecture(manifest: dict, path) -> Architecture:
    try:
        return Architecture.from_dict(manifest["architecture"])
    except ValueError as exc:
        raise DataIntegrityError(f"{path}: 'architecture': {exc}") from None


def load_member(path: Path | str) -> tuple[PnnParams, dict]:
    """Read and verify one member checkpoint -> (params, manifest)."""
    path = Path(path)
    header, _, payload = path.read_bytes().partition(b"\n")
    manifest = read_manifest(path, MEMBER_KIND, FORMAT_VERSION,
                             _MEMBER_ENTRIES, header)
    if hashlib.sha256(payload).hexdigest() != manifest["checksum"]:
        raise DataIntegrityError(f"{path}: checksum mismatch; file corrupted")
    arch = _architecture(manifest, path)
    if list(arch.param_shapes()) != manifest["param_names"]:
        raise DataIntegrityError(f"{path}: parameter names do not match "
                                 "the declared architecture")
    expected = arch.n_params() * 8
    if len(payload) != expected:
        raise DataIntegrityError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    vector = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return PnnParams(arch=arch, seed=int(manifest["seed"]), vector=vector), manifest


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
                            member_checksums: Sequence[str],
                            config_echo: dict) -> str:
    """Write ensemble.json for member files already on disk, given the
    payload checksum of each (as save_member returns it, or as load_member
    read it); the files are not read again."""
    ckpt_dir = Path(ckpt_dir)
    if len(member_checksums) != model.n_members:
        raise ValueError(f"{len(member_checksums)} member checksums for "
                         f"{model.n_members} members")
    files = [str(member_path(ckpt_dir, k).relative_to(ckpt_dir))
             for k in range(model.n_members)]
    manifest = {
        "kind": ENSEMBLE_KIND,
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture.to_dict(),
        "n_members": model.n_members,
        "base_seed": model.base_seed,
        "member_seeds": list(model.member_seeds),
        "member_files": files,
        "member_checksums": list(member_checksums),
        **model.prep.to_manifest(),
        "train_config": dataclasses.asdict(train_cfg),
        "config": config_echo,
    }
    manifest["fingerprint"] = ensemble_fingerprint(manifest)
    atomic_write(ckpt_dir / "ensemble.json",
                 json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest["fingerprint"]


# the ensemble.json entries load_ensemble reads, in errors.check_entries form
_ENSEMBLE_ENTRIES = {
    "architecture": _ARCHITECTURE, "n_members": INT, "base_seed": INT,
    "member_files": STRS, "member_checksums": STRS, "member_seeds": INTS,
    "fingerprint": STR, **PREPROCESSING_ENTRIES,
}


def load_ensemble(ckpt_dir: Path | str) -> tuple[EnsembleModel, dict]:
    """Read and verify an ensemble checkpoint -> (model, manifest)."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / "ensemble.json"
    manifest = read_manifest(manifest_path, ENSEMBLE_KIND, FORMAT_VERSION,
                             _ENSEMBLE_ENTRIES)
    if len({manifest["n_members"], *(len(manifest[key]) for key in (
            "member_files", "member_checksums", "member_seeds"))}) != 1:
        raise DataIntegrityError(
            f"{manifest_path}: 'n_members' and the lengths of 'member_files', "
            "'member_checksums' and 'member_seeds' differ")
    prep = Preprocessing.from_manifest(manifest, manifest_path)
    arch = _architecture(manifest, manifest_path)
    members = []
    for k, rel in enumerate(manifest["member_files"]):
        params, m_manifest = load_member(ckpt_dir / rel)
        for key, want in (("checksum", manifest["member_checksums"][k]),
                          ("seed", manifest["member_seeds"][k]),
                          ("architecture", manifest["architecture"]),
                          ("data_fingerprint", manifest["data_fingerprint"])):
            if m_manifest.get(key) != want:
                raise DataIntegrityError(f"{ckpt_dir / rel}: {key!r} is "
                                         f"{json.dumps(m_manifest.get(key))}, "
                                         f"ensemble.json's {json.dumps(want)}")
        members.append(params)
    model = EnsembleModel(architecture=arch, members=members,
                          base_seed=int(manifest["base_seed"]), prep=prep)
    if ensemble_fingerprint(manifest) != manifest["fingerprint"]:
        raise DataIntegrityError(f"{manifest_path}: fingerprint mismatch")
    return model, manifest
