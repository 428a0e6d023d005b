"""Deterministic on-disk formats for members and ensembles.

A member checkpoint is one JSON manifest line, then the member's row of
EnsembleModel.vectors as raw little-endian float64 bytes. An ensemble
checkpoint is ensemble.json plus members/member_NNN.ckpt. Both formats
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
from .cmapss import PREPROCESSING_ENTRIES, Preprocessing
from .config import TrainingConfig
from .ensemble import EnsembleModel
from .errors import INT, INTS, STR, STRS, DataIntegrityError, read_manifest
from .network import Architecture, TrainHistory, numerics

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


def _payload(vector: np.ndarray) -> tuple[bytes, str]:
    """A member file's payload, the vector's bytes, and its checksum."""
    payload = vector.astype("<f8", copy=False).tobytes()
    return payload, hashlib.sha256(payload).hexdigest()


def save_member(path: Path | str, arch: Architecture, seed: int,
                vector: np.ndarray, history: TrainHistory,
                train_cfg: TrainingConfig, data_fingerprint: str) -> None:
    """Write one member checkpoint: a header holding the member's
    provenance (member_provenance) and payload checksum, then vector."""
    payload, checksum = _payload(vector)
    manifest = {
        "kind": MEMBER_KIND,
        "format_version": FORMAT_VERSION,
        **member_provenance(seed, arch, train_cfg, data_fingerprint),
        "param_names": list(arch.param_shapes()),
        "history": dataclasses.asdict(history),
        "checksum": checksum,
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    atomic_write(path, header + b"\n" + payload)


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


def load_member(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read and verify one member checkpoint -> (vector, manifest)."""
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
    return np.frombuffer(payload, dtype="<f8"), manifest


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


def _member_files(n_members: int) -> list[str]:
    """ensemble.json's member_files, the only value it may hold."""
    return [str(member_path("", k)) for k in range(n_members)]


def write_ensemble_manifest(ckpt_dir: Path | str, model: EnsembleModel,
                            train_cfg: TrainingConfig,
                            config_echo: dict) -> str:
    """Write ensemble.json for member files already on disk, each holding
    its row of model.vectors, whose checksum is taken from the row."""
    ckpt_dir = Path(ckpt_dir)
    manifest = {
        "kind": ENSEMBLE_KIND,
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture.to_dict(),
        "n_members": len(model.vectors),
        "base_seed": model.base_seed,
        "member_seeds": list(model.member_seeds),
        "member_files": _member_files(len(model.vectors)),
        "member_checksums": [_payload(row)[1] for row in model.vectors],
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
    n_members = manifest["n_members"]
    if n_members < 1 or len({n_members, *(len(manifest[key]) for key in (
            "member_files", "member_checksums", "member_seeds"))}) != 1:
        raise DataIntegrityError(
            f"{manifest_path}: 'n_members' and the lengths of 'member_files', "
            "'member_checksums' and 'member_seeds' differ or are below 1")
    if manifest["member_files"] != _member_files(n_members):
        raise DataIntegrityError(f"{manifest_path}: 'member_files' must be "
                                 f"{json.dumps(_member_files(n_members))}")
    prep = Preprocessing.from_manifest(manifest, manifest_path)
    arch = _architecture(manifest, manifest_path)
    vectors = None
    for k in range(n_members):
        path = member_path(ckpt_dir, k)
        vector, m_manifest = load_member(path)
        # the architecture before the row: another one's vector would not fit
        for key, want in (("architecture", manifest["architecture"]),
                          ("checksum", manifest["member_checksums"][k]),
                          ("seed", manifest["member_seeds"][k]),
                          ("data_fingerprint", manifest["data_fingerprint"])):
            if m_manifest.get(key) != want:
                raise DataIntegrityError(f"{path}: {key!r} is "
                                         f"{json.dumps(m_manifest.get(key))}, "
                                         f"ensemble.json's {json.dumps(want)}")
        if vectors is None:     # sized by a file, not by ensemble.json alone
            vectors = np.empty((n_members, len(vector)))
        vectors[k] = vector
    model = EnsembleModel(arch, vectors, manifest["member_seeds"],
                          int(manifest["base_seed"]), prep)
    if ensemble_fingerprint(manifest) != manifest["fingerprint"]:
        raise DataIntegrityError(f"{manifest_path}: fingerprint mismatch")
    return model, manifest
