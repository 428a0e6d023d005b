"""On-disk formats: member files, ensemble manifests, integrity checks."""

import json

import numpy as np
import pytest

from rulens.checkpoints import (ensemble_fingerprint, load_ensemble,
                                load_member, member_path, save_member,
                                write_ensemble_manifest)
from rulens.cmapss import NormStats
from rulens.config import TrainingConfig
from rulens.ensemble import train_ensemble
from rulens.errors import DataIntegrityError
from rulens.network import Architecture, train_pnn

ARCH = Architecture(2, (3,), (2,))
CFG = TrainingConfig(max_epochs=2, batch_size=8)


def _toy_data(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 5, 2))
    return x, x.sum(axis=-1)


@pytest.fixture(scope="module")
def trained():
    params, history = train_pnn(ARCH, _toy_data(), CFG, seed=21)
    return params, history


@pytest.fixture(scope="module")
def small_ensemble():
    stats = NormStats(mean=np.array([0.0, 1.0]), std=np.array([1.0, 2.0]),
                      feature_names=("setting_1", "sensor_2"),
                      constant_features=("setting_1",))
    model, hists = train_ensemble(
        ARCH, _toy_data(), CFG, n_members=3, base_seed=100,
        norm_stats=stats,
        preprocess={"window_length": 5, "stride": 1, "rul_cap": 128,
                    "dropped_sensors": [1, 5]},
        data_fingerprint="cafe" * 16)
    return model, hists


def save_ensemble(ckpt_dir, model, hists, train_cfg, config_echo=None):
    """Member files, then the manifest: the order the train command uses."""
    for k, (params, history) in enumerate(zip(model.members, hists)):
        save_member(member_path(ckpt_dir, k), params, history, train_cfg,
                    model.data_fingerprint)
    return write_ensemble_manifest(ckpt_dir, model, train_cfg, config_echo)


class TestMemberRoundTrip:
    def test_params_bit_exact(self, trained, tmp_path):
        params, history = trained
        path = tmp_path / "m.ckpt"
        checksum = save_member(path, params, history, CFG)
        loaded, manifest = load_member(path)
        assert loaded.seed == params.seed
        assert loaded.arch == params.arch
        assert all(np.array_equal(loaded.arrays[k], params.arrays[k])
                   for k in params.arrays)
        assert manifest["checksum"] == checksum
        assert manifest["history"]["stop_reason"] == history.stop_reason
        assert manifest["history"]["epoch_losses"] == list(history.epoch_losses)
        assert manifest["train_config"]["max_epochs"] == CFG.max_epochs
        assert manifest["data_fingerprint"] is None

    def test_header_records_data_fingerprint(self, trained, tmp_path):
        params, history = trained
        path = tmp_path / "m.ckpt"
        checksum = save_member(path, params, history, CFG, "ab" * 32)
        _, manifest = load_member(path)
        assert manifest["data_fingerprint"] == "ab" * 32
        # the header is outside the payload checksum
        assert checksum == save_member(tmp_path / "n.ckpt", params, history,
                                       CFG)

    def test_repeat_saves_byte_identical(self, trained, tmp_path):
        params, history = trained
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_member(a, params, history, CFG)
        save_member(b, params, history, CFG)
        assert a.read_bytes() == b.read_bytes()

    def test_no_leftover_tmp_file(self, trained, tmp_path):
        params, history = trained
        save_member(tmp_path / "m.ckpt", params, history, CFG)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestMemberVerification:
    def _saved(self, trained, tmp_path):
        params, history = trained
        path = tmp_path / "m.ckpt"
        save_member(path, params, history, CFG)
        return path

    def test_payload_tamper_detected(self, trained, tmp_path):
        path = self._saved(trained, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataIntegrityError, match="checksum"):
            load_member(path)

    def test_truncation_detected(self, trained, tmp_path):
        path = self._saved(trained, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataIntegrityError):
            load_member(path)

    def test_short_payload_with_fixed_checksum_detected(self, trained,
                                                        tmp_path):
        # re-stamp the checksum so only the byte-count check can catch it
        import hashlib
        path = self._saved(trained, tmp_path)
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        manifest = json.loads(blob[:nl])
        payload = blob[nl + 1:-8]
        manifest["checksum"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode()
                         + b"\n" + payload)
        with pytest.raises(DataIntegrityError, match="bytes"):
            load_member(path)

    def test_wrong_kind_rejected(self, trained, tmp_path):
        path = self._saved(trained, tmp_path)
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        manifest = json.loads(blob[:nl])
        manifest["kind"] = "something-else"
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode()
                         + blob[nl:])
        with pytest.raises(DataIntegrityError, match="not a member"):
            load_member(path)

    def test_unknown_format_version_rejected(self, trained, tmp_path):
        path = self._saved(trained, tmp_path)
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        manifest = json.loads(blob[:nl])
        manifest["format_version"] = 99
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode()
                         + blob[nl:])
        with pytest.raises(DataIntegrityError, match="version"):
            load_member(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not json\n\x00\x01")
        with pytest.raises(DataIntegrityError, match="bad manifest"):
            load_member(path)
        path.write_bytes(b"no newline at all")
        with pytest.raises(DataIntegrityError, match="manifest"):
            load_member(path)


class TestEnsembleCheckpoint:
    def test_round_trip(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        fp = save_ensemble(tmp_path, model, hists, CFG,
                           config_echo={"preset": None})
        loaded, manifest = load_ensemble(tmp_path)
        assert manifest["fingerprint"] == fp
        assert loaded.base_seed == model.base_seed
        assert loaded.member_seeds == model.member_seeds
        assert loaded.architecture == model.architecture
        for a, b in zip(loaded.members, model.members):
            assert all(np.array_equal(a.arrays[k], b.arrays[k])
                       for k in a.arrays)
        assert loaded.preprocess == model.preprocess
        assert loaded.data_fingerprint == model.data_fingerprint
        assert np.array_equal(loaded.norm_stats.mean, model.norm_stats.mean)
        assert loaded.norm_stats.feature_names == \
            model.norm_stats.feature_names
        assert loaded.norm_stats.constant_features == \
            model.norm_stats.constant_features

    def test_repeat_saves_byte_identical(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_ensemble(d1, model, hists, CFG)
        save_ensemble(d2, model, hists, CFG)
        assert (d1 / "ensemble.json").read_bytes() == \
            (d2 / "ensemble.json").read_bytes()
        for k in range(model.n_members):
            assert member_path(d1, k).read_bytes() == \
                member_path(d2, k).read_bytes()

    def test_fingerprint_tracks_identity_fields(self, small_ensemble):
        model, _ = small_ensemble
        base = {
            "architecture": model.architecture.to_dict(),
            "base_seed": model.base_seed,
            "member_seeds": list(model.member_seeds),
            "member_checksums": ["aa", "bb", "cc"],
            "data_fingerprint": "d" * 64,
        }
        fp = ensemble_fingerprint(base)
        assert fp == ensemble_fingerprint(dict(base, extra_key="ignored"))
        assert fp != ensemble_fingerprint(dict(base, base_seed=999))
        assert fp != ensemble_fingerprint(
            dict(base, member_checksums=["aa", "bb", "ff"]))
        assert fp != ensemble_fingerprint(dict(base, data_fingerprint="e" * 64))

    def test_member_seed_mismatch_detected(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        # write member 0's file in member 1's slot
        for k in (0, 1, 2):
            save_member(member_path(tmp_path, k), model.members[0], hists[0],
                        CFG)
        with pytest.raises(DataIntegrityError, match="seed"):
            write_ensemble_manifest(tmp_path, model, CFG)

    def test_checksum_mismatch_against_manifest(self, small_ensemble,
                                                tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        # regenerate member 0 with different parameters but a valid file
        other, other_hist = train_pnn(ARCH, _toy_data(seed=9), CFG,
                                      seed=model.member_seeds[0])
        save_member(member_path(tmp_path, 0), other, other_hist, CFG)
        with pytest.raises(DataIntegrityError, match="checksum"):
            load_ensemble(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ensemble(tmp_path)

    def test_tampered_fingerprint_detected(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        mpath = tmp_path / "ensemble.json"
        manifest = json.loads(mpath.read_text())
        manifest["fingerprint"] = "0" * 64
        mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        with pytest.raises(DataIntegrityError, match="fingerprint"):
            load_ensemble(tmp_path)

    def test_wrong_manifest_kind(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        mpath = tmp_path / "ensemble.json"
        manifest = json.loads(mpath.read_text())
        manifest["kind"] = "other"
        mpath.write_text(json.dumps(manifest, sort_keys=True))
        with pytest.raises(DataIntegrityError, match="not an ensemble"):
            load_ensemble(tmp_path)
