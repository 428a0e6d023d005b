"""On-disk formats: member files, ensemble manifests, integrity checks."""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gradcheck import as_windows, train_members
from rulens.checkpoints import (ensemble_fingerprint, load_ensemble,
                                load_member, member_path, save_member,
                                write_ensemble_manifest)
from rulens.cmapss import (NormStats, Preprocessing, apply_norm, drop_sensors,
                           window_starts)
from rulens.config import TrainingConfig
from rulens.ensemble import (EnsembleModel, dataset_uncertainty_profile,
                             read_out)
from rulens.errors import DataIntegrityError
from rulens.network import TRAINING_BITS, Architecture, init_params, train_pnn
from rulens.synthetic import make_synthetic_units

ARCH = Architecture(2, (3,), (2,))
CFG = TrainingConfig(max_epochs=2, batch_size=8)
FP = "ab" * 32      # a data fingerprint for member headers


def _toy_data(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 5, 2))
    return as_windows(x, x.sum(axis=-1))


@pytest.fixture(scope="module")
def trained():
    [(vector, history)] = train_pnn(ARCH, _toy_data(), CFG, [21])
    return vector, history


@pytest.fixture(scope="module")
def small_ensemble():
    stats = NormStats(mean=np.array([0.0, 1.0]), std=np.array([1.0, 2.0]),
                      feature_names=("setting_1", "sensor_2"),
                      constant_features=("setting_1",))
    vectors, hists = train_members(ARCH, _toy_data(), CFG, n_members=3,
                                   base_seed=100)
    prep = Preprocessing(stats, window_length=5, stride=1, rul_cap=128,
                         dropped_sensors=(1, 5))
    return EnsembleModel(ARCH, vectors, range(100, 103), 100, prep), hists


def save_members(ckpt_dir, model, hists, train_cfg, fingerprints=None):
    """A member file per row of model.vectors, member k's header holding
    fingerprints[k] (default: the model's data fingerprint)."""
    for k, (seed, vector) in enumerate(zip(model.member_seeds,
                                           model.vectors)):
        save_member(member_path(ckpt_dir, k), model.architecture, seed,
                    vector, hists[k], train_cfg,
                    (fingerprints or {}).get(k, model.prep.fingerprint))


def save_ensemble(ckpt_dir, model, hists, train_cfg, config_echo=None):
    """Member files, then the manifest: the order the train command uses."""
    save_members(ckpt_dir, model, hists, train_cfg)
    return write_ensemble_manifest(ckpt_dir, model, train_cfg, config_echo)


class TestMemberRoundTrip:
    def test_params_bit_exact(self, trained, tmp_path):
        vector, history = trained
        path = tmp_path / "m.ckpt"
        save_member(path, ARCH, 21, vector, history, CFG, FP)
        loaded, manifest = load_member(path)
        assert manifest["seed"] == 21
        assert Architecture.from_dict(manifest["architecture"]) == ARCH
        assert loaded.tobytes() == vector.tobytes()
        assert manifest["checksum"] == \
            hashlib.sha256(vector.tobytes()).hexdigest()
        assert manifest["history"]["stop_reason"] == history.stop_reason
        assert manifest["history"]["epoch_losses"] == list(history.epoch_losses)
        assert manifest["train_config"]["max_epochs"] == CFG.max_epochs
        assert manifest["data_fingerprint"] == FP

    def test_payload_is_the_parameter_vector(self, trained, tmp_path):
        vector, history = trained
        path = tmp_path / "m.ckpt"
        save_member(path, ARCH, 21, vector, history, CFG, FP)
        assert path.read_bytes().split(b"\n", 1)[1] == vector.tobytes()
        loaded, manifest = load_member(path)
        assert np.array_equal(loaded, vector)
        assert manifest["numerics"]["training_bits"] == TRAINING_BITS

    def test_header_records_data_fingerprint(self, trained, tmp_path):
        vector, history = trained
        path = tmp_path / "m.ckpt"
        save_member(path, ARCH, 21, vector, history, CFG, FP)
        _, manifest = load_member(path)
        assert manifest["data_fingerprint"] == FP
        # the header is outside the payload checksum
        save_member(tmp_path / "n.ckpt", ARCH, 21, vector, history, CFG,
                    "cd" * 32)
        _, other = load_member(tmp_path / "n.ckpt")
        assert other["data_fingerprint"] == "cd" * 32
        assert other["checksum"] == manifest["checksum"]

    def test_repeat_saves_byte_identical(self, trained, tmp_path):
        vector, history = trained
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_member(a, ARCH, 21, vector, history, CFG, FP)
        save_member(b, ARCH, 21, vector, history, CFG, FP)
        assert a.read_bytes() == b.read_bytes()

    def test_no_leftover_tmp_file(self, trained, tmp_path):
        vector, history = trained
        save_member(tmp_path / "m.ckpt", ARCH, 21, vector, history, CFG, FP)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestMemberVerification:
    def _saved(self, trained, tmp_path):
        vector, history = trained
        path = tmp_path / "m.ckpt"
        save_member(path, ARCH, 21, vector, history, CFG, FP)
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
        with pytest.raises(DataIntegrityError,
                           match="'kind' is \"something-else\", "
                                 "expected \"pnn-member\""):
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
        with pytest.raises(DataIntegrityError, match="not JSON"):
            load_member(path)
        path.write_bytes(b"no newline at all")
        with pytest.raises(DataIntegrityError, match="not JSON"):
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
        assert loaded.vectors.tobytes() == model.vectors.tobytes()
        assert loaded.vectors.dtype == np.float64
        assert loaded.vectors.flags.c_contiguous
        assert loaded.prep.fingerprint == model.prep.fingerprint
        assert loaded.prep.to_manifest() == model.prep.to_manifest()
        assert np.array_equal(loaded.prep.norm_stats.mean,
                              model.prep.norm_stats.mean)
        assert loaded.prep.norm_stats.feature_names == \
            model.prep.norm_stats.feature_names
        assert loaded.prep.norm_stats.constant_features == \
            model.prep.norm_stats.constant_features

    def test_repeat_saves_byte_identical(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_ensemble(d1, model, hists, CFG)
        save_ensemble(d2, model, hists, CFG)
        assert (d1 / "ensemble.json").read_bytes() == \
            (d2 / "ensemble.json").read_bytes()
        for k in range(len(model.vectors)):
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
        # write member 0's file in every slot, with a manifest whose
        # checksums match those files
        for k in (0, 1, 2):
            save_member(member_path(tmp_path, k), ARCH, model.member_seeds[0],
                        model.vectors[0], hists[0], CFG,
                        model.prep.fingerprint)
        write_ensemble_manifest(tmp_path, replace(
            model, vectors=np.repeat(model.vectors[:1], 3, axis=0)), CFG,
            None)
        with pytest.raises(DataIntegrityError,
                           match="member_001.ckpt: 'seed' is 100, "
                                 "ensemble.json's 101"):
            load_ensemble(tmp_path)

    def test_member_of_another_architecture_detected(self, small_ensemble,
                                                     tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        # compared before the member fills its row, where it would not fit
        other = Architecture(2, (1, 2), (2,))
        save_member(member_path(tmp_path, 1), other, 101,
                    init_params(other, seed=101), hists[1], CFG,
                    model.prep.fingerprint)
        with pytest.raises(DataIntegrityError,
                           match="member_001.ckpt: 'architecture' is"):
            load_ensemble(tmp_path)

    def test_member_of_other_data_detected(self, small_ensemble, tmp_path):
        model, hists = small_ensemble
        save_members(tmp_path, model, hists, CFG, fingerprints={1: FP})
        write_ensemble_manifest(tmp_path, model, CFG, None)
        with pytest.raises(DataIntegrityError,
                           match=f"member_001.ckpt: 'data_fingerprint' is "
                                 f"\"{FP}\""):
            load_ensemble(tmp_path)

    def test_member_count_differs_from_member_files(self, small_ensemble,
                                                    tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        mpath = tmp_path / "ensemble.json"
        manifest = json.loads(mpath.read_text())
        manifest["n_members"] = 2
        mpath.write_text(json.dumps(manifest, sort_keys=True))
        with pytest.raises(DataIntegrityError, match="'n_members' and the "
                                                     "lengths"):
            load_ensemble(tmp_path)

    def test_manifest_needs_one_checksum_per_member(self, small_ensemble,
                                                    tmp_path):
        # one checksum per row of the matrix, taken from the row: the
        # checksum its member file's header holds
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        manifest = json.loads((tmp_path / "ensemble.json").read_text())
        headers = [load_member(member_path(tmp_path, k))[1]["checksum"]
                   for k in range(len(model.vectors))]
        assert manifest["member_checksums"] == headers
        assert len(set(headers)) == len(model.vectors)

    def test_checksum_mismatch_against_manifest(self, small_ensemble,
                                                tmp_path):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        # regenerate member 0 with different parameters but a valid file
        [(other, other_hist)] = train_pnn(ARCH, _toy_data(seed=9), CFG,
                                          [model.member_seeds[0]])
        save_member(member_path(tmp_path, 0), ARCH, model.member_seeds[0],
                    other, other_hist, CFG, model.prep.fingerprint)
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
        with pytest.raises(DataIntegrityError,
                           match="'kind' is \"other\", "
                                 "expected \"pnn-ensemble\""):
            load_ensemble(tmp_path)


class TestPreprocessingEntries:
    """ensemble.json's norm_stats, preprocess and data_fingerprint entries
    must agree: inference re-creates the model's input space from them."""

    def _edited(self, small_ensemble, tmp_path, edit):
        model, hists = small_ensemble
        save_ensemble(tmp_path, model, hists, CFG)
        mpath = tmp_path / "ensemble.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2))

    def test_edited_norm_stats_refused(self, small_ensemble, tmp_path):
        def edit(manifest):
            manifest["norm_stats"]["mean"][1] += 50.0
        self._edited(small_ensemble, tmp_path, edit)
        with pytest.raises(DataIntegrityError,
                           match="ensemble.json: .*data fingerprint"):
            load_ensemble(tmp_path)

    def test_edited_window_length_refused(self, small_ensemble, tmp_path):
        def edit(manifest):
            manifest["preprocess"]["window_length"] = 7
        self._edited(small_ensemble, tmp_path, edit)
        with pytest.raises(DataIntegrityError,
                           match="ensemble.json: .*data fingerprint"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("key, kind", [
        ("norm_stats", "an object"), ("preprocess", "an object"),
        ("data_fingerprint", "a string")],
        ids=["norm_stats", "preprocess", "data_fingerprint"])
    def test_null_entry_refused(self, small_ensemble, tmp_path, key, kind):
        def edit(manifest):
            manifest[key] = None
        self._edited(small_ensemble, tmp_path, edit)
        with pytest.raises(DataIntegrityError,
                           match=f"ensemble.json: '{key}' must be {kind}, "
                                 "got null"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["architecture"].update(recurrent_layers=5),
         "'architecture.recurrent_layers' must be a list, got 5"),
        (lambda m: m["member_seeds"].__setitem__(0, "7"),
         "every item of 'member_seeds' must be an integer"),
        (lambda m: m["norm_stats"].update(constant_features=[1]),
         "every item of 'norm_stats.constant_features' must be a string"),
        (lambda m: m["preprocess"].update(rul_cap="x"),
         "'preprocess.rul_cap' must be an integer, got \"x\""),
        (lambda m: m.update(n_members=0, member_files=[], member_checksums=[],
                            member_seeds=[]),
         "'n_members' and the lengths of 'member_files', 'member_checksums' "
         "and 'member_seeds' differ or are below 1"),
        (lambda m: m["member_files"].__setitem__(0, "../esc_other/m.ckpt"),
         "'member_files' must be [\"members/member_000.ckpt\", "
         "\"members/member_001.ckpt\", \"members/member_002.ckpt\"]"),
    ], ids=["architecture", "member_seeds", "norm_stats", "preprocess",
            "n_members", "member_files"])
    def test_mistyped_inner_entry_refused(self, small_ensemble, tmp_path,
                                          edit, message):
        self._edited(small_ensemble, tmp_path, edit)
        with pytest.raises(DataIntegrityError,
                           match=re.escape(f"ensemble.json: {message}")):
            load_ensemble(tmp_path)


# An ensemble checkpoint written by the code that kept the preprocessing in
# three separate EnsembleModel fields (norm_stats, preprocess,
# data_fingerprint): `rulens ingest` and `rulens train` on a 4-train /
# 2-test-unit synthetic set (seed 3), window length 10, 2 members of one
# 3-cell layer, 1 epoch.
CHECKPOINT_V1 = Path(__file__).parent / "data" / "checkpoint_v1"


class TestCheckpointFromBeforeTheRecord:
    def test_loads_and_rewrites_the_same_bytes(self, tmp_path):
        model, manifest = load_ensemble(CHECKPOINT_V1)
        assert model.prep.fingerprint == manifest["data_fingerprint"]
        assert model.member_seeds == (7, 8)
        write_ensemble_manifest(
            tmp_path, model, TrainingConfig(**manifest["train_config"]),
            manifest["config"])
        assert (tmp_path / "ensemble.json").read_bytes() == \
            (CHECKPOINT_V1 / "ensemble.json").read_bytes()

    def test_inference_bytes_match_the_three_field_chain(self):
        # the old uncertainty command, spelled out: drop the preprocess
        # entry's sensors, normalize with the norm_stats entry, and read
        # each unit's last step, or each window of the preprocess entry's
        # length and stride
        model, manifest = load_ensemble(CHECKPOINT_V1)
        raw = make_synthetic_units(3, seed=11, min_len=12, max_len=30)
        ns, pre = manifest["norm_stats"], manifest["preprocess"]
        stats = NormStats(mean=np.array(ns["mean"], dtype=np.float64),
                          std=np.array(ns["std"], dtype=np.float64),
                          feature_names=tuple(ns["feature_names"]),
                          constant_features=tuple(ns["constant_features"]))
        units = apply_norm(drop_sensors(raw, pre["dropped_sensors"]), stats)
        length = pre["window_length"]
        expected = {
            False: read_out(model, units, [[len(u) - 1] for u in units]),
            True: read_out(model, units, [
                s + length - 1 for s in
                window_starts(units, length, pre["stride"], "test")],
                window=length)}
        for per_window, (ids, cycles, dec) in expected.items():
            got_ids, got_cycles, got = dataset_uncertainty_profile(
                model, model.prep.apply(raw), per_window=per_window)
            assert got_ids.tolist() == ids.tolist()
            assert got_cycles.tolist() == cycles.tolist()
            for field in ("aleatoric", "epistemic", "total", "mean"):
                assert getattr(got, field).tobytes() == \
                    getattr(dec, field).tobytes()
