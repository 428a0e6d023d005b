"""End-to-end command-line behavior on a small synthetic run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import run_cli
from rulens.checkpoints import load_member, member_path
from rulens.cmapss import load_archive, parse_cmapss
from rulens.config import load_config
from rulens.network import Architecture, train_pnn
from rulens.synthetic import write_synthetic_dataset


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _tsv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split("\t") for ln in lines]


def _unit_ids(archive: Path, split: str) -> list[int]:
    with np.load(archive / "arrays.npz") as arrays:
        return [int(u) for u in arrays[f"{split}_ids"]]


class TestIngest:
    def test_writes_archive(self, trained_run):
        archive = trained_run["archive"]
        assert (archive / "manifest.json").is_file()
        assert (archive / "arrays.npz").is_file()
        manifest = _read_json(archive / "manifest.json")
        assert manifest["kind"] == "rulens-dataset"
        assert manifest["window_length"] == 30
        assert manifest["n_train_units"] == 10
        assert manifest["n_test_units"] == 6
        assert len(manifest["fingerprint"]) == 64

    def test_refuses_overwrite_without_force(self, trained_run, capsys):
        assert run_cli("ingest", "--config", trained_run["config"]) == 2
        assert "force" in capsys.readouterr().err

    def test_force_overwrites_reproducibly(self, trained_run):
        archive = trained_run["archive"]
        before = (archive / "manifest.json").read_bytes()
        assert run_cli("ingest", "--config", trained_run["config"],
                       "--force") == 0
        assert (archive / "manifest.json").read_bytes() == before

    def test_missing_data_file_is_user_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({
            "data": {"train_file": str(tmp_path / "absent.txt"),
                     "test_file": str(tmp_path / "absent.txt")},
            "output_dir": str(tmp_path / "run")}))
        assert run_cli("ingest", "--config", cfg) == 2
        assert "not found" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_layout(self, trained_run):
        ckpt = trained_run["checkpoint"]
        assert (ckpt / "ensemble.json").is_file()
        members = sorted((ckpt / "members").glob("member_*.ckpt"))
        assert [p.name for p in members] == \
            ["member_000.ckpt", "member_001.ckpt", "member_002.ckpt"]
        manifest = _read_json(ckpt / "ensemble.json")
        assert manifest["member_seeds"] == [237, 238, 239]
        assert manifest["config"]["ensemble"]["members"] == 3

    def test_refuses_overwrite_without_force(self, trained_run, capsys):
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"]) == 2
        assert "--force" in capsys.readouterr().err

    def test_force_retrain_is_bit_identical(self, trained_run, tmp_path):
        ckpt = trained_run["checkpoint"]
        keep = tmp_path / "keep"
        shutil.copytree(ckpt, keep)
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"], "--force") == 0
        assert (ckpt / "ensemble.json").read_bytes() == \
            (keep / "ensemble.json").read_bytes()
        for name in ("member_000.ckpt", "member_001.ckpt", "member_002.ckpt"):
            assert (ckpt / "members" / name).read_bytes() == \
                (keep / "members" / name).read_bytes()

    def test_resume_reuses_finished_members(self, trained_run, tmp_path,
                                            capsys):
        ckpt = trained_run["checkpoint"]
        keep = tmp_path / "keep"
        shutil.copytree(ckpt, keep)
        (ckpt / "ensemble.json").unlink()
        (ckpt / "members" / "member_001.ckpt").unlink()
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"], "--resume") == 0
        out = capsys.readouterr().out
        assert "member 0: reusing finished checkpoint" in out
        assert "member 2: reusing finished checkpoint" in out
        for name in ("ensemble.json",):
            assert (ckpt / name).read_bytes() == (keep / name).read_bytes()
        for name in ("member_000.ckpt", "member_001.ckpt", "member_002.ckpt"):
            assert (ckpt / "members" / name).read_bytes() == \
                (keep / "members" / name).read_bytes()

    def test_member_count_flag_overrides_config(self, trained_run, tmp_path):
        out = tmp_path / "two"
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"],
                       "--out", out, "--members", "2") == 0
        manifest = _read_json(out / "ensemble.json")
        assert manifest["n_members"] == 2
        assert manifest["member_seeds"] == [237, 238]

    def test_member_files_match_train_pnn_alone(self, trained_run):
        # results do not depend on the execution layout: member k's payload
        # is what train_pnn gives for seed base_seed + k on its own, over
        # the archive's windows stacked into plain arrays
        config = load_config(trained_run["config"])
        split, _ = load_archive(trained_run["archive"])
        every = np.arange(len(split.train_windows))
        data = (split.train_windows.inputs[every],
                split.train_windows.targets[every])
        arch = Architecture(len(split.norm_stats.feature_names),
                            config.architecture.recurrent_layers,
                            config.architecture.dense_layers)
        for k in range(config.ensemble.members):
            solo, history = train_pnn(arch, data, config.training,
                                      config.ensemble.base_seed + k)
            payload = b"".join(solo.arrays[name].astype("<f8").tobytes()
                               for name in arch.param_shapes())
            path = member_path(trained_run["checkpoint"], k)
            assert path.read_bytes().split(b"\n", 1)[1] == payload
            _, manifest = load_member(path)
            assert manifest["history"]["epoch_losses"] == history.epoch_losses

    @pytest.mark.parametrize("change", ["max_epochs", "rul_cap"])
    def test_resume_retrains_members_from_other_settings(
            self, trained_run, tmp_path, capsys, caplog, change):
        # a finished member is reused only if seed, architecture, training
        # config and the archive's data fingerprint all still match
        cfg = yaml.safe_load(Path(trained_run["config"]).read_text())
        archive = trained_run["archive"]
        if change == "max_epochs":
            cfg["training"]["max_epochs"] += 1
        else:
            cfg["preprocessing"]["rul_cap"] += 10
        config = tmp_path / "changed.yaml"
        config.write_text(yaml.safe_dump(cfg))
        if change == "rul_cap":
            archive = tmp_path / "archive"
            assert run_cli("ingest", "--config", config, "--out", archive) == 0
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run["checkpoint"], ckpt)
        capsys.readouterr()
        assert run_cli("train", "--config", config, "--archive", archive,
                       "--out", ckpt, "--resume") == 0
        assert "reusing" not in capsys.readouterr().out
        assert caplog.text.count("retraining") == 3
        fingerprint = _read_json(archive / "manifest.json")["fingerprint"]
        for k in range(3):
            _, manifest = load_member(member_path(ckpt, k))
            assert manifest["data_fingerprint"] == fingerprint
            assert manifest["train_config"]["max_epochs"] == \
                cfg["training"]["max_epochs"]
        assert _read_json(ckpt / "ensemble.json")["data_fingerprint"] == \
            fingerprint

    def test_resume_retrains_member_without_data_fingerprint(
            self, trained_run, tmp_path, capsys, caplog):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run["checkpoint"], ckpt)
        member = member_path(ckpt, 1)
        keep = member.read_bytes()
        header, payload = keep.split(b"\n", 1)
        manifest = json.loads(header)
        del manifest["data_fingerprint"]
        member.write_bytes(json.dumps(manifest, sort_keys=True).encode()
                           + b"\n" + payload)
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"],
                       "--out", ckpt, "--resume") == 0
        out = capsys.readouterr().out
        assert "member 0: reusing" in out and "member 2: reusing" in out
        assert "member 1: reusing" not in out
        assert "member 1: checkpoint differs in data_fingerprint" in caplog.text
        assert member.read_bytes() == keep

    def test_missing_archive_is_user_error(self, trained_run, tmp_path,
                                           capsys):
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", tmp_path / "nowhere",
                       "--out", tmp_path / "ck") == 2

    @pytest.mark.parametrize("field", ["batch_size", "max_epochs"])
    def test_zero_training_setting_is_named_user_error(
            self, trained_run, tmp_path, capsys, field):
        cfg = yaml.safe_load(Path(trained_run["config"]).read_text())
        cfg["training"][field] = 0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "ck"
        assert run_cli("train", "--config", path,
                       "--archive", trained_run["archive"],
                       "--out", out) == 2
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="session")
def evaluated_run(trained_run) -> dict[str, Path]:
    reports = trained_run["run_dir"] / "reports"
    code = run_cli("evaluate", "--config", trained_run["config"],
                   "--checkpoint", trained_run["checkpoint"],
                   "--archive", trained_run["archive"], "--per-unit")
    assert code == 0
    return dict(trained_run, reports=reports)


class TestEvaluate:
    def test_report_files(self, evaluated_run):
        reports = evaluated_run["reports"]
        text = (reports / "report.txt").read_text()
        assert text.startswith("rmse = ")
        assert "picp = " in text and "n_members = 3" in text
        payload = _read_json(reports / "report.json")
        assert payload["kind"] == "rulens-evaluation"
        assert set(payload["metrics"]) == {"rmse", "score", "picp", "nmpiw",
                                           "n", "alpha", "score_convention"}
        assert payload["metrics"]["n"] == 6
        assert payload["metrics"]["score_convention"] == "paper"
        assert payload["config"]["preprocessing"]["window_length"] == 30
        assert len(payload["checkpoint_fingerprint"]) == 64

    def test_per_unit_table(self, evaluated_run):
        rows = _tsv_rows(evaluated_run["reports"] / "per_unit.tsv")
        header, body = rows[0], rows[1:]
        assert header == ["unit", "cycle", "true_rul", "mean", "sigma",
                          "lower", "upper", "covered", "u_al", "u_ep", "u_tot"]
        assert len(body) == 6
        for r in body:
            assert float(r[5]) <= float(r[3]) <= float(r[6])

    def test_repeat_evaluation_byte_identical(self, evaluated_run, tmp_path):
        out = tmp_path / "again"
        assert run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", evaluated_run["checkpoint"],
                       "--archive", evaluated_run["archive"],
                       "--out", out, "--per-unit") == 0
        reports = evaluated_run["reports"]
        for name in ("report.txt", "report.json", "per_unit.tsv"):
            assert (out / name).read_bytes() == (reports / name).read_bytes()

    def test_mismatched_archive_refused(self, evaluated_run, tmp_path,
                                        capsys):
        # same data, different preprocessing -> different fingerprint
        other = tmp_path / "other_archive"
        assert run_cli("ingest", "--config", evaluated_run["config"],
                       "--out", other) == 0
        manifest_path = other / "manifest.json"
        manifest = _read_json(manifest_path)
        manifest["fingerprint"] = "f" * 64
        manifest_path.write_text(json.dumps(manifest, sort_keys=True,
                                            indent=2))
        code = run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", evaluated_run["checkpoint"],
                       "--archive", other, "--out", tmp_path / "r")
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_missing_checkpoint_is_user_error(self, evaluated_run, tmp_path):
        assert run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", tmp_path / "nowhere",
                       "--archive", evaluated_run["archive"],
                       "--out", tmp_path / "r") == 2


@pytest.fixture(scope="session")
def ood_test_file(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("oodsynth")
    paths = write_synthetic_dataset(root, n_train_units=4, n_test_units=6,
                                    seed=77, min_len=60, max_len=90,
                                    regime_shift=2.5, stem="ood")
    return paths["test"]


class TestUncertainty:
    def test_single_dataset_outputs(self, trained_run, tmp_path, capsys):
        out = tmp_path / "unc"
        synth_test = yaml.safe_load(
            trained_run["config"].read_text())["data"]["test_file"]
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", f"indist={synth_test}", "--out", out) == 0
        assert (out / "indist_uncertainty.tsv").is_file()
        assert (out / "indist_aleatoric_density.tsv").is_file()
        assert (out / "indist_epistemic_density.tsv").is_file()
        rows = _tsv_rows(out / "indist_uncertainty.tsv")
        assert rows[0] == ["unit", "end_cycle", "u_al", "u_ep", "u_tot"]
        assert len(rows) - 1 == 6
        payload = _read_json(out / "summary.json")
        assert payload["kind"] == "rulens-uncertainty"
        assert "epistemic_ordering" not in payload
        assert payload["datasets"]["indist"]["n"] == 6
        assert "mean u_ep" in capsys.readouterr().out

    def test_two_datasets_report_ordering(self, trained_run, ood_test_file,
                                          tmp_path, capsys):
        out = tmp_path / "unc2"
        synth_test = yaml.safe_load(
            trained_run["config"].read_text())["data"]["test_file"]
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", f"indist={synth_test}",
                       "--test", f"shifted={ood_test_file}",
                       "--out", out) == 0
        payload = _read_json(out / "summary.json")
        assert sorted(payload["datasets"]) == ["indist", "shifted"]
        assert sorted(payload["epistemic_ordering"]) == ["indist", "shifted"]
        gaps = payload["epistemic_gaps_vs_lowest"]
        lowest = payload["epistemic_ordering"][-1]
        assert gaps[lowest] == 0.0
        assert "epistemic ordering:" in capsys.readouterr().out

    def test_per_window_gives_more_readings(self, trained_run, tmp_path):
        out = tmp_path / "uncw"
        synth_test = yaml.safe_load(
            trained_run["config"].read_text())["data"]["test_file"]
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", f"indist={synth_test}",
                       "--per-window", "--out", out) == 0
        payload = _read_json(out / "summary.json")
        assert payload["per_window"] is True
        assert payload["datasets"]["indist"]["n"] > 6

    def test_bad_test_spec_is_user_error(self, trained_run, tmp_path, capsys):
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", "no-equals-sign",
                       "--out", tmp_path / "u") == 2
        assert "NAME=PATH" in capsys.readouterr().err


class TestPredict:
    def test_trace_for_test_unit(self, trained_run, tmp_path, capsys):
        out = tmp_path / "traces"
        unit_id = _unit_ids(trained_run["archive"], "test")[0]
        assert run_cli("predict", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--archive", trained_run["archive"],
                       "--unit", str(unit_id), "--out", out) == 0
        trace = out / f"test_unit_{unit_id}.tsv"
        rows = _tsv_rows(trace)
        assert rows[0] == ["step", "target", "mean", "sigma", "lower", "upper"]
        for r in rows[1:]:
            assert float(r[4]) <= float(r[2]) <= float(r[5])
        # per-step targets decrease by one cycle per step
        targets = [float(r[1]) for r in rows[1:]]
        uncapped = [t for t in targets if t < 50.0]
        assert all(a - b == 1.0 for a, b in zip(uncapped, uncapped[1:]))
        assert "last step" in capsys.readouterr().out

    def test_train_split_trace(self, trained_run, tmp_path):
        out = tmp_path / "traces"
        unit_id = _unit_ids(trained_run["archive"], "train")[0]
        assert run_cli("predict", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--archive", trained_run["archive"],
                       "--unit", str(unit_id), "--split", "train",
                       "--out", out) == 0
        rows = _tsv_rows(out / f"train_unit_{unit_id}.tsv")
        # a train unit runs to failure: the last target is exactly 0
        assert float(rows[-1][1]) == 0.0

    def test_repeat_trace_byte_identical(self, trained_run, tmp_path):
        unit_id = _unit_ids(trained_run["archive"], "test")[1]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("predict", "--config", trained_run["config"],
                           "--checkpoint", trained_run["checkpoint"],
                           "--archive", trained_run["archive"],
                           "--unit", str(unit_id), "--out", out) == 0
            outs.append((out / f"test_unit_{unit_id}.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_unit_lists_available(self, trained_run, tmp_path,
                                          capsys):
        assert run_cli("predict", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--archive", trained_run["archive"],
                       "--unit", "9999", "--out", tmp_path / "t") == 2
        err = capsys.readouterr().err
        assert "9999" in err and "available ids" in err


class TestShortTrainUnit:
    def test_only_ingest_and_train_warn_about_skipped_units(self, tmp_path,
                                                            caplog):
        # training windows are built where they are used, so evaluate and
        # predict neither build them nor repeat the short-unit warning
        data = write_synthetic_dataset(tmp_path / "data", n_train_units=4,
                                       n_test_units=3, seed=10, min_len=20,
                                       max_len=60)
        assert min(len(u) for u in parse_cmapss(data["train"])) < 30
        cfg_path = tmp_path / "short.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "data": {"train_file": str(data["train"]),
                     "test_file": str(data["test"]),
                     "rul_file": str(data["rul"])},
            "preprocessing": {"window_length": 30, "rul_cap": 50},
            "architecture": {"recurrent_layers": [4], "dense_layers": [2]},
            "training": {"max_epochs": 1},
            "ensemble": {"members": 1, "base_seed": 1},
            "output_dir": str(tmp_path / "run")}))
        archive = tmp_path / "run" / "archive"
        checkpoint = tmp_path / "run" / "checkpoint"
        warning = "skipping train unit"
        with caplog.at_level("WARNING"):
            assert run_cli("ingest", "--config", cfg_path) == 0
            assert warning in caplog.text
            caplog.clear()
            assert run_cli("train", "--config", cfg_path,
                           "--archive", archive) == 0
            assert warning in caplog.text
            caplog.clear()
            assert run_cli("evaluate", "--config", cfg_path,
                           "--checkpoint", checkpoint, "--archive", archive,
                           "--per-unit") == 0
            unit_id = _unit_ids(archive, "test")[0]
            assert run_cli("predict", "--config", cfg_path,
                           "--checkpoint", checkpoint, "--archive", archive,
                           "--unit", str(unit_id),
                           "--out", tmp_path / "traces") == 0
        assert warning not in caplog.text


class TestNoRulWorkflow:
    def test_evaluate_requires_true_rul(self, synth_dataset, tmp_path,
                                        capsys):
        cfg_path = tmp_path / "norul.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "data": {"train_file": str(synth_dataset["train"]),
                     "test_file": str(synth_dataset["test"])},
            "preprocessing": {"window_length": 30, "rul_cap": 50},
            "architecture": {"recurrent_layers": [4], "dense_layers": [2]},
            "training": {"max_epochs": 1},
            "ensemble": {"members": 1, "base_seed": 1},
            "output_dir": str(tmp_path / "run")}))
        archive = tmp_path / "run" / "archive"
        assert run_cli("ingest", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path,
                       "--archive", archive) == 0
        code = run_cli("evaluate", "--config", cfg_path,
                       "--checkpoint", tmp_path / "run" / "checkpoint",
                       "--archive", archive)
        assert code == 2
        assert "RUL" in capsys.readouterr().err


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        # a fresh interpreter, since this test process has scipy loaded
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, rulens.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
