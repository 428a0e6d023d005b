"""End-to-end command-line behavior on a small synthetic run."""

import json
import multiprocessing
import os
import runpy
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import run_cli
from gradcheck import as_windows, gather
from rulens import checkpoints, cli, ensemble
from rulens.checkpoints import load_member, member_path
from rulens.cmapss import build_windows, load_archive, parse_cmapss
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


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**blas: str) -> dict[str, str]:
    """This process's environment for a fresh interpreter, with src/
    importable and the BLAS thread variables only as given: this process
    imported rulens.cli, which may have set one of them."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = Path(__file__).resolve().parent.parent / "src"
    return {**env, **blas, "PYTHONPATH": str(src)}


class TestIngest:
    def test_writes_archive(self, trained_run):
        archive = trained_run["archive"]
        assert (archive / "manifest.json").is_file()
        assert (archive / "arrays.npz").is_file()
        manifest = _read_json(archive / "manifest.json")
        assert manifest["kind"] == "rulens-dataset"
        assert manifest["format_version"] == 2
        assert manifest["preprocess"]["window_length"] == 30
        assert manifest["n_train_units"] == 10
        assert manifest["n_test_units"] == 6
        assert len(manifest["data_fingerprint"]) == 64
        assert len(manifest["arrays_checksum"]) == 64

    def test_refuses_overwrite_without_force(self, trained_run, capsys):
        assert run_cli("ingest", "--config", trained_run["config"]) == 2
        assert "force" in capsys.readouterr().err

    def test_force_overwrites_reproducibly(self, trained_run):
        archive = trained_run["archive"]
        before = (archive / "manifest.json").read_bytes()
        assert run_cli("ingest", "--config", trained_run["config"],
                       "--force") == 0
        assert (archive / "manifest.json").read_bytes() == before

    def test_config_value_of_wrong_type_is_named_user_error(
            self, trained_run, tmp_path, capsys):
        cfg = yaml.safe_load(Path(trained_run["config"]).read_text())
        cfg["preprocessing"]["dropped_sensors"] = 5
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("ingest", "--config", path,
                       "--out", tmp_path / "arc") == 2
        assert "dropped_sensors" in capsys.readouterr().err

    @pytest.mark.parametrize("key, layers", [
        ("recurrent_layers", []), ("recurrent_layers", [0, 4]),
        ("recurrent_layers", [8, -1]), ("dense_layers", [0, 2])])
    def test_bad_architecture_is_named_user_error(
            self, trained_run, tmp_path, capsys, key, layers):
        cfg = yaml.safe_load(Path(trained_run["config"]).read_text())
        cfg["architecture"][key] = layers
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("ingest", "--config", path,
                       "--out", tmp_path / "arc") == 2
        assert f"architecture.{key}" in capsys.readouterr().err
        assert not (tmp_path / "arc").exists()

    def test_unit_id_float64_cannot_hold_is_user_error(
            self, trained_run, tmp_path, capsys):
        cfg = yaml.safe_load(Path(trained_run["config"]).read_text())
        train = Path(cfg["data"]["train_file"]).read_text()
        # a one-cycle unit 1e30 ahead of the valid units
        fields = train.splitlines()[0].split()
        bad = tmp_path / "train.txt"
        bad.write_text(" ".join(["1e30", "1"] + fields[2:]) + "\n" + train)
        cfg["data"]["train_file"] = str(bad)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run_cli("ingest", "--config", path,
                       "--out", tmp_path / "arc") == 2
        assert "line 1: unit id" in capsys.readouterr().err

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
        # every member file is asked for before any member trains
        assert out.index("member 2: reusing") < out.index("member 1: best")
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
        prep = split.prep
        windows, targets = build_windows(split.train_units, prep.window_length,
                                         prep.stride, prep.rul_cap)
        every = np.arange(len(windows))
        data = as_windows(gather(windows, every),
                          gather(windows, every, targets))
        arch = Architecture(len(split.prep.norm_stats.feature_names),
                            config.architecture.recurrent_layers,
                            config.architecture.dense_layers)
        for k in range(config.ensemble.members):
            [(solo, history)] = train_pnn(arch, data, config.training,
                                          [config.ensemble.base_seed + k])
            payload = b"".join(view.astype("<f8").tobytes()
                               for view in arch.unflatten(solo).values())
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
        fingerprint = _read_json(archive / "manifest.json")["data_fingerprint"]
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

    @pytest.mark.parametrize("numerics", [None, {"training_bits": 0}])
    def test_resume_retrains_member_from_other_numerics(
            self, trained_run, tmp_path, capsys, caplog, numerics):
        # a header without numerics, or from code whose training bits
        # differ, does not vouch for the member's bytes
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run["checkpoint"], ckpt)
        member = member_path(ckpt, 1)
        keep = member.read_bytes()
        header, payload = keep.split(b"\n", 1)
        manifest = json.loads(header)
        if numerics is None:
            manifest.pop("numerics", None)
        else:
            manifest["numerics"] = {**manifest.get("numerics", {}), **numerics}
        member.write_bytes(json.dumps(manifest, sort_keys=True).encode()
                           + b"\n" + payload)
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"],
                       "--out", ckpt, "--resume") == 0
        out = capsys.readouterr().out
        assert "member 0: reusing" in out and "member 2: reusing" in out
        assert "member 1: reusing" not in out
        assert "member 1: checkpoint differs in numerics" in caplog.text
        assert member.read_bytes() == keep

    def test_resume_under_other_blas_threads_retrains(self, trained_run,
                                                      tmp_path):
        # the thread count is compared as set, not by the bits it gives
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_run["checkpoint"], ckpt)
        done = subprocess.run(
            [sys.executable, "-m", "rulens.cli", "train", "--config",
             str(trained_run["config"]), "--archive",
             str(trained_run["archive"]), "--out", str(ckpt), "--resume"],
            env=_child_env(OPENBLAS_NUM_THREADS="2"), check=True,
            capture_output=True, text=True)
        assert "reusing" not in done.stdout
        assert done.stderr.count("checkpoint differs in numerics") == 3
        for k in range(3):
            _, manifest = load_member(member_path(ckpt, k))
            assert manifest["numerics"]["blas_threads"] == "2"

    def test_missing_archive_is_user_error(self, trained_run, tmp_path,
                                           capsys):
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", tmp_path / "nowhere",
                       "--out", tmp_path / "ck") == 2

    def test_zero_members_flag_is_named_user_error(self, trained_run,
                                                   tmp_path, capsys):
        out = tmp_path / "ck"
        assert run_cli("train", "--config", trained_run["config"],
                       "--archive", trained_run["archive"],
                       "--out", out, "--members", "0") == 2
        assert "members must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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

    @staticmethod
    def _members_under_blas_settings(tmp_path, n_members):
        """Member files of `train` children with the BLAS thread variables
        unset and with OPENBLAS_NUM_THREADS=1 -> two lists of bytes."""
        # two 108-cycle units: 18 windows of 100, one batch of 32
        data = write_synthetic_dataset(tmp_path / "data", n_train_units=2,
                                       n_test_units=1, seed=7, min_len=108,
                                       max_len=108)
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({
            "data": {"train_file": str(data["train"]),
                     "test_file": str(data["test"])},
            "preprocessing": {"window_length": 100},
            "training": {"max_epochs": 1},
            "ensemble": {"members": n_members},
            "output_dir": str(tmp_path / "run")}))
        archive = tmp_path / "run" / "archive"
        assert run_cli("ingest", "--config", config) == 0
        runs = []
        for name, blas in (("unset", {}),
                           ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "rulens.cli", "train",
                            "--config", str(config), "--archive",
                            str(archive), "--out", str(out)],
                           env=_child_env(**blas), check=True,
                           capture_output=True)
            runs.append([member_path(out, k).read_bytes()
                         for k in range(n_members)])
        return runs

    def test_member_bits_do_not_depend_on_blas_threads(self, tmp_path):
        """A member trained by the CLI with the BLAS thread variables unset
        equals one trained with OPENBLAS_NUM_THREADS=1. With OpenBLAS's
        default thread count the gradients of a batch like this one (18
        windows of 100 steps, layers [32, 16]) differ in their last bits
        between one and two threads. On a 1-core machine both children run
        one thread anyway, so there this test cannot fail."""
        unset, one = self._members_under_blas_settings(tmp_path, 1)
        assert unset == one

    def test_member_bits_do_not_depend_on_blas_threads_in_workers(
            self, tmp_path):
        """The same with 3 members, which train in one forked worker per
        allowed CPU: each worker keeps its parent's one BLAS thread. On a
        1-core machine the members train in the command's own process, and
        both children run one thread, so there this test cannot fail."""
        unset, one = self._members_under_blas_settings(tmp_path, 3)
        assert unset == one

    def test_train_reads_no_member_back(self, trained_run, tmp_path,
                                        monkeypatch):
        # train without --resume loads no member file; the manifest takes
        # each member's checksum from its row of the trained matrix
        calls = []
        real = checkpoints.load_member

        def counting(path):
            calls.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(checkpoints, "load_member", counting)
        monkeypatch.setattr(cli, "load_member", counting)
        out = tmp_path / "ck"
        args = ("train", "--config", trained_run["config"],
                "--archive", trained_run["archive"], "--out", out)
        assert run_cli(*args) == 0
        assert calls == []
        assert (out / "ensemble.json").read_bytes() == \
            (trained_run["checkpoint"] / "ensemble.json").read_bytes()
        # --resume reads each member once, to reuse it
        assert run_cli(*args, "--resume") == 0
        assert calls == ["member_000.ckpt", "member_001.ckpt",
                         "member_002.ckpt"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_one_cpu_writes_the_same_checkpoint(self, trained_run, tmp_path):
        """A `train` child pinned to one CPU, as `taskset -c 0` pins it,
        trains its members one after another in its own process; an
        unpinned one trains them in one worker per allowed CPU. Both write
        the same checkpoint bytes. On a one-CPU machine both children train
        serially, so there this test cannot fail."""
        one_cpu = {min(os.sched_getaffinity(0))}
        files = {}
        for name, pin in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)),
                          ("unpinned", None)):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "rulens.cli", "train",
                            "--config", str(trained_run["config"]),
                            "--archive", str(trained_run["archive"]),
                            "--out", str(out)],
                           env=_child_env(), preexec_fn=pin, check=True,
                           capture_output=True)
            files[name] = {str(p.relative_to(out)): p.read_bytes()
                           for p in out.rglob("*") if p.is_file()}
        assert len(files["pinned"]) == 4
        assert files["pinned"] == files["unpinned"]

    def test_divergence_in_a_worker_exits_1_leaving_no_process(
            self, trained_run, tmp_path):
        # a learning rate of 1e300 overflows the weights in the first steps
        config = _config_with(trained_run["config"], tmp_path,
                              learning_rate=1e300)
        out = tmp_path / "ck"
        proc = _start_train(config, trained_run["archive"], out)
        try:
            _, err = proc.communicate(timeout=120)
            left = _group_alive(proc.pid)
        finally:
            _end_group(proc)
        assert proc.returncode == 1
        assert "numeric failure: member 0 (seed 237) diverged" in err
        assert not left
        assert not (out / "ensemble.json").exists()

    def test_ctrl_c_stops_every_worker(self, trained_run, tmp_path):
        """SIGINT to the process group of a running `train`, as a
        terminal's Ctrl-C sends it, ends the command and every worker and
        writes no ensemble.json."""
        config = _config_with(trained_run["config"], tmp_path,
                              max_epochs=100000, early_stop_start=100000)
        out = tmp_path / "ck"
        proc = _start_train(config, trained_run["archive"], out)
        try:
            assert proc.stdout.readline().startswith("training 3 members")
            workers = ensemble._worker_count(3)     # 3 members
            deadline = time.monotonic() + 30
            while (workers > 1 and len(_children(proc.pid)) < workers
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            time.sleep(0.5)     # well into the first members' training
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=60)
            left = _group_alive(proc.pid)
        finally:
            _end_group(proc)
        assert proc.returncode == -signal.SIGINT
        assert not left
        assert not (out / "ensemble.json").exists()

    @pytest.mark.parametrize("failure", [OSError("no space left on device"),
                                         KeyboardInterrupt()])
    def test_save_failing_mid_run_leaves_a_resumable_checkpoint(
            self, trained_run, tmp_path, monkeypatch, capsys, failure):
        """A save that fails at member 1, with the members training in two
        workers, stops every worker and leaves member 0's file as it was
        written; `train --resume` then reuses it and writes the bytes of
        an uninterrupted run."""
        monkeypatch.setattr(ensemble, "_worker_count", lambda n: min(n, 2))
        real = cli.save_member

        def failing(path, *args):
            if path.name == "member_001.ckpt":
                raise failure
            return real(path, *args)

        out = tmp_path / "ck"
        argv = ["train", "--config", trained_run["config"],
                "--archive", trained_run["archive"], "--out", out]
        with monkeypatch.context() as m:
            m.setattr(cli, "save_member", failing)
            if isinstance(failure, KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    run_cli(*argv)
            else:
                assert run_cli(*argv) == 1
        assert multiprocessing.active_children() == []
        assert [p.name for p in (out / "members").iterdir()] == \
            ["member_000.ckpt"]
        assert not (out / "ensemble.json").exists()
        capsys.readouterr()
        assert run_cli(*argv, "--resume") == 0
        assert "member 0: reusing finished checkpoint" in \
            capsys.readouterr().out

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        assert files(out) == files(trained_run["checkpoint"])


def _config_with(config: Path, tmp_path: Path, **training) -> Path:
    """A copy of config with the given training settings."""
    cfg = yaml.safe_load(Path(config).read_text())
    cfg["training"].update(training)
    path = tmp_path / "changed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _start_train(config: Path, archive: Path, out: Path) -> subprocess.Popen:
    """`train` in a child that leads a new session, as a terminal starts a
    command: the child's pid is its process group id."""
    return subprocess.Popen(
        [sys.executable, "-m", "rulens.cli", "train", "--config", str(config),
         "--archive", str(archive), "--out", str(out)],
        env={**_child_env(), "PYTHONUNBUFFERED": "1"},
        start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and reap it."""
    if _group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _children(pid: int) -> list[str]:
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:     # no such listing on this platform
        return []


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
            lower, upper = float(r[5]), float(r[6])
            assert lower <= float(r[3]) <= upper
            assert float(r[4]) > 0
            assert r[7] == str(int(lower <= float(r[2]) <= upper))

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
        cfg = yaml.safe_load(evaluated_run["config"].read_text())
        cfg["preprocessing"]["rul_cap"] += 10
        config = tmp_path / "other.yaml"
        config.write_text(yaml.safe_dump(cfg))
        other = tmp_path / "other_archive"
        assert run_cli("ingest", "--config", config, "--out", other) == 0
        code = run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", evaluated_run["checkpoint"],
                       "--archive", other, "--out", tmp_path / "r")
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(preprocess=5),
         "'preprocess' must be an object, got 5"),
        (lambda m: m.update(member_files=5),
         "'member_files' must be a list, got 5"),
        (lambda m: m["norm_stats"].pop("mean"), "'norm_stats' lacks 'mean'"),
    ], ids=["preprocess", "member_files", "norm_stats.mean"])
    def test_malformed_manifest_is_user_error(self, evaluated_run, tmp_path,
                                              capsys, edit, message):
        # a manifest of another shape exits 2, naming ensemble.json and the
        # entry, not as an internal error or a bare key
        ckpt = tmp_path / "ck"
        shutil.copytree(evaluated_run["checkpoint"], ckpt)
        manifest = _read_json(ckpt / "ensemble.json")
        edit(manifest)
        (ckpt / "ensemble.json").write_text(json.dumps(manifest))
        code = run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", ckpt, "--archive",
                       evaluated_run["archive"], "--out", tmp_path / "r")
        assert code == 2
        assert f"ensemble.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(norm_stats=5),
         "'norm_stats' must be an object, got 5"),
        (lambda m: m["preprocess"].pop("stride"),
         "'preprocess' lacks 'stride'"),
        (lambda m: m.pop("data_fingerprint"),
         "'data_fingerprint' must be a string, got missing"),
        (lambda m: m["norm_stats"].update(feature_names=5),
         "'norm_stats.feature_names' must be a list, got 5"),
        (lambda m: m["norm_stats"]["mean"].__setitem__(0, 50.0),
         "normalization stats and windowing do not match the recorded "
         "data fingerprint"),
        (lambda m: m["norm_stats"]["std"].__setitem__(0, 0),
         "NormStats std must be strictly positive"),
        (lambda m: m.update(format_version=1),
         "'format_version' is 1, expected 2; re-run `rulens ingest`"),
        (lambda m: m.update(format_version=True),
         "'format_version' is true, expected 2; re-run `rulens ingest`"),
    ], ids=["norm_stats", "preprocess.stride", "data_fingerprint",
            "norm_stats.feature_names", "norm_stats.mean", "norm_stats.std",
            "format_version", "format_version.true"])
    def test_malformed_archive_is_user_error(self, evaluated_run, tmp_path,
                                             capsys, edit, message):
        # an archive manifest of another shape or version exits 2, naming
        # manifest.json and the entry
        archive = tmp_path / "arc"
        shutil.copytree(evaluated_run["archive"], archive)
        manifest = _read_json(archive / "manifest.json")
        edit(manifest)
        (archive / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("evaluate", "--config", evaluated_run["config"],
                       "--checkpoint", evaluated_run["checkpoint"],
                       "--archive", archive, "--out", tmp_path / "r")
        assert code == 2
        assert f"manifest.json: {message}" in capsys.readouterr().err

    def test_report_json_is_strict_json_for_one_test_unit(
            self, evaluated_run, tmp_path):
        # one test unit: its targets are constant, so NMPIW is undefined;
        # report.json writes it as null, which strict parsers accept, and
        # report.txt keeps nan
        cfg = yaml.safe_load(evaluated_run["config"].read_text())
        data = cfg["data"]
        rows = Path(data["test_file"]).read_text().splitlines()
        first = rows[0].split()[0]
        one_unit = tmp_path / "test_one.txt"
        one_unit.write_text("\n".join(r for r in rows
                                      if r.split()[0] == first) + "\n")
        rul = tmp_path / "rul_one.txt"
        rul.write_text(Path(data["rul_file"]).read_text().splitlines()[0]
                       + "\n")
        data.update(test_file=str(one_unit), rul_file=str(rul))
        config = tmp_path / "one.yaml"
        config.write_text(yaml.safe_dump(cfg))
        assert run_cli("ingest", "--config", config,
                       "--out", tmp_path / "archive") == 0
        assert run_cli("evaluate", "--config", config,
                       "--checkpoint", evaluated_run["checkpoint"],
                       "--archive", tmp_path / "archive",
                       "--out", tmp_path / "r") == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((tmp_path / "r" / "report.json").read_text(),
                             parse_constant=refuse)
        assert payload["metrics"]["n"] == 1
        assert payload["metrics"]["nmpiw"] is None
        assert "nmpiw = nan" in (tmp_path / "r" / "report.txt").read_text()

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


    def test_repeated_test_name_is_user_error(self, trained_run, tmp_path,
                                              capsys):
        # the second dataset's files would overwrite the first's
        out = tmp_path / "u"
        synth_test = yaml.safe_load(
            trained_run["config"].read_text())["data"]["test_file"]
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", f"a={synth_test}", "--test", f"a={synth_test}",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert "--test" in err and "'a'" in err and "twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../../escape", "sub/name", ".", ".."])
    def test_test_name_with_path_parts_is_user_error(self, trained_run,
                                                     tmp_path, capsys, name):
        out = tmp_path / "deep" / "u"
        synth_test = yaml.safe_load(
            trained_run["config"].read_text())["data"]["test_file"]
        assert run_cli("uncertainty", "--config", trained_run["config"],
                       "--checkpoint", trained_run["checkpoint"],
                       "--test", f"{name}={synth_test}", "--out", out) == 2
        err = capsys.readouterr().err
        assert "--test" in err and "file-name part" in err
        assert list(tmp_path.rglob("*.tsv")) == []


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


def _base_argv(command: str, run: dict, out: Path) -> list:
    test_file = yaml.safe_load(run["config"].read_text())["data"]["test_file"]
    return {
        "ingest": ["ingest", "--config", run["config"]],
        "evaluate": ["evaluate", "--config", run["config"],
                     "--checkpoint", run["checkpoint"],
                     "--archive", run["archive"]],
        "uncertainty": ["uncertainty", "--config", run["config"],
                        "--checkpoint", run["checkpoint"],
                        "--test", f"indist={test_file}"],
        "predict": ["predict", "--config", run["config"],
                    "--checkpoint", run["checkpoint"],
                    "--archive", run["archive"], "--unit", "1"],
    }[command] + ["--out", out]


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        ("ingest", "--resume"), ("ingest", "--members=2"),
        ("evaluate", "--members=7"), ("evaluate", "--force"),
        ("evaluate", "--resume"), ("uncertainty", "--members=2"),
        ("uncertainty", "--force"), ("predict", "--resume"),
    ])
    def test_command_refuses_flags_it_does_not_read(
            self, trained_run, tmp_path, capsys, command, flag):
        # a flag the command does not read would be ignored silently:
        # evaluate --members 7 would echo members: 7 in its report beside
        # the checkpoint's real member count
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*_base_argv(command, trained_run, out), flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_train_force_and_resume_are_exclusive(self, trained_run,
                                                  capsys):
        # --force would clear the finished members --resume asks to keep
        ckpt = trained_run["checkpoint"]
        files = sorted(p for p in ckpt.rglob("*") if p.is_file())
        before = [p.stat().st_mtime_ns for p in files]
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", trained_run["config"],
                    "--archive", trained_run["archive"], "--force",
                    "--resume")
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert [p.stat().st_mtime_ns for p in files] == before


class TestRunScript:
    def test_resume_reingests_and_reuses_finished_members(
            self, synth_dataset, tmp_path, capsys):
        # ingest takes no --resume: the script re-ingests with --force,
        # which gives the same fingerprint, so train --resume keeps members
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "data": {"train_file": str(synth_dataset["train"]),
                     "test_file": str(synth_dataset["test"]),
                     "rul_file": str(synth_dataset["rul"])},
            "preprocessing": {"window_length": 30, "rul_cap": 50},
            "architecture": {"recurrent_layers": [4], "dense_layers": [2]},
            "training": {"max_epochs": 1},
            "ensemble": {"members": 2, "base_seed": 3},
            "output_dir": str(tmp_path / "run")}))
        script = Path(__file__).resolve().parent.parent / "scripts" / \
            "run_fd001.py"
        main = runpy.run_path(str(script))["main"]
        argv = ["--config", str(cfg), "--trace-unit", "1"]
        assert main(argv) == 0
        member = tmp_path / "run" / "checkpoint" / "members" / "member_000.ckpt"
        trained = member.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "member 0: reusing finished checkpoint" in out
        assert "member 1: reusing finished checkpoint" in out
        assert member.read_bytes() == trained
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--resume", "--force"])
        assert exc.value.code == 2


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
    def _probe(self, code: str, **blas: str) -> str:
        out = subprocess.run([sys.executable, "-c", code],
                             env=_child_env(**blas), capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_does_not_load_scipy(self):
        # a fresh interpreter, since this test process has scipy loaded
        probe = "import sys, rulens.cli; print('scipy' in sys.modules)"
        assert self._probe(probe) == "False"

    def test_cli_import_does_not_load_multiprocessing(self):
        # only training starts a pool; the inference commands do not pay
        # for importing one
        probe = ("import sys, rulens.cli; print(sorted(m for m in sys.modules"
                 " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        assert self._probe(probe) == "[]"

    def test_package_import_does_not_load_numpy(self):
        # so that rulens.cli can pick the BLAS thread count before numpy
        # loads OpenBLAS, also under `python -m rulens.cli`
        probe = "import sys, rulens; print('numpy' in sys.modules)"
        assert self._probe(probe) == "False"

    BLAS_PROBE = ("import os, rulens.cli; "
                  f"print([os.environ.get(k) for k in {BLAS_THREADS!r}])")

    def test_cli_import_sets_one_blas_thread(self):
        assert self._probe(self.BLAS_PROBE) == "['1', None]"

    @pytest.mark.parametrize("name", BLAS_THREADS)
    def test_caller_blas_thread_setting_is_kept(self, name):
        expected = ["3" if k == name else None for k in BLAS_THREADS]
        assert self._probe(self.BLAS_PROBE, **{name: "3"}) == str(expected)
