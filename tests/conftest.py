"""Shared fixtures: synthetic datasets, a small trained run, real-data gating.

The real turbofan files are optional. Point RULENS_CMAPSS_DIR at a directory
holding train_FD001.txt / test_FD001.txt / RUL_FD001.txt (plus the FD002 and
FD003 test files for the cross-dataset checks) to enable the full-scale
tests; without it they skip.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
import yaml

from rulens.cli import main as cli_main
from rulens.cmapss import NormStats, Preprocessing
from rulens.synthetic import write_synthetic_dataset


def cmapss_dir() -> Path | None:
    env = os.environ.get("RULENS_CMAPSS_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if (cand / "train_FD001.txt").is_file():
            return cand
    return None


def fd001_files(base: Path) -> dict[str, Path]:
    return {"train": base / "train_FD001.txt",
            "test": base / "test_FD001.txt",
            "rul": base / "RUL_FD001.txt"}


needs_fd001 = pytest.mark.skipif(
    cmapss_dir() is None,
    reason="real turbofan dataset not present (set RULENS_CMAPSS_DIR)")


def run_cli(*argv: str) -> int:
    return cli_main([str(a) for a in argv])


def toy_prep(feature_names: Sequence[str], window_length: int = 5,
             stride: int = 1) -> Preprocessing:
    """Preprocessing with identity Z-norm stats over feature_names, no
    dropped sensors and rul_cap 128: what an ensemble.EnsembleModel needs
    in a test whose inputs are already in model feature space."""
    n = len(feature_names)
    return Preprocessing(NormStats(np.zeros(n), np.ones(n),
                                   tuple(feature_names)),
                         window_length, stride, rul_cap=128,
                         dropped_sensors=())


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("synthdata")
    return write_synthetic_dataset(root, n_train_units=10, n_test_units=6,
                                   seed=5, min_len=60, max_len=90)


@pytest.fixture(scope="session")
def small_config(synth_dataset, tmp_path_factory) -> Path:
    """Config for a fast end-to-end run: small windows, 3 members, 4 epochs."""
    root = tmp_path_factory.mktemp("smallrun")
    cfg = {
        "data": {"train_file": str(synth_dataset["train"]),
                 "test_file": str(synth_dataset["test"]),
                 "rul_file": str(synth_dataset["rul"])},
        "preprocessing": {"window_length": 30, "rul_cap": 50},
        "architecture": {"recurrent_layers": [8, 4], "dense_layers": [2]},
        "training": {"max_epochs": 4, "early_stop_start": 3, "patience": 2},
        "ensemble": {"members": 3, "base_seed": 237},
        "output_dir": str(root / "run"),
    }
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="session")
def trained_run(small_config) -> dict[str, Path]:
    """One ingest + train pass shared by the CLI-facing tests."""
    run_dir = Path(yaml.safe_load(small_config.read_text())["output_dir"])
    archive = run_dir / "archive"
    checkpoint = run_dir / "checkpoint"
    assert run_cli("ingest", "--config", small_config) == 0
    assert run_cli("train", "--config", small_config,
                   "--archive", archive) == 0
    return {"config": small_config, "run_dir": run_dir,
            "archive": archive, "checkpoint": checkpoint}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One status line per acceptance criterion at the end of the run."""
    seen: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name not in seen or status in ("failed", "error"):
                seen[name] = status
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(seen):
        terminalreporter.write_line(f"{seen[name].upper():8s} {name}")
