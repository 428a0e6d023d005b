"""Acceptance gate: one test per release criterion.

Each test states its thresholds inline. The turbofan-data criteria skip
honestly when the real dataset is not available (see conftest) rather than
substituting a weaker stand-in; the full-scale reproduction additionally
requires RULENS_RUN_FULL_SCALE=1 because it runs for hours by design.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import cmapss_dir, fd001_files, needs_fd001, run_cli
from rulens.config import TrainingConfig
from rulens.ensemble import (aggregate, decompose_uncertainty, predict_members,
                             train_ensemble)
from rulens.metrics import interval_bounds, nasa_score, nmpiw, picp
from gradcheck import finite_diff_check
from rulens.network import Architecture, init_params


class TestCriterion1GradientCorrectness:
    def test_finite_differences_on_20_random_networks(self):
        # max relative error < 1e-4 over 20 random nets (<= 200 params)
        # within 1 minute; epsilon sits at the measured truncation/roundoff
        # optimum, and the data recipe keeps gradient sums off the 1e-8
        # clamp of the error formula (see tests/test_network.py)
        start = time.monotonic()
        rng = np.random.default_rng(237)
        worst = 0.0
        for _ in range(20):
            while True:
                f = int(rng.integers(1, 4))
                rec = tuple(int(rng.integers(2, 5))
                            for _ in range(int(rng.integers(1, 3))))
                dense = (3, 2) if rng.random() < 0.5 else (2,)
                arch = Architecture(f, rec, dense)
                if arch.n_params() <= 200:
                    break
            params = init_params(arch, seed=int(rng.integers(0, 2**31)))
            b = int(rng.integers(1, 4))
            x = rng.normal(loc=1.0, scale=0.5, size=(b, 8, f))
            y = rng.normal(loc=6.0, scale=2.0, size=(b, 8))
            worst = max(worst, finite_diff_check(params, x, y, 5e-4))
        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


class TestCriterion2MixtureMomentOracle:
    def test_aggregation_matches_monte_carlo(self):
        # 100 random member sets, M in {2,5,15}: analytic mixture moments
        # within 3 standard errors of 10^6-sample Monte Carlo, in under
        # 2 minutes. Seed chosen with margin: max |z| measured 2.45.
        start = time.monotonic()
        rng = np.random.default_rng(64)
        n = 1_000_000
        worst_z = 0.0
        for _ in range(100):
            m_count = int(rng.choice([2, 5, 15]))
            mu_i = rng.normal(scale=2.0, size=m_count)
            var_i = rng.uniform(0.25, 4.0, size=m_count)
            mu_star, var_star = aggregate(mu_i, var_i)

            comp = rng.integers(0, m_count, size=n)
            samples = mu_i[comp] + np.sqrt(var_i[comp]) * rng.standard_normal(n)
            m_hat = samples.mean()
            v_hat = samples.var(ddof=1)
            centered = samples - m_hat
            fourth = np.mean(centered**4)
            se_mean = np.sqrt(var_star / n)
            se_var = np.sqrt(max(fourth - v_hat**2, 0.0) / n)
            worst_z = max(worst_z,
                          abs(m_hat - mu_star) / se_mean,
                          abs(v_hat - var_star) / se_var)
        elapsed = time.monotonic() - start
        assert worst_z < 3.0, f"worst moment deviation {worst_z:.2f} SE"
        assert elapsed < 120.0, f"mixture oracle took {elapsed:.1f}s"


class TestCriterion3DecompositionIdentities:
    def test_additive_identity_holds_to_1e12(self):
        rng = np.random.default_rng(70)
        for m_count in (2, 5, 15):
            m = rng.normal(scale=3.0, size=(m_count, 30_000))
            v = rng.uniform(1e-4, 50.0, size=(m_count, 30_000))
            dec = decompose_uncertainty(m, v)
            gap = np.abs(dec.total - (dec.aleatoric + dec.epistemic))
            assert gap.max() <= 1e-12

    def test_epistemic_exactly_zero_for_degenerate_ensembles(self):
        rng = np.random.default_rng(71)
        mu = rng.normal(size=1000)
        var = rng.uniform(0.01, 9.0, size=1000)
        for m_count in (1, 2, 7, 15):
            dec = decompose_uncertainty(np.tile(mu, (m_count, 1)),
                                        np.tile(var, (m_count, 1)))
            assert np.all(dec.epistemic == 0.0)

    def test_epistemic_nonnegative_over_100k_draws(self):
        rng = np.random.default_rng(72)
        remaining, worst = 100_000, np.inf
        for m_count in (2, 5, 15):
            cols = remaining if m_count == 15 else 33_000
            remaining -= cols
            m = rng.normal(scale=4.0, size=(m_count, cols))
            v = rng.uniform(1e-5, 100.0, size=(m_count, cols))
            dec = decompose_uncertainty(m, v)
            worst = min(worst, float(dec.epistemic.min()))
        assert worst >= -1e-9, f"most negative epistemic value {worst:.2e}"


class TestCriterion4MetricUnits:
    def test_score_branch_constants(self):
        assert nasa_score(np.array([13.0]), np.array([0.0]),
                          a1=10, a2=13) == pytest.approx(np.e - 1, rel=1e-12)
        assert nasa_score(np.array([-10.0]), np.array([0.0]),
                          a1=10, a2=13) == pytest.approx(np.e - 1, rel=1e-12)

    def test_picp_calibrated_on_gaussian_data(self):
        rng = np.random.default_rng(73)
        n = 100_000
        y = rng.standard_normal(n)
        bounds = interval_bounds(np.zeros(n), np.ones(n), alpha=0.95)
        cover = picp(bounds, y)
        assert 0.94 <= cover <= 0.96, f"PICP {cover:.4f}"

    def test_nmpiw_scaling_law_exact(self):
        rng = np.random.default_rng(74)
        lower = rng.normal(size=50)
        upper = lower + rng.uniform(0.5, 2.0, size=50)
        y = rng.normal(size=50)
        base = nmpiw((lower, upper), y)
        # power-of-two scalings are exact in binary floating point
        assert nmpiw((lower, upper), 4.0 * y) == base / 4.0
        assert nmpiw((lower, upper), 0.5 * y) == base * 2.0
        assert nmpiw((lower, upper), 3.0 * y) == pytest.approx(base / 3.0,
                                                               rel=1e-12)


class TestCriterion5SyntheticCalibration:
    def test_heteroscedastic_noise_recovery(self):
        # y = f(x) + N(0, sigma(x)^2) with known f and sigma; an M=5
        # ensemble must rank-order the noise level (rho > 0.8) and cover
        # ~95% at alpha=0.95 (PICP in [0.90, 0.98]) within 10 minutes
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        start = time.monotonic()
        rng = np.random.default_rng(902)

        def sigma_true(x2):
            return 0.2 + 0.6 / (1.0 + np.exp(-3.0 * x2))

        def make(n, t):
            x = rng.normal(size=(n, t, 2))
            f = x[..., 0] + x[..., 1]
            s = sigma_true(x[..., 1])
            return x, f + s * rng.standard_normal((n, t)), s

        x_train, y_train, _ = make(2000, 20)
        x_test, y_test, s_test = make(500, 20)

        arch = Architecture(2, (12,), (2,))
        cfg = TrainingConfig(max_epochs=30, early_stop_start=20, patience=3)
        model, _ = train_ensemble(arch, (x_train, y_train), cfg,
                                  n_members=5, base_seed=902)

        preds = predict_members(model, list(x_test))
        means = np.stack([m for m, _ in preds], axis=1)
        varis = np.stack([v for _, v in preds], axis=1)
        mu, var = aggregate(means, varis)
        sigma_hat = np.sqrt(var[:, -1])
        rho = spearmanr(sigma_hat, s_test[:, -1]).statistic
        z95 = 1.959963984540054
        cover = float(np.mean(np.abs(y_test[:, -1] - mu[:, -1])
                              <= z95 * sigma_hat))
        elapsed = time.monotonic() - start
        assert rho > 0.8, f"rank correlation {rho:.3f}"
        assert 0.90 <= cover <= 0.98, f"PICP@95 {cover:.4f}"
        assert elapsed < 600.0, f"calibration run took {elapsed:.1f}s"


def _fd001_config(tmp_dir: Path, preset_members: int | None = None) -> Path:
    files = fd001_files(cmapss_dir())
    cfg = {
        "data": {"train_file": str(files["train"]),
                 "test_file": str(files["test"]),
                 "rul_file": str(files["rul"])},
        "output_dir": str(tmp_dir / "run"),
    }
    if preset_members is not None:
        cfg["ensemble"] = {"members": preset_members}
    path = tmp_dir / "fd001.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="session")
def fd001_desk_run(tmp_path_factory):
    """Desk-scale FD001 pipeline: ingest + M=5 train, shared by criteria 6/7."""
    if cmapss_dir() is None:
        pytest.skip("real turbofan dataset not present (set RULENS_CMAPSS_DIR)")
    tmp_dir = tmp_path_factory.mktemp("fd001desk")
    config = _fd001_config(tmp_dir)
    run_dir = tmp_dir / "run"
    start = time.monotonic()
    assert run_cli("ingest", "--config", config, "--preset", "desk") == 0
    assert run_cli("train", "--config", config, "--preset", "desk",
                   "--archive", run_dir / "archive") == 0
    return {"config": config, "run_dir": run_dir,
            "train_seconds": time.monotonic() - start}


class TestCriterion6Fd001Reproduction:
    @needs_fd001
    def test_desk_scale_rmse_under_20_within_an_hour(self, fd001_desk_run):
        run_dir = fd001_desk_run["run_dir"]
        assert run_cli("evaluate", "--config", fd001_desk_run["config"],
                       "--preset", "desk",
                       "--checkpoint", run_dir / "checkpoint",
                       "--archive", run_dir / "archive") == 0
        metrics = json.loads(
            (run_dir / "reports" / "report.json").read_text())["metrics"]
        assert metrics["rmse"] < 20.0, f"desk RMSE {metrics['rmse']:.2f}"
        assert fd001_desk_run["train_seconds"] < 3600.0

    @needs_fd001
    @pytest.mark.skipif(os.environ.get("RULENS_RUN_FULL_SCALE") != "1",
                        reason="full-scale M=15 run takes hours; set "
                               "RULENS_RUN_FULL_SCALE=1 to enable")
    def test_full_scale_matches_reference_ranges(self, tmp_path):
        config = _fd001_config(tmp_path)
        run_dir = tmp_path / "run"
        assert run_cli("ingest", "--config", config) == 0
        assert run_cli("train", "--config", config,
                       "--archive", run_dir / "archive") == 0
        assert run_cli("evaluate", "--config", config,
                       "--checkpoint", run_dir / "checkpoint",
                       "--archive", run_dir / "archive") == 0
        metrics = json.loads(
            (run_dir / "reports" / "report.json").read_text())["metrics"]
        assert 13.0 <= metrics["rmse"] <= 18.0
        assert 250.0 <= metrics["score"] <= 650.0
        assert 0.90 <= metrics["picp"] <= 0.99
        assert 0.33 <= metrics["nmpiw"] <= 0.62


class TestCriterion7OutOfDistributionOrdering:
    @needs_fd001
    def test_epistemic_ordering_across_sibling_datasets(self, fd001_desk_run,
                                                        tmp_path):
        base = cmapss_dir()
        fd2, fd3 = base / "test_FD002.txt", base / "test_FD003.txt"
        if not (fd2.is_file() and fd3.is_file()):
            pytest.skip("FD002/FD003 test files not present next to FD001")
        run_dir = fd001_desk_run["run_dir"]
        out = tmp_path / "unc"
        assert run_cli("uncertainty", "--config", fd001_desk_run["config"],
                       "--preset", "desk",
                       "--checkpoint", run_dir / "checkpoint",
                       "--test", f"fd001={fd001_files(base)['test']}",
                       "--test", f"fd002={fd2}",
                       "--test", f"fd003={fd3}",
                       "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())["datasets"]
        ep = {name: summary[name]["mean_epistemic"] for name in summary}
        assert ep["fd002"] > ep["fd003"] >= ep["fd001"], f"ordering {ep}"
        assert (ep["fd002"] - ep["fd001"]) > (ep["fd003"] - ep["fd001"]), \
            f"gaps {ep}"


class TestCriterion8Determinism:
    def test_two_runs_bit_identical_checkpoints_and_reports(
            self, synth_dataset, tmp_path):
        cfg_path = tmp_path / "repro.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "data": {"train_file": str(synth_dataset["train"]),
                     "test_file": str(synth_dataset["test"]),
                     "rul_file": str(synth_dataset["rul"])},
            "preprocessing": {"window_length": 25, "rul_cap": 50},
            "architecture": {"recurrent_layers": [6], "dense_layers": [2]},
            "training": {"max_epochs": 2},
            "ensemble": {"members": 2, "base_seed": 237},
            "output_dir": str(tmp_path / "unused")}))

        artifacts = {}
        for tag in ("first", "second"):
            root = tmp_path / tag
            assert run_cli("ingest", "--config", cfg_path,
                           "--out", root / "archive") == 0
            assert run_cli("train", "--config", cfg_path,
                           "--archive", root / "archive",
                           "--out", root / "checkpoint") == 0
            assert run_cli("evaluate", "--config", cfg_path,
                           "--checkpoint", root / "checkpoint",
                           "--archive", root / "archive",
                           "--out", root / "reports", "--per-unit") == 0
            artifacts[tag] = {
                rel: (root / rel).read_bytes()
                for rel in ("archive/manifest.json",
                            "checkpoint/ensemble.json",
                            "checkpoint/members/member_000.ckpt",
                            "checkpoint/members/member_001.ckpt",
                            "reports/report.txt",
                            "reports/report.json",
                            "reports/per_unit.tsv")}
        for rel in artifacts["first"]:
            assert artifacts["first"][rel] == artifacts["second"][rel], \
                f"{rel} differs between identical runs"
