"""Point and probabilistic metrics, intervals, quantiles, densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulens.cmapss import UnitSeries
from rulens.config import TrainingConfig
from rulens.ensemble import train_ensemble
from rulens.metrics import (SCORE_CONSTANTS, UnitPrediction, interval_bounds,
                            kde, nasa_score, nmpiw, normal_quantile, picp,
                            report_from_predictions, report_to_dict,
                            report_to_text, rmse, unit_predictions)
from rulens.network import Architecture

E_MINUS_1 = np.e - 1.0
Z_975 = 1.9599639845400545


class TestRmse:
    def test_perfect_prediction(self):
        y = np.array([3.0, 7.0, 1.0])
        assert rmse(y, y) == 0.0

    def test_mixed_errors(self):
        assert rmse(np.array([3.0, -4.0]), np.zeros(2)) == \
            pytest.approx(np.sqrt(12.5))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-100, 100, allow_nan=False),
           st.integers(0, 2**31 - 1))
    def test_detects_constant_shift(self, c, seed):
        y = np.random.default_rng(seed).normal(size=9)
        assert rmse(y + c, y) == pytest.approx(abs(c), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            rmse(np.zeros(0), np.zeros(0))


class TestNasaScore:
    def test_exact_predictions_score_zero(self):
        y = np.array([10.0, 20.0])
        assert nasa_score(y, y) == 0.0

    def test_late_branch_unit_value(self):
        # one prediction exactly a2 cycles late
        assert nasa_score(np.array([13.0]), np.array([0.0]), a1=10, a2=13) == \
            pytest.approx(E_MINUS_1)

    def test_early_branch_unit_value(self):
        assert nasa_score(np.array([-10.0]), np.array([0.0]), a1=10, a2=13) == \
            pytest.approx(E_MINUS_1)

    def test_sums_over_samples(self):
        p = np.array([13.0, -10.0])
        t = np.zeros(2)
        assert nasa_score(p, t) == pytest.approx(2 * E_MINUS_1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 50, allow_nan=False),
           st.floats(1, 20, allow_nan=False), st.floats(1, 20, allow_nan=False))
    def test_asymmetric_whenever_constants_differ(self, k, a1, a2):
        late = nasa_score(np.array([k]), np.zeros(1), a1, a2)
        early = nasa_score(np.array([-k]), np.zeros(1), a1, a2)
        if abs(a1 - a2) > 1e-6:
            assert late != early
        assert late == pytest.approx(np.exp(k / a2) - 1, rel=1e-12)
        assert early == pytest.approx(np.exp(k / a1) - 1, rel=1e-12)

    def test_convention_table(self):
        # "paper" punishes early predictions harder (divisor 10 < 13)
        assert SCORE_CONSTANTS["paper"] == (10.0, 13.0)
        assert SCORE_CONSTANTS["classic"] == (13.0, 10.0)
        p, t = np.array([13.0]), np.array([0.0])
        assert nasa_score(p, t, *SCORE_CONSTANTS["paper"]) == \
            pytest.approx(E_MINUS_1)
        assert nasa_score(p, t, *SCORE_CONSTANTS["classic"]) == \
            pytest.approx(np.exp(1.3) - 1)

    def test_positive_constants_required(self):
        with pytest.raises(ValueError):
            nasa_score(np.zeros(1), np.zeros(1), a1=0, a2=13)


class TestNormalQuantile:
    def test_central_value(self):
        assert abs(normal_quantile(0.975) - Z_975) < 1e-8

    def test_matches_reference_quantiles(self):
        # scipy used purely as an independent oracle
        scipy_stats = pytest.importorskip("scipy.stats")
        p = np.concatenate([np.array([1e-9, 1e-5, 0.01, 0.02424, 0.02426]),
                            np.linspace(0.03, 0.97, 95),
                            np.array([0.99, 0.99999, 1 - 1e-9])])
        ours = normal_quantile(p)
        ref = scipy_stats.norm.ppf(p)
        assert np.allclose(ours, ref, rtol=1e-8, atol=1e-9)

    def test_symmetry(self):
        for p in (0.001, 0.3, 0.72, 0.999):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                       rel=1e-12)

    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_and_array_forms(self):
        assert isinstance(normal_quantile(0.9), float)
        out = normal_quantile(np.array([0.1, 0.9]))
        assert out.shape == (2,)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestIntervalBounds:
    def test_standard_normal_95(self):
        lower, upper = interval_bounds(0.0, 1.0, 0.95)
        assert lower == pytest.approx(-1.959964, abs=1e-6)
        assert upper == pytest.approx(1.959964, abs=1e-6)

    def test_tiny_alpha_collapses_to_mean(self):
        lower, upper = interval_bounds(5.0, 4.0, 1e-9)
        assert lower == pytest.approx(5.0, abs=1e-7)
        assert upper == pytest.approx(5.0, abs=1e-7)

    def test_scale_and_shift(self):
        lower, upper = interval_bounds(100.0, 25.0, 0.95)
        assert lower == pytest.approx(90.200, abs=1e-3)
        assert upper == pytest.approx(109.800, abs=1e-3)

    def test_vectorized(self):
        mu = np.array([0.0, 10.0])
        var = np.array([1.0, 4.0])
        lower, upper = interval_bounds(mu, var, 0.9)
        assert lower.shape == upper.shape == (2,)
        assert np.all(upper - lower > 0)
        # width scales with sigma
        assert (upper[1] - lower[1]) == pytest.approx(2 * (upper[0] - lower[0]))

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95, 0.99])
    def test_simulated_coverage_matches_alpha(self, alpha):
        rng = np.random.default_rng(31)
        n = 200_000
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.5, 3.0, size=n)
        y = mu + sigma * rng.standard_normal(n)
        bounds = interval_bounds(mu, sigma**2, alpha)
        cover = picp(bounds, y)
        tol = 4 * np.sqrt(alpha * (1 - alpha) / n)
        assert abs(cover - alpha) < tol

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_bounds(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            interval_bounds(0.0, 0.0, 0.9)


class TestPicp:
    def test_all_inside(self):
        b = (np.zeros(4), np.full(4, 2.0))
        assert picp(b, np.ones(4)) == 1.0

    def test_all_outside(self):
        b = (np.zeros(4), np.ones(4))
        assert picp(b, np.full(4, 5.0)) == 0.0

    def test_closed_endpoints_count(self):
        b = (np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert picp(b, np.array([1.0, 2.0])) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.floats(0.1, 10, allow_nan=False),
           st.floats(-5, 5, allow_nan=False))
    def test_invariant_under_monotone_relabeling(self, seed, a, b):
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=8)
        upper = lower + rng.uniform(0.1, 2.0, size=8)
        y = rng.normal(size=8)
        base = picp((lower, upper), y)
        # affine and cubic strictly increasing maps preserve order exactly
        assert picp((a * lower + b, a * upper + b), a * y + b) == base
        assert picp((lower**3, upper**3), y**3) == base

    def test_calibrated_large_sample(self):
        rng = np.random.default_rng(17)
        n = 100_000
        y = rng.standard_normal(n)
        bounds = interval_bounds(np.zeros(n), np.ones(n), 0.95)
        assert 0.94 <= picp(bounds, y) <= 0.96


class TestNmpiw:
    def test_zero_widths(self):
        y = np.array([0.0, 1.0, 2.0])
        assert nmpiw((y, y), y) == 0.0

    def test_constant_width_formula(self):
        lower = np.array([0.0, 4.0, 8.0])
        assert nmpiw((lower, lower + 2.0), lower) == pytest.approx(2.0 / 8.0)

    def test_scales_inversely_with_target_range(self):
        rng = np.random.default_rng(23)
        lower = rng.normal(size=10)
        upper = lower + rng.uniform(0.5, 1.5, size=10)
        y = rng.normal(size=10)
        v1 = nmpiw((lower, upper), y)
        assert nmpiw((lower, upper), 4.0 * y) == v1 / 4.0
        assert nmpiw((lower, upper), 3.0 * y) == pytest.approx(v1 / 3.0,
                                                               rel=1e-12)

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            nmpiw((np.zeros(3), np.ones(3)), np.full(3, 7.0))


class TestKde:
    def test_two_point_symmetry(self):
        curve = kde(np.array([-1.0, 1.0]), grid_size=101)
        assert np.allclose(curve.density, curve.density[::-1], rtol=1e-12)
        mid = curve.grid[50]
        assert mid == pytest.approx(0.0, abs=1e-12)

    def test_standard_normal_peak(self):
        x = np.random.default_rng(5).standard_normal(10_000)
        curve = kde(x)
        peak = curve.density.max()
        assert abs(peak - 0.3989) / 0.3989 < 0.10

    def test_integrates_to_one(self):
        x = np.random.default_rng(6).gamma(2.0, 1.5, size=5000)
        curve = kde(x)
        integral = np.trapezoid(curve.density, curve.grid)
        assert 0.98 <= integral <= 1.02

    def test_silverman_bandwidth_and_grid_span(self):
        x = np.random.default_rng(7).normal(size=400)
        curve = kde(x, grid_size=256)
        h = 1.06 * np.std(x, ddof=1) * 400 ** (-0.2)
        assert curve.bandwidth == pytest.approx(h, rel=1e-12)
        assert curve.grid.size == 256
        assert curve.grid[0] == pytest.approx(x.min() - 4 * h, rel=1e-12)
        assert curve.grid[-1] == pytest.approx(x.max() + 4 * h, rel=1e-12)
        assert np.all(curve.density >= 0)

    def test_chunked_path_matches_direct(self):
        # more values than one 2048 block to cross the chunk boundary
        x = np.random.default_rng(8).normal(size=5000)
        curve = kde(x, grid_size=64)
        h = curve.bandwidth
        direct = np.exp(-0.5 * ((curve.grid[:, None] - x[None, :]) / h) ** 2)
        direct = direct.sum(axis=1) / (x.size * h * np.sqrt(2 * np.pi))
        assert np.allclose(curve.density, direct, rtol=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            kde(np.array([3.0]))
        with pytest.raises(ValueError, match="all-equal"):
            kde(np.full(5, 2.0))
        with pytest.raises(ValueError):
            kde(np.array([0.0, 1.0]), grid_size=1)


def _row(target, mean, sigma=1.0, alpha=0.95, unit_id=1, cycle=100):
    lower, upper = interval_bounds(mean, sigma**2, alpha)
    return UnitPrediction(unit_id=unit_id, cycle=cycle, target=target,
                          mean=mean, sigma=sigma, lower=float(lower),
                          upper=float(upper),
                          covered=bool(lower <= target <= upper),
                          aleatoric=0.0, epistemic=0.0, total=0.0)


class TestReports:
    def test_perfect_oracle(self):
        rows = [_row(t, t, sigma=1e-6, unit_id=i)
                for i, t in enumerate([10.0, 50.0, 90.0])]
        rep = report_from_predictions(rows, alpha=0.95)
        assert rep.rmse == 0.0
        assert rep.score == 0.0
        assert rep.picp == 1.0
        assert rep.nmpiw < 1e-6
        assert rep.n == 3

    def test_single_unit_report_has_no_width_normalizer(self):
        rep = report_from_predictions([_row(50.0, 48.0)], alpha=0.95)
        assert rep.n == 1
        assert np.isnan(rep.nmpiw)
        assert rep.rmse == pytest.approx(2.0)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            report_from_predictions([_row(1.0, 1.0)], 0.95,
                                    score_convention="bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_from_predictions([], 0.95)

    def test_text_and_dict_round_trip(self):
        rows = [_row(10.0, 12.0, unit_id=1), _row(60.0, 55.0, unit_id=2)]
        rep = report_from_predictions(rows, alpha=0.95)
        d = report_to_dict(rep)
        assert d["n"] == 2 and d["alpha"] == 0.95
        assert d["score_convention"] == "paper"
        text = report_to_text(rep, extra={"n_members": 5})
        lines = text.strip().splitlines()
        assert lines[0].startswith("rmse = ")
        assert lines[-1] == "n_members = 5"
        parsed = dict(line.split(" = ") for line in lines)
        assert float(parsed["rmse"]) == rep.rmse
        assert float(parsed["picp"]) == rep.picp


@pytest.fixture(scope="module")
def eval_model():
    arch = Architecture(4, (3,), (2,))
    rng = np.random.default_rng(13)
    x = rng.normal(size=(16, 6, 4))
    y = np.abs(x.sum(axis=-1)) + 50.0
    model, _ = train_ensemble(arch, (x, y), TrainingConfig(max_epochs=1,
                                                           batch_size=8),
                              n_members=2, base_seed=3)
    return model


def _test_unit(unit_id, n_cycles, true_rul, seed):
    rng = np.random.default_rng(seed)
    return UnitSeries(unit_id=unit_id,
                      cycles=np.arange(1, n_cycles + 1),
                      op_settings=rng.normal(size=(n_cycles, 3)),
                      sensors=rng.normal(size=(n_cycles, 1)),
                      sensor_ids=(2,),
                      true_final_rul=true_rul)


class TestEvaluateOnTest:
    def test_one_row_per_unit_with_true_targets(self, eval_model):
        units = [_test_unit(1, 8, 30, seed=0), _test_unit(2, 5, 90, seed=1)]
        rows = unit_predictions(eval_model, units)
        assert [(r.unit_id, r.cycle, r.target) for r in rows] == \
            [(1, 8, 30.0), (2, 5, 90.0)]
        for r in rows:
            assert r.lower <= r.mean <= r.upper
            assert r.sigma > 0
            assert r.covered == (r.lower <= r.target <= r.upper)

    def test_per_step_extends_targets_backward(self, eval_model):
        unit = _test_unit(4, 5, 20, seed=2)
        rows = unit_predictions(eval_model, [unit], per_step=True)
        assert [r.cycle for r in rows] == [1, 2, 3, 4, 5]
        assert [r.target for r in rows] == [24.0, 23.0, 22.0, 21.0, 20.0]

    def test_report_end_to_end(self, eval_model):
        units = [_test_unit(i, 6 + i, 10 * i, seed=i) for i in range(1, 5)]
        rows = unit_predictions(eval_model, units, alpha=0.95)
        rep = report_from_predictions(rows, 0.95)
        assert rep.n == 4
        assert rep.rmse > 0
        assert 0.0 <= rep.picp <= 1.0
        assert rep.nmpiw > 0

    def test_requires_true_rul(self, eval_model):
        unit = _test_unit(9, 6, 25, seed=3)
        unit.true_final_rul = None
        with pytest.raises(ValueError, match="true RUL"):
            unit_predictions(eval_model, [unit])
