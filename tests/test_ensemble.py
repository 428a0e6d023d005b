"""Ensemble aggregation, uncertainty split, member training, profiles."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rulens.cmapss import NormStats, UnitSeries
from rulens.config import TrainingConfig
from rulens.ensemble import (EnsembleModel, aggregate,
                             dataset_uncertainty_profile, decompose_uncertainty,
                             member_mean, predict_ensemble, train_ensemble)
from rulens.errors import DivergenceError
from rulens.network import Architecture, forward, init_params, train_pnn

ARCH = Architecture(2, (3,), (2,))


def _toy_data(n=24, t=5, f=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, f))
    y = x.sum(axis=-1) + 0.1 * rng.normal(size=(n, t))
    return x, y


def _member_stack(*pairs):
    """Stack (mean, var) scalars per member into [M] arrays."""
    means = np.array([p[0] for p in pairs], dtype=np.float64)
    varis = np.array([p[1] for p in pairs], dtype=np.float64)
    return means, varis


finite_vals = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
pos_vals = st.floats(1e-6, 1e4, allow_nan=False, allow_infinity=False)


class TestMemberMean:
    def test_exact_on_ties(self):
        row = np.array([0.1, 1 / 3, np.pi, -7.77])
        tiled = np.tile(row, (13, 1))
        assert np.array_equal(member_mean(tiled), row)

    def test_matches_plain_mean(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 6))
        assert np.allclose(member_mean(a), a.mean(axis=0), rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=finite_vals),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_bitwise(self, a, rnd):
        order = list(range(5))
        rnd.shuffle(order)
        assert np.array_equal(member_mean(a), member_mean(a[order]))


class TestAggregate:
    def test_two_member_worked_example(self):
        means, varis = _member_stack((0.0, 1.0), (2.0, 1.0))
        mu, var = aggregate(means, varis)
        assert mu == 1.0
        assert var == 2.0

    def test_identical_members_collapse_exactly(self):
        means, varis = _member_stack(*[(0.7, 1.3)] * 5)
        mu, var = aggregate(means, varis)
        assert mu == 0.7
        assert var == 1.3

    def test_equal_means_average_the_variances(self):
        means, varis = _member_stack((0.5, 1.0), (0.5, 3.0))
        mu, var = aggregate(means, varis)
        assert mu == 0.5
        assert var == 2.0

    def test_vectorized_over_time_axis(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 7))
        v = rng.uniform(0.5, 2.0, size=(4, 7))
        mu, var = aggregate(m, v)
        assert mu.shape == var.shape == (7,)
        for t in range(7):
            mu_t, var_t = aggregate(m[:, t], v[:, t])
            assert mu[t] == mu_t and var[t] == var_t

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (6,), elements=finite_vals),
           arrays(np.float64, (6,), elements=pos_vals))
    def test_mixture_variance_dominates_mean_member_variance(self, m, v):
        _, var = aggregate(m, v)
        assert var >= member_mean(v)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate(np.zeros(3), np.ones(4))
        with pytest.raises(ValueError, match="positive"):
            aggregate(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            aggregate(np.array([np.inf, 0.0]), np.ones(2))
        with pytest.raises(ValueError):
            aggregate(np.zeros(0), np.zeros(0))


class TestDecompose:
    def test_identical_members_have_zero_epistemic(self):
        for m in (1, 2, 7):
            means, varis = _member_stack(*[(1.5, 0.37)] * m)
            dec = decompose_uncertainty(means, varis)
            assert dec.epistemic == 0.0

    def test_disagreeing_means_worked_example(self):
        means, varis = _member_stack((0.0, 1.0), (2.0, 1.0))
        dec = decompose_uncertainty(means, varis)
        assert dec.aleatoric == 0.0
        assert dec.epistemic == pytest.approx(np.log(2.0), rel=1e-12)
        assert dec.total == pytest.approx(np.log(2.0), rel=1e-12)

    def test_equal_large_variances(self):
        e2 = float(np.exp(2.0))
        means, varis = _member_stack((0.0, e2), (0.0, e2))
        dec = decompose_uncertainty(means, varis)
        assert dec.aleatoric == pytest.approx(2.0, rel=1e-12)
        assert dec.epistemic == 0.0

    def test_scalar_input_gives_floats(self):
        dec = decompose_uncertainty(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert isinstance(dec.aleatoric, float)
        assert isinstance(dec.epistemic, float)
        assert isinstance(dec.total, float)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 6))
        v = rng.uniform(0.2, 4.0, size=(5, 6))
        dec = decompose_uncertainty(m, v)
        assert dec.total.shape == (6,)
        for t in range(6):
            one = decompose_uncertainty(m[:, t], v[:, t])
            assert dec.aleatoric[t] == one.aleatoric
            assert dec.epistemic[t] == one.epistemic

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (5,), elements=finite_vals),
           arrays(np.float64, (5,), elements=pos_vals))
    def test_additive_identity_and_nonnegativity(self, m, v):
        dec = decompose_uncertainty(m, v)
        assert abs(dec.total - (dec.aleatoric + dec.epistemic)) <= 1e-12
        assert dec.epistemic >= -1e-9

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            decompose_uncertainty(np.zeros(2), np.array([1.0, -1.0]))


class TestTrainEnsemble:
    def test_member_seeds_are_base_plus_index(self):
        data = _toy_data(n=8)
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        model, _ = train_ensemble(ARCH, data, cfg, n_members=15, base_seed=237)
        assert model.member_seeds == tuple(range(237, 252))
        assert model.base_seed == 237

    def test_single_member_degenerates_to_train_pnn(self):
        data = _toy_data()
        cfg = TrainingConfig(max_epochs=3, batch_size=8)
        model, hists = train_ensemble(ARCH, data, cfg, n_members=1, base_seed=41)
        solo, solo_hist = train_pnn(ARCH, data, cfg, seed=41)
        assert all(np.array_equal(model.members[0].arrays[k], solo.arrays[k])
                   for k in solo.arrays)
        assert hists[0].epoch_losses == solo_hist.epoch_losses

    def test_repeat_runs_bit_identical(self):
        data = _toy_data()
        cfg = TrainingConfig(max_epochs=2, batch_size=8)
        a, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=7)
        b, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=7)
        for pa, pb in zip(a.members, b.members):
            assert all(np.array_equal(pa.arrays[k], pb.arrays[k])
                       for k in pa.arrays)

    def test_each_member_matches_train_pnn_alone(self):
        # a member depends on its seed and the data only, not on the
        # members trained before it
        data = _toy_data()
        cfg = TrainingConfig(max_epochs=2, batch_size=8)
        model, hists = train_ensemble(ARCH, data, cfg, n_members=4,
                                      base_seed=3)
        for k in (3, 1):
            solo, solo_hist = train_pnn(ARCH, data, cfg, seed=3 + k)
            assert all(np.array_equal(model.members[k].arrays[name],
                                      solo.arrays[name]) for name in solo.arrays)
            assert hists[k].epoch_losses == solo_hist.epoch_losses

    def test_resume_hook_skips_finished_members(self):
        data = _toy_data(n=8)
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        done = init_params(ARCH, seed=51)
        asked, trained = [], []

        def resume(k, seed):
            asked.append((k, seed))
            return done if k == 1 else None

        model, hists = train_ensemble(
            ARCH, data, cfg, n_members=3, base_seed=50, resume=resume,
            progress=lambda k, p, h: trained.append(k))
        assert asked == [(0, 50), (1, 51), (2, 52)]
        assert trained == [0, 2]
        assert model.members[1] is done and hists[1] is None
        assert hists[0].stop_epoch == hists[2].stop_epoch == 1

    def test_divergence_names_member(self):
        x, y = _toy_data(n=8)
        y = y.copy()
        y[1] = 1e200
        cfg = TrainingConfig(max_epochs=1, batch_size=4)
        with pytest.raises(DivergenceError) as err:
            train_ensemble(ARCH, (x, y), cfg, n_members=2, base_seed=0)
        assert err.value.member == 0
        assert "member 0" in str(err.value)

    def test_progress_callback_sees_every_member(self):
        data = _toy_data(n=8)
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        seen = []
        model, _ = train_ensemble(
            ARCH, data, cfg, n_members=3, base_seed=9,
            progress=lambda k, p, h: seen.append((k, p, h.stop_epoch)))
        assert seen == [(k, model.members[k], 1) for k in range(3)]

    def test_argument_guards(self):
        data = _toy_data(n=4)
        cfg = TrainingConfig(max_epochs=1)
        with pytest.raises(ValueError):
            train_ensemble(ARCH, data, cfg, n_members=0, base_seed=0)


@pytest.fixture(scope="module")
def tiny_model():
    data = _toy_data()
    cfg = TrainingConfig(max_epochs=2, batch_size=8)
    model, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=11)
    return model


class TestPredictEnsemble:
    def test_shapes(self, tiny_model):
        x = np.random.default_rng(0).normal(size=(6, 2))
        pred = predict_ensemble(tiny_model, x)
        assert pred.means.shape == pred.variances.shape == (6,)
        assert pred.member_means.shape == pred.member_vars.shape == (3, 6)
        assert np.all(pred.variances > 0)

    def test_matches_per_member_forward_plus_aggregate(self, tiny_model):
        x = np.random.default_rng(1).normal(size=(5, 2))
        pred = predict_ensemble(tiny_model, x)
        singles = [forward(p, x) for p in tiny_model.members]
        mu, var = aggregate(np.stack([s.means for s in singles]),
                            np.stack([s.variances for s in singles]))
        assert np.allclose(pred.means, mu, rtol=1e-12)
        assert np.allclose(pred.variances, var, rtol=1e-12)

    def test_degenerate_ensemble_collapses(self):
        params = init_params(ARCH, seed=5)
        model = EnsembleModel(ARCH, [params, params.copy(), params.copy()],
                              base_seed=5, member_seeds=(5, 6, 7))
        x = np.random.default_rng(2).normal(size=(4, 2))
        pred = predict_ensemble(model, x)
        single = forward(params, x)
        assert np.array_equal(pred.means, single.means)
        assert np.array_equal(pred.variances, single.variances)
        dec = decompose_uncertainty(pred.member_means[:, -1],
                                    pred.member_vars[:, -1])
        assert dec.epistemic == 0.0

    def test_rejects_batched_input(self, tiny_model):
        with pytest.raises(ValueError, match="time, features"):
            predict_ensemble(tiny_model, np.zeros((2, 4, 2)))


class TestLastStepView:
    def test_single_step_identity(self, profile_model):
        # a one-cycle unit: its profile row is the decomposition of the
        # members' only step
        unit = _make_unit(4, 1, seed=3)
        [row] = dataset_uncertainty_profile(profile_model, [unit])
        pred = predict_ensemble(profile_model, unit.features)
        direct = decompose_uncertainty(pred.member_means[:, 0],
                                       pred.member_vars[:, 0])
        assert (row.unit_id, row.end_cycle) == (4, 1)
        assert (row.aleatoric, row.epistemic, row.total) == \
            (direct.aleatoric, direct.epistemic, direct.total)

    def test_constant_over_time_matches_any_step(self):
        member_means = np.tile([[0.0], [2.0]], (1, 4))
        member_vars = np.ones((2, 4))
        mu, var = aggregate(member_means, member_vars)
        dec = decompose_uncertainty(member_means, member_vars)
        assert np.all(mu == mu[-1]) and np.all(var == var[-1])
        assert np.all(dec.epistemic == dec.epistemic[-1])
        assert dec.epistemic[-1] == pytest.approx(np.log(2.0), rel=1e-12)


def _make_unit(unit_id, n_cycles, seed, n_sensors=1):
    rng = np.random.default_rng(seed)
    return UnitSeries(
        unit_id=unit_id,
        cycles=np.arange(1, n_cycles + 1),
        op_settings=rng.normal(size=(n_cycles, 3)),
        sensors=rng.normal(size=(n_cycles, n_sensors)),
        sensor_ids=tuple(range(2, 2 + n_sensors)),
    )


@pytest.fixture(scope="module")
def profile_model():
    # 4 input features to match UnitSeries with 3 settings + 1 sensor
    arch = Architecture(4, (3,), (2,))
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 5, 4))
    y = x.sum(axis=-1)
    cfg = TrainingConfig(max_epochs=1, batch_size=8)
    model, _ = train_ensemble(arch, (x, y), cfg, n_members=2, base_seed=1,
                              preprocess={"window_length": 5, "stride": 2,
                                          "rul_cap": 128,
                                          "dropped_sensors": []})
    return model


class TestDatasetUncertaintyProfile:
    def test_one_row_per_unit_at_last_cycle(self, profile_model):
        units = [_make_unit(3, 8, seed=0), _make_unit(9, 6, seed=1)]
        rows = dataset_uncertainty_profile(profile_model, units)
        assert [r.unit_id for r in rows] == [3, 9]
        assert [r.end_cycle for r in rows] == [8, 6]
        # rows must agree with the one-sequence prediction path
        pred = predict_ensemble(profile_model, units[0].features)
        dec = decompose_uncertainty(pred.member_means[:, -1],
                                    pred.member_vars[:, -1])
        assert rows[0].epistemic == pytest.approx(dec.epistemic, rel=1e-12)
        assert rows[0].aleatoric == pytest.approx(dec.aleatoric, rel=1e-12)
        assert rows[0].total == pytest.approx(dec.total, rel=1e-12)

    def test_empty_input_empty_profile(self, profile_model):
        assert dataset_uncertainty_profile(profile_model, []) == []

    def test_per_window_slides_with_model_settings(self, profile_model):
        unit = _make_unit(4, 9, seed=2)
        rows = dataset_uncertainty_profile(profile_model, [unit],
                                           per_window=True)
        # window length 5, stride 2 over 9 cycles -> starts 0, 2, 4
        assert [r.end_cycle for r in rows] == [5, 7, 9]
        assert all(r.unit_id == 4 for r in rows)

    def test_per_window_skips_short_units_with_warning(self, profile_model,
                                                       caplog):
        short = _make_unit(5, 3, seed=3)
        ok = _make_unit(6, 5, seed=4)
        with caplog.at_level(logging.WARNING, logger="rulens.ensemble"):
            rows = dataset_uncertainty_profile(profile_model, [short, ok],
                                               per_window=True)
        assert [r.unit_id for r in rows] == [6]
        assert any("unit 5" in rec.getMessage() for rec in caplog.records)

    def test_per_window_requires_window_settings(self):
        params = init_params(Architecture(4, (3,), (2,)), seed=0)
        bare = EnsembleModel(Architecture(4, (3,), (2,)), [params],
                             base_seed=0, member_seeds=(0,))
        with pytest.raises(ValueError, match="window"):
            dataset_uncertainty_profile(bare, [_make_unit(1, 6, seed=0)],
                                        per_window=True)

    def test_feature_space_mismatch_rejected(self, profile_model):
        model = EnsembleModel(
            profile_model.architecture, profile_model.members,
            base_seed=profile_model.base_seed,
            member_seeds=profile_model.member_seeds,
            norm_stats=NormStats(mean=np.zeros(4), std=np.ones(4),
                                 feature_names=("setting_1", "setting_2",
                                                "setting_3", "sensor_7")))
        unit = _make_unit(2, 6, seed=5)  # carries sensor_2, not sensor_7
        with pytest.raises(ValueError, match="feature layout"):
            dataset_uncertainty_profile(model, [unit])


class TestEnsembleModelValidation:
    def test_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleModel(ARCH, [], base_seed=0, member_seeds=())

    def test_needs_matching_seed_count(self):
        params = init_params(ARCH, seed=0)
        with pytest.raises(ValueError, match="per member"):
            EnsembleModel(ARCH, [params], base_seed=0, member_seeds=(0, 1))
