"""Parsing, feature selection, normalization, targets, windows, archives."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulens.cmapss import (N_SENSORS, NormStats, UnitSeries, apply_norm,
                           build_windows, drop_sensors, fit_norm_stats,
                           format_cmapss, load_archive, load_true_rul,
                           make_rul_targets, norm_fingerprint, parse_cmapss,
                           prepare_split, save_archive, split_fingerprint)
from rulens.config import PreprocessConfig
from rulens.errors import CmapssFormatError, DataIntegrityError
from rulens.synthetic import CONSTANT_SENSORS, make_synthetic_units


def _unit(n_cycles: int, unit_id: int = 1, seed: int = 0,
          n_sensors: int = N_SENSORS) -> UnitSeries:
    rng = np.random.default_rng(seed)
    return UnitSeries(
        unit_id=unit_id,
        cycles=np.arange(1, n_cycles + 1),
        op_settings=rng.normal(size=(n_cycles, 3)),
        sensors=rng.normal(size=(n_cycles, n_sensors)),
        sensor_ids=tuple(range(1, n_sensors + 1)),
    )


def _text_for(rows: list[list[float]]) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def _row(unit: int, cycle: int, fill: float = 0.5) -> list[float]:
    return [unit, cycle] + [fill] * 24


class TestParse:
    def test_two_units_grouped_and_ordered(self):
        text = _text_for([_row(2, 1), _row(1, 1), _row(1, 2)])
        units = parse_cmapss(io.StringIO(text))
        assert [u.unit_id for u in units] == [1, 2]
        assert len(units[0]) == 2 and len(units[1]) == 1
        assert units[0].op_settings.shape == (2, 3)
        assert units[0].sensors.shape == (2, 21)

    def test_empty_input_gives_empty_list(self):
        assert parse_cmapss(io.StringIO("")) == []

    def test_wrong_field_count_names_line(self):
        text = _text_for([_row(1, 1), [1, 2] + [0.0] * 23])
        with pytest.raises(CmapssFormatError, match="line 2.*25"):
            parse_cmapss(io.StringIO(text))

    def test_non_numeric_token_names_line(self):
        rows = [_row(1, 1)]
        text = _text_for(rows).replace("0.5", "oops", 1)
        with pytest.raises(CmapssFormatError, match="line 1"):
            parse_cmapss(io.StringIO(text))

    def test_cycle_gap_is_integrity_error(self):
        text = _text_for([_row(1, 1), _row(1, 3)])
        with pytest.raises(DataIntegrityError, match="unit 1"):
            parse_cmapss(io.StringIO(text))

    def test_cycles_not_starting_at_one(self):
        text = _text_for([_row(1, 2), _row(1, 3)])
        with pytest.raises(DataIntegrityError):
            parse_cmapss(io.StringIO(text))

    def test_scientific_notation_accepted(self):
        row = _row(1, 1)
        row[5] = "1.5e-3"
        units = parse_cmapss(io.StringIO(_text_for([row])))
        assert units[0].sensors[0, 0] == pytest.approx(1.5e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                    max_size=4), st.integers(0, 2**31 - 1))
    def test_round_trip_exact(self, lengths, seed):
        rng = np.random.default_rng(seed)
        units = [
            UnitSeries(unit_id=k + 1, cycles=np.arange(1, n + 1),
                       op_settings=rng.normal(size=(n, 3)) * 100,
                       sensors=rng.normal(size=(n, N_SENSORS)) * 1000)
            for k, n in enumerate(lengths)]
        again = parse_cmapss(io.StringIO(format_cmapss(units)))
        assert len(again) == len(units)
        for a, b in zip(units, again):
            assert a.unit_id == b.unit_id
            assert np.array_equal(a.op_settings, b.op_settings)
            assert np.array_equal(a.sensors, b.sensors)


class TestTrueRul:
    def test_assigns_in_unit_order(self):
        units = [_unit(3, unit_id=1), _unit(4, unit_id=2)]
        out = load_true_rul(io.StringIO("7\n19\n"), units)
        assert [u.true_final_rul for u in out] == [7, 19]
        assert all(u.true_final_rul is None for u in units)  # originals intact

    def test_count_mismatch(self):
        with pytest.raises(DataIntegrityError, match="1 values for 2 units"):
            load_true_rul(io.StringIO("7\n"), [_unit(3, 1), _unit(3, 2)])

    def test_all_zeros_is_valid(self):
        out = load_true_rul(io.StringIO("0\n0\n"), [_unit(3, 1), _unit(3, 2)])
        assert [u.true_final_rul for u in out] == [0, 0]

    def test_negative_rejected(self):
        with pytest.raises(DataIntegrityError):
            load_true_rul(io.StringIO("-3\n"), [_unit(3)])

    def test_non_integer_rejected(self):
        with pytest.raises(CmapssFormatError, match="line 1"):
            load_true_rul(io.StringIO("3.5\n"), [_unit(3)])


class TestDropSensors:
    def test_default_drop_retains_15(self):
        out = drop_sensors([_unit(5)], (1, 5, 10, 16, 18, 19))
        assert out[0].sensors.shape == (5, 15)
        assert 1 not in out[0].sensor_ids and 19 not in out[0].sensor_ids
        assert out[0].sensor_ids == (2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15,
                                     17, 20, 21)

    def test_empty_drop_is_identity(self):
        out = drop_sensors([_unit(5)], ())
        assert out[0].sensors.shape == (5, 21)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="22"):
            drop_sensors([_unit(5)], (22,))

    def test_feature_names_follow_selection(self):
        out = drop_sensors([_unit(2)], (1, 2, 3))
        assert out[0].feature_names[:3] == ("setting_1", "setting_2", "setting_3")
        assert out[0].feature_names[3] == "sensor_4"


class TestNormStats:
    def test_population_convention(self):
        unit = _unit(3, n_sensors=1)
        unit.sensors[:, 0] = [1.0, 2.0, 3.0]
        stats = fit_norm_stats([unit])
        j = stats.feature_index_map["sensor_1"]
        assert stats.mean[j] == pytest.approx(2.0)
        assert stats.std[j] == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_constant_feature_error_names_feature(self):
        unit = _unit(4, n_sensors=2)
        unit.sensors[:, 1] = 7.0
        with pytest.raises(DataIntegrityError, match="sensor_2"):
            fit_norm_stats([unit], on_constant="error")

    def test_constant_feature_zero_policy(self):
        unit = _unit(4, n_sensors=2)
        unit.sensors[:, 1] = 7.0
        stats = fit_norm_stats([unit], on_constant="zero")
        assert stats.constant_features == ("sensor_2",)
        j = stats.feature_index_map["sensor_2"]
        assert stats.std[j] == 1.0
        normed = apply_norm([unit], stats)[0]
        assert np.all(normed.sensors[:, 1] == 0.0)

    def test_centering_and_unit_scaling(self):
        unit = _unit(50, seed=3)
        stats = fit_norm_stats([unit])
        at_mean = UnitSeries(1, np.array([1]), stats.mean[None, :3],
                             stats.mean[None, 3:],
                             sensor_ids=unit.sensor_ids)
        assert np.allclose(apply_norm([at_mean], stats)[0].features, 0.0)
        one_sigma = UnitSeries(1, np.array([1]),
                               (stats.mean + stats.std)[None, :3],
                               (stats.mean + stats.std)[None, 3:],
                               sensor_ids=unit.sensor_ids)
        assert np.allclose(apply_norm([one_sigma], stats)[0].features, 1.0)

    def test_train_stats_leave_test_mean_off_zero(self):
        train, test = _unit(80, seed=1), _unit(80, unit_id=2, seed=2)
        test.sensors += 5.0
        stats = fit_norm_stats([train])
        normed = apply_norm([test], stats)[0]
        assert abs(normed.sensors.mean()) > 0.5

    def test_layout_mismatch_rejected(self):
        stats = fit_norm_stats([_unit(10)])
        smaller = drop_sensors([_unit(10)], (1,))
        with pytest.raises(DataIntegrityError, match="feature layout"):
            apply_norm(smaller, stats)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_invert_norm_identity(self, seed):
        unit = _unit(30, seed=seed)
        stats = fit_norm_stats([unit])
        normed = apply_norm([unit], stats)[0]
        back = normed.features * stats.std + stats.mean
        assert np.allclose(back, unit.features, rtol=1e-12, atol=1e-9)


class TestRulTargets:
    def test_long_unit_caps_then_counts_down(self):
        targets = make_rul_targets(_unit(300), 128)
        assert np.all(targets[:172] == 128.0)
        assert np.array_equal(targets[172:], np.arange(127, -1, -1))

    def test_short_unit_never_capped(self):
        targets = make_rul_targets(_unit(50), 128)
        assert np.array_equal(targets, np.arange(49, -1, -1))

    def test_zero_cap_degenerates(self):
        assert np.all(make_rul_targets(_unit(10), 0) == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 200))
    def test_targets_nonincreasing_and_bounded(self, n, cap):
        targets = make_rul_targets(_unit(n), cap)
        assert np.all(np.diff(targets) <= 0)
        assert targets.max() <= cap
        assert targets[-1] == 0.0


def _blank(n: int, unit_id: int = 1) -> UnitSeries:
    return UnitSeries(unit_id, np.arange(1, n + 1),
                      np.zeros((n, 3)), np.zeros((n, 1)), (1,))


class TestWindows:
    def test_spec_counts(self):
        for n, expect in ((105, 6), (100, 1), (99, 0)):
            assert len(build_windows([_unit(n)], 100, 1, 128)) == expect

    def test_window_contents_are_views_with_correct_slices(self):
        unit = _unit(40)
        targets = make_rul_targets(unit, 10)
        wins = build_windows([unit], 30, 2, 10)
        assert len(wins) == 6
        assert list(wins.inputs.starts) == [0, 2, 4, 6, 8, 10]
        assert not wins.inputs.view.flags.owndata
        assert np.array_equal(wins.inputs[1], unit.features[2:32])
        assert np.array_equal(wins.targets[1], targets[2:32])
        assert np.array_equal(wins.inputs[np.array([5])][0],
                              unit.features[10:40])
        batch = wins.inputs[np.array([4, 1])]
        assert batch.shape == (2, 30, 24) and batch.flags.c_contiguous

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200))
    def test_count_formula_matches_enumeration(self, n, length, stride):
        wins = build_windows([_blank(n)], length, stride, 128)
        if n < length:
            assert len(wins) == 0
        else:
            assert len(wins) == (n - length) // stride + 1
            assert len(wins) == len(range(0, n - length + 1, stride))

    def test_exhaustive_small_cases(self):
        for n in range(1, 41):
            unit = _blank(n)
            for length in range(1, 41):
                for stride in range(1, 41):
                    count = len(build_windows([unit], length, stride, 128))
                    expect = (n - length) // stride + 1 if n >= length else 0
                    assert count == expect

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=5),
           st.integers(1, 12), st.integers(1, 4))
    def test_no_window_crosses_a_unit(self, lengths, length, stride):
        units = [_unit(n, unit_id=k + 1, seed=k) for k, n in enumerate(lengths)]
        wins = build_windows(units, length, stride, 7)
        expected_x, expected_y = [], []
        for unit in units:
            targets = make_rul_targets(unit, 7)
            for s in range(0, len(unit) - length + 1, stride):
                expected_x.append(unit.features[s:s + length])
                expected_y.append(targets[s:s + length])
        assert len(wins) == len(expected_x)
        for k in range(len(wins)):
            assert np.array_equal(wins.inputs[k], expected_x[k])
            assert np.array_equal(wins.targets[k], expected_y[k])

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            build_windows([_unit(5)], 2, 0, 10)


class TestPrepareSplit:
    def test_full_chain_on_synthetic(self):
        train = make_synthetic_units(4, seed=1, min_len=40, max_len=60)
        test = make_synthetic_units(2, seed=2, min_len=40, max_len=60)
        cfg = PreprocessConfig(window_length=30, rul_cap=20)
        split = prepare_split(train, test, cfg)
        assert len(split.norm_stats.feature_names) == 18
        # constant columns of the synthetic set mirror the real pattern
        assert set(split.norm_stats.constant_features) == {"setting_3"}
        assert split.train_windows.inputs.view.shape[1:] == (30, 18)
        expected = sum(len(u) - 30 + 1 for u in train)
        assert len(split.train_windows) == expected
        # test units normalized with train stats, stats finite
        assert np.isfinite(split.test_units[0].features).all()

    def test_short_train_units_skipped_with_warning(self, caplog):
        train = make_synthetic_units(3, seed=3, min_len=25, max_len=60)
        train[0] = UnitSeries(99, np.arange(1, 11), train[0].op_settings[:10],
                              train[0].sensors[:10], train[0].sensor_ids)
        cfg = PreprocessConfig(window_length=30, rul_cap=20,
                               dropped_sensors=(1, 5, 10, 16, 18, 19))
        split = prepare_split(train, [], cfg)
        with caplog.at_level("WARNING"):
            starts = split.train_windows.inputs.starts
        assert "unit 99" in caplog.text
        # unit 99 holds the first 10 rows; no window starts inside it
        assert starts.min() >= 10
        assert len(starts) == sum(max(0, len(u) - 29) for u in train[1:])

    def test_constant_policy_error_propagates(self):
        train = make_synthetic_units(2, seed=4, min_len=40, max_len=50)
        cfg = PreprocessConfig(window_length=10, rul_cap=20,
                               constant_feature_policy="error")
        with pytest.raises(DataIntegrityError, match="setting_3"):
            prepare_split(train, [], cfg)


class TestArchive:
    @pytest.fixture()
    def split(self, synth_dataset):
        cfg = PreprocessConfig(window_length=30, rul_cap=50)
        test = load_true_rul(synth_dataset["rul"],
                             parse_cmapss(synth_dataset["test"]))
        return prepare_split(parse_cmapss(synth_dataset["train"]), test, cfg)

    def test_round_trip(self, split, tmp_path):
        manifest = save_archive(split, tmp_path / "arc", {"demo": 1})
        again, manifest2 = load_archive(tmp_path / "arc")
        assert manifest["fingerprint"] == manifest2["fingerprint"]
        assert split_fingerprint(again) == split_fingerprint(split)
        assert len(again.train_windows) == len(split.train_windows)
        assert np.array_equal(again.train_windows.inputs[0],
                              split.train_windows.inputs[0])
        assert [u.true_final_rul for u in again.test_units] == \
               [u.true_final_rul for u in split.test_units]
        assert np.array_equal(again.norm_stats.mean, split.norm_stats.mean)

    def test_loaded_windows_equal_prepared_windows(self, split, tmp_path):
        save_archive(split, tmp_path / "arc", {})
        again, _ = load_archive(tmp_path / "arc")
        ours, theirs = split.train_windows, again.train_windows
        assert np.array_equal(ours.inputs.starts, theirs.inputs.starts)
        every = np.arange(len(ours))
        assert np.array_equal(ours.inputs[every], theirs.inputs[every])
        assert np.array_equal(ours.targets[every], theirs.targets[every])

    def test_overwrite_guard(self, split, tmp_path):
        save_archive(split, tmp_path / "arc", {})
        with pytest.raises(FileExistsError):
            save_archive(split, tmp_path / "arc", {})
        save_archive(split, tmp_path / "arc", {}, force=True)

    def test_missing_archive(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_archive(tmp_path / "nothere")

    def test_fingerprint_sensitive_to_stats_and_windowing(self, split):
        base = split_fingerprint(split)
        stats = split.norm_stats
        bumped = NormStats(stats.mean + 1.0, stats.std, stats.feature_names,
                           stats.constant_features)
        assert norm_fingerprint(bumped, split.window_length, split.stride,
                                split.rul_cap, split.dropped_sensors) != base
        assert norm_fingerprint(stats, split.window_length + 1, split.stride,
                                split.rul_cap, split.dropped_sensors) != base

    def test_synthetic_constant_columns_match_declared(self, synth_dataset):
        units = parse_cmapss(synth_dataset["train"])
        for sid, value in CONSTANT_SENSORS.items():
            col = np.concatenate([u.sensors[:, sid - 1] for u in units])
            assert np.all(col == value)
        op3 = np.concatenate([u.op_settings[:, 2] for u in units])
        assert np.all(op3 == 100.0)
