"""Config validation: out-of-range settings and values that cannot be taken
as written are refused at load time with an error that names the field."""

import pytest
import yaml

from rulens.config import EnsembleConfig, TrainingConfig, load_config

BAD_TRAINING = [
    ("batch_size", 0),
    ("max_epochs", 0),
    ("learning_rate", 0.0),
    ("learning_rate", float("nan")),
    ("beta1", -0.1),
    ("beta1", 1.0),
    ("beta2", -0.1),
    ("beta2", 1.0),
    ("eps", 0.0),
    ("patience", -1),
    ("clip_norm", -1.0),
]


@pytest.mark.parametrize("field, value", BAD_TRAINING)
def test_bad_training_value_refused_at_load(field, value):
    with pytest.raises(ValueError, match=field):
        load_config(overrides={"training": {field: value}})


@pytest.mark.parametrize("field, value", BAD_TRAINING)
def test_bad_training_value_refused_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_zero_members_refused():
    with pytest.raises(ValueError, match="members"):
        load_config(overrides={"ensemble": {"members": 0}})
    with pytest.raises(ValueError, match="members"):
        EnsembleConfig(members=0)


def test_boundary_values_accepted():
    cfg = load_config(overrides={
        "training": {"batch_size": 1, "max_epochs": 1, "beta1": 0.0,
                     "beta2": 0.0, "patience": 0, "clip_norm": 0.0},
        "ensemble": {"members": 1}})
    assert cfg.training.clip_norm == 0.0
    assert cfg.ensemble.members == 1


def _load(tmp_path, raw):
    """load_config over a file holding raw, YAML text or a mapping."""
    path = tmp_path / "c.yaml"
    path.write_text(raw if isinstance(raw, str) else yaml.safe_dump(raw))
    return load_config(path)


@pytest.mark.parametrize("section, field, value", [
    ("ensemble", "members", 2.7),
    ("training", "batch_size", 31.9),
    ("ensemble", "members", True),
    ("training", "learning_rate", "fast"),
    ("architecture", "recurrent_layers", [8.5, 4]),
])
def test_number_not_taken_as_written_refused(tmp_path, section, field, value):
    # a fraction is refused, not truncated; a bool is not a number
    with pytest.raises(ValueError, match=f"{section}.{field}"):
        _load(tmp_path, {section: {field: value}})


def test_string_for_bool_refused(tmp_path):
    # a quoted "false" is a string, and bool("false") is True
    with pytest.raises(ValueError, match="evaluation.per_window"):
        _load(tmp_path, {"evaluation": {"per_window": "false"}})


def test_scalar_for_list_refused(tmp_path):
    # a user error naming the key, not a TypeError from inside
    with pytest.raises(ValueError, match="preprocessing.dropped_sensors"):
        _load(tmp_path, {"preprocessing": {"dropped_sensors": 5}})


def test_non_string_for_string_refused(tmp_path):
    with pytest.raises(ValueError, match="output_dir"):
        _load(tmp_path, {"output_dir": 5})


def test_non_mapping_reference_refused(tmp_path):
    with pytest.raises(ValueError, match="evaluation.reference"):
        _load(tmp_path, {"evaluation": {"reference": [1, 2]}})
    with pytest.raises(ValueError, match="evaluation.reference.rmse"):
        _load(tmp_path, {"evaluation": {"reference": {"rmse": "abc"}}})


def test_preset_key_in_file_refused(tmp_path):
    # a file's preset would be echoed but never applied
    with pytest.raises(ValueError, match="--preset"):
        _load(tmp_path, {"preset": "desk"})


def test_values_taken_as_written_keep_their_meaning(tmp_path):
    cfg = _load(tmp_path, "\n".join([
        "ensemble: {members: 4.0}",
        "training: {learning_rate: 1e-3, clip_norm: 2}",  # YAML 1.1: '1e-3'
        "preprocessing: {dropped_sensors: [19, 1.0]}",
        "evaluation: {per_window: true, reference: {rmse: 15}}",
        ""]))
    assert cfg.ensemble.members == 4 and type(cfg.ensemble.members) is int
    assert cfg.training.learning_rate == 0.001
    assert cfg.training.clip_norm == 2.0
    assert type(cfg.training.clip_norm) is float
    assert cfg.preprocessing.dropped_sensors == (1, 19)
    assert cfg.evaluation.per_window is True
    assert cfg.evaluation.reference == {"rmse": 15.0}
    assert load_config(preset="desk").ensemble.members == 5


@pytest.mark.parametrize("section, field, value", [
    ("preprocessing", "window_length", 2 ** 31),
    ("preprocessing", "stride", 1e308),
    ("preprocessing", "stride", 2 ** 63),
    ("preprocessing", "rul_cap", 2 ** 31),
    ("training", "batch_size", 2 ** 31),
    ("training", "max_epochs", 2 ** 31),
    ("training", "early_stop_start", 2 ** 31),
    ("training", "patience", 2 ** 31),
    ("ensemble", "members", 2 ** 31),
    ("architecture", "recurrent_layers", [8, 2 ** 31]),
    ("architecture", "dense_layers", [2 ** 31, 2]),
])
def test_size_at_2_31_or_above_refused(tmp_path, section, field, value):
    # numpy would take it as an int64 only to overflow, or fail casting it
    with pytest.raises(ValueError, match=f"{section}.{field} must be below"):
        _load(tmp_path, {section: {field: value}})


@pytest.mark.parametrize("base_seed, members", [
    (-1, 1), (2 ** 64, 1), (2 ** 64 - 2, 3), (1e308, 1)])
def test_base_seed_outside_the_seed_range_refused(tmp_path, base_seed,
                                                  members):
    # seeds are taken mod 2**64: s and s + 2**64 would train the same
    # members and record different seeds
    with pytest.raises(ValueError, match="ensemble.base_seed"):
        _load(tmp_path, {"ensemble": {"base_seed": base_seed,
                                      "members": members}})


@pytest.mark.parametrize("sensors", [[0], [-1], [22], [1e308], [3, 2 ** 63]])
def test_dropped_sensor_outside_1_to_21_refused(tmp_path, sensors):
    with pytest.raises(ValueError, match="preprocessing.dropped_sensors"):
        _load(tmp_path, {"preprocessing": {"dropped_sensors": sensors}})


def test_largest_sizes_and_seeds_accepted(tmp_path):
    top = 2 ** 31 - 1
    cfg = _load(tmp_path, {
        "preprocessing": {"window_length": top, "stride": top,
                          "rul_cap": top, "dropped_sensors": [1, 21]},
        "architecture": {"recurrent_layers": [top], "dense_layers": [top, 2]},
        "training": {"batch_size": top, "max_epochs": top,
                     "early_stop_start": top, "patience": top},
        "ensemble": {"members": 3, "base_seed": 2 ** 64 - 3}})
    assert cfg.preprocessing.stride == top
    assert cfg.ensemble.base_seed == 2 ** 64 - 3
    cfg = _load(tmp_path, {"ensemble": {"base_seed": 0}})
    assert cfg.ensemble.base_seed == 0
