"""Config validation: out-of-range training and ensemble settings are refused
at load time with an error that names the field."""

import pytest

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
