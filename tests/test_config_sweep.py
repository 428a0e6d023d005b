"""Every config value runs or is refused at load: each of the config keys
outside `data` takes each value below, one at a time. A value that loads
runs the whole pipeline through the command line on a tiny archive; one
that does not is refused with a ValueError that names its key."""

import dataclasses

import pytest
import yaml

from conftest import run_cli
from rulens.config import RunConfig, load_config

VALUES = [None, 0, -1, 5, "x", [], {}, True, 1e308, 0.5, [5], {"a": 1},
          float("nan"), "1e-3", [0], [-1], [1e308], 2 ** 63]

# window 10, one small layer, 2 members and 1 epoch, so a run takes
# a fraction of a second
BASE = {"preprocessing": {"window_length": 10},
        "architecture": {"recurrent_layers": [4], "dense_layers": [2]},
        "training": {"max_epochs": 1},
        "ensemble": {"members": 2}}

KEYS = [(section.name, key.name)
        for section in dataclasses.fields(RunConfig)
        if dataclasses.is_dataclass(section.default_factory)
        and section.name != "data"
        for key in dataclasses.fields(section.default_factory)]

# sizes that would make a run take minutes
LONG_RUNS = {("ensemble", "members"), ("training", "max_epochs")}


def test_every_key_outside_data_is_swept():
    assert len(KEYS) == 22


@pytest.mark.parametrize("section,key", KEYS,
                         ids=[f"{s}.{k}" for s, k in KEYS])
def test_each_value_runs_or_is_refused_naming_its_key(
        section, key, synth_dataset, tmp_path, capsys):
    for i, value in enumerate(VALUES):
        out = tmp_path / str(i)
        cfg = {**BASE, "data": {f"{role}_file": str(synth_dataset[role])
                                for role in ("train", "test", "rul")},
               "output_dir": str(out)}
        cfg[section] = {**cfg.get(section, {}), key: value}
        config = tmp_path / f"{i}.yaml"
        config.write_text(yaml.safe_dump(cfg))
        try:
            load_config(config)
        except ValueError as exc:
            assert key in str(exc), (value, str(exc))
            continue
        if (section, key) in LONG_RUNS and value > 50:
            continue
        archive = ["--archive", out / "archive"]
        ckpt = ["--checkpoint", out / "checkpoint"]
        for argv in (["ingest"], ["train", *archive],
                     ["evaluate", *ckpt, *archive, "--per-unit"],
                     ["uncertainty", *ckpt, "--per-window",
                      "--test", f"t={synth_dataset['test']}"],
                     ["predict", *ckpt, *archive, "--unit", "1"]):
            code = run_cli(*argv, "--config", config)
            err = capsys.readouterr().err
            assert code in (0, 1), (value, argv, code, err)
            if code == 1:
                assert err.startswith("numeric failure"), (value, argv, err)
                break
