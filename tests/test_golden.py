"""Golden digests: the SHA-256 of every file a tiny CLI pipeline writes,
recorded per numerics key in tests/data/golden.json.

The bits of a trained member and of every read-out depend on numpy's
version, the OpenBLAS kernel it runs, numpy's dispatch target for the
float64 exp, log and tanh kernels and the BLAS thread setting, so the
digests hold only for a host whose key they are filed under. A change
that claims byte-identity leaves the file alone; one that changes bits on
purpose records the new digests. On a host whose key is absent the test
skips and prints the entry to add.
"""

import ctypes
import glob
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import run_cli
from rulens.synthetic import write_synthetic_dataset

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


def _openblas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library runs, read as
    benchmark/run.py's blas_info opens the library."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                             / "lib*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return "unknown"


def _dispatch_targets() -> dict[str, str] | None:
    """numpy's current target for float64 exp, log and tanh; None where
    numpy cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(signature="float64")
    return {name: info[name]["dd"]["current"]
            for name in ("exp", "log", "tanh")}


def numerics_key() -> tuple[str, bool]:
    """(this host's numerics key, whether every part of it is known)."""
    targets = _dispatch_targets()
    core = _openblas_core()
    env = os.environ
    threads = env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS"))
    parts = [f"numpy={np.__version__}", f"openblas_core={core}"]
    parts += [f"{name}={target}" for name, target in (targets or {}).items()]
    parts.append(f"blas_threads={threads}")
    return " ".join(parts), targets is not None and core != "unknown"


def _pipeline() -> dict[str, str]:
    """Every CLI command on tiny synthetic data, all paths relative to the
    working directory -> the SHA-256 of every file under it, by path."""
    data = write_synthetic_dataset(Path("data"), n_train_units=6,
                                   n_test_units=4, seed=3, min_len=30,
                                   max_len=45)
    Path("config.yaml").write_text(yaml.safe_dump({
        "data": {"train_file": str(data["train"]),
                 "test_file": str(data["test"]),
                 "rul_file": str(data["rul"])},
        "preprocessing": {"window_length": 10, "rul_cap": 40},
        "architecture": {"recurrent_layers": [4], "dense_layers": [2]},
        "training": {"max_epochs": 2, "batch_size": 16},
        "ensemble": {"members": 3, "base_seed": 5},
        "output_dir": "run",
    }))
    c = ["--config", "config.yaml"]
    ckpt = ["--checkpoint", "run/checkpoint"]
    archive = ["--archive", "run/archive"]
    test = ["--test", f"synth={data['test']}"]
    for argv in (["ingest"], ["train", *archive],
                 ["evaluate", *ckpt, *archive, "--per-unit"],
                 ["uncertainty", *ckpt, *test],
                 ["uncertainty", *ckpt, *test, "--per-window",
                  "--out", "run/uncertainty_windows"],
                 ["predict", *ckpt, *archive, "--unit", "1"],
                 ["predict", *ckpt, *archive, "--unit", "1",
                  "--split", "train"]):
        assert run_cli(*argv, *c) == 0, argv
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*")) if p.is_file()}


def test_pipeline_writes_the_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = _pipeline()
    assert "run/checkpoint/members/member_002.ckpt" in digests
    key, known = numerics_key()
    golden = json.loads(GOLDEN.read_text())
    if not known or key not in golden:
        pytest.skip(f"no golden digests for numerics key {key!r}"
                    + ("" if known else " (not every part of it is known)")
                    + "; to add: " + json.dumps({key: digests}, indent=2,
                                                sort_keys=True))
    assert digests == golden[key]
