"""Independent reference for the ensemble's mixture outputs.

Reads the member checkpoint files the CLI wrote (one JSON header line,
then little-endian float64 parameters in the order the header names),
normalizes the generated raw files itself and runs its own single-sequence
LSTM forward per member. Nothing here imports ``rulens``, so a wrong
aggregation, decomposition or batching in the program shows as a mismatch
instead of agreeing with itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import gen

VAR_FLOOR = 1e-6


def param_shapes(arch: dict) -> dict[str, tuple[int, ...]]:
    shapes = {}
    width = arch["input_dim"]
    for k, hidden in enumerate(arch["recurrent_layers"]):
        shapes[f"lstm{k}.w_x"] = (width, 4 * hidden)
        shapes[f"lstm{k}.w_h"] = (hidden, 4 * hidden)
        shapes[f"lstm{k}.b"] = (4 * hidden,)
        width = hidden
    for k, out in enumerate(arch["dense_layers"]):
        shapes[f"dense{k}.w"] = (width, out)
        shapes[f"dense{k}.b"] = (out,)
        width = out
    return shapes


def load_members(ckpt: Path) -> tuple[dict, list[dict[str, np.ndarray]]]:
    """-> (architecture, one parameter dict per member)."""
    ens = json.loads((ckpt / "ensemble.json").read_text())
    members = []
    for rel in ens["member_files"]:
        blob = (ckpt / rel).read_bytes()
        split = blob.index(b"\n")
        header = json.loads(blob[:split])
        shapes = param_shapes(header["architecture"])
        flat = np.frombuffer(blob[split + 1:], dtype="<f8")
        arrays, offset = {}, 0
        for name in header["param_names"]:
            size = int(np.prod(shapes[name]))
            arrays[name] = flat[offset:offset + size].reshape(shapes[name])
            offset += size
        members.append(arrays)
    return ens["architecture"], members


def read_units(path: Path) -> list[np.ndarray]:
    """Raw 26-column file -> per-unit [cycles, 18] retained features."""
    rows = np.loadtxt(path, ndmin=2)
    keep = [0, 1, 2] + [2 + s for s in range(1, gen.N_SENSORS + 1)
                        if s not in gen.CONSTANT_SENSORS]
    units = []
    for uid in np.unique(rows[:, 0]):
        units.append(rows[rows[:, 0] == uid][:, 2:][:, keep])
    return units


def normalizer(train_file: Path):
    """Z-norm fitted on the training rows; a constant column gets std 1."""
    stacked = np.vstack(read_units(train_file))
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std[std == 0.0] = 1.0
    return lambda x: (x - mean) / std


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def member_forward(arch: dict, p: dict[str, np.ndarray], x: np.ndarray):
    """One sequence [T, F] -> per-step (mean [T], variance [T])."""
    layer_in = x
    for k, hidden in enumerate(arch["recurrent_layers"]):
        zx = layer_in @ p[f"lstm{k}.w_x"] + p[f"lstm{k}.b"]
        h, c = np.zeros(hidden), np.zeros(hidden)
        out = np.empty((len(x), hidden))
        for t in range(len(x)):
            z = zx[t] + h @ p[f"lstm{k}.w_h"]
            i, f, o = (sigmoid(z[j * hidden:(j + 1) * hidden]) for j in (0, 1, 3))
            c = f * c + i * np.tanh(z[2 * hidden:3 * hidden])
            h = o * np.tanh(c)
            out[t] = h
        layer_in = out
    a = layer_in
    n_dense = len(arch["dense_layers"])
    for k in range(n_dense):
        a = a @ p[f"dense{k}.w"] + p[f"dense{k}.b"]
        if k < n_dense - 1:
            a = np.tanh(a)
    return a[:, 0], np.logaddexp(0.0, a[:, 1]) + VAR_FLOOR


def mixture(arch: dict, members: list, x: np.ndarray) -> dict[str, np.ndarray]:
    """Per-step mixture mean, sigma and the log-variance decomposition."""
    outs = [member_forward(arch, p, x) for p in members]
    m = np.array([o[0] for o in outs])
    v = np.array([o[1] for o in outs])
    mean = m.mean(axis=0)
    var = v.mean(axis=0) + ((m - mean) ** 2).mean(axis=0)
    u_al = np.log(v).mean(axis=0)
    return {"mean": mean, "sigma": np.sqrt(var), "u_al": u_al,
            "u_tot": np.log(var), "u_ep": np.log(var) - u_al}
