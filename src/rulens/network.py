"""Probabilistic sequence network: stacked LSTM layers, dense layers and a
two-unit Gaussian head, with exact reverse-mode gradients.

The topology is fixed (recurrent stack -> dense stack -> (mu, raw scale));
there is no general autodiff. The backward pass is hand-derived
backpropagation through time, which keeps the whole model in float64 numpy
and makes finite-difference verification meaningful.

A member is one float64 vector [n_params], the bytes its file stores, and
M members are one [M, n_params] matrix. Architecture.unflatten alone maps
offsets to names: the forward pass reads its named views without writing
them, grad writes the gradient into views of a matrix of its own, and Adam
updates training's parameter matrix in place. Inference runs the matrix
an ensemble holds (ensemble.EnsembleModel.vectors) as one stack; training
runs a stack of members in lockstep, each on its own batches, and a
member's bits do not depend on the stack it trained in. A unit's windows,
one cmapss.WindowView, run as one pass over the rows they read
(forward_windows): each row is projected into the first layer once,
however many windows read it, and the head runs only at the windows' last
step, the one that is read.

Measured on OpenBLAS: an LSTM product (16 to 32 inputs, 64 or 128 gate
columns) over 2 or more rows gives each row the same bits whatever the row
count, and a one-row product takes another BLAS path. The Gaussian head's
2-column product does not keep that rule: over 16 or more inputs, the rows
past the last multiple of 4 take another path, so a reading's last bits
can depend on how many sequences share its step. forward_windows gives the
bits of the per-step pass over the same windows, since both run the head
over the same rows, and it projects a unit's one window one row per
product.

The variance head emits a raw real s with sigma^2 = softplus(s) + 1e-6, so
predicted variances are smooth and strictly positive.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cmapss import WindowView
from .config import TrainingConfig
from .errors import DivergenceError

logger = logging.getLogger(__name__)

VAR_FLOOR = 1e-6
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
TRAINING_BITS = 1      # bumped by every deliberate change to training bits


def numerics() -> dict:
    """What sets a trained member's bits besides seed, data and config: the
    code's TRAINING_BITS and the BLAS thread variable OpenBLAS reads."""
    env = os.environ
    return {"training_bits": TRAINING_BITS, "blas_threads":
            env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS"))}


@dataclass
class Architecture:
    """Shape of one network: input width, LSTM stack, dense stack.

    The dense stack must end in the 2-unit Gaussian head (mean, raw scale).
    Hidden dense layers (if any) use tanh.
    """

    input_dim: int
    recurrent_layers: tuple[int, ...]
    dense_layers: tuple[int, ...]

    def __post_init__(self):
        self.recurrent_layers = tuple(int(h) for h in self.recurrent_layers)
        self.dense_layers = tuple(int(d) for d in self.dense_layers)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.recurrent_layers:
            raise ValueError("need at least one recurrent layer")
        if any(h < 1 for h in self.recurrent_layers + self.dense_layers):
            raise ValueError("layer sizes must be >= 1")
        if not self.dense_layers or self.dense_layers[-1] != 2:
            raise ValueError("dense stack must end in the 2-unit Gaussian head")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Canonical parameter name -> shape map, in declared layer order."""
        shapes: dict[str, tuple[int, ...]] = {}
        width = self.input_dim
        for k, hidden in enumerate(self.recurrent_layers):
            shapes[f"lstm{k}.w_x"] = (width, 4 * hidden)
            shapes[f"lstm{k}.w_h"] = (hidden, 4 * hidden)
            shapes[f"lstm{k}.b"] = (4 * hidden,)
            width = hidden
        for k, out in enumerate(self.dense_layers):
            shapes[f"dense{k}.w"] = (width, out)
            shapes[f"dense{k}.b"] = (out,)
            width = out
        return shapes

    def n_params(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes().values())

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views [..., *shape] of flat [..., n_params], in
        param_shapes() order; writing a view writes flat."""
        shapes = self.param_shapes()
        ends = np.cumsum([math.prod(s) for s in shapes.values()])
        if flat.shape[-1:] != (ends[-1],):
            raise ValueError(f"expected [..., {ends[-1]}] parameters, "
                             f"got shape {flat.shape}")
        parts = np.split(flat, ends[:-1], axis=-1)
        return {name: part.reshape(flat.shape[:-1] + shape)
                for (name, shape), part in zip(shapes.items(), parts)}

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "recurrent_layers": list(self.recurrent_layers),
            "dense_layers": list(self.dense_layers),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Architecture":
        return cls(input_dim=int(d["input_dim"]),
                   recurrent_layers=tuple(d["recurrent_layers"]),
                   dense_layers=tuple(d["dense_layers"]))


@dataclass
class Stack:
    """M members of one architecture, their parameters one float64 matrix
    [M, n_params] with a member per row, as grad takes them."""

    arch: Architecture
    vectors: np.ndarray


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    stop_epoch: int = 0
    stop_reason: str = ""          # "early_stop" | "max_epochs"
    best_epoch: int = 0
    best_loss: float = np.inf
    clip_events: int = 0


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Deterministic initial vector: uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    per weight matrix, biases zero except the LSTM forget-gate block at 1."""
    rng = np.random.default_rng(int(seed) % (1 << 64))
    vector = np.zeros(arch.n_params())
    for name, view in arch.unflatten(vector).items():
        if view.ndim == 2:
            bound = 1.0 / np.sqrt(view.shape[0])
            view[...] = rng.uniform(-bound, bound, view.shape)
        elif name.startswith("lstm"):
            hidden = view.shape[0] // 4
            # forget gate block (order: i, f, g, o)
            view[hidden:2 * hidden] = 1.0
    return vector


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) into a fresh array, leaving x untouched.

    exp(-x) overflows to inf for x below about -709.8, where the exact value
    is below 5.6e-309; 1 / inf then gives exactly 0, so the overflow is
    expected and silenced.
    """
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _check_input(arch: Architecture, x: np.ndarray, steps: int) -> None:
    """Feature width, length and finiteness of inputs [..., F] over steps
    time steps."""
    if x.shape[-1] != arch.input_dim:
        raise ValueError(f"input has {x.shape[-1]} features, architecture "
                         f"expects {arch.input_dim}")
    if steps < 1:
        raise ValueError("need at least one time step")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in network input")


def _buffer(buffers: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """buffers[name], reallocated (uninitialized) only when its shape changes.

    What the previous user wrote stays in it, so callers overwrite every
    element they read.
    """
    buf = buffers.get(name)
    if buf is None or buf.shape != shape:
        buf = buffers[name] = np.empty(shape)
    return buf


def _run(arch: Architecture, vectors: np.ndarray, x: np.ndarray,
         active: np.ndarray, tape: dict | None = None, hop: int = 0
         ) -> tuple[np.ndarray, np.ndarray]:
    """The one forward time-step loop, shared by training and inference.

    x is time-major, [T, B, F] for one batch that every member reads or
    [T, M, B, F] for one batch per member, with rows sorted so that the
    first active[t] of the B = active[0] are the sequences still running at
    step t; T = len(active), and vectors [M, n_params] holds one member's
    parameters per row. All layers plus the Gaussian head advance one step
    at a time with state [M, active[t], H], and the input projection is
    computed per step, so nothing of size [M, B, T, 4H] is held unless
    recorded. Returns mean and variance [M, B, T].

    With a hop, x is instead [n, F], the rows of B windows of T steps
    that every member reads, window j on rows j * hop to j * hop + T - 1;
    active is then B at every step. The first layer's input projection is
    computed once per row, not once per window that reads it, and the
    head runs at the last step only, so mean and variance are [M, B, 1].
    The readings are the bits of the per-step pass over the windows
    stacked time-major: an LSTM product over 2 or more rows gives each row
    the same bits whatever the row count, the head runs over the same B
    rows in both, and a unit's one window, whose per-step product is one
    row, is projected one row per product.

    The loop reads copies of every LSTM layer's w_x, w_h and b, made once
    per call, whose i, f and o gate columns are negated; vectors is only
    read. Negation is exact, so those columns of each step's products are
    -z, which the sigmoid 1 / (1 + exp(-z)) exponentiates as it is.
    exp(-z) overflows to inf below z of about -709.8, where the gate is
    exactly 0, so overflow is silenced over the loop.

    Given a tape (a dict of buffers, see _buffer), it also records what
    backpropagation through time needs, member-major and each activation
    once: per LSTM layer k the gates "lstm{k}.gates" [M, T, B, 4H] (g block
    after tanh) and h and c "lstm{k}.h", "lstm{k}.c" [M, T + 1, B, H] from
    the zero initial state; per hidden dense layer k its tanh output
    "dense{k}.out" [M, T, B, width]; and the raw variance output "raw"
    [M, B, T]. tanh(c) is not recorded: the backward pass recomputes it
    from c, the same function of the same values. The input of dense layer
    0 is the top LSTM layer's h[:, 1:], and that of dense layer k > 0 is
    dense{k-1}.out. The tape is overwritten, not zeroed, so recording one
    needs the full batch at every step.
    """
    T, B = len(active), int(active[0])
    M, _ = vectors.shape
    arrays = arch.unflatten(vectors)
    lstm = []
    for k, hidden in enumerate(arch.recurrent_layers):
        flip = np.repeat([-1.0, -1.0, 1.0, -1.0], hidden)     # i, f, g, o
        w_x, w_h, bias = (arrays[f"lstm{k}.{name}"] * flip
                          for name in ("w_x", "w_h", "b"))
        lstm.append((hidden, w_x, w_h, bias[:, None]))
    dense = [(arrays[f"dense{k}.w"], arrays[f"dense{k}.b"][:, None])
             for k in range(len(arch.dense_layers))]
    hs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    cs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    first_head = T - 1 if hop else 0        # the first step the head runs
    mu = np.zeros((M, B, T - first_head))
    if tape is None:
        raw = np.zeros((M, B, T - first_head))
    else:
        assert (active == B).all() and not hop, \
            "a tape needs the full batch at every step"
        recs = [{key: _buffer(tape, f"lstm{k}.{key}", (M, n, B, width))
                 for key, n, width in (("gates", T, 4 * hidden),
                                       ("h", T + 1, hidden),
                                       ("c", T + 1, hidden))}
                for k, (hidden, *_) in enumerate(lstm)]
        for rec in recs:
            rec["h"][:, 0] = rec["c"][:, 0] = 0.0
        dense_out = [_buffer(tape, f"dense{k}.out", (M, T, B, w.shape[-1]))
                     for k, (w, _) in enumerate(dense[:-1])]
        raw = _buffer(tape, "raw", (M, B, T))
    with np.errstate(over="ignore"):
        if hop:
            _, w_x, _, bias = lstm[0]
            if B == 1:  # one window: one row per product, as its steps take
                proj = (x[:, None] @ w_x[:, None])[:, :, 0] + bias
            else:
                proj = x @ w_x + bias
        for t in range(T):
            b = active[t]
            a = None if hop else x[t, ..., :b, :]
            for k, (hidden, w_x, w_h, bias) in enumerate(lstm):
                if a is None:       # window rows t, t + hop, t + 2 * hop, ...
                    z = hs[0] @ w_h
                    z += proj[:, t::hop][:, :B]
                else:
                    # association (x w_x + b) + h w_h
                    z = a @ w_x + bias
                    z += hs[k][:, :b] @ w_h
                # the i, f and o columns hold -z, so their gate is
                # 1 / (1 + exp(z)); g is replaced by tanh
                gates = np.exp(z)
                gates += 1.0
                np.reciprocal(gates, out=gates)
                g = gates[..., 2 * hidden:3 * hidden]
                np.tanh(z[..., 2 * hidden:3 * hidden], out=g)
                c = gates[..., hidden:2 * hidden] * cs[k][:, :b]
                c += gates[..., :hidden] * g
                a = gates[..., 3 * hidden:] * np.tanh(c)
                hs[k], cs[k] = a, c
                if tape is not None:
                    rec = recs[k]
                    rec["gates"][:, t] = gates
                    rec["h"][:, t + 1] = a
                    rec["c"][:, t + 1] = c
            if t < first_head:
                continue
            for k, (w, bias) in enumerate(dense):
                a = a @ w + bias
                if k < len(dense) - 1:
                    a = np.tanh(a)
                    if tape is not None:
                        dense_out[k][:, t] = a
            mu[:, :b, t - first_head] = a[..., 0]
            raw[:, :b, t - first_head] = a[..., 1]
    return mu, softplus(raw) + VAR_FLOOR


def forward_stacked(arch: Architecture, vectors: np.ndarray,
                    seqs: Sequence[np.ndarray]
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference for M members at once over a ragged list of sequences.

    vectors [M, n_params] holds one member's parameters per row; seqs holds
    sequences [T_i, F]. Returns, in input order, one
    (means, variances) pair of shape [M, T_i] per sequence.

    Sequences are sorted by length, longest first (stable), padded into a
    time-major batch and run through the shared step loop, which advances
    only the batch prefix still active. An LSTM product over 2 or more
    rows gives each row the same bits whatever the row count, but a
    one-row product takes another BLAS path, and so do the head's rows
    past the last multiple of 4 over 16 or more inputs (see the module
    docstring). So a step's reading may differ in its last bits with the
    number of sequences active at that step.
    """
    xs = [np.asarray(s, dtype=np.float64) for s in seqs]
    for x in xs:
        if x.ndim != 2:
            raise ValueError(f"expected [time, features], got shape {x.shape}")
        _check_input(arch, x, len(x))
    if not xs:
        return []

    lengths = np.array([x.shape[0] for x in xs])
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    B, T = len(xs), int(sorted_lengths[0])
    # number of sequences longer than t, i.e. the active prefix at step t
    active = np.searchsorted(-sorted_lengths, -np.arange(T), side="left")
    # time-major, so the active inputs at step t are one contiguous block
    x_pad = np.zeros((T, B, arch.input_dim))
    for j, i in enumerate(order):
        x_pad[:lengths[i], j] = xs[i]
    mu, var = _run(arch, vectors, x_pad, active)

    position = np.empty(B, dtype=np.intp)
    position[order] = np.arange(B)
    return [(mu[:, p, :n], var[:, p, :n])
            for p, n in zip(position, lengths)]


def forward_windows(arch: Architecture, vectors: np.ndarray,
                    windows: WindowView) -> tuple[np.ndarray, np.ndarray]:
    """Inference for M members at the last step of each of one unit's
    windows, whose starts must be evenly spaced and ascending, as
    cmapss.window_starts gives them. vectors [M, n_params] holds one
    member's parameters per row. Returns means and variances [M, B] for
    the B windows, window j's in column j.

    The windows run as one pass over the rows they read: one run of rows
    where consecutive windows overlap or touch, else each window's rows
    gathered, as the rows between them are read by none. The step loop
    projects each of those rows into the first layer once and runs the
    head only at the last step (see _run); the readings are the bits
    forward_stacked gives at the last step of the same windows in one
    batch.
    """
    x, length = np.asarray(windows.rows, dtype=np.float64), windows.length
    if x.ndim != 2:
        raise ValueError(f"expected [rows, features], got shape {x.shape}")
    starts = np.asarray(windows.starts, dtype=np.intp)
    hop = int(starts[1] - starts[0]) if len(starts) > 1 else length
    if (not len(starts) or hop < 1 or starts[0] < 0
            or starts[-1] + length > len(x)
            or np.any(starts != starts[0] + hop * np.arange(len(starts)))):
        raise ValueError(f"windows of {length} steps starting at {starts} "
                         f"are not evenly spaced within {len(x)} rows")
    if hop > length:        # the rows between the windows are read by none
        x, hop = x[(starts[:, None] + np.arange(length)).ravel()], length
    else:                   # the windows cover one run of rows
        x = x[starts[0]:starts[-1] + length]
    _check_input(arch, x, length)
    mu, var = _run(arch, vectors, x, np.full(length, len(starts)), hop=hop)
    return mu[..., 0], var[..., 0]


def _nll_terms(mu: np.ndarray, var: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # overflow to inf is fine here: callers detect non-finite losses and
    # report divergence
    with np.errstate(over="ignore"):
        resid = mu - targets
        return 0.5 * np.log(var) + resid ** 2 / (2.0 * var) + HALF_LOG_2PI


def grad(stack: Stack, inputs: np.ndarray, targets: np.ndarray,
         buffers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of each member's mean batch NLL, M members at once.

    inputs [M * B, T, F] and targets [M * B, T] hold the members' batches
    one after another: rows j * B to (j + 1) * B are member j's, so the
    stack does the products of one network over M * B sequences. Returns
    (grads, losses): grads a new array laid out as stack.vectors, losses
    [M]. Row j is the same bits whatever the other rows hold: every
    product is one BLAS call per member, and everything else is
    elementwise or sums within one member. Raises DivergenceError naming
    the first member (row) and its sample index with a non-finite loss.

    The forward pass is the inference step loop, recorded on a tape (see
    _run), over the inputs time-major, [T, M, B, F]: a view when inputs is
    the transpose of a C-contiguous [T, M * B, F] array, as train_pnn's
    batch buffer is, and a copy otherwise. The backward pass runs in the
    tape's layout: the gradients reaching each layer are [M, T, B, width],
    so every step of backpropagation through time reads and writes one
    [M, B, width] block, and every product over a member's T * B (step,
    sample) rows, the weight-gradient sums among them, reads the tape as
    [M, T * B, width] by reshape, without a copy. Step t's gate gradients
    overwrite its gates once the step has read them, so after the loop
    the gates buffer holds the gradients of every step.

    buffers, a dict the caller keeps between calls, holds the tape and the
    backward's work array "d_above", which also takes the member-major
    copy of the inputs that the first layer's weight gradient reads, so
    repeated calls of one shape allocate them once. Each call overwrites
    what the previous one left there; nothing returned aliases them, and
    the results are the same bits as with a fresh dict.
    """
    arch, vectors = stack.arch, stack.vectors
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    M = len(vectors)
    if x.ndim != 3 or y.shape != x.shape[:2] or len(x) % M:
        raise ValueError("expected inputs [M * B, T, F] with targets "
                         "[M * B, T] for parameters [M, n_params]")
    T, F = x.shape[1:]
    B = len(x) // M
    if B < 1:
        raise ValueError("batch must be nonempty")
    _check_input(arch, x, T)
    x = np.ascontiguousarray(x.swapaxes(0, 1)).reshape(T, M, B, F)
    y = y.reshape(M, B, T)

    mu, var = _run(arch, vectors, x, np.full(T, B), buffers)
    raw = buffers["raw"]
    per_sample = _nll_terms(mu, var, y).mean(axis=-1)
    diverged = np.argwhere(~np.isfinite(per_sample))
    if len(diverged):
        member, bad = (int(i) for i in diverged[0])
        raise DivergenceError(f"non-finite loss for sample {bad} in batch",
                              sample_index=bad, member=member)
    losses = per_sample.mean(axis=-1)

    # one buffer for all layers, sized for the widest of them and the input
    d_above_buf = _buffer(buffers, "d_above",
                          (M * T * B * max(*arch.recurrent_layers, F),))

    def above(d: np.ndarray, w: np.ndarray) -> np.ndarray:
        """d @ w.T per member, the gradient reaching the layer below, as
        [M, T, B, W]."""
        width = w.shape[-2]
        out = d_above_buf[:M * T * B * width].reshape(M, T * B, width)
        return np.matmul(d, w.swapaxes(1, 2), out=out).reshape(M, T, B, width)

    scale = 1.0 / (B * T)
    resid = mu - y
    dmu = resid / var * scale
    dvar = (var - resid ** 2) / (2.0 * var ** 2) * scale
    draw = dvar * sigmoid(raw)                  # d softplus(s)/ds = sigmoid(s)

    arrays = arch.unflatten(vectors)
    flat_grads = np.empty_like(vectors)
    grads = arch.unflatten(flat_grads)
    top = len(arch.recurrent_layers) - 1
    d_a = np.stack([dmu.swapaxes(1, 2), draw.swapaxes(1, 2)],
                   axis=-1).reshape(M, T * B, 2)

    # dense stack, top down
    for k in range(len(arch.dense_layers) - 1, -1, -1):
        dense_in = (buffers[f"lstm{top}.h"][:, 1:] if k == 0
                    else buffers[f"dense{k - 1}.out"]).reshape(M, T * B, -1)
        w = arrays[f"dense{k}.w"]
        np.matmul(dense_in.swapaxes(1, 2), d_a, out=grads[f"dense{k}.w"])
        np.sum(d_a, axis=1, out=grads[f"dense{k}.b"])
        if k > 0:
            # through tanh(z_{k-1}), whose output is the input of layer k
            d_a = d_a @ w.swapaxes(1, 2) * (1.0 - dense_in ** 2)
        else:
            d_above = above(d_a, w)

    # LSTM stack, top down, exact backpropagation through time
    for k in range(top, -1, -1):
        hidden = arch.recurrent_layers[k]
        w_x, w_h = arrays[f"lstm{k}.w_x"], arrays[f"lstm{k}.w_h"]
        gates, hs, cs = (buffers[f"lstm{k}.{key}"] for key in ("gates", "h", "c"))
        dh_carry, dc_carry = np.zeros((2, M, B, hidden))
        # the gradients reaching the sigmoid gates' outputs, i, f and o; the
        # g block stays 0, as the g gradient is taken on its own
        d_gates = np.zeros((M, B, 4 * hidden))
        d_i, d_f, _, d_o = (d_gates[..., j * hidden:(j + 1) * hidden]
                            for j in range(4))
        for t in range(T - 1, -1, -1):
            d_z = gates[:, t]           # read as gates, then overwritten
            gi, gf, gg, go = (d_z[..., j * hidden:(j + 1) * hidden]
                              for j in range(4))
            tc = np.tanh(cs[:, t + 1])
            dh = d_above[:, t] + dh_carry
            np.multiply(dh, tc, out=d_o)
            dc = dc_carry + dh * go * (1.0 - tc ** 2)
            np.multiply(dc, gg, out=d_i)
            np.multiply(dc, cs[:, t], out=d_f)    # c_{t-1}
            dc_carry = dc * gf
            d_g = dc * gi * (1.0 - gg ** 2)       # through tanh
            one_minus = 1.0 - d_z
            d_z *= d_gates                        # through the sigmoids
            d_z *= one_minus
            gg[...] = d_g
            dh_carry = d_z @ w_h.swapaxes(1, 2)
        flat_dz = gates.reshape(M, T * B, -1)
        if k > 0:
            layer_in = buffers[f"lstm{k - 1}.h"][:, 1:]
        else:       # d_above is spent: it takes the inputs member-major
            layer_in = d_above_buf[:x.size].reshape(M, T, B, F)
            np.copyto(layer_in, x.swapaxes(0, 1))
        for name, rows in (("w_x", layer_in), ("w_h", hs[:, :T])):
            np.matmul(rows.reshape(M, T * B, -1).swapaxes(1, 2), flat_dz,
                      out=grads[f"lstm{k}.{name}"])
        np.sum(flat_dz, axis=1, out=grads[f"lstm{k}.b"])
        if k > 0:
            d_above = above(flat_dz, w_x)

    return flat_grads, losses


def adam_step(theta: np.ndarray, g: np.ndarray, m: np.ndarray,
              v: np.ndarray, t: int, cfg: TrainingConfig) -> None:
    """Bias-corrected Adam update number t (from 1), in place on the
    parameters theta and the moments m and v, all of one shape."""
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    theta -= cfg.learning_rate * (m / (1.0 - cfg.beta1 ** t)) / (
        np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.eps)


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients in place so their global L2 norm is at most
    max_norm; the squares are summed per array, then across arrays."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return grads, total


@dataclass
class _Member:
    """What train_pnn keeps for one member of its stack."""

    shuffle: np.random.Generator
    best: np.ndarray                    # parameters at the best epoch loss
    history: TrainHistory = field(default_factory=TrainHistory)
    since_best: int = 0
    order: np.ndarray | None = None     # this epoch's window order
    loss_sum: float = 0.0
    result: tuple[np.ndarray, TrainHistory] | DivergenceError | None = None


def train_pnn(arch: Architecture, train_windows: tuple, cfg: TrainingConfig,
              seeds: Sequence[int]
              ) -> list[tuple[np.ndarray, TrainHistory] | DivergenceError]:
    """Train one member per seed with Adam on shuffled mini-batches, all in
    lockstep as one stack: every step is one grad call over [M, n_params]
    and one adam_step.

    train_windows is (windows, targets) as cmapss.build_windows returns
    them: a WindowView over the training rows and each row's target. Every
    step gathers the members' batches and their targets from the rows,
    time-major, straight into the batch buffers grad reads.

    Deterministic: a member's parameter draw and per-epoch shuffle stream
    both derive from its seed, so (seed, data, config) fully determines it
    at a given BLAS thread count, which sets how BLAS splits its sums; its
    stack-mates change none of its bits (see grad). The CLI runs OpenBLAS
    on one thread unless the caller sets OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS. Each member clips its own gradient norm. Early
    stopping starts watching a member at cfg.early_stop_start and fires
    after cfg.patience consecutive epochs without a new best training
    loss; the member then leaves the stack with its best-loss snapshot.

    Returns, in seed order, each member's (best-loss vector, history).
    A member whose loss goes non-finite ends the list with its
    DivergenceError: an ensemble with a diverged member fails, so the
    members after it stop training at once, and those before it train on.

    Every batch reuses one dict of buffers, which lives only as long as
    this call, so nothing carries over from one stack to the next.
    """
    windows, targets = train_windows
    n = len(windows)
    if n == 0:
        raise ValueError("no training windows")

    members = [_Member(np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(1,))),
        init_params(arch, seed)) for seed in seeds]
    live = list(members)        # the members in training, one per row
    # per row: the member's parameters, then Adam's moments m and v
    state = np.zeros((3, len(members), arch.n_params()))
    state[0] = [mem.best for mem in members]

    def diverge(r: int, error: DivergenceError) -> None:
        """Row r's member leaves with error, and the members after it."""
        nonlocal members, live, state
        live[r].result = error
        members = members[:members.index(live[r]) + 1]
        live, state = live[:r], state[:, :r]

    step = 0
    steps = np.arange(windows.length)[:, None]
    buffers: dict = {}
    for epoch in range(1, cfg.max_epochs + 1):
        for mem in live:
            mem.order = mem.shuffle.permutation(n)
            mem.loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            picks = np.concatenate([mem.order[start:start + cfg.batch_size]
                                    for mem in live])
            batch = len(picks) // len(live)
            index = windows.starts[picks] + steps       # [T, M * B] rows
            x = _buffer(buffers, "x", index.shape + windows.rows.shape[1:])
            y = _buffer(buffers, "y", index.T.shape)
            # the indices are valid; mode="clip" writes straight into out,
            # where the default mode goes through a copy
            np.take(windows.rows, index, axis=0, out=x, mode="clip")
            np.take(targets, index.T, axis=0, out=y, mode="clip")
            while True:     # again without a member that diverges
                rows = len(live) * batch
                try:
                    grads, losses = grad(Stack(arch, state[0]),
                                         x[:, :rows].swapaxes(0, 1),
                                         y[:rows], buffers)
                    break
                except DivergenceError as exc:
                    diverge(exc.member, DivergenceError(
                        f"diverged at epoch {epoch}: {exc}",
                        sample_index=exc.sample_index, epoch=epoch))
                    if not live:
                        return [mem.result for mem in members]
            for r, mem in enumerate(live):
                _, norm = clip_global_norm(arch.unflatten(grads[r]),
                                           cfg.clip_norm)
                if cfg.clip_norm > 0 and norm > cfg.clip_norm:
                    mem.history.clip_events += 1
                    logger.debug("epoch %d: clipped gradient norm %.3f",
                                 epoch, norm)
                mem.loss_sum += float(losses[r]) * batch
            step += 1
            adam_step(state[0], grads, state[1], state[2], step, cfg)
        for r, mem in enumerate(live):
            history = mem.history
            epoch_loss = mem.loss_sum / n
            if not np.isfinite(epoch_loss):
                diverge(r, DivergenceError(
                    f"non-finite epoch loss at epoch {epoch}", epoch=epoch))
                break
            history.epoch_losses.append(epoch_loss)
            if epoch_loss < history.best_loss:
                history.best_loss = epoch_loss
                history.best_epoch = epoch
                mem.best = state[0, r].copy()
                mem.since_best = 0
            else:
                mem.since_best += 1
            if epoch >= cfg.early_stop_start and mem.since_best >= cfg.patience:
                history.stop_epoch = epoch
                history.stop_reason = "early_stop"
                mem.result = (mem.best, history)
        keep = [r for r, mem in enumerate(live) if mem.result is None]
        live, state = [live[r] for r in keep], state[:, keep]
        if not live:
            break
    for mem in live:
        mem.history.stop_epoch = cfg.max_epochs
        mem.history.stop_reason = "max_epochs"
        mem.result = (mem.best, mem.history)
    return [mem.result for mem in members]
