"""Probabilistic sequence network: stacked LSTM layers, dense layers and a
two-unit Gaussian head, with exact reverse-mode gradients.

The topology is fixed (recurrent stack -> dense stack -> (mu, raw scale));
there is no general autodiff. The backward pass is hand-derived
backpropagation through time, which keeps the whole model in float64 numpy
and makes finite-difference verification meaningful.

The variance head emits a raw real s with sigma^2 = softplus(s) + 1e-6, so
predicted variances are smooth and strictly positive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .config import TrainingConfig
from .errors import DivergenceError

logger = logging.getLogger(__name__)

VAR_FLOOR = 1e-6
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class Architecture:
    """Shape of one network: input width, LSTM stack, dense stack.

    The dense stack must end in the 2-unit Gaussian head (mean, raw scale).
    Hidden dense layers (if any) use tanh.
    """

    input_dim: int
    recurrent_layers: tuple[int, ...] = (32, 16)
    dense_layers: tuple[int, ...] = (2,)

    def __post_init__(self):
        self.recurrent_layers = tuple(int(h) for h in self.recurrent_layers)
        self.dense_layers = tuple(int(d) for d in self.dense_layers)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.recurrent_layers:
            raise ValueError("need at least one recurrent layer")
        if any(h < 1 for h in self.recurrent_layers + self.dense_layers):
            raise ValueError("layer sizes must be >= 1")
        if self.dense_layers[-1] != 2:
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
        return sum(int(np.prod(s)) for s in self.param_shapes().values())

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
class PnnParams:
    """All learnable parameters of one network member."""

    arch: Architecture
    seed: int
    arrays: dict[str, np.ndarray]   # insertion order == declared layer order

    def copy(self) -> "PnnParams":
        return PnnParams(self.arch, self.seed,
                         {k: v.copy() for k, v in self.arrays.items()})


@dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameter arrays."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    learning_rate: float
    beta1: float
    beta2: float
    eps: float


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    stop_epoch: int = 0
    stop_reason: str = ""          # "early_stop" | "max_epochs"
    best_epoch: int = 0
    best_loss: float = np.inf
    clip_events: int = 0


def init_params(arch: Architecture, seed: int) -> PnnParams:
    """Deterministic initialization: uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    per weight matrix, biases zero except the LSTM forget-gate block at 1."""
    rng = np.random.default_rng(int(seed) % (1 << 64))
    arrays: dict[str, np.ndarray] = {}
    width = arch.input_dim
    for k, hidden in enumerate(arch.recurrent_layers):
        arrays[f"lstm{k}.w_x"] = rng.uniform(
            -1.0 / np.sqrt(width), 1.0 / np.sqrt(width), (width, 4 * hidden))
        arrays[f"lstm{k}.w_h"] = rng.uniform(
            -1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden), (hidden, 4 * hidden))
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0   # forget gate block (order: i, f, g, o)
        arrays[f"lstm{k}.b"] = b
        width = hidden
    for k, out in enumerate(arch.dense_layers):
        arrays[f"dense{k}.w"] = rng.uniform(
            -1.0 / np.sqrt(width), 1.0 / np.sqrt(width), (width, out))
        arrays[f"dense{k}.b"] = np.zeros(out)
        width = out
    return PnnParams(arch=arch, seed=int(seed), arrays=arrays)


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


def _check_input(arch: Architecture, x: np.ndarray) -> None:
    """Feature width, length and finiteness of inputs [..., T, F]."""
    if x.shape[-1] != arch.input_dim:
        raise ValueError(f"input has {x.shape[-1]} features, architecture "
                         f"expects {arch.input_dim}")
    if x.shape[-2] < 1:
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


def _run(arch: Architecture, arrays: dict[str, np.ndarray], x: np.ndarray,
         active: np.ndarray, tape: dict | None = None
         ) -> tuple[np.ndarray, np.ndarray]:
    """The one forward time-step loop, shared by training and inference.

    x is time-major [T, B, F] with rows sorted so that the first active[t]
    are the sequences still running at step t; arrays holds every parameter
    stacked on a leading member axis [M, ...]. All layers plus the Gaussian
    head advance one step at a time with state [M, active[t], H], and the
    input projection is computed per step, so nothing of size [M, B, T, 4H]
    is held unless recorded. Returns mean and variance [M, B, T].

    Given a tape (a dict of buffers, see _buffer), it also records what
    backpropagation through time needs: per LSTM layer k the gates
    "lstm{k}.gates" [T, M, B, 4H] (g block after tanh), h and c
    "lstm{k}.h", "lstm{k}.c" [T + 1, M, B, H] from the zero initial state,
    and tanh(c) "lstm{k}.tc" [T, M, B, H]; per dense layer k its input
    "dense{k}.in" [T, M, B, width]; and the raw variance output "raw"
    [M, B, T]. The tape is overwritten, not zeroed, so recording one needs
    the full batch at every step.
    """
    T, B, _ = x.shape
    M = arrays["lstm0.w_x"].shape[0]
    lstm = [(hidden, arrays[f"lstm{k}.w_x"], arrays[f"lstm{k}.w_h"],
             arrays[f"lstm{k}.b"][:, None])
            for k, hidden in enumerate(arch.recurrent_layers)]
    dense = [(arrays[f"dense{k}.w"], arrays[f"dense{k}.b"][:, None])
             for k in range(len(arch.dense_layers))]
    hs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    cs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    mu = np.zeros((M, B, T))
    if tape is None:
        raw = np.zeros((M, B, T))
    else:
        assert (active == B).all(), "a tape needs the full batch at every step"
        recs = [{key: _buffer(tape, f"lstm{k}.{key}", (n, M, B, width))
                 for key, n, width in (("gates", T, 4 * hidden),
                                       ("h", T + 1, hidden),
                                       ("c", T + 1, hidden),
                                       ("tc", T, hidden))}
                for k, (hidden, *_) in enumerate(lstm)]
        for rec in recs:
            rec["h"][0] = 0.0
            rec["c"][0] = 0.0
        dense_in = [_buffer(tape, f"dense{k}.in", (T, M, B, w.shape[1]))
                    for k, (w, _) in enumerate(dense)]
        raw = _buffer(tape, "raw", (M, B, T))
    for t in range(T):
        b = active[t]
        a = x[t, :b]
        for k, (hidden, w_x, w_h, bias) in enumerate(lstm):
            # association (x w_x + b) + h w_h
            z = a @ w_x + bias
            z += hs[k][:, :b] @ w_h
            gates = sigmoid(z)          # i, f, o; g is replaced by tanh
            g = gates[..., 2 * hidden:3 * hidden]
            np.tanh(z[..., 2 * hidden:3 * hidden], out=g)
            c = gates[..., hidden:2 * hidden] * cs[k][:, :b]
            c += gates[..., :hidden] * g
            tc = np.tanh(c)
            a = gates[..., 3 * hidden:] * tc
            hs[k], cs[k] = a, c
            if tape is not None:
                rec = recs[k]
                rec["gates"][t] = gates
                rec["h"][t + 1] = a
                rec["c"][t + 1] = c
                rec["tc"][t] = tc
        for k, (w, bias) in enumerate(dense):
            if tape is not None:
                dense_in[k][t] = a
            a = a @ w + bias
            if k < len(dense) - 1:
                a = np.tanh(a)
        mu[:, :b, t] = a[..., 0]
        raw[:, :b, t] = a[..., 1]
    return mu, softplus(raw) + VAR_FLOOR


def forward_stacked(arch: Architecture, arrays: dict[str, np.ndarray],
                    seqs: Sequence[np.ndarray]
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference for M members at once over a ragged list of sequences.

    arrays holds every parameter array stacked on a leading member axis
    [M, ...]; seqs holds sequences [T_i, F]. Returns, in input order, one
    (means, variances) pair of shape [M, T_i] per sequence.

    Sequences are sorted by length, longest first (stable), padded into a
    time-major batch and run through the shared step loop, which advances
    only the batch prefix still active. Results match a per-member,
    per-sequence forward up to BLAS summation order, which depends on the
    batch shape.
    """
    xs = [np.asarray(s, dtype=np.float64) for s in seqs]
    for x in xs:
        if x.ndim != 2:
            raise ValueError(f"expected [time, features], got shape {x.shape}")
        _check_input(arch, x)
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
    mu, var = _run(arch, arrays, x_pad, active)

    position = np.empty(B, dtype=np.intp)
    position[order] = np.arange(B)
    return [(mu[:, p, :n], var[:, p, :n])
            for p, n in zip(position, lengths)]


def _nll_terms(mu: np.ndarray, var: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # overflow to inf is fine here: callers detect non-finite losses and
    # report divergence
    with np.errstate(over="ignore"):
        resid = mu - targets
        return 0.5 * np.log(var) + resid ** 2 / (2.0 * var) + HALF_LOG_2PI


def grad(params: PnnParams, inputs: np.ndarray, targets: np.ndarray,
         buffers: dict | None = None):
    """Exact gradients of the mean batch NLL for a batch of sequences.

    inputs: [B, T, F], targets: [B, T]. Returns (grads, loss) where grads
    mirrors the parameter arrays. Raises DivergenceError with the offending
    sample index if any per-sample loss is non-finite.

    The forward pass is the inference step loop with M = 1, recorded on a
    tape. Products over the B * T (sample, step) rows, the weight-gradient
    sums among them, run on sample-major rows, so their summation order
    does not follow the time-major layout of the forward.

    buffers, a dict the caller keeps between calls, holds the tape and the
    per-batch work arrays, so repeated calls of one shape allocate them
    once. Each call overwrites what the previous one left there; nothing
    returned aliases them, and the results are the same bits as with a
    fresh dict, which is what buffers=None uses.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 3 or y.shape != x.shape[:2]:
        raise ValueError("expected inputs [B, T, F] with matching targets [B, T]")
    B, T, F = x.shape
    if B < 1:
        raise ValueError("batch must be nonempty")
    arch = params.arch
    _check_input(arch, x)
    if buffers is None:
        buffers = {}

    arrays = {name: a[None] for name, a in params.arrays.items()}
    x_time_major = _buffer(buffers, "x", (T, B, F))
    np.copyto(x_time_major, x.transpose(1, 0, 2))
    mu, var = _run(arch, arrays, x_time_major, np.full(T, B), buffers)
    mu, var, raw = mu[0], var[0], buffers["raw"][0]
    terms = _nll_terms(mu, var, y)
    per_sample = terms.mean(axis=1)
    if not np.isfinite(per_sample).all():
        bad = int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise DivergenceError(
            f"non-finite loss for sample {bad} in batch", sample_index=bad)
    loss = float(per_sample.mean())

    # each role has one buffer for all layers, sized for the widest of them
    widest = max(arch.recurrent_layers)
    d_z_buf = _buffer(buffers, "d_z", (B * T * 4 * widest,))
    d_above_buf = _buffer(buffers, "d_above", (B * T * widest,))
    rows_buf = _buffer(buffers, "rows", (B * T * max(
        arch.recurrent_layers + arch.dense_layers[:-1]),))

    def head(buf: np.ndarray, *shape: int) -> np.ndarray:
        """The leading elements of a flat buffer, as an array of shape."""
        return buf[:int(np.prod(shape))].reshape(shape)

    def rows(a: np.ndarray) -> np.ndarray:
        """Time-major [T, B, W] -> sample-major rows [B * T, W], written
        over the previous rows."""
        out = head(rows_buf, B, T, a.shape[-1])
        np.copyto(out, a.transpose(1, 0, 2))
        return out.reshape(B * T, -1)

    def above(d: np.ndarray, w: np.ndarray) -> np.ndarray:
        """d @ w.T, the gradient reaching the layer below, as [B, T, W]."""
        out = head(d_above_buf, B * T, w.shape[0])
        return np.matmul(d, w.T, out=out).reshape(B, T, -1)

    scale = 1.0 / (B * T)
    resid = mu - y
    dmu = resid / var * scale
    dvar = (var - resid ** 2) / (2.0 * var ** 2) * scale
    draw = dvar * sigmoid(raw)                  # d softplus(s)/ds = sigmoid(s)

    grads: dict[str, np.ndarray] = {}
    d_out = np.empty((B * T, 2))
    d_out[:, 0] = dmu.ravel()
    d_out[:, 1] = draw.ravel()

    # dense stack, top down
    d_a = d_out
    for k in range(len(arch.dense_layers) - 1, -1, -1):
        dense_in = rows(buffers[f"dense{k}.in"][:, 0])
        w = params.arrays[f"dense{k}.w"]
        grads[f"dense{k}.w"] = dense_in.T @ d_a
        grads[f"dense{k}.b"] = d_a.sum(axis=0)
        if k > 0:
            # through tanh(z_{k-1}), whose output is the input of layer k
            d_a = d_a @ w.T * (1.0 - dense_in ** 2)
        else:
            d_above = above(d_a, w)

    # LSTM stack, top down, exact backpropagation through time
    for k in range(len(arch.recurrent_layers) - 1, -1, -1):
        hidden = arch.recurrent_layers[k]
        w_x = params.arrays[f"lstm{k}.w_x"]
        w_h = params.arrays[f"lstm{k}.w_h"]
        gates, hs, cs, tc = (buffers[f"lstm{k}.{key}"][:, 0]
                             for key in ("gates", "h", "c", "tc"))
        gi, gf, gg, go = (gates[..., j * hidden:(j + 1) * hidden]
                          for j in range(4))
        d_z = head(d_z_buf, B, T, 4 * hidden)
        dh_carry = np.zeros((B, hidden))
        dc_carry = np.zeros((B, hidden))
        for t in range(T - 1, -1, -1):
            dh = d_above[:, t] + dh_carry
            d_o = dh * tc[t]
            dc = dc_carry + dh * go[t] * (1.0 - tc[t] ** 2)
            d_i = dc * gg[t]
            d_g = dc * gi[t]
            d_f = dc * cs[t]                      # c_{t-1}
            d_z[:, t, :hidden] = d_i * gi[t] * (1.0 - gi[t])
            d_z[:, t, hidden:2 * hidden] = d_f * gf[t] * (1.0 - gf[t])
            d_z[:, t, 2 * hidden:3 * hidden] = d_g * (1.0 - gg[t] ** 2)
            d_z[:, t, 3 * hidden:] = d_o * go[t] * (1.0 - go[t])
            dh_carry = d_z[:, t] @ w_h.T
            dc_carry = dc * gf[t]
        flat_dz = d_z.reshape(B * T, 4 * hidden)
        layer_in = x.reshape(B * T, -1) if k == 0 else \
            rows(buffers[f"lstm{k - 1}.h"][1:, 0])
        grads[f"lstm{k}.w_x"] = layer_in.T @ flat_dz
        grads[f"lstm{k}.w_h"] = rows(hs[:T]).T @ flat_dz
        grads[f"lstm{k}.b"] = flat_dz.sum(axis=0)
        if k > 0:
            d_above = above(flat_dz, w_x)

    return {name: grads[name] for name in params.arrays}, loss


def init_adam(params: PnnParams, cfg: TrainingConfig) -> OptimizerState:
    zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    return OptimizerState(
        m=zeros,
        v={k: np.zeros_like(v) for k, v in params.arrays.items()},
        step=0,
        learning_rate=cfg.learning_rate,
        beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
    )


def adam_step(params: PnnParams, grads: dict[str, np.ndarray],
              state: OptimizerState) -> tuple[PnnParams, OptimizerState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.step + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    new_arrays: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, theta in params.arrays.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        new_arrays[name] = theta - state.learning_rate * (m / bc1) / (
            np.sqrt(v / bc2) + state.eps)
        new_m[name] = m
        new_v[name] = v
    return (PnnParams(params.arch, params.seed, new_arrays),
            replace(state, m=new_m, v=new_v, step=t))


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        grads = {k: g * factor for k, g in grads.items()}
    return grads, total


def train_pnn(arch: Architecture, train_windows: tuple, cfg: TrainingConfig,
              seed: int) -> tuple[PnnParams, TrainHistory]:
    """Train one member with Adam on shuffled mini-batches.

    train_windows is (inputs, targets); each supports len() and indexing by
    an index array, giving [B, T, F] and [B, T]. Numpy arrays qualify, and
    so do the gathering views of cmapss.TrainWindows.

    Deterministic: the parameter draw and the per-epoch shuffle stream both
    derive from the seed, so (seed, data, config) fully determines the
    result at a given BLAS thread count, which sets how BLAS splits its
    sums. The CLI runs OpenBLAS on one thread unless the caller sets
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS. Early stopping starts watching
    at cfg.early_stop_start and fires after cfg.patience consecutive epochs
    without a new best training loss; the returned parameters are the
    best-loss snapshot.

    Every batch reuses one dict of grad buffers, which lives only as long
    as this call, so nothing carries over from one member to the next.
    """
    inputs, targets = train_windows
    n = len(inputs)
    if n == 0:
        raise ValueError("no training windows")

    params = init_params(arch, seed)
    state = init_adam(params, cfg)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(1,)))

    buffers: dict = {}
    history = TrainHistory()
    best_params = params.copy()
    epochs_since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            try:
                grads, loss = grad(params, inputs[idx], targets[idx], buffers)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"diverged at epoch {epoch}: {exc}",
                    sample_index=exc.sample_index, epoch=epoch) from None
            grads, norm = clip_global_norm(grads, cfg.clip_norm)
            if cfg.clip_norm > 0 and norm > cfg.clip_norm:
                history.clip_events += 1
                logger.debug("epoch %d: clipped gradient norm %.3f", epoch, norm)
            params, state = adam_step(params, grads, state)
            loss_sum += loss * len(idx)
        epoch_loss = loss_sum / n
        if not np.isfinite(epoch_loss):
            raise DivergenceError(f"non-finite epoch loss at epoch {epoch}",
                                  epoch=epoch)
        history.epoch_losses.append(epoch_loss)
        if epoch_loss < history.best_loss:
            history.best_loss = epoch_loss
            history.best_epoch = epoch
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if epoch >= cfg.early_stop_start and epochs_since_best >= cfg.patience:
            history.stop_epoch = epoch
            history.stop_reason = "early_stop"
            break
    else:
        history.stop_epoch = cfg.max_epochs
        history.stop_reason = "max_epochs"
    return best_params, history
