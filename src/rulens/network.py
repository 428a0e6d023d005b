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
from scipy.special import expit

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
class GaussianSeqPrediction:
    """Per-time-step Gaussian RUL prediction for one input sequence."""

    means: np.ndarray       # [T]
    variances: np.ndarray   # [T], strictly positive


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


def _forward_batch(params: PnnParams, inputs: np.ndarray, keep_cache: bool):
    """Forward pass over a batch [B, T, F] -> (mu [B, T], var [B, T], cache).

    Recurrent state starts at zero. The cache holds everything the backward
    pass needs (gates, cell states, dense activations).
    """
    arch = params.arch
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected [batch, time, features], got shape {x.shape}")
    B, T, F = x.shape
    if F != arch.input_dim:
        raise ValueError(f"input has {F} features, architecture expects {arch.input_dim}")
    if T < 1:
        raise ValueError("need at least one time step")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in network input")

    cache: dict = {"inputs": x, "lstm": [], "dense": []} if keep_cache else None
    layer_in = x
    for k, hidden in enumerate(arch.recurrent_layers):
        w_x = params.arrays[f"lstm{k}.w_x"]
        w_h = params.arrays[f"lstm{k}.w_h"]
        b = params.arrays[f"lstm{k}.b"]
        # input contribution for every step in one matmul
        zx = layer_in.reshape(B * T, -1) @ w_x
        zx = zx.reshape(B, T, 4 * hidden) + b
        hs = np.zeros((B, T + 1, hidden))
        cs = np.zeros((B, T + 1, hidden))
        gi = np.empty((B, T, hidden))
        gf = np.empty((B, T, hidden))
        gg = np.empty((B, T, hidden))
        go = np.empty((B, T, hidden))
        tc = np.empty((B, T, hidden))
        h = hs[:, 0]
        c = cs[:, 0]
        for t in range(T):
            z = zx[:, t] + h @ w_h
            gi[:, t] = expit(z[:, :hidden])
            gf[:, t] = expit(z[:, hidden:2 * hidden])
            gg[:, t] = np.tanh(z[:, 2 * hidden:3 * hidden])
            go[:, t] = expit(z[:, 3 * hidden:])
            c = gf[:, t] * c + gi[:, t] * gg[:, t]
            tc[:, t] = np.tanh(c)
            h = go[:, t] * tc[:, t]
            hs[:, t + 1] = h
            cs[:, t + 1] = c
        if keep_cache:
            cache["lstm"].append({
                "in": layer_in, "hs": hs, "cs": cs,
                "i": gi, "f": gf, "g": gg, "o": go, "tc": tc,
            })
        layer_in = hs[:, 1:]

    a = layer_in.reshape(B * T, -1)
    n_dense = len(arch.dense_layers)
    for k in range(n_dense):
        w = params.arrays[f"dense{k}.w"]
        b = params.arrays[f"dense{k}.b"]
        if keep_cache:
            cache["dense"].append(a)
        z = a @ w + b
        a = np.tanh(z) if k < n_dense - 1 else z

    mu = a[:, 0].reshape(B, T)
    raw = a[:, 1].reshape(B, T)
    var = softplus(raw) + VAR_FLOOR
    if keep_cache:
        cache["raw"] = raw
    return mu, var, cache


def forward_stacked(arch: Architecture, arrays: dict[str, np.ndarray],
                    seqs: Sequence[np.ndarray]
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference for M members at once over a ragged list of sequences.

    arrays holds every parameter array stacked on a leading member axis
    [M, ...]; seqs holds sequences [T_i, F]. Returns, in input order, one
    (means, variances) pair of shape [M, T_i] per sequence.

    Sequences are sorted by length, longest first (stable), and all layers
    plus the Gaussian head advance one step at a time over the batch prefix
    still active, with state [M, B_active, H]. The input projection is
    computed per step, so nothing of size [M, B, T, 4H] is ever held.
    Results match a per-member, per-sequence forward up to BLAS summation
    order, which depends on the batch shape.
    """
    xs = [np.asarray(s, dtype=np.float64) for s in seqs]
    for x in xs:
        if x.ndim != 2:
            raise ValueError(f"expected [time, features], got shape {x.shape}")
        if x.shape[1] != arch.input_dim:
            raise ValueError(f"input has {x.shape[1]} features, architecture "
                             f"expects {arch.input_dim}")
        if x.shape[0] < 1:
            raise ValueError("need at least one time step")
        if not np.isfinite(x).all():
            raise ValueError("non-finite values in network input")
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

    M = arrays["lstm0.w_x"].shape[0]
    lstm = [(hidden, arrays[f"lstm{k}.w_x"], arrays[f"lstm{k}.w_h"],
             arrays[f"lstm{k}.b"][:, None])
            for k, hidden in enumerate(arch.recurrent_layers)]
    dense = [(arrays[f"dense{k}.w"], arrays[f"dense{k}.b"][:, None])
             for k in range(len(arch.dense_layers))]
    hs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    cs = [np.zeros((M, B, hidden)) for hidden in arch.recurrent_layers]
    mu = np.zeros((M, B, T))
    raw = np.zeros((M, B, T))
    for t in range(T):
        b = active[t]
        a = x_pad[t, :b]
        for k, (hidden, w_x, w_h, bias) in enumerate(lstm):
            # same association as _forward_batch: (x w_x + b) + h w_h
            z = a @ w_x + bias
            z += hs[k][:, :b] @ w_h
            gates = expit(z)            # i, f, o read here, g below
            g = np.tanh(z[..., 2 * hidden:3 * hidden])
            c = gates[..., hidden:2 * hidden] * cs[k][:, :b]
            c += gates[..., :hidden] * g
            a = gates[..., 3 * hidden:] * np.tanh(c)
            hs[k], cs[k] = a, c
        for k, (w, bias) in enumerate(dense):
            a = a @ w + bias
            if k < len(dense) - 1:
                a = np.tanh(a)
        mu[:, :b, t] = a[..., 0]
        raw[:, :b, t] = a[..., 1]
    var = softplus(raw) + VAR_FLOOR

    position = np.empty(B, dtype=np.intp)
    position[order] = np.arange(B)
    return [(mu[:, p, :n], var[:, p, :n])
            for p, n in zip(position, lengths)]


def forward(params: PnnParams, inputs: np.ndarray) -> GaussianSeqPrediction:
    """Predict per-time-step (mean, variance) for one sequence [T, F]."""
    arrays = {name: a[None] for name, a in params.arrays.items()}
    [(mu, var)] = forward_stacked(params.arch, arrays, [inputs])
    return GaussianSeqPrediction(means=mu[0], variances=var[0])


def _nll_terms(mu: np.ndarray, var: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # overflow to inf is fine here: callers detect non-finite losses and
    # report divergence
    with np.errstate(over="ignore"):
        resid = mu - targets
        return 0.5 * np.log(var) + resid ** 2 / (2.0 * var) + HALF_LOG_2PI


def gaussian_nll(pred: GaussianSeqPrediction, targets: np.ndarray) -> float:
    """Gaussian negative log likelihood, averaged over the time steps.

    Includes the 1/2 log(2 pi) constant so values are comparable across tools.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != pred.means.shape:
        raise ValueError("prediction and target lengths differ")
    if np.any(pred.variances <= 0):
        raise ValueError("variances must be strictly positive")
    return float(np.mean(_nll_terms(pred.means, pred.variances, targets)))


def grad(params: PnnParams, inputs: np.ndarray, targets: np.ndarray):
    """Exact gradients of the mean batch NLL for a batch of sequences.

    inputs: [B, T, F], targets: [B, T]. Returns (grads, loss) where grads
    mirrors the parameter arrays. Raises DivergenceError with the offending
    sample index if any per-sample loss is non-finite.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 3 or y.shape != x.shape[:2]:
        raise ValueError("expected inputs [B, T, F] with matching targets [B, T]")
    B, T, _ = x.shape
    if B < 1:
        raise ValueError("batch must be nonempty")

    mu, var, cache = _forward_batch(params, x, keep_cache=True)
    terms = _nll_terms(mu, var, y)
    per_sample = terms.mean(axis=1)
    if not np.isfinite(per_sample).all():
        bad = int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise DivergenceError(
            f"non-finite loss for sample {bad} in batch", sample_index=bad)
    loss = float(per_sample.mean())

    arch = params.arch
    scale = 1.0 / (B * T)
    resid = mu - y
    dmu = resid / var * scale
    dvar = (var - resid ** 2) / (2.0 * var ** 2) * scale
    draw = dvar * expit(cache["raw"])          # d softplus(s)/ds = sigmoid(s)

    grads: dict[str, np.ndarray] = {}
    d_out = np.empty((B * T, 2))
    d_out[:, 0] = dmu.ravel()
    d_out[:, 1] = draw.ravel()

    # dense stack, top down
    n_dense = len(arch.dense_layers)
    d_a = d_out
    for k in range(n_dense - 1, -1, -1):
        a_in = cache["dense"][k]
        if k < n_dense - 1:
            # d_a arrived through tanh(z_k); its output was cached as the
            # input of layer k+1
            act = cache["dense"][k + 1]
            d_a = d_a * (1.0 - act ** 2)
        grads[f"dense{k}.w"] = a_in.T @ d_a
        grads[f"dense{k}.b"] = d_a.sum(axis=0)
        d_a = d_a @ params.arrays[f"dense{k}.w"].T

    d_h_top = d_a.reshape(B, T, arch.recurrent_layers[-1])

    # LSTM stack, top down, exact backpropagation through time
    d_above = d_h_top
    for k in range(len(arch.recurrent_layers) - 1, -1, -1):
        lc = cache["lstm"][k]
        hidden = arch.recurrent_layers[k]
        w_x = params.arrays[f"lstm{k}.w_x"]
        w_h = params.arrays[f"lstm{k}.w_h"]
        gi, gf, gg, go, tc = lc["i"], lc["f"], lc["g"], lc["o"], lc["tc"]
        cs = lc["cs"]
        d_z = np.empty((B, T, 4 * hidden))
        dh_carry = np.zeros((B, hidden))
        dc_carry = np.zeros((B, hidden))
        for t in range(T - 1, -1, -1):
            dh = d_above[:, t] + dh_carry
            d_o = dh * tc[:, t]
            dc = dc_carry + dh * go[:, t] * (1.0 - tc[:, t] ** 2)
            d_i = dc * gg[:, t]
            d_g = dc * gi[:, t]
            d_f = dc * cs[:, t]                      # c_{t-1}
            d_z[:, t, :hidden] = d_i * gi[:, t] * (1.0 - gi[:, t])
            d_z[:, t, hidden:2 * hidden] = d_f * gf[:, t] * (1.0 - gf[:, t])
            d_z[:, t, 2 * hidden:3 * hidden] = d_g * (1.0 - gg[:, t] ** 2)
            d_z[:, t, 3 * hidden:] = d_o * go[:, t] * (1.0 - go[:, t])
            dh_carry = d_z[:, t] @ w_h.T
            dc_carry = dc * gf[:, t]
        flat_dz = d_z.reshape(B * T, 4 * hidden)
        layer_in = lc["in"]
        grads[f"lstm{k}.w_x"] = layer_in.reshape(B * T, -1).T @ flat_dz
        grads[f"lstm{k}.w_h"] = lc["hs"][:, :T].reshape(B * T, hidden).T @ flat_dz
        grads[f"lstm{k}.b"] = flat_dz.sum(axis=0)
        if k > 0:
            d_above = (flat_dz @ w_x.T).reshape(B, T, -1)

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
    result when run single-threaded. Early stopping starts watching at
    cfg.early_stop_start and fires after cfg.patience consecutive epochs
    without a new best training loss; the returned parameters are the
    best-loss snapshot.
    """
    inputs, targets = train_windows
    n = len(inputs)
    if n == 0:
        raise ValueError("no training windows")

    params = init_params(arch, seed)
    state = init_adam(params, cfg)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(1,)))

    history = TrainHistory()
    best_params = params.copy()
    epochs_since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            try:
                grads, loss = grad(params, inputs[idx], targets[idx])
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
