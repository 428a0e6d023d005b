"""Test oracles for rulens.network: a single-sequence forward, the
Gaussian NLL, and the finite-difference check on the hand-derived gradients;
the window helpers that turn arrays into what training reads; and
train_members, which gathers what train_ensemble hands back.

Shared by the network, ensemble, inference and gradient tests and
acceptance criteria 1 and 5; they check the library, they are not part of
it.
"""

from dataclasses import dataclass

import numpy as np

from rulens.cmapss import WindowView
from rulens.ensemble import train_ensemble
from rulens.network import (Architecture, Stack, _nll_terms, forward_stacked,
                            grad)


@dataclass
class GaussianSeqPrediction:
    """Per-time-step Gaussian RUL prediction for one input sequence."""

    means: np.ndarray       # [T]
    variances: np.ndarray   # [T], strictly positive


def forward(arch: Architecture, vector: np.ndarray,
            inputs: np.ndarray) -> GaussianSeqPrediction:
    """Predict per-time-step (mean, variance) for one sequence [T, F] with
    one member's parameter vector."""
    [(mu, var)] = forward_stacked(arch, vector[None], [inputs])
    return GaussianSeqPrediction(means=mu[0], variances=var[0])


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


def batch_forward(arch: Architecture, vector: np.ndarray, inputs: np.ndarray):
    """The inference forward for one member over a batch [B, T, F] ->
    (mu, var), each [B, T]."""
    preds = forward_stacked(arch, vector[None], list(inputs))
    return (np.concatenate([m for m, _ in preds]),
            np.concatenate([v for _, v in preds]))


def batch_loss(arch: Architecture, vector: np.ndarray, inputs: np.ndarray,
               targets: np.ndarray) -> float:
    """Mean NLL over a batch, no gradients (finite-difference helper)."""
    mu, var = batch_forward(arch, vector, inputs)
    return float(_nll_terms(mu, var, np.asarray(targets, dtype=np.float64)).mean())


def member_grad(arch: Architecture, vector: np.ndarray, inputs: np.ndarray,
                targets: np.ndarray, buffers: dict | None = None
                ) -> tuple[np.ndarray, float]:
    """grad for one member over a batch [B, T, F] with targets [B, T] ->
    (gradient laid out as vector, loss); without buffers, grad gets a
    fresh dict."""
    grads, losses = grad(Stack(arch, vector[None]), inputs, targets,
                         {} if buffers is None else buffers)
    return grads[0], float(losses[0])


def finite_diff_check(arch: Architecture, vector: np.ndarray,
                      inputs: np.ndarray, targets: np.ndarray,
                      epsilon: float = 1e-5,
                      buffers: dict | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every coordinate, so the parameter count is capped at 10,000.
    Relative error per coordinate: |a - n| / max(1e-8, |a| + |n|). The
    analytic gradients come from member_grad with the given buffers.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    n_params = arch.n_params()
    if n_params > 10_000:
        raise ValueError(f"{n_params} parameters; finite differences capped at 10000")
    analytic, _ = member_grad(arch, vector, inputs, targets, buffers)
    worst = 0.0
    flat = vector.copy()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + epsilon
        up = batch_loss(arch, flat, inputs, targets)
        flat[j] = orig - epsilon
        down = batch_loss(arch, flat, inputs, targets)
        flat[j] = orig
        numeric = (up - down) / (2.0 * epsilon)
        a = analytic[j]
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst


def as_windows(inputs: np.ndarray, targets: np.ndarray
               ) -> tuple[WindowView, np.ndarray]:
    """Windows [N, T, F] and their targets [N, T] as the (windows, targets)
    that train_pnn reads: window i is rows i * T to (i + 1) * T of one flat
    copy, and targets holds each of those rows' target."""
    x = np.array(inputs, dtype=np.float64)
    y = np.array(targets, dtype=np.float64)
    n, length = y.shape
    starts = np.arange(n) * length
    return (WindowView(x.reshape((n * length,) + x.shape[2:]), length, starts),
            y.reshape(n * length))


def window(view: WindowView, i: int, rows: np.ndarray | None = None
           ) -> np.ndarray:
    """Window i of a WindowView, a view of its rows, or of rows laid out
    as its rows are (the targets build_windows returns with it)."""
    rows = view.rows if rows is None else rows
    return rows[view.starts[i]:view.starts[i] + view.length]


def gather(view: WindowView, idx, rows: np.ndarray | None = None
           ) -> np.ndarray:
    """Windows idx of a WindowView (over rows, as window takes them),
    stacked into a new array."""
    return np.stack([window(view, i, rows) for i in np.arange(len(view))[idx]])


def train_members(arch: Architecture, train_windows: tuple, cfg,
                  n_members: int, base_seed: int, skip=(), done=None
                  ) -> tuple[np.ndarray, list]:
    """train_ensemble over members k < n_members with seeds base_seed + k,
    except those in skip -> (vectors [n_members, n_params], histories),
    both in member order: a skipped member's row stays zero and its
    history None. done, if given, also sees each result as it comes."""
    vectors = np.zeros((n_members, arch.n_params()))
    histories = [None] * n_members

    def collect(k, vector, history):
        vectors[k], histories[k] = vector, history
        if done is not None:
            done(k, vector, history)

    train_ensemble(arch, train_windows, cfg,
                   [(k, base_seed + k) for k in range(n_members)
                    if k not in skip], collect)
    return vectors, histories
