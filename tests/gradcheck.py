"""Test oracles for rulens.network: a single-sequence forward, the
Gaussian NLL, and the finite-difference check on the hand-derived gradients.

Shared by the network, ensemble and gradient tests and acceptance
criterion 1; they check the library, they are not part of it.
"""

from dataclasses import dataclass

import numpy as np

from rulens.network import PnnParams, _nll_terms, forward_stacked, grad


@dataclass
class GaussianSeqPrediction:
    """Per-time-step Gaussian RUL prediction for one input sequence."""

    means: np.ndarray       # [T]
    variances: np.ndarray   # [T], strictly positive


def forward(params: PnnParams, inputs: np.ndarray) -> GaussianSeqPrediction:
    """Predict per-time-step (mean, variance) for one sequence [T, F]."""
    arrays = {name: a[None] for name, a in params.arrays.items()}
    [(mu, var)] = forward_stacked(params.arch, arrays, [inputs])
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


def batch_forward(params: PnnParams, inputs: np.ndarray):
    """The inference forward for one member over a batch [B, T, F] ->
    (mu, var), each [B, T]."""
    arrays = {name: a[None] for name, a in params.arrays.items()}
    preds = forward_stacked(params.arch, arrays, list(inputs))
    return (np.concatenate([m for m, _ in preds]),
            np.concatenate([v for _, v in preds]))


def batch_loss(params: PnnParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean NLL over a batch, no gradients (finite-difference helper)."""
    mu, var = batch_forward(params, inputs)
    return float(_nll_terms(mu, var, np.asarray(targets, dtype=np.float64)).mean())


def finite_diff_check(params: PnnParams, inputs: np.ndarray,
                      targets: np.ndarray, epsilon: float = 1e-5,
                      buffers: dict | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every coordinate, so the parameter count is capped at 10,000.
    Relative error per coordinate: |a - n| / max(1e-8, |a| + |n|). The
    analytic gradients come from grad with the given buffers.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    n_params = params.arch.n_params()
    if n_params > 10_000:
        raise ValueError(f"{n_params} parameters; finite differences capped at 10000")
    analytic, _ = grad(params, inputs, targets, buffers)
    work = params.copy()
    worst = 0.0
    for name, arr in work.arrays.items():
        flat = arr.ravel()
        g_flat = analytic[name].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            up = batch_loss(work, inputs, targets)
            flat[j] = orig - epsilon
            down = batch_loss(work, inputs, targets)
            flat[j] = orig
            numeric = (up - down) / (2.0 * epsilon)
            a = g_flat[j]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
