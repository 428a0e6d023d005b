"""Deep ensembles of probabilistic sequence networks.

Members differ only in their seed (parameter draw + shuffle stream). The
ensemble predictive distribution is the uniform Gaussian mixture over
members, summarized by its first two moments; the predictive variance then
splits into an aleatoric part (mean of member log variances) and an
epistemic part (the rest), both in nats with additive constants dropped.
Inference runs the members over their parameter vectors stacked into one
[M, n_params] matrix, so every member must share one architecture: all of
them at once in this process over full histories, and in contiguous row
chunks of at least READ_CHUNK_MEMBERS, one per forked worker, over
windows. Training, where the members outnumber the workers, runs them in
stacks of STACK_SIZE the same way.
"""

from __future__ import annotations

import functools
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .cmapss import Preprocessing, UnitSeries, check_features, window_starts
from .config import TrainingConfig
from .errors import DivergenceError
from .network import (Architecture, PnnParams, TrainHistory, forward_stacked,
                      forward_windows, train_pnn)


def member_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 that is exact on ties and order-independent.

    Sorting canonicalizes member order, and averaging offsets from the
    smallest element makes the mean of M identical values return that value
    bit-for-bit. Both properties are load-bearing: epistemic uncertainty of
    a degenerate ensemble must be exactly zero, and results must not depend
    on member completion order. Each reading is summed with its member axis
    contiguous (Fortran order): NumPy sums a contiguous axis pairwise and a
    strided one in sequence, so a reading's bits follow its member values
    alone, not the input's layout or how many readings share the call.
    """
    s = np.sort(np.asfortranarray(values, dtype=np.float64), axis=0)
    return s[0] + np.mean(s - s[0], axis=0)


@dataclass
class EnsembleModel:
    """Trained members plus the preprocessing that makes their inputs."""

    architecture: Architecture
    members: list[PnnParams]
    base_seed: int
    prep: Preprocessing

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        for k, member in enumerate(self.members):
            if member.arch != self.architecture:
                raise ValueError(f"member {k} has architecture {member.arch}, "
                                 f"the ensemble's is {self.architecture}")

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def member_seeds(self) -> tuple[int, ...]:
        return tuple(p.seed for p in self.members)


@dataclass
class UncertaintyDecomposition:
    """Log-variance split in nats (constants dropped), with the mixture
    moments it splits; one entry per reading.

    total == aleatoric + epistemic by construction; epistemic is zero for a
    degenerate ensemble and nonnegative up to float rounding otherwise.
    mean and variance are the mixture moments of aggregate; total is
    log(variance).
    """

    aleatoric: np.ndarray
    epistemic: np.ndarray
    total: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


def aggregate(member_means: np.ndarray,
              member_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixture moments from per-member Gaussians stacked on axis 0.

    variance = mean of member variances + variance of member means, the
    numerically stable arrangement of the mixture second moment: it cannot
    go below the mean member variance through cancellation.
    """
    m = np.asarray(member_means, dtype=np.float64)
    v = np.asarray(member_vars, dtype=np.float64)
    if m.shape != v.shape or m.ndim < 1 or m.shape[0] < 1:
        raise ValueError("member means/vars must share shape [M, ...] with M >= 1")
    if np.any(v <= 0):
        raise ValueError("member variances must be strictly positive")
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        raise ValueError("non-finite member predictions")
    mu_star = member_mean(m)
    var_star = member_mean(v) + member_mean((m - mu_star) ** 2)
    return mu_star, var_star


def decompose_uncertainty(member_means: np.ndarray,
                          member_vars: np.ndarray) -> UncertaintyDecomposition:
    """Split mixture log variance into aleatoric and epistemic parts.

    aleatoric = mean over members of log sigma_i^2; total = log sigma_*^2;
    epistemic = total - aleatoric. Takes [M, ...] with the readings on the
    trailing axes; outputs drop the member axis ([M] gives NumPy floats).
    """
    mu_star, var_star = aggregate(member_means, member_vars)
    aleatoric = member_mean(np.log(member_vars))
    total = np.log(var_star)
    return UncertaintyDecomposition(aleatoric, total - aleatoric, total,
                                    mu_star, var_star)


# Members per stack (see network.train_pnn) when members outnumber the
# workers. In one process at one BLAS thread, on windows the size of the
# benchmark's train workload (876 of 100 steps, 18 features, [32, 16],
# batch 32), a stack of 2 took 1.52x one member's time and a stack of 3
# took 2.03x. So pairs train 3 members on 2 CPUs in 1.52x, where one stack
# of 3 would take 2.03x, and a worker holds two members' training buffers
# (8.3 MiB each), not three. With no more members than workers, every
# member has a worker of its own and trains alone, in 1.0x.
STACK_SIZE = 2


# Fewest members in one chunk of the windowed read-out (see read_out). A
# forward_windows call pays a fixed cost per step whatever its member
# count, so small chunks add CPU time on any number of CPUs. In one process
# at one BLAS thread, on the benchmark's window_profile inputs (15 members,
# windows of 100 steps, [32, 16]; seeds 11 and 12, 5 runs each), reading
# the members in 3 chunks took 2-4% less CPU than in one, 5 chunks 0-3%
# more, 8 chunks 11-27% more and 15 one-member chunks 36-40% more. Chunks
# of at least 5 hold that cost near zero: a 15-member model forks at most
# 3 workers, and a model of fewer than 10 members reads out in this
# process.
READ_CHUNK_MEMBERS = 5


def _worker_count(n_jobs: int) -> int:
    """Processes to run n_jobs jobs (stacks or member chunks) in: one per
    CPU this process may run on (os.cpu_count() where affinity is unknown),
    at most one per job."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(n_jobs, cpus)


def _train_stack(arch: Architecture, train_windows: tuple,
                 train_cfg: TrainingConfig, jobs: list[tuple[int, int]]
                 ) -> list[tuple[PnnParams, TrainHistory] | DivergenceError]:
    """Members k with seeds s, (k, s) in jobs, trained as one stack; a
    divergence names its member."""
    results = train_pnn(arch, train_windows, train_cfg,
                        [seed for _, seed in jobs])
    return [DivergenceError(f"member {k} (seed {seed}) diverged: {result}",
                            sample_index=result.sample_index,
                            epoch=result.epoch, member=k)
            if isinstance(result, DivergenceError) else result
            for (k, seed), result in zip(jobs, results)]


# In a pool worker, the parent's job function, inherited through fork.
_worker_job = None


def _start_worker(job: Callable) -> None:
    global _worker_job
    _worker_job = job
    # Ctrl-C reaches the whole process group; the parent alone reacts, and
    # tears the pool down
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_in_worker(arg):
    return _worker_job(arg)


@contextmanager
def _pool_results(job: Callable, args: list) -> Iterator[Iterator]:
    """job(arg) for every arg, in order.

    With more than one worker (see _worker_count), the jobs run in a pool
    of forked processes: each inherits job and all it holds (data, model,
    config, the BLAS setting), so only an arg goes out and its result comes
    back. Otherwise they run here, one after another. An error in a job
    reaches the caller as the job raised it, and leaving the block stops
    and reaps every worker.
    """
    n_workers = _worker_count(len(args))
    if n_workers <= 1:
        yield map(job, args)
        return
    # imported here: the inference commands import this module too
    import multiprocessing
    with multiprocessing.get_context("fork").Pool(
            n_workers, initializer=_start_worker,
            initargs=(job,)) as pool:
        yield pool.imap(_run_in_worker, args)


def train_ensemble(arch: Architecture,
                   train_windows: tuple,
                   train_cfg: TrainingConfig,
                   n_members: int,
                   base_seed: int,
                   resume: Callable[[int, int], PnnParams | None] | None = None,
                   progress: Callable[[int, PnnParams, TrainHistory], None]
                   | None = None,
                   ) -> tuple[list[PnnParams], list[TrainHistory | None]]:
    """Train n_members networks with seeds base_seed + k, k = 0..M-1.

    train_windows is the (inputs, targets) pair train_pnn takes; a member
    depends only on its seed, the data and the BLAS thread count.
    resume(k, seed) is asked for every member first and may return
    finished parameters, used as they are (history None). The others train
    in forked worker processes, one per CPU this process may run on and at
    most one per stack, or in this process when that is one (`taskset -c
    0` gives the serial run). Where the members outnumber those workers,
    they train in stacks of STACK_SIZE consecutive members, otherwise one
    to a worker; neither the stacks nor the worker count change a bit.
    progress(k, params, history) sees each newly trained member in member
    order as soon as it and those before it are done, so a caller can
    persist it. The first diverging member raises DivergenceError naming
    the member, after the members before it have gone to progress, and an
    error or interrupt stops every worker. Returns (members, histories),
    both in member order.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    seeds = [base_seed + k for k in range(n_members)]
    members = [resume(k, seed) if resume is not None else None
               for k, seed in enumerate(seeds)]
    histories: list[TrainHistory | None] = [None] * n_members
    jobs = [(k, seed) for k, seed in enumerate(seeds) if members[k] is None]
    size = STACK_SIZE if _worker_count(len(jobs)) < len(jobs) else 1
    stacks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    train = functools.partial(_train_stack, arch, train_windows, train_cfg)
    with _pool_results(train, stacks) as results:
        for stack, stack_results in zip(stacks, results):
            for (k, _), result in zip(stack, stack_results):
                if isinstance(result, DivergenceError):
                    raise result
                members[k], histories[k] = result
                if progress is not None:
                    progress(k, *result)
    return members, histories


def _member_readings(arch: Architecture, vectors: np.ndarray, passes: list,
                     window: int | None, rows: slice
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The readings of members vectors[rows] -> their means and variances
    [m, N]. Without a window, passes is one list of (sequence, steps) pairs,
    run in one forward_stacked call, each sequence read at its steps; with
    one, every pass is the (rows, hop) of one unit's windows, run in one
    forward_windows call."""
    vectors = vectors[rows]
    if window is None:
        [pairs] = passes
        preds = forward_stacked(arch, vectors, [seq for seq, _ in pairs])
        # indexing by steps copies, so no pass's output stays alive
        readings = [(m[:, steps], v[:, steps])
                    for (m, v), (_, steps) in zip(preds, pairs)]
    else:
        readings = [forward_windows(arch, vectors, unit_rows, window, hop)
                    for unit_rows, hop in passes]
    empty = np.empty((len(vectors), 0))
    return (np.concatenate([empty] + [m for m, _ in readings], axis=1),
            np.concatenate([empty] + [v for _, v in readings], axis=1))


def _window_rows(features: np.ndarray, ends: Sequence[int], window: int
                 ) -> tuple[np.ndarray, int]:
    """The rows that the windows of window steps ending at ends read, and
    the hop between consecutive windows' first rows among them, as
    forward_windows takes them. The ends must be evenly spaced and
    ascending, as cmapss.window_starts gives them."""
    starts = np.asarray(ends, dtype=np.intp) - (window - 1)
    stride = int(starts[1] - starts[0]) if len(starts) > 1 else window
    if (stride < 1 or starts[0] < 0 or starts[-1] + window > len(features)
            or np.any(starts != starts[0] + stride * np.arange(len(starts)))):
        raise ValueError(f"windows of {window} steps ending at {ends} are not "
                         "evenly spaced within the unit")
    if stride <= window:        # the windows cover one run of rows
        return features[starts[0]:starts[-1] + window], stride
    # rows between the windows are read by none of them
    return features[(starts[:, None] + np.arange(window)).ravel()], window


def read_out(model: EnsembleModel, units: Sequence[UnitSeries],
             ends: Sequence[Sequence[int]], window: int | None = None
             ) -> tuple[np.ndarray, np.ndarray, UncertaintyDecomposition]:
    """The one read-out: the readings of units[i] at its step indices
    ends[i], decomposed in one call -> (unit ids, cycles, decomposition),
    one column entry per reading, in unit order, then in the order of ends.

    By default all units' full histories run in one pass, here. With a
    window length, each reading comes from the window of that many steps
    ending at it instead, and a unit's ends must be evenly spaced: one
    forward_windows pass per unit holds all of its windows, projects each
    of the rows they read once and runs the head at their last steps only.
    The members then run in contiguous row chunks of at least
    READ_CHUNK_MEMBERS, one per forked worker (see _worker_count; `taskset
    -c 0` gives the serial run, as do no windows at all). The chunks change
    no bit: every product in a pass is one BLAS call per member, the rest
    is elementwise, and member_mean ignores member order and layout. A unit
    of another feature layout than the model's preprocessing is refused.
    """
    for unit in units:
        check_features(unit, model.prep.norm_stats)
    if window is None:
        passes = [[(unit.features, e) for unit, e in zip(units, ends)]]
    else:
        passes = [_window_rows(unit.features, e, window)
                  for unit, e in zip(units, ends) if len(e)]
    n = 1
    if window is not None and passes:
        n = _worker_count(max(1, model.n_members // READ_CHUNK_MEMBERS))
    bounds = [model.n_members * j // n for j in range(n + 1)]
    read = functools.partial(_member_readings, model.architecture,
                             np.stack([p.vector for p in model.members]),
                             passes, window)
    with _pool_results(read, [slice(a, b) for a, b in zip(bounds, bounds[1:])]
                       ) as results:
        chunks = list(results)
    means = np.concatenate([m for m, _ in chunks])
    varis = np.concatenate([v for _, v in chunks])
    dec = decompose_uncertainty(means, varis)
    unit_ids = np.repeat(np.array([unit.unit_id for unit in units], np.int64),
                         [len(e) for e in ends])
    cycles = np.concatenate([np.zeros(0, np.int64)]
                            + [unit.cycles[e] for unit, e in zip(units, ends)])
    return unit_ids, cycles, dec


def dataset_uncertainty_profile(model: EnsembleModel,
                                units: Sequence[UnitSeries],
                                per_window: bool = False
                                ) -> tuple[np.ndarray, np.ndarray,
                                           UncertaintyDecomposition]:
    """Uncertainty readings over a dataset already in model feature space
    -> (unit ids, end cycles, decomposition), as read_out returns them.

    Default: one reading per unit, at the last step of its full history.
    With per_window, one reading per window of cmapss.window_starts at the
    model's training window length and stride, which skips (and warns
    about) units shorter than one window.
    """
    if not per_window:
        return read_out(model, units, [[len(unit) - 1] for unit in units])
    length = model.prep.window_length
    all_starts = window_starts(units, length, model.prep.stride, "test")
    return read_out(model, units, [starts + length - 1 for starts in all_starts],
                    window=length)
