"""Ensemble aggregation, uncertainty split, member training, profiles."""

import logging
import multiprocessing
import warnings
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import toy_prep
from gradcheck import as_windows, copy_params, forward, predict_members, window
from rulens import ensemble, network
from rulens.cmapss import NormStats, UnitSeries, build_windows
from rulens.config import TrainingConfig
from rulens.ensemble import (EnsembleModel, aggregate,
                             dataset_uncertainty_profile, decompose_uncertainty,
                             member_mean, read_out, train_ensemble)
from rulens.errors import DataIntegrityError, DivergenceError
from rulens.network import Architecture, init_params, train_pnn

ARCH = Architecture(2, (3,), (2,))
# ARCH's 2 features, under names a UnitSeries cannot hold: its names start
# with the 3 operational settings
TOY_PREP = toy_prep(("x_1", "x_2"))


def _toy_data(n=24, t=5, f=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, f))
    y = x.sum(axis=-1) + 0.1 * rng.normal(size=(n, t))
    return x, y


def _member_stack(*pairs):
    """Stack (mean, var) scalars per member into [M] arrays."""
    means = np.array([p[0] for p in pairs], dtype=np.float64)
    varis = np.array([p[1] for p in pairs], dtype=np.float64)
    return means, varis


finite_vals = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
pos_vals = st.floats(1e-6, 1e4, allow_nan=False, allow_infinity=False)


class TestMemberMean:
    def test_exact_on_ties(self):
        row = np.array([0.1, 1 / 3, np.pi, -7.77])
        tiled = np.tile(row, (13, 1))
        assert np.array_equal(member_mean(tiled), row)

    def test_matches_plain_mean(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 6))
        assert np.allclose(member_mean(a), a.mean(axis=0), rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (5, 4), elements=finite_vals),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_bitwise(self, a, rnd):
        order = list(range(5))
        rnd.shuffle(order)
        assert np.array_equal(member_mean(a), member_mean(a[order]))


class TestAggregate:
    def test_two_member_worked_example(self):
        means, varis = _member_stack((0.0, 1.0), (2.0, 1.0))
        mu, var = aggregate(means, varis)
        assert mu == 1.0
        assert var == 2.0

    def test_identical_members_collapse_exactly(self):
        means, varis = _member_stack(*[(0.7, 1.3)] * 5)
        mu, var = aggregate(means, varis)
        assert mu == 0.7
        assert var == 1.3

    def test_equal_means_average_the_variances(self):
        means, varis = _member_stack((0.5, 1.0), (0.5, 3.0))
        mu, var = aggregate(means, varis)
        assert mu == 0.5
        assert var == 2.0

    def test_vectorized_over_time_axis(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 7))
        v = rng.uniform(0.5, 2.0, size=(4, 7))
        mu, var = aggregate(m, v)
        assert mu.shape == var.shape == (7,)
        for t in range(7):
            mu_t, var_t = aggregate(m[:, t], v[:, t])
            assert mu[t] == mu_t and var[t] == var_t

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (6,), elements=finite_vals),
           arrays(np.float64, (6,), elements=pos_vals))
    def test_mixture_variance_dominates_mean_member_variance(self, m, v):
        _, var = aggregate(m, v)
        assert var >= member_mean(v)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate(np.zeros(3), np.ones(4))
        with pytest.raises(ValueError, match="positive"):
            aggregate(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            aggregate(np.array([np.inf, 0.0]), np.ones(2))
        with pytest.raises(ValueError):
            aggregate(np.zeros(0), np.zeros(0))


class TestDecompose:
    def test_identical_members_have_zero_epistemic(self):
        for m in (1, 2, 7):
            means, varis = _member_stack(*[(1.5, 0.37)] * m)
            dec = decompose_uncertainty(means, varis)
            assert dec.epistemic == 0.0

    def test_disagreeing_means_worked_example(self):
        means, varis = _member_stack((0.0, 1.0), (2.0, 1.0))
        dec = decompose_uncertainty(means, varis)
        assert dec.aleatoric == 0.0
        assert dec.epistemic == pytest.approx(np.log(2.0), rel=1e-12)
        assert dec.total == pytest.approx(np.log(2.0), rel=1e-12)

    def test_equal_large_variances(self):
        e2 = float(np.exp(2.0))
        means, varis = _member_stack((0.0, e2), (0.0, e2))
        dec = decompose_uncertainty(means, varis)
        assert dec.aleatoric == pytest.approx(2.0, rel=1e-12)
        assert dec.epistemic == 0.0

    def test_scalar_input_gives_floats(self):
        dec = decompose_uncertainty(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert isinstance(dec.aleatoric, float)
        assert isinstance(dec.epistemic, float)
        assert isinstance(dec.total, float)

    def test_vectorized_matches_scalar(self):
        # a reading's bits follow its member values only: not the stack's
        # memory layout, nor how many readings share the call; from 8
        # members on, NumPy's pairwise and sequential sums part ways
        rng = np.random.default_rng(3)
        fields = ("aleatoric", "epistemic", "total", "mean", "variance")
        for m_count in (3, 8, 15):
            m = rng.normal(40.0, 5.0, size=(m_count, 400))
            v = rng.uniform(0.2, 4.0, size=(m_count, 400))
            dec = decompose_uncertainty(m, v)
            assert dec.total.shape == (400,)
            steps = np.arange(400)
            stacks = {"F-ordered": (np.asfortranarray(m), np.asfortranarray(v)),
                      "fancy-indexed": (m[:, steps], v[:, steps])}
            for layout, (m_s, v_s) in stacks.items():
                other = decompose_uncertainty(m_s, v_s)
                for field in fields:
                    assert np.array_equal(getattr(other, field),
                                          getattr(dec, field)), \
                        (m_count, layout, field)
            for t in range(400):
                one = decompose_uncertainty(m[:, t], v[:, t])
                column = decompose_uncertainty(m[:, t:t + 1], v[:, t:t + 1])
                for field in fields:
                    expected = getattr(dec, field)[t]
                    assert getattr(one, field) == expected, (m_count, t, field)
                    assert getattr(column, field)[0] == expected, \
                        (m_count, t, field)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (5,), elements=finite_vals),
           arrays(np.float64, (5,), elements=pos_vals))
    def test_additive_identity_and_nonnegativity(self, m, v):
        dec = decompose_uncertainty(m, v)
        assert abs(dec.total - (dec.aleatoric + dec.epistemic)) <= 1e-12
        assert dec.epistemic >= -1e-9

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            decompose_uncertainty(np.zeros(2), np.array([1.0, -1.0]))


class TestTrainEnsemble:
    def test_member_seeds_are_base_plus_index(self):
        data = as_windows(*_toy_data(n=8))
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        members, _ = train_ensemble(ARCH, data, cfg, n_members=15,
                                    base_seed=237)
        assert [p.seed for p in members] == list(range(237, 252))

    def test_single_member_degenerates_to_train_pnn(self):
        data = as_windows(*_toy_data())
        cfg = TrainingConfig(max_epochs=3, batch_size=8)
        members, hists = train_ensemble(ARCH, data, cfg, n_members=1,
                                        base_seed=41)
        [(solo, solo_hist)] = train_pnn(ARCH, data, cfg, [41])
        assert all(np.array_equal(members[0].arrays[k], solo.arrays[k])
                   for k in solo.arrays)
        assert hists[0].epoch_losses == solo_hist.epoch_losses

    def test_repeat_runs_bit_identical(self):
        data = as_windows(*_toy_data())
        cfg = TrainingConfig(max_epochs=2, batch_size=8)
        a, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=7)
        b, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=7)
        for pa, pb in zip(a, b):
            assert all(np.array_equal(pa.arrays[k], pb.arrays[k])
                       for k in pa.arrays)

    def test_each_member_matches_train_pnn_alone(self):
        # a member depends on its seed and the data only, not on the
        # members trained before it
        data = as_windows(*_toy_data())
        cfg = TrainingConfig(max_epochs=2, batch_size=8)
        members, hists = train_ensemble(ARCH, data, cfg, n_members=4,
                                        base_seed=3)
        for k in (3, 1):
            [(solo, solo_hist)] = train_pnn(ARCH, data, cfg, [3 + k])
            assert all(np.array_equal(members[k].arrays[name],
                                      solo.arrays[name]) for name in solo.arrays)
            assert hists[k].epoch_losses == solo_hist.epoch_losses

    def test_resume_hook_skips_finished_members(self):
        data = as_windows(*_toy_data(n=8))
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        done = init_params(ARCH, seed=51)
        asked, trained = [], []

        def resume(k, seed):
            asked.append((k, seed))
            return done if k == 1 else None

        members, hists = train_ensemble(
            ARCH, data, cfg, n_members=3, base_seed=50, resume=resume,
            progress=lambda k, p, h: trained.append(k))
        assert asked == [(0, 50), (1, 51), (2, 52)]
        assert trained == [0, 2]
        assert members[1] is done and hists[1] is None
        assert hists[0].stop_epoch == hists[2].stop_epoch == 1

    def test_divergence_names_member(self):
        x, y = _toy_data(n=8)
        y = y.copy()
        y[1] = 1e200
        cfg = TrainingConfig(max_epochs=1, batch_size=4)
        with pytest.raises(DivergenceError) as err:
            train_ensemble(ARCH, as_windows(x, y), cfg, n_members=2,
                           base_seed=0)
        assert err.value.member == 0
        assert "member 0" in str(err.value)

    @staticmethod
    def _one_diverges():
        # on this target only seed 13's loss overflows, at epoch 1
        x, y = _toy_data(n=8)
        y = y.copy()
        y[5, 2] = 1.26e154
        return as_windows(x, y)

    def test_second_member_of_a_stack_diverges(self, monkeypatch):
        # one worker, so seeds 12 and 13 train as one stack. Member 0 still
        # reaches progress, the error is the one member 1 gives alone, and
        # the stack raises no warning that the members alone do not
        monkeypatch.setattr(ensemble, "_worker_count", lambda n: min(n, 1))
        data = self._one_diverges()
        cfg = TrainingConfig(max_epochs=2, batch_size=4)

        def warned(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn()
            return result, {(w.category, str(w.message), w.filename, w.lineno)
                            for w in caught}

        [(first, first_hist)], first_warnings = warned(
            lambda: train_pnn(ARCH, data, cfg, [12]))
        [alone], alone_warnings = warned(
            lambda: train_pnn(ARCH, data, cfg, [13]))
        seen = []

        def train():
            with pytest.raises(DivergenceError) as err:
                train_ensemble(ARCH, data, cfg, n_members=2, base_seed=12,
                               progress=lambda k, p, h: seen.append((k, p, h)))
            return err.value

        error, stack_warnings = warned(train)
        assert [(k, p.vector.tobytes(), h) for k, p, h in seen] == \
            [(0, first.vector.tobytes(), first_hist)]
        assert str(error) == ("member 1 (seed 13) diverged: diverged at "
                              "epoch 1: non-finite loss for sample 0 in batch")
        assert str(error) == f"member 1 (seed 13) diverged: {alone}"
        assert (error.member, error.epoch, error.sample_index) == \
            (1, alone.epoch, alone.sample_index)
        assert stack_warnings <= first_warnings | alone_warnings

    def test_members_after_a_diverged_one_stop_with_it(self, monkeypatch):
        # seed 13 diverges at epoch 1 ahead of seed 12 in one stack: the
        # results end with its error, and seed 12, whose result no ensemble
        # could use, stops with it instead of training to max_epochs
        data = self._one_diverges()
        cfg = TrainingConfig(max_epochs=50, batch_size=4)
        [alone] = train_pnn(ARCH, data, cfg, [13])
        calls = []
        real = network.grad
        monkeypatch.setattr(network, "grad", lambda stack, *args: calls.append(
            len(stack.vectors)) or real(stack, *args))
        [error] = train_pnn(ARCH, data, cfg, [13, 12])
        assert (str(error), error.epoch, error.sample_index) == \
            (str(alone), alone.epoch, alone.sample_index)
        # at most epoch 1's two batches, each over both members
        assert calls in ([2], [2, 2])

    def test_progress_callback_sees_every_member(self):
        data = as_windows(*_toy_data(n=8))
        cfg = TrainingConfig(max_epochs=1, batch_size=8)
        seen = []
        members, _ = train_ensemble(
            ARCH, data, cfg, n_members=3, base_seed=9,
            progress=lambda k, p, h: seen.append((k, p, h.stop_epoch)))
        assert seen == [(k, members[k], 1) for k in range(3)]

    def test_argument_guards(self):
        data = as_windows(*_toy_data(n=4))
        cfg = TrainingConfig(max_epochs=1)
        with pytest.raises(ValueError):
            train_ensemble(ARCH, data, cfg, n_members=0, base_seed=0)


class TestWorkers:
    """Members that resume does not supply train in forked workers, one per
    allowed CPU (ensemble._worker_count), in stacks of two where they
    outnumber the workers; the windowed read-out runs the members in one
    contiguous row chunk per worker, of at least READ_CHUNK_MEMBERS members.
    Neither the count, the stacks nor the chunks change a bit."""

    @staticmethod
    def _serial(monkeypatch):
        # one worker: the members train in this process, and no pool starts
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for one worker")

        monkeypatch.setattr(ensemble, "_worker_count", lambda n: min(n, 1))
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)

    @staticmethod
    def _pairs(monkeypatch):
        # two workers, so more than two members train in stacks of two, and
        # the read-out splits the members in two chunks, however few
        monkeypatch.setattr(ensemble, "_worker_count", lambda n: min(n, 2))
        monkeypatch.setattr(ensemble, "READ_CHUNK_MEMBERS", 1)

    @staticmethod
    def _parallel(monkeypatch):
        # one worker per member, however many CPUs this machine has, so
        # every member trains, and is read out, alone
        monkeypatch.setattr(ensemble, "_worker_count", lambda n: n)
        monkeypatch.setattr(ensemble, "READ_CHUNK_MEMBERS", 1)

    def _train(self, monkeypatch, layout, **kwargs):
        with monkeypatch.context() as m:
            layout(m)
            data = kwargs.pop("data", as_windows(*_toy_data()))
            return train_ensemble(ARCH, data,
                                  TrainingConfig(max_epochs=3, batch_size=8),
                                  **kwargs)

    def test_worker_count_never_changes_bits(self, monkeypatch):
        # stacks (0, 1) and (2) in this process, the same stacks in two
        # workers, and every member alone in a worker of its own
        runs = [self._train(monkeypatch, layout, n_members=3, base_seed=17)
                for layout in (self._serial, self._pairs, self._parallel)]
        serial, serial_hists = runs[0]
        for members, hists in runs[1:]:
            for a, b in zip(serial, members):
                assert a.seed == b.seed
                assert a.vector.tobytes() == b.vector.tobytes()
            assert hists == serial_hists
        assert serial_hists[2].epoch_losses

    def test_stacks_only_where_members_outnumber_workers(self, monkeypatch):
        # a pair takes about 1.5x one member, so members with a worker each
        # train alone
        stacks = []
        real = ensemble._pool_results
        monkeypatch.setattr(ensemble, "_pool_results", lambda train, jobs: (
            stacks.append([[k for k, _ in stack] for stack in jobs])
            or real(train, jobs)))
        for layout in (self._serial, self._pairs, self._parallel):
            self._train(monkeypatch, layout, n_members=3, base_seed=17)
        assert stacks == [[[0, 1], [2]], [[0, 1], [2]], [[0], [1], [2]]]

    def test_progress_in_member_order_from_workers(self, monkeypatch):
        seen = []
        done = init_params(ARCH, seed=41)
        members, hists = self._train(
            monkeypatch, self._pairs, n_members=4, base_seed=40,
            resume=lambda k, seed: done if k == 1 else None,
            progress=lambda k, p, h: seen.append((k, p, h)))
        assert [k for k, _, _ in seen] == [0, 2, 3]
        assert all(p is members[k] and h is hists[k] for k, p, h in seen)
        assert members[1] is done and hists[1] is None

    def test_divergence_in_a_worker_names_member(self, monkeypatch):
        # member 0 is resumed, so the stacks (1, 2) and (3, 4) diverge in
        # two workers; the parent raises member 1's error as the serial run
        # does
        x, y = _toy_data(n=8)
        y = y.copy()
        y[1] = 1e200
        done = init_params(ARCH, seed=1)
        errors, pools = [], []
        real = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: pools.append(method) or real(method))
        for layout in (self._serial, self._pairs):
            with pytest.raises(DivergenceError) as err:
                self._train(monkeypatch, layout, data=as_windows(x, y),
                            n_members=5, base_seed=0,
                            resume=lambda k, s: done if k == 0 else None)
            errors.append(err.value)
        serial, parallel = errors
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []
        assert parallel.member == 1
        assert parallel.epoch == 1 and parallel.sample_index is not None
        assert (str(parallel), parallel.epoch, parallel.sample_index) == \
            (str(serial), serial.epoch, serial.sample_index)
        assert "member 1 (seed 1)" in str(parallel)

    @staticmethod
    def _five_members(profile_model):
        # five members, so the two-worker chunks (rows 0-1 and 2-4) and one
        # worker per member are different layouts
        arch = profile_model.architecture
        return EnsembleModel(arch, [init_params(arch, seed=k)
                                    for k in range(5)],
                             base_seed=0, prep=profile_model.prep)

    @staticmethod
    def _windows(monkeypatch, layout, model, units):
        with monkeypatch.context() as m:
            layout(m)
            return dataset_uncertainty_profile(model, units, per_window=True)

    def test_windowed_read_out_same_bits_in_every_layout(self, monkeypatch,
                                                         profile_model):
        model = self._five_members(profile_model)
        units = [_make_unit(1, 9, seed=6), _make_unit(2, 3, seed=7),
                 _make_unit(3, 12, seed=8)]
        pools = []
        real = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: pools.append(method) or real(method))
        runs = [self._windows(monkeypatch, layout, model, units)
                for layout in (self._serial, self._pairs, self._parallel)]
        assert pools == ["fork", "fork"]
        assert multiprocessing.active_children() == []
        serial_ids, serial_cycles, serial = runs[0]
        assert serial_ids.tolist() == [1, 1, 1, 3, 3, 3, 3]
        for ids, cycles, dec in runs[1:]:
            assert ids.tobytes() == serial_ids.tobytes()
            assert cycles.tobytes() == serial_cycles.tobytes()
            for field in ("aleatoric", "epistemic", "total", "mean",
                          "variance"):
                assert getattr(dec, field).tobytes() == \
                    getattr(serial, field).tobytes(), field

    def test_full_history_read_out_starts_no_pool(self, monkeypatch,
                                                  profile_model):
        # one worker per member on offer, yet every full-history read-out
        # runs in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for a full-history read-out")

        monkeypatch.setattr(ensemble, "_worker_count", lambda n: n)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        model = self._five_members(profile_model)
        units = [_make_unit(1, 9, seed=6), _make_unit(2, 3, seed=7)]
        ids, cycles, _ = dataset_uncertainty_profile(model, units)
        assert (ids.tolist(), cycles.tolist()) == ([1, 2], [9, 3])
        ids, cycles, dec = read_out(model, units, [np.arange(len(unit))
                                                   for unit in units])
        assert cycles.tolist() == list(range(1, 10)) + [1, 2, 3]
        assert dec.total.shape == (12,)

    def test_error_in_a_read_out_worker_reaches_the_caller(self, monkeypatch,
                                                           profile_model):
        # a non-finite input value, in the second unit's last windows: the
        # workers raise the serial run's error, and none is left running
        model = self._five_members(profile_model)
        bad = _make_unit(2, 9, seed=9)
        features = bad.features.copy()
        features[6, 1] = np.nan
        units = [_make_unit(1, 9, seed=6), replace(bad, features=features)]
        errors = []
        for layout in (self._serial, self._pairs, self._parallel):
            with pytest.raises(ValueError) as err:
                self._windows(monkeypatch, layout, model, units)
            errors.append(err.value)
        assert multiprocessing.active_children() == []
        assert [(type(e), str(e)) for e in errors] == \
            [(ValueError, "non-finite values in network input")] * 3

    def test_read_out_chunks_hold_at_least_read_chunk_members(
            self, monkeypatch, profile_model):
        # on 16 CPUs, 15 members read out in 3 chunks of 5, and 9 members
        # in this process; on 2 CPUs, 10 members in 2 chunks of 5
        chunks = []

        @contextmanager
        def recording(job, args):
            chunks.append([(rows.start, rows.stop) for rows in args])
            yield map(job, args)

        monkeypatch.setattr(ensemble, "_pool_results", recording)
        arch = profile_model.architecture
        units = [_make_unit(1, 9, seed=6)]
        for cpus, n_members in ((16, 15), (16, 9), (2, 10)):
            monkeypatch.setattr(ensemble.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            model = EnsembleModel(arch, [init_params(arch, seed=k)
                                         for k in range(n_members)],
                                  base_seed=0, prep=profile_model.prep)
            dataset_uncertainty_profile(model, units, per_window=True)
        assert chunks == [[(0, 5), (5, 10), (10, 15)], [(0, 9)],
                          [(0, 5), (5, 10)]]

    def test_read_out_of_no_windows_starts_no_pool(self, monkeypatch,
                                                   profile_model):
        # every unit is shorter than the window, so one worker per member
        # would have nothing to read
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for no windows")

        self._parallel(monkeypatch)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        model = self._five_members(profile_model)
        units = [_make_unit(1, 3, seed=6), _make_unit(2, 4, seed=7)]
        ids, cycles, dec = dataset_uncertainty_profile(model, units,
                                                       per_window=True)
        assert ids.size == cycles.size == dec.total.size == 0

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        assert [ensemble._worker_count(n) for n in (0, 1, 2, 3, 15)] == \
            [0, 1, 2, 3, 3]
        # where affinity is unavailable, every CPU counts
        monkeypatch.delattr(ensemble.os, "sched_getaffinity")
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 4)
        assert ensemble._worker_count(15) == 4
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)
        assert ensemble._worker_count(15) == 1


@pytest.fixture(scope="module")
def tiny_model():
    data = as_windows(*_toy_data())
    cfg = TrainingConfig(max_epochs=2, batch_size=8)
    members, _ = train_ensemble(ARCH, data, cfg, n_members=3, base_seed=11)
    return EnsembleModel(ARCH, members, 11, TOY_PREP)


def _every_step(model, x):
    """The predict command's read-out: every step of one sequence, as a
    unit that holds only what read_out reads of one (id, cycles, feature
    names and features), laid out as TOY_PREP."""
    unit = SimpleNamespace(unit_id=1, cycles=np.arange(1, len(x) + 1),
                           feature_names=TOY_PREP.norm_stats.feature_names,
                           features=x)
    return read_out(model, [unit], [np.arange(len(x))])[2]


class TestPredictEnsemble:
    def test_shapes(self, tiny_model):
        x = np.random.default_rng(0).normal(size=(6, 2))
        dec = _every_step(tiny_model, x)
        for field in ("mean", "variance", "aleatoric", "epistemic", "total"):
            assert getattr(dec, field).shape == (6,)
        assert np.all(dec.variance > 0)

    def test_matches_per_member_forward_plus_aggregate(self, tiny_model):
        x = np.random.default_rng(1).normal(size=(5, 2))
        dec = _every_step(tiny_model, x)
        singles = [forward(p, x) for p in tiny_model.members]
        mu, var = aggregate(np.stack([s.means for s in singles]),
                            np.stack([s.variances for s in singles]))
        assert np.allclose(dec.mean, mu, rtol=1e-12)
        assert np.allclose(dec.variance, var, rtol=1e-12)

    def test_degenerate_ensemble_collapses(self):
        params = init_params(ARCH, seed=5)
        model = EnsembleModel(ARCH, [params, copy_params(params),
                                     copy_params(params)],
                              base_seed=5, prep=TOY_PREP)
        x = np.random.default_rng(2).normal(size=(4, 2))
        dec = _every_step(model, x)
        single = forward(params, x)
        assert np.array_equal(dec.mean, single.means)
        assert np.array_equal(dec.variance, single.variances)
        assert np.all(dec.epistemic == 0.0)

    def test_rejects_batched_input(self, tiny_model):
        with pytest.raises(ValueError, match="time, features"):
            _every_step(tiny_model, np.zeros((2, 4, 2)))


class TestLastStepView:
    def test_single_step_identity(self, profile_model):
        # a one-cycle unit: its profile reading is the decomposition of the
        # members' only step
        unit = _make_unit(4, 1, seed=3)
        ids, cycles, dec = dataset_uncertainty_profile(profile_model, [unit])
        [(means, varis)] = predict_members(profile_model.members,
                                           [unit.features])
        direct = decompose_uncertainty(means[:, 0], varis[:, 0])
        assert (ids.tolist(), cycles.tolist()) == ([4], [1])
        assert (dec.aleatoric[0], dec.epistemic[0], dec.total[0]) == \
            (direct.aleatoric, direct.epistemic, direct.total)

    def test_constant_over_time_matches_any_step(self):
        member_means = np.tile([[0.0], [2.0]], (1, 4))
        member_vars = np.ones((2, 4))
        mu, var = aggregate(member_means, member_vars)
        dec = decompose_uncertainty(member_means, member_vars)
        assert np.all(mu == mu[-1]) and np.all(var == var[-1])
        assert np.all(dec.epistemic == dec.epistemic[-1])
        assert dec.epistemic[-1] == pytest.approx(np.log(2.0), rel=1e-12)


def _make_unit(unit_id, n_cycles, seed, n_sensors=1):
    rng = np.random.default_rng(seed)
    return UnitSeries(
        unit_id=unit_id,
        cycles=np.arange(1, n_cycles + 1),
        features=np.hstack([rng.normal(size=(n_cycles, 3)),
                            rng.normal(size=(n_cycles, n_sensors))]),
        sensor_ids=tuple(range(2, 2 + n_sensors)),
    )


@pytest.fixture(scope="module")
def profile_model():
    # 4 input features to match UnitSeries with 3 settings + 1 sensor
    arch = Architecture(4, (3,), (2,))
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 5, 4))
    y = x.sum(axis=-1)
    cfg = TrainingConfig(max_epochs=1, batch_size=8)
    members, _ = train_ensemble(arch, as_windows(x, y), cfg, n_members=2,
                                base_seed=1)
    prep = toy_prep(_make_unit(0, 1, seed=0).feature_names, window_length=5,
                    stride=2)
    return EnsembleModel(arch, members, 1, prep)


class TestDatasetUncertaintyProfile:
    def test_one_row_per_unit_at_last_cycle(self, profile_model):
        units = [_make_unit(3, 8, seed=0), _make_unit(9, 6, seed=1)]
        ids, cycles, dec = dataset_uncertainty_profile(profile_model, units)
        assert ids.tolist() == [3, 9]
        assert cycles.tolist() == [8, 6]
        # readings must agree with the one-sequence prediction path
        [(means, varis)] = predict_members(profile_model.members,
                                           [units[0].features])
        one = decompose_uncertainty(means[:, -1], varis[:, -1])
        assert dec.epistemic[0] == pytest.approx(one.epistemic, rel=1e-12)
        assert dec.aleatoric[0] == pytest.approx(one.aleatoric, rel=1e-12)
        assert dec.total[0] == pytest.approx(one.total, rel=1e-12)

    def test_empty_input_empty_profile(self, profile_model):
        ids, cycles, dec = dataset_uncertainty_profile(profile_model, [])
        assert ids.size == cycles.size == dec.total.size == 0

    def test_per_window_slides_with_model_settings(self, profile_model):
        unit = _make_unit(4, 9, seed=2)
        ids, cycles, dec = dataset_uncertainty_profile(profile_model, [unit],
                                                       per_window=True)
        # window length 5, stride 2 over 9 cycles -> starts 0, 2, 4
        assert cycles.tolist() == [5, 7, 9]
        assert ids.tolist() == [4, 4, 4]
        assert dec.total.shape == (3,)

    def test_per_window_skips_short_units_with_warning(self, profile_model,
                                                       caplog):
        short = _make_unit(5, 3, seed=3)
        ok = _make_unit(6, 5, seed=4)
        with caplog.at_level(logging.WARNING, logger="rulens.cmapss"):
            ids, _, _ = dataset_uncertainty_profile(
                profile_model, [short, ok], per_window=True)
        assert ids.tolist() == [6]
        assert [rec.name for rec in caplog.records
                if "unit 5" in rec.getMessage()] == ["rulens.cmapss"]

    def test_per_window_reads_exactly_the_build_windows_windows(
            self, profile_model, monkeypatch):
        # the readings use the windows training builds from the same units:
        # same starts, same rows, the short unit skipped
        units = [_make_unit(1, 9, seed=6), _make_unit(2, 3, seed=7),
                 _make_unit(3, 12, seed=8)]
        seen = []
        real = ensemble.forward_windows

        def recording(arch, vectors, rows, length, hop):
            # window j of a pass reads rows j * hop to j * hop + length - 1
            n = (len(rows) - length) // hop + 1
            seen.extend(rows[j * hop:j * hop + length] for j in range(n))
            return real(arch, vectors, rows, length, hop)

        # in this process: a record made in a forked worker is lost
        TestWorkers._serial(monkeypatch)
        monkeypatch.setattr(ensemble, "forward_windows", recording)
        ids, cycles, _ = dataset_uncertainty_profile(profile_model, units,
                                                     per_window=True)
        windows = build_windows(units, 5, 2, 128)
        assert len(seen) == len(ids) == len(windows) == 7
        for k, seq in enumerate(seen):
            assert np.array_equal(seq, window(windows.inputs, k))
        assert list(zip(ids.tolist(), cycles.tolist())) == \
            [(1, 5), (1, 7), (1, 9), (3, 5), (3, 7), (3, 9), (3, 11)]

    def test_read_out_refuses_windows_not_evenly_spaced(self, profile_model):
        unit = _make_unit(2, 12, seed=5)
        for ends in ([4, 6, 9], [6, 4], [3], [11, 12]):
            with pytest.raises(ValueError, match="evenly spaced"):
                read_out(profile_model, [unit], [ends], window=5)

    def test_feature_space_mismatch_rejected(self, profile_model):
        model = EnsembleModel(
            profile_model.architecture, profile_model.members,
            base_seed=profile_model.base_seed,
            prep=replace(profile_model.prep, norm_stats=NormStats(
                mean=np.zeros(4), std=np.ones(4),
                feature_names=("setting_1", "setting_2", "setting_3",
                               "sensor_7"))))
        unit = _make_unit(2, 6, seed=5)  # carries sensor_2, not sensor_7
        with pytest.raises(ValueError, match="feature layout"):
            dataset_uncertainty_profile(model, [unit])

    def test_read_out_refuses_same_width_other_layout(self, profile_model):
        # sensor_3 in place of sensor_2: the widths agree, so only the
        # layout check stands between the unit and a silent reading
        other = replace(_make_unit(2, 6, seed=5), sensor_ids=(3,))
        assert other.features.shape[1] == profile_model.architecture.input_dim
        for window in (None, 5):
            with pytest.raises(DataIntegrityError, match="feature layout"):
                read_out(profile_model, [other], [[5]], window=window)


class TestWindowedReadOut:
    """A unit's windows run as one pass that projects each row they read
    once and runs the head at their last step only. Its readings are the
    bits of forward_stacked over the unit's windows in one batch, read at
    the last step: the per-window pass it replaces."""

    @staticmethod
    def _model(profile_model, stride):
        arch = profile_model.architecture
        prep = toy_prep(_make_unit(0, 1, seed=0).feature_names,
                        window_length=5, stride=stride)
        return EnsembleModel(arch, [init_params(arch, seed=k)
                                    for k in range(5)], base_seed=0, prep=prep)

    @staticmethod
    def _oracle(model, units):
        length, stride = model.prep.window_length, model.prep.stride
        means, varis = [], []
        for unit in units:
            windows = [unit.features[s:s + length]
                       for s in range(0, len(unit) - length + 1, stride)]
            if windows:
                for m, v in predict_members(model.members, windows):
                    means.append(m[:, -1])
                    varis.append(v[:, -1])
        return decompose_uncertainty(np.stack(means, axis=1),
                                     np.stack(varis, axis=1))

    @pytest.mark.parametrize("layout", ["_serial", "_pairs"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_same_bits_as_the_per_window_pass(self, monkeypatch,
                                              profile_model, stride, layout):
        # unit 1 is exactly one window, whose steps are one-row products;
        # unit 2 is shorter than the window; at stride 2 and 3 the last
        # row of unit 3 is read by no window, so its NaN must not raise
        model = self._model(profile_model, stride)
        units = [_make_unit(1, 5, seed=6), _make_unit(2, 3, seed=7),
                 _make_unit(3, 12, seed=8)]
        if stride > 1:
            features = units[2].features.copy()
            features[-1] = np.nan
            units[2] = replace(units[2], features=features)
        with monkeypatch.context() as m:
            getattr(TestWorkers, layout)(m)
            ids, cycles, dec = dataset_uncertainty_profile(model, units,
                                                           per_window=True)
        n_windows = {1: 8, 2: 4, 3: 3}[stride]
        assert ids.tolist() == [1] + [3] * n_windows
        assert cycles.tolist() == [5] + list(range(5, 13, stride))[:n_windows]
        want = self._oracle(model, units)
        for field in ("aleatoric", "epistemic", "total", "mean", "variance"):
            assert getattr(dec, field).tobytes() == \
                getattr(want, field).tobytes(), field

    def test_windows_apart_read_only_their_rows(self, profile_model):
        # stride 7 > window 5: the rows between windows are read by none,
        # so NaN there does not raise
        model = self._model(profile_model, 7)
        unit = _make_unit(3, 19, seed=8)
        features = unit.features.copy()
        features[[5, 6, 12, 13]] = np.nan
        unit = replace(unit, features=features)
        ids, cycles, dec = dataset_uncertainty_profile(model, [unit],
                                                       per_window=True)
        assert cycles.tolist() == [5, 12, 19]
        want = self._oracle(model, [unit])
        assert dec.total.tobytes() == want.total.tobytes()

    def test_saturated_gates_warn_nothing(self, profile_model):
        # input weights scaled so gate pre-activations pass 710 in
        # magnitude, where exp overflows
        model = self._model(profile_model, 1)
        for member in model.members:
            member.arrays["lstm0.w_x"][...] *= 3000.0
        units = [_make_unit(1, 5, seed=6), _make_unit(3, 12, seed=8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, _, dec = dataset_uncertainty_profile(model, units,
                                                      per_window=True)
        assert len(ids) == 9 and np.isfinite(dec.total).all()


class TestEnsembleModelValidation:
    def test_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleModel(ARCH, [], base_seed=0, prep=TOY_PREP)

    def test_member_seeds_follow_members(self):
        params = [init_params(ARCH, seed=seed) for seed in (4, 2)]
        model = EnsembleModel(ARCH, params, base_seed=0, prep=TOY_PREP)
        assert model.member_seeds == (4, 2)

    def test_refuses_member_of_another_architecture(self):
        # both have 62 parameters, so their vectors alone stack and run
        wide = Architecture(4, (2,), (2,))
        deep = Architecture(4, (1, 2), (2,))
        assert wide.n_params() == deep.n_params() == 62
        prep = toy_prep(_make_unit(0, 1, seed=0).feature_names)
        with pytest.raises(ValueError, match="member 1 has architecture"):
            EnsembleModel(wide, [init_params(wide, seed=0),
                                 init_params(deep, seed=1)],
                          base_seed=0, prep=prep)
