"""Numerical core: init, forward, NLL, exact gradients, Adam, training loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import (GaussianSeqPrediction, batch_forward, batch_loss,
                       as_windows, copy_params, finite_diff_check, forward,
                       gaussian_nll, member_grad)
from rulens.cmapss import UnitSeries, build_windows, make_rul_targets
from rulens.config import TrainingConfig
from rulens import network
from rulens.errors import DivergenceError
from rulens.network import (VAR_FLOOR, Architecture, PnnParams, adam_step,
                            Stack, clip_global_norm, grad, init_params,
                            sigmoid, train_pnn)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _zero_params(arch: Architecture) -> PnnParams:
    params = init_params(arch, seed=0)
    for arr in params.arrays.values():
        arr[:] = 0.0
    return params


class TestArchitecture:
    def test_dense_head_must_be_two_wide(self):
        with pytest.raises(ValueError, match="2-unit"):
            Architecture(input_dim=4, recurrent_layers=(32, 16),
                         dense_layers=(3,))

    def test_needs_recurrent_layer(self):
        with pytest.raises(ValueError):
            Architecture(input_dim=4, recurrent_layers=(),
                         dense_layers=(2,))

    def test_param_count_matches_shape_formula(self):
        # independent oracle: 4*(in + h + 1)*h per recurrent layer,
        # (in + 1)*out per dense layer
        def oracle(input_dim, rec, dense):
            total, width = 0, input_dim
            for h in rec:
                total += 4 * (width + h + 1) * h
                width = h
            for d in dense:
                total += (width + 1) * d
                width = d
            return total

        cases = [(18, (32, 16), (2,)), (3, (4,), (2,)), (7, (5, 5, 5), (4, 2))]
        for input_dim, rec, dense in cases:
            arch = Architecture(input_dim, rec, dense)
            assert arch.n_params() == oracle(input_dim, rec, dense)
        assert Architecture(18, (32, 16), (2,)).n_params() == 9698

    def test_shapes_roundtrip_through_dict(self):
        arch = Architecture(5, (6, 3), (4, 2))
        assert Architecture.from_dict(arch.to_dict()) == arch


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(Architecture(4, (5,), (2,)), seed=123)
        b = init_params(Architecture(4, (5,), (2,)), seed=123)
        assert all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)

    def test_different_seeds_differ(self):
        a = init_params(Architecture(4, (5,), (2,)), seed=1)
        b = init_params(Architecture(4, (5,), (2,)), seed=2)
        assert any(not np.array_equal(a.arrays[k], b.arrays[k])
                   for k in a.arrays)

    def test_forget_gate_bias_is_one_rest_zero(self):
        params = init_params(Architecture(4, (6, 3), (2,)), seed=0)
        for k, hidden in enumerate((6, 3)):
            b = params.arrays[f"lstm{k}.b"]
            assert np.all(b[hidden:2 * hidden] == 1.0)
            assert np.all(b[:hidden] == 0.0)
            assert np.all(b[2 * hidden:] == 0.0)
        assert np.all(params.arrays["dense0.b"] == 0.0)

    def test_weight_scale_respects_fan_in(self):
        params = init_params(Architecture(100, (8,), (2,)), seed=7)
        w = params.arrays["lstm0.w_x"]
        assert np.abs(w).max() <= 1.0 / np.sqrt(100)

    def test_negative_seed_accepted(self):
        params = init_params(Architecture(2, (3,), (2,)), seed=-1)
        assert np.isfinite(params.arrays["lstm0.w_x"]).all()


class TestLayout:
    ARCH = Architecture(3, (4, 2), (3, 2))

    @pytest.mark.parametrize("lead", [(), (5,)])
    def test_unflatten_views_cover_every_element_once(self, lead):
        n = self.ARCH.n_params()
        flat = np.arange(float(np.prod(lead, dtype=int) * n)).reshape(lead + (n,))
        views = self.ARCH.unflatten(flat)
        shapes = self.ARCH.param_shapes()
        assert list(views) == list(shapes)
        offset = 0
        for name, view in views.items():
            size = int(np.prod(shapes[name]))
            assert view.shape == lead + shapes[name]
            assert view.flags.writeable and np.shares_memory(view, flat)
            # the next size elements of every row, in order
            assert np.array_equal(
                view.reshape(lead + (size,)), flat[..., offset:offset + size])
            offset += size
        assert offset == n
        hits = np.zeros_like(flat)
        for view in self.ARCH.unflatten(hits).values():
            view += 1.0
        assert np.all(hits == 1.0)

    def test_unflatten_refuses_another_length(self):
        with pytest.raises(ValueError, match=str(self.ARCH.n_params())):
            self.ARCH.unflatten(np.zeros(self.ARCH.n_params() - 1))

    def test_params_are_one_vector(self):
        params = init_params(self.ARCH, seed=0)
        assert params.vector.shape == (self.ARCH.n_params(),)
        params.arrays["dense1.b"][:] = [7.0, 8.0]
        assert np.array_equal(params.vector[-2:], [7.0, 8.0])


class TestForward:
    def test_zero_network_outputs_softplus_floor(self):
        params = _zero_params(Architecture(3, (4,), (2,)))
        pred = forward(params, np.zeros((5, 3)))
        assert np.all(pred.means == 0.0)
        assert np.allclose(pred.variances, np.log(2.0) + VAR_FLOOR)

    def test_causality_prefix_invariance(self):
        # prefix outputs must match the full run at shared steps
        params = init_params(Architecture(3, (4, 3), (2,)), seed=5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        full = forward(params, x)
        for t in (1, 3):
            part = forward(params, x[:t])
            assert np.allclose(part.means, full.means[:t], rtol=1e-12, atol=1e-14)
            assert np.allclose(part.variances, full.variances[:t],
                               rtol=1e-12, atol=1e-14)

    def test_future_edits_do_not_change_past_outputs(self):
        # editing inputs at times > t leaves the prediction at t bit-identical
        params = init_params(Architecture(3, (4, 3), (2,)), seed=5)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        edited = x.copy()
        edited[4:] += 100.0
        a, b = forward(params, x), forward(params, edited)
        assert np.array_equal(a.means[:4], b.means[:4])
        assert np.array_equal(a.variances[:4], b.variances[:4])
        assert not np.allclose(a.means[4:], b.means[4:])

    def test_variance_positive_over_many_draws(self):
        # 10^4 random (net, input) draws including saturating magnitudes
        rng = np.random.default_rng(99)
        for _ in range(10):
            params = init_params(Architecture(3, (4,), (2,)),
                                 seed=int(rng.integers(0, 2**31)))
            scale = rng.choice([0.3, 3.0, 300.0])
            x = rng.normal(scale=scale, size=(1000, 6, 3))
            mu, var = batch_forward(params, x)
            assert np.isfinite(mu).all()
            assert np.isfinite(var).all()
            assert np.all(var > 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_outputs_finite_variances_positive(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params(Architecture(3, (4,), (2,)), seed=seed)
        # occasionally large inputs to probe saturation
        x = rng.normal(scale=rng.choice([0.5, 3.0, 30.0]), size=(7, 3))
        pred = forward(params, x)
        assert np.isfinite(pred.means).all()
        assert np.isfinite(pred.variances).all()
        assert np.all(pred.variances > 0)

    def test_input_validation(self):
        params = init_params(Architecture(3, (4,), (2,)), seed=0)
        with pytest.raises(ValueError, match="features"):
            forward(params, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, np.full((5, 3), np.nan))
        with pytest.raises(ValueError):
            forward(params, np.zeros((0, 3)))


class TestNll:
    def test_unit_variance_zero_residual(self):
        pred = GaussianSeqPrediction(np.array([1.0, 2.0]), np.ones(2))
        assert gaussian_nll(pred, np.array([1.0, 2.0])) == \
            pytest.approx(HALF_LOG_2PI)

    def test_log_variance_term(self):
        pred = GaussianSeqPrediction(np.zeros(3), np.full(3, np.e ** 2))
        assert gaussian_nll(pred, np.zeros(3)) == pytest.approx(1 + HALF_LOG_2PI)

    def test_residual_term(self):
        pred = GaussianSeqPrediction(np.full(4, 2.0), np.ones(4))
        assert gaussian_nll(pred, np.zeros(4)) == pytest.approx(2 + HALF_LOG_2PI)

    def test_unit_variance_reduces_to_half_mse_exactly(self):
        # with variances frozen at 1 the loss is half squared error plus the
        # normalizing constant, with no tolerance at all
        rng = np.random.default_rng(3)
        mu, y = rng.normal(size=7), rng.normal(size=7)
        val = gaussian_nll(GaussianSeqPrediction(mu, np.ones(7)), y)
        assert val == float(np.mean(0.5 * (mu - y) ** 2 + HALF_LOG_2PI))

    def test_rejects_nonpositive_variance(self):
        pred = GaussianSeqPrediction(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            gaussian_nll(pred, np.zeros(2))


class TestSigmoid:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(11)
        draws = [rng.normal(scale=s, size=2000)
                 for s in (0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 800.0)]
        edges = np.array([0.0, -0.0, 709.0, -709.0, 745.0, -745.0,
                          1e308, -1e308])
        return np.concatenate(draws + [edges])

    def test_matches_expit_oracle(self):
        # scipy used purely as an independent oracle; the two exp kernels
        # may differ by an ulp, which the reciprocal keeps below 1e-15
        expit = pytest.importorskip("scipy.special").expit
        x = self._inputs()
        got, ref = sigmoid(x), expit(x)
        # atol 0: where the oracle gives exactly 0 (x <= -745) so must this
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_range_and_monotone(self):
        x = np.sort(self._inputs())
        y = sigmoid(x)
        assert ((y >= 0.0) & (y <= 1.0)).all()
        assert (np.diff(y) >= 0.0).all()
        assert sigmoid(np.array([-1e308]))[0] == 0.0
        assert sigmoid(np.array([1e308]))[0] == 1.0

    def test_no_floating_point_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid(self._inputs())

    def test_input_untouched(self):
        x = self._inputs()
        before = x.copy()
        assert sigmoid(x) is not x
        assert x.tobytes() == before.tobytes()   # -0.0 keeps its sign


class TestNegatedGates:
    """The step loop reads the i, f and o gate columns negated, so each
    product gives -z there and the sigmoid needs no negation of its own."""

    @staticmethod
    def _saturating_stack(arch, seeds):
        # the first layer's input weights scaled so that pre-activations of
        # both signs pass 710 in magnitude, where exp overflows
        vectors = np.stack([init_params(arch, seed).vector for seed in seeds])
        arch.unflatten(vectors)["lstm0.w_x"][...] *= 3000.0
        return vectors

    def test_tape_gates_are_sigmoid_of_preactivations(self):
        arch = Architecture(3, (4, 2), (2,))
        vectors = self._saturating_stack(arch, (1, 2))
        before = vectors.tobytes()
        T, M, B = 6, 2, 5
        x = np.random.default_rng(4).normal(size=(T, M, B, 3))
        tape = {}
        network._run(arch, vectors, x, np.full(T, B), tape)
        assert vectors.tobytes() == before      # the negation is undone
        arrays = arch.unflatten(vectors)
        saturated = np.zeros(2, dtype=int)      # gates at 0.0, at 1.0
        for k, hidden in enumerate(arch.recurrent_layers):
            w_x, w_h = arrays[f"lstm{k}.w_x"], arrays[f"lstm{k}.w_h"]
            bias = arrays[f"lstm{k}.b"][:, None]
            for t in range(T):
                a = x[t] if k == 0 else tape[f"lstm{k - 1}.h"][:, t + 1]
                # the un-negated pre-activations, products of the loop's shapes
                z = a @ w_x + bias
                z += tape[f"lstm{k}.h"][:, t] @ w_h
                want = sigmoid(z)
                want[..., 2 * hidden:3 * hidden] = np.tanh(
                    z[..., 2 * hidden:3 * hidden])
                got = tape[f"lstm{k}.gates"][:, t]
                assert got.tobytes() == want.tobytes(), (k, t)
                ifo = np.delete(np.arange(4 * hidden),
                                np.arange(2 * hidden, 3 * hidden))
                low, high = z[..., ifo] < -710.0, z[..., ifo] > 710.0
                assert (got[..., ifo][low] == 0.0).all()
                assert (got[..., ifo][high] == 1.0).all()
                saturated += low.sum(), high.sum()
        assert (saturated > 0).all()

    def test_saturated_gates_warn_nothing(self):
        arch = Architecture(3, (4, 2), (2,))
        vectors = self._saturating_stack(arch, (1, 2))
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(10, 6, 3)), rng.normal(size=(10, 6))
        rows = rng.normal(size=(9, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, losses = grad(Stack(arch, vectors), x, y, {})
            means, varis = network.forward_windows(arch, vectors, rows, 5, 2)
        assert np.isfinite(losses).all()
        assert means.shape == varis.shape == (2, 3)

    def test_forward_windows_refuses_rows_that_are_not_its_windows(self):
        arch = Architecture(3, (4,), (2,))
        vectors = init_params(arch, seed=0).vector[None]
        for rows, length, hop in ((np.zeros((4, 3)), 5, 1),
                                  (np.zeros((8, 3)), 5, 2),
                                  (np.zeros((5, 3)), 5, 0)):
            with pytest.raises(ValueError, match="not windows"):
                network.forward_windows(arch, vectors, rows, length, hop)
        with pytest.raises(ValueError, match="non-finite"):
            network.forward_windows(arch, vectors, np.full((5, 3), np.nan),
                                    5, 1)


def random_small_net(rng):
    """Random PNN (<= 200 params) and batch with healthy gradient magnitudes.

    Inputs and targets are biased positive so per-coordinate gradient sums do
    not cancel toward the 1e-8 clamp of the relative-error formula, where
    finite-difference roundoff would dominate. Shared with the acceptance
    suite's gradient criterion.
    """
    while True:
        f = int(rng.integers(1, 4))
        rec = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3))))
        dense = (3, 2) if rng.random() < 0.5 else (2,)
        arch = Architecture(f, rec, dense)
        if arch.n_params() <= 200:
            break
    params = init_params(arch, seed=int(rng.integers(0, 2**31)))
    b = int(rng.integers(1, 4))
    x = rng.normal(loc=1.0, scale=0.5, size=(b, 8, f))
    y = rng.normal(loc=6.0, scale=2.0, size=(b, 8))
    return params, x, y


# perturbation for the finite-difference oracle: measured optimum of the
# truncation-vs-roundoff tradeoff for losses at this scale
CHECK_EPS = 5e-4


class TestGrad:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(237)
        worst = 0.0
        for _ in range(20):
            params, x, y = random_small_net(rng)
            worst = max(worst, finite_diff_check(params, x, y, CHECK_EPS))
        assert worst < 1e-4

    def test_quadratic_surrogate_is_machine_exact(self):
        # all weights zero and zero inputs: the loss is constant along every
        # weight axis and quadratic along the mean bias, so the symmetric
        # difference has no truncation error, only roundoff
        arch = Architecture(2, (3,), (2,))
        params = _zero_params(arch)
        params.arrays["dense0.b"][:] = [0.3, 0.2]
        x = np.zeros((1, 4, 2))
        y = np.full((1, 4), 0.5)
        assert finite_diff_check(params, x, y, 1e-5) < 1e-9

    def test_zero_residual_kills_mean_path_gradient(self):
        # exactly-zero network on zero targets: residual is 0, so only the
        # variance bias receives gradient
        params = _zero_params(Architecture(2, (3,), (2,)))
        flat, _ = member_grad(params, np.zeros((2, 4, 2)), np.zeros((2, 4)))
        grads = params.arch.unflatten(flat)
        assert grads["dense0.b"][0] == 0.0
        assert grads["dense0.b"][1] > 0.0
        assert all(np.all(g == 0.0) for k, g in grads.items()
                   if k != "dense0.b")

    def test_gradient_of_mean_loss_scales_with_batch(self):
        arch = Architecture(2, (3,), (2,))
        params = init_params(arch, seed=1)
        x = np.random.default_rng(2).normal(size=(1, 4, 2))
        y = np.zeros((1, 4))
        g1, l1 = member_grad(params, x, y)
        g2, l2 = member_grad(params, np.repeat(x, 2, axis=0),
                             np.repeat(y, 2, axis=0))
        assert l1 == pytest.approx(l2)
        assert np.allclose(g1, g2)

    @pytest.mark.parametrize("batch", [1, 7, 18, 32])
    def test_loss_equals_inference_nll_bit_for_bit(self, batch):
        # training and inference share one forward: grad's loss is the mean
        # NLL of forward_stacked on the same windows, to the last bit, at
        # batch sizes where BLAS takes remainder or gemv paths too
        params = init_params(Architecture(18, (32, 16), (2,)), seed=3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, 100, 18))
        y = rng.uniform(0.0, 120.0, size=(batch, 100))
        _, loss = member_grad(params, x, y)
        mu, var = batch_forward(params, x)
        nll = np.mean([gaussian_nll(GaussianSeqPrediction(m, v), t)
                       for m, v, t in zip(mu, var, y)])
        assert loss == nll

    @pytest.mark.parametrize("arch", [Architecture(18, (32, 16), (2,)),
                                      Architecture(5, (8, 4, 6), (3, 2))])
    def test_stack_rows_are_the_bits_of_members_alone(self, arch):
        # row j of a stack's gradients and losses depends on member j's
        # parameters and batch only
        rng = np.random.default_rng(12)
        M, B, T = 3, 13, 20
        vectors = np.stack([init_params(arch, seed=s).vector
                            for s in range(M)])
        x = rng.normal(size=(M * B, T, arch.input_dim))
        y = rng.uniform(0.0, 120.0, size=(M * B, T))
        grads, losses = grad(Stack(arch, vectors), x, y, {})
        for j in range(M):
            rows = slice(j * B, (j + 1) * B)
            alone, loss = grad(Stack(arch, vectors[j:j + 1]), x[rows],
                               y[rows], {})
            assert grads[j].tobytes() == alone[0].tobytes()
            assert losses[j] == loss[0]

    def test_divergence_names_stack_row(self):
        arch = Architecture(2, (3,), (2,))
        vectors = np.stack([init_params(arch, seed=s).vector for s in (1, 2)])
        y = np.zeros((6, 4))
        y[3 + 2] = 1e200        # member 1's sample 2
        with pytest.raises(DivergenceError) as err:
            grad(Stack(arch, vectors), np.zeros((6, 4, 2)), y, {})
        assert (err.value.member, err.value.sample_index) == (1, 2)

    def test_divergence_reports_sample_index(self):
        arch = Architecture(2, (3,), (2,))
        params = init_params(arch, seed=1)
        x = np.zeros((3, 4, 2))
        y = np.zeros((3, 4))
        y[2] = 1e200  # residual overflows for this sample only
        with pytest.raises(DivergenceError) as err:
            member_grad(params, x, y)
        assert err.value.sample_index == 2

    def test_finite_diff_check_guards(self):
        arch = Architecture(2, (3,), (2,))
        params = init_params(arch, seed=0)
        x, y = np.zeros((1, 3, 2)), np.zeros((1, 3))
        with pytest.raises(ValueError, match="epsilon"):
            finite_diff_check(params, x, y, 0.0)
        big = init_params(Architecture(18, (40, 20), (2,)), seed=0)
        assert big.arch.n_params() > 10000
        with pytest.raises(ValueError, match="10000"):
            finite_diff_check(big, np.zeros((1, 3, 18)), np.zeros((1, 3)))


def _poison(buffers: dict) -> None:
    """NaN over every buffer, so a later read of an unwritten element shows."""
    for buf in buffers.values():
        buf.fill(np.nan)


class TestGradBuffers:
    # the second architecture's widest layer is not its first, and it has a
    # hidden dense layer, so every shared buffer serves layers of other widths
    ARCHS = [Architecture(18, (32, 16), (2,)),
             Architecture(5, (8, 4, 6), (3, 2))]

    @staticmethod
    def _batch(arch, seed, B, T):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(B, T, arch.input_dim)),
                rng.uniform(0.0, 120.0, size=(B, T)))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_reused_buffers_give_the_bits_of_fresh_ones(self, arch):
        # batch size and length change, as on the short last batch of an
        # epoch; the buffers are poisoned between calls
        params = init_params(arch, seed=2)
        buffers: dict = {}
        shapes = [(32, 30), (32, 30), (12, 30), (32, 30), (32, 11), (32, 11)]
        for i, (B, T) in enumerate(shapes):
            x, y = self._batch(arch, i, B, T)
            got, loss = member_grad(params, x, y, buffers)
            ref, ref_loss = member_grad(params, x, y)
            assert loss == ref_loss
            assert got.tobytes() == ref.tobytes()
            _poison(buffers)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_returned_gradients_do_not_alias_buffers(self, arch):
        params = init_params(arch, seed=4)
        buffers: dict = {}
        first, _ = member_grad(params, *self._batch(arch, 0, 16, 12),
                               buffers)
        kept = first.copy()
        assert not any(np.shares_memory(first, buf)
                       for buf in buffers.values())
        member_grad(params, *self._batch(arch, 1, 16, 12), buffers)
        assert np.array_equal(first, kept)

    def test_same_shape_calls_allocate_once(self):
        arch = self.ARCHS[0]
        params = init_params(arch, seed=5)
        buffers: dict = {}
        member_grad(params, *self._batch(arch, 0, 8, 10), buffers)
        before = dict(buffers)
        member_grad(params, *self._batch(arch, 1, 8, 10), buffers)
        assert buffers.keys() == before.keys()
        assert all(buffers[k] is before[k] for k in before)

    @staticmethod
    def _tape_keys(arch) -> set[str]:
        return {f"lstm{k}.{key}" for k in range(len(arch.recurrent_layers))
                for key in ("gates", "h", "c")} | {"raw"}

    def test_buffers_hold_each_activation_once(self):
        # the tape and the one backward work array, sized for the widest
        # LSTM layer; nothing else. The gate gradients go into the gates,
        # tanh(c) is recomputed, and the input batch is the caller's:
        # train_pnn gathers it into its own buffer, T * B * F more per member
        arch = self.ARCHS[0]
        B, T, F = 32, 100, 18
        buffers: dict = {}
        member_grad(init_params(arch, seed=6), *self._batch(arch, 0, B, T),
                    buffers)
        assert buffers.keys() == self._tape_keys(arch) | {"d_above"}
        tape = sum(T * B * 4 * h + 2 * (T + 1) * B * h
                   for h in arch.recurrent_layers) + B * T
        work = T * B * 32
        assert sum(buf.nbytes for buf in buffers.values()) == \
            8 * (tape + work) == 8_242_176
        assert 8 * (tape + work + T * B * F) == 8_702_976

    def test_hidden_dense_layers_record_only_their_output(self):
        # dense layer 0 reads the top LSTM layer's h from the tape, and
        # dense layer k > 0 the recorded tanh output of layer k - 1
        arch = self.ARCHS[1]
        buffers: dict = {}
        member_grad(init_params(arch, seed=7), *self._batch(arch, 0, 4, 9),
                    buffers)
        assert buffers.keys() == self._tape_keys(arch) | {
            "dense0.out", "d_above"}
        assert buffers["dense0.out"].shape == (1, 9, 4, 3)

    def test_matches_central_differences_through_buffers(self):
        # the buffers hold another batch of the same shape, poisoned
        rng = np.random.default_rng(238)
        worst = 0.0
        for _ in range(6):
            params, x, y = random_small_net(rng)
            buffers: dict = {}
            member_grad(params, x + 1.0, y * 0.5, buffers)
            _poison(buffers)
            worst = max(worst,
                        finite_diff_check(params, x, y, CHECK_EPS, buffers))
        assert worst < 1e-4


def _reference_adam_clip(params: dict, grads_seq, cfg: TrainingConfig):
    """Adam and global-norm clipping written per array and out of place, as
    the library once computed them: the bits in-place flat Adam must keep.
    Yields (params, norm) after each step."""
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if cfg.clip_norm > 0 and norm > cfg.clip_norm:
            factor = cfg.clip_norm / norm
            grads = {k: g * factor for k, g in grads.items()}
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        new = {}
        for k, theta in params.items():
            g = grads[k]
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
            new[k] = theta - cfg.learning_rate * (m[k] / bc1) / (
                np.sqrt(v[k] / bc2) + cfg.eps)
        params = new
        yield params, norm


class TestAdam:
    CFG = TrainingConfig()

    def _setup(self):
        params = init_params(Architecture(2, (3,), (2,)), seed=3)
        zeros = np.zeros_like(params.vector)
        return params, zeros, zeros.copy()

    def test_first_step_is_signed_learning_rate(self):
        params, m, v = self._setup()
        before = copy_params(params)
        grads = np.full_like(params.vector, 0.25)
        params.arch.unflatten(grads)["lstm0.w_x"][0, 0] = -0.25
        adam_step(params.vector, grads, m, v, 1, self.CFG)
        delta = params.arrays["lstm0.w_x"] - before.arrays["lstm0.w_x"]
        assert delta[0, 0] == pytest.approx(0.001, rel=1e-6)
        assert delta[0, 1] == pytest.approx(-0.001, rel=1e-6)

    def test_zero_gradient_from_fresh_state_is_identity(self):
        params, m, v = self._setup()
        before = params.vector.copy()
        adam_step(params.vector, np.zeros_like(before), m, v, 1, self.CFG)
        assert np.array_equal(params.vector, before)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        params, m, v = self._setup()
        grads = np.full_like(params.vector, 0.7)
        for t in range(1, 301):
            prev = params.vector.copy()
            adam_step(params.vector, grads, m, v, t, self.CFG)
        assert np.allclose(np.abs(params.vector - prev), 0.001, rtol=1e-4)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_array_reference_bit_for_bit(self, seed):
        # 30 steps of random gradients whose norms straddle clip_norm, so
        # clipping both fires and does not
        arch = Architecture(3, (4, 2), (3, 2))
        params = init_params(arch, seed=seed)
        rng = np.random.default_rng(seed)
        flat_grads = [rng.normal(scale=rng.choice([0.05, 2.0]),
                                 size=arch.n_params()) for _ in range(30)]
        reference = _reference_adam_clip(
            {k: a.copy() for k, a in params.arrays.items()},
            [{k: a.copy() for k, a in arch.unflatten(g).items()}
             for g in flat_grads], self.CFG)
        m = np.zeros_like(params.vector)
        v = np.zeros_like(params.vector)
        clipped = []
        for t, (g, (ref, ref_norm)) in enumerate(zip(flat_grads, reference),
                                                 start=1):
            _, norm = clip_global_norm(arch.unflatten(g), self.CFG.clip_norm)
            clipped.append(norm > self.CFG.clip_norm)
            adam_step(params.vector, g, m, v, t, self.CFG)
            assert norm == ref_norm
            assert all(params.arrays[k].tobytes() == ref[k].tobytes()
                       for k in ref)
        assert 0 < sum(clipped) < len(clipped)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        clipped, norm = clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert clipped is grads                 # scaled in place
        total = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
        assert total == pytest.approx(2.5)
        same, norm2 = clip_global_norm(grads, 10.0)
        assert norm2 == pytest.approx(2.5)
        assert same is grads
        assert np.array_equal(grads["b"], [2.0])


class TestTrainLoop:
    def _data(self, n=40, t=6, f=2, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, t, f))
        y = x.sum(axis=-1) + 0.1 * rng.normal(size=(n, t))
        return x, y

    def test_deterministic_bitwise(self):
        x, y = self._data()
        arch = Architecture(2, (4,), (2,))
        cfg = TrainingConfig(max_epochs=4, batch_size=8)
        [(a, ha)] = train_pnn(arch, as_windows(x, y), cfg, [11])
        [(b, hb)] = train_pnn(arch, as_windows(x, y), cfg, [11])
        assert all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
        assert ha.epoch_losses == hb.epoch_losses

    def test_loss_decreases_on_learnable_data(self):
        x, y = self._data(n=80)
        cfg = TrainingConfig(max_epochs=12, batch_size=16)
        [(_, hist)] = train_pnn(Architecture(2, (6,), (2,)), as_windows(x, y),
                                cfg, [1])
        assert hist.epoch_losses[-1] < hist.epoch_losses[0]

    def test_stop_reason_max_epochs(self):
        x, y = self._data()
        cfg = TrainingConfig(max_epochs=3, early_stop_start=35, patience=3)
        [(_, hist)] = train_pnn(Architecture(2, (3,), (2,)), as_windows(x, y),
                                cfg, [2])
        assert hist.stop_reason == "max_epochs"
        assert hist.stop_epoch == 3
        assert len(hist.epoch_losses) == 3

    def test_early_stop_fires_after_patience_without_improvement(self):
        # frozen parameters (lr=0): epoch losses only jitter at ulp level
        # from shuffle-order rounding, so the plateau watcher must fire
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4, 2))
        y = np.zeros((30, 4))
        cfg = TrainingConfig(max_epochs=100, early_stop_start=6, patience=3)
        # configs refuse lr=0, so freeze the parameters after construction
        cfg.learning_rate = 0.0
        [(_, hist)] = train_pnn(Architecture(2, (3,), (2,)), as_windows(x, y),
                                cfg, [3])
        assert hist.stop_reason == "early_stop"
        assert hist.stop_epoch >= cfg.early_stop_start
        assert len(hist.epoch_losses) == hist.stop_epoch
        # firing requires `patience` consecutive epochs that failed to beat
        # the best, so the best epoch must predate that streak
        assert hist.best_epoch <= hist.stop_epoch - cfg.patience
        tail = hist.epoch_losses[hist.stop_epoch - cfg.patience:]
        assert all(loss >= hist.best_loss for loss in tail)

    def test_returns_best_snapshot(self):
        x, y = self._data(n=60)
        cfg = TrainingConfig(max_epochs=10, batch_size=16)
        [(params, hist)] = train_pnn(Architecture(2, (4,), (2,)),
                                     as_windows(x, y), cfg,
                                     [4])
        assert hist.best_loss == min(hist.epoch_losses)
        assert hist.best_epoch == int(np.argmin(hist.epoch_losses)) + 1
        assert hist.stop_epoch <= cfg.max_epochs

    def test_divergence_carries_epoch(self):
        x, y = self._data(n=20)
        y[3] = 1e200
        cfg = TrainingConfig(max_epochs=2)
        [err] = train_pnn(Architecture(2, (3,), (2,)), as_windows(x, y), cfg,
                          [0])
        assert isinstance(err, DivergenceError)
        assert err.epoch == 1

    def test_gathered_views_match_stacked_arrays(self):
        # windows picked by start from the units' overlapping rows train
        # bit-identically to the same windows copied out one after another
        rng = np.random.default_rng(8)
        units = [UnitSeries(uid, np.arange(1, n + 1),
                            np.hstack([rng.normal(size=(n, 3)),
                                       rng.normal(size=(n, 2))]), (2, 3))
                 for uid, n in ((1, 14), (2, 4), (3, 11))]
        windows = build_windows(units, 6, 1, 7)
        spans = [(u, s) for u in units for s in range(len(u) - 5)]
        x = np.stack([u.features[s:s + 6] for u, s in spans])
        y = np.stack([make_rul_targets(u, 7)[s:s + 6] for u, s in spans])
        assert x.shape == (15, 6, 5) and len(windows) == 15
        arch = Architecture(5, (3,), (2,))
        cfg = TrainingConfig(max_epochs=3, batch_size=4)
        [(params, hist)] = train_pnn(arch, (windows.inputs, windows.targets),
                                     cfg, [7])
        [(direct, hist2)] = train_pnn(arch, as_windows(x, y), cfg, [7])
        assert all(np.array_equal(params.arrays[k], direct.arrays[k])
                   for k in params.arrays)
        assert hist.epoch_losses == hist2.epoch_losses

    def test_stack_members_equal_members_trained_alone(self):
        # in one stack, seed 4 stops early at epoch 3, seed 3 at epoch 5 and
        # seed 5 at epoch 11; each leaves with its own best snapshot, and
        # the last batch of every epoch is short
        x, y = self._data()
        arch = Architecture(2, (4,), (2,))
        cfg = TrainingConfig(max_epochs=20, batch_size=16, early_stop_start=2,
                             patience=1, learning_rate=0.3)
        stack = train_pnn(arch, as_windows(x, y), cfg, [3, 4, 5])
        assert [(h.stop_reason, h.stop_epoch) for _, h in stack] == \
            [("early_stop", 5), ("early_stop", 3), ("early_stop", 11)]
        for seed, (params, hist) in zip((3, 4, 5), stack):
            [(alone, alone_hist)] = train_pnn(arch, as_windows(x, y), cfg,
                                              [seed])
            assert params.seed == seed
            assert params.vector.tobytes() == alone.vector.tobytes()
            assert hist == alone_hist

    def test_batch_loss_matches_grad_loss(self):
        x, y = self._data(n=6)
        arch = Architecture(2, (3,), (2,))
        params = init_params(arch, seed=9)
        _, loss = member_grad(params, x, y)
        assert batch_loss(params, x, y) == pytest.approx(loss, rel=1e-12)
