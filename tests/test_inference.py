"""The one stacked inference pass: members on a leading axis, sequences of
any length in one batch, checked against an independent per-member,
per-sequence float64 forward kept here as the oracle."""

import numpy as np
import pytest

from conftest import toy_prep
from rulens.cmapss import UnitSeries
from rulens.ensemble import EnsembleModel, dataset_uncertainty_profile
from rulens.metrics import unit_predictions
from rulens.network import Architecture, forward_stacked, init_params

ARCH = Architecture(3, (5, 4), (3, 2))
RTOL = 1e-12


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_forward(arrays: dict, arch: Architecture, x: np.ndarray):
    """One member over one sequence [T, F], one step and one layer at a
    time with plain vector arithmetic -> (means [T], variances [T])."""
    n_dense = len(arch.dense_layers)
    hs = [np.zeros(h) for h in arch.recurrent_layers]
    cs = [np.zeros(h) for h in arch.recurrent_layers]
    means, variances = [], []
    for x_t in x:
        a = x_t
        for k, hidden in enumerate(arch.recurrent_layers):
            z = (a @ arrays[f"lstm{k}.w_x"] + arrays[f"lstm{k}.b"]
                 + hs[k] @ arrays[f"lstm{k}.w_h"])
            i, f = _sigmoid(z[:hidden]), _sigmoid(z[hidden:2 * hidden])
            g, o = np.tanh(z[2 * hidden:3 * hidden]), _sigmoid(z[3 * hidden:])
            cs[k] = f * cs[k] + i * g
            hs[k] = o * np.tanh(cs[k])
            a = hs[k]
        for k in range(n_dense):
            a = a @ arrays[f"dense{k}.w"] + arrays[f"dense{k}.b"]
            if k < n_dense - 1:
                a = np.tanh(a)
        means.append(a[0])
        variances.append(np.log1p(np.exp(a[1])) + 1e-6)
    return np.array(means), np.array(variances)


def _model(n_members: int, window: tuple[int, int] = (5, 1)
           ) -> EnsembleModel:
    """n_members fresh members, with a preprocessing record for the layout
    of _unit and window = (length, stride)."""
    seeds = range(40, 40 + n_members)
    vectors = np.stack([init_params(ARCH, seed=seed) for seed in seeds])
    return EnsembleModel(ARCH, vectors, seeds, base_seed=40,
                         prep=toy_prep(_unit(0, 1, 0).feature_names, *window))


def _seqs(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, ARCH.input_dim)) for n in lengths]


def _assert_matches_oracle(model, seqs, preds):
    assert len(preds) == len(seqs)
    for x, (means, varis) in zip(seqs, preds):
        assert means.shape == varis.shape == (len(model.vectors), len(x))
        for m, vector in enumerate(model.vectors):
            mu, var = oracle_forward(ARCH.unflatten(vector), ARCH, x)
            np.testing.assert_allclose(means[m], mu, rtol=RTOL, atol=0)
            np.testing.assert_allclose(varis[m], var, rtol=RTOL, atol=0)


@pytest.mark.parametrize("n_members", [1, 4])
def test_ragged_batch_matches_oracle(n_members):
    # a length-1 sequence, tied lengths, and lengths out of sorted order
    seqs = _seqs([6, 1, 9, 6, 3, 9, 2])
    model = _model(n_members)
    _assert_matches_oracle(model, seqs,
                           forward_stacked(ARCH, model.vectors, seqs))


def test_rows_come_back_in_input_order():
    seqs = _seqs([2, 7, 4, 7, 1])
    model = _model(3)
    preds = forward_stacked(ARCH, model.vectors, seqs)
    assert [m.shape[1] for m, _ in preds] == [2, 7, 4, 7, 1]
    reversed_preds = forward_stacked(ARCH, model.vectors, seqs[::-1])
    for (m_a, v_a), (m_b, v_b) in zip(preds, reversed_preds[::-1]):
        np.testing.assert_allclose(m_a, m_b, rtol=RTOL, atol=0)
        np.testing.assert_allclose(v_a, v_b, rtol=RTOL, atol=0)


def test_unit_alone_agrees_with_mixed_batch():
    seqs = _seqs([5, 12, 3, 8], seed=1)
    model = _model(3)
    mixed = forward_stacked(ARCH, model.vectors, seqs)
    for x, (means, varis) in zip(seqs, mixed):
        [(alone_m, alone_v)] = forward_stacked(ARCH, model.vectors, [x])
        np.testing.assert_allclose(means, alone_m, rtol=RTOL, atol=0)
        np.testing.assert_allclose(varis, alone_v, rtol=RTOL, atol=0)


def test_repeat_call_is_bit_identical():
    seqs = _seqs([4, 9, 9, 1], seed=2)
    model = _model(3)
    for (m_a, v_a), (m_b, v_b) in zip(
            forward_stacked(ARCH, model.vectors, seqs),
            forward_stacked(ARCH, model.vectors, seqs)):
        assert np.array_equal(m_a, m_b) and np.array_equal(v_a, v_b)


def test_ragged_input_validation():
    model = _model(2)
    good = np.zeros((4, ARCH.input_dim))
    with pytest.raises(ValueError, match="features"):
        forward_stacked(ARCH, model.vectors,
                        [good, np.zeros((4, ARCH.input_dim + 1))])
    with pytest.raises(ValueError, match="time step"):
        forward_stacked(ARCH, model.vectors,
                        [good, np.zeros((0, ARCH.input_dim))])
    with pytest.raises(ValueError, match="non-finite"):
        forward_stacked(ARCH, model.vectors,
                        [good, np.full((3, ARCH.input_dim), np.inf)])
    with pytest.raises(ValueError, match="time, features"):
        forward_stacked(ARCH, model.vectors, [good[None]])


def _unit(unit_id, n_cycles, seed, true_rul=None):
    # the 3 operational settings and no sensor: 3 columns under 3 names
    rng = np.random.default_rng(seed)
    return UnitSeries(unit_id=unit_id, cycles=np.arange(1, n_cycles + 1),
                      features=np.hstack([rng.normal(size=(n_cycles, 2)),
                                          rng.normal(size=(n_cycles, 1))]),
                      sensor_ids=(), true_final_rul=true_rul)


def test_empty_unit_list_returns_empty():
    model = _model(2, window=(3, 1))
    assert forward_stacked(ARCH, model.vectors, []) == []
    ids, cycles, targets, dec = unit_predictions(model, [])
    assert ids.size == cycles.size == targets.size == dec.mean.size == 0
    for per_window in (False, True):
        ids, cycles, dec = dataset_uncertainty_profile(model, [],
                                                       per_window=per_window)
        assert ids.size == cycles.size == dec.total.size == 0


def test_unit_predictions_match_one_unit_at_a_time():
    units = [_unit(1, 7, 0, true_rul=10), _unit(2, 2, 1, true_rul=3),
             _unit(3, 11, 2, true_rul=0)]
    model = _model(3)
    *where, together = unit_predictions(model, units, per_step=True)
    alone = [unit_predictions(model, [u], per_step=True) for u in units]
    for got, parts in zip(where, zip(*alone)):
        assert np.array_equal(got, np.concatenate(parts))
    for field in ("mean", "variance", "total"):
        np.testing.assert_allclose(
            getattr(together, field),
            np.concatenate([getattr(dec, field) for *_, dec in alone]),
            rtol=RTOL, atol=0)


def test_per_window_profile_matches_oracle():
    model = _model(2, window=(4, 3))
    unit = _unit(7, 11, 3)
    _, cycles, dec = dataset_uncertainty_profile(model, [unit],
                                                 per_window=True)
    assert cycles.tolist() == [4, 7, 10]
    for k, start in enumerate((0, 3, 6)):
        window = unit.features[start:start + 4]
        last = [oracle_forward(ARCH.unflatten(v), ARCH, window)
                for v in model.vectors]
        mu = np.array([m[-1] for m, _ in last])
        var = np.array([v[-1] for _, v in last])
        mix_var = var.mean() + ((mu - mu.mean()) ** 2).mean()
        assert dec.aleatoric[k] == pytest.approx(np.log(var).mean(), rel=RTOL)
        assert dec.total[k] == pytest.approx(np.log(mix_var), rel=RTOL)
