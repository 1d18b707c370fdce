"""The lockstep engine against the one-session-at-a-time loop.

`fit_epochs` trains many independent sessions on one stacked parameter
matrix.  Every session must end bitwise as the plain serial loop in
`nn_oracle.train_serially` leaves it: parameters, per-epoch losses,
validation scores and sample counts, whatever the stacking.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import small_config
from fedcast.data.sequences import SequenceSet
from fedcast.errors import NumericalError
from fedcast.federation import training
from fedcast.federation.scenarios import fedavg_round
from fedcast.federation.training import Session, fit_epochs
from fedcast.nn import init_model
from fedcast.seeding import ROUND, TRAIN, key_int, stream
from nn_oracle import train_serially

B = 8
LR = 0.01


def make_sessions(datasets, lengths, validated, seed=0):
    """One session per length, cycling through the households."""
    start = init_model(datasets[0].feature_dim, np.random.default_rng(seed))
    sessions = []
    for i, n in enumerate(lengths):
        ds = datasets[i % len(datasets)]
        sessions.append(Session(start, ds.train.windows[:n], ds.train.labels[:n],
                                np.random.default_rng(seed + 100 + i),
                                ds.val if validated else None))
    return sessions


def check_against_serial(datasets, lengths, epochs, validated, patience=None):
    oracle = [train_serially(s, epochs, B, LR, patience)
              for s in make_sessions(datasets, lengths, validated)]
    results = fit_epochs(make_sessions(datasets, lengths, validated),
                         epochs, B, LR, patience)
    assert len(results) == len(oracle)
    for result, (params, records) in zip(results, oracle):
        assert result.params.tobytes() == params.tobytes()
        assert result.records == records
        assert result.epochs_run == len(records)
        assert result.samples == sum(r["samples"] for r in records)
    return results


@pytest.fixture
def stacks(monkeypatch):
    """Rows of every gradient call the engine makes."""
    rows = []
    real = training.compute_gradients

    def counted(windows, targets, params):
        rows.append(params.shape[0])
        return real(windows, targets, params)
    monkeypatch.setattr(training, "compute_gradients", counted)
    return rows


def test_different_train_lengths_and_short_final_batches(tiny_datasets, stacks):
    # 61, 40, 33 and 17 windows: final batches of 5, 0, 1 and 1 rows, and
    # sessions running out of batches at different steps
    check_against_serial(tiny_datasets, [61, 40, 33, 17], epochs=2,
                         validated=False)
    assert max(stacks) > 1


def test_sessions_that_stop_early_at_different_epochs(tiny_datasets):
    results = check_against_serial(tiny_datasets, [61, 50, 61, 45, 61, 30],
                                   epochs=8, validated=True, patience=1)
    assert len({r.epochs_run for r in results}) > 1
    for r in results:
        assert r.initial_metric is not None
        assert r.best_metric == min([r.initial_metric]
                                    + [rec["val_rmse"] for rec in r.records])


def test_more_sessions_than_one_stack_holds(tiny_datasets, stacks, monkeypatch):
    monkeypatch.setattr(training, "STACK_ROWS", 3 * B)
    check_against_serial(tiny_datasets, [61, 61, 40, 61, 61, 33, 61, 61],
                         epochs=2, validated=True, patience=5)
    assert max(stacks) == 3
    # a full step of the six 61-window sessions takes two calls of three
    assert stacks[:2] == [3, 3]


def test_zero_epochs_return_the_start(tiny_datasets):
    sessions = make_sessions(tiny_datasets, [61, 20], validated=False)
    for s, r in zip(sessions, fit_epochs(sessions, 0, B, LR)):
        assert np.array_equal(r.params, s.params)
        assert r.records == [] and r.samples == 0


def test_training_leaves_the_shared_start_unchanged(tiny_datasets, monkeypatch):
    # All sessions share one start array.  Once the 40-window sessions run
    # out of batches, the two 61-window ones step as rows 0 and 2: a chunk
    # that is not contiguous, so it is stepped on copies and written back.
    chunks = []
    real = training._rows

    def rows(chunk):
        chunks.append(real(chunk))
        return chunks[-1]
    monkeypatch.setattr(training, "_rows", rows)
    sessions = make_sessions(tiny_datasets, [61, 40, 61, 40], validated=False)
    start = sessions[0].params
    before = start.tobytes()
    results = fit_epochs(sessions, 2, B, LR)
    assert any(not isinstance(r, slice) for r in chunks)
    assert all(s.params is start for s in sessions)
    assert start.tobytes() == before
    assert all(r.params.tobytes() != before for r in results)


# -------------------------------------------------------- numerical failure

def poisoned(ds, feature, step, gen):
    """A copy of `ds` whose window at batch `step` of the first epoch makes
    the gradient of layer 1's input weights for `feature` overflow.

    The feature is zero in every other window, so until that step its
    gradient, and with it the change of its weights, is exactly zero.
    """
    index = gen.permutation(ds.n_train)[step * B]
    windows = np.array(ds.train.windows)
    labels = np.array(ds.train.labels)
    windows[:, :, feature] = 0.0
    windows[index, :, feature] = 1e200
    labels[index] = 1e153  # squared, still finite: the loss stays finite
    train = SequenceSet(windows, labels)
    return replace(ds, train=train)


def test_failure_raises_the_serial_error(tiny_datasets):
    # Client 1 fails at its third step, client 2 already at its first: a
    # lockstep engine sees client 2 fail first, but one-after-another
    # training never gets past client 1.
    cfg = small_config("fl", batch_size=B, local_epochs=2, learning_rate=LR)
    round_index = 3

    def gen(hid):
        return stream(cfg.seed, TRAIN, key_int(hid), ROUND, round_index)

    d = tiny_datasets[0].feature_dim
    start = init_model(d, np.random.default_rng(5))
    # Layer 1's input weights (the first 4*20*d coordinates) ignore features
    # 0 and 1, so huge values there leave the forward pass finite.
    start[:80 * d].reshape(80, d)[:, :2] = 0.0
    h0, h1, h2, h3 = (ds.household_id for ds in tiny_datasets)
    sets = list(tiny_datasets)
    sets[1] = poisoned(sets[1], 0, 2, gen(h1))
    sets[2] = poisoned(sets[2], 1, 0, gen(h2))

    def lone_error(i):
        ds = sets[i]
        session = Session(start, ds.train.windows, ds.train.labels, gen(ds.household_id))
        with pytest.raises(NumericalError) as err:
            train_serially(session, cfg.local_epochs, B, LR)
        return err.value

    first, second = lone_error(1), lone_error(2)
    assert first.param_index != second.param_index
    with pytest.raises(NumericalError) as err:
        fedavg_round(start, sets, cfg, round_index)
    assert str(err.value) == f"round {round_index}: client {h1} failed: {first}"
    assert err.value.param_index == first.param_index
    # the same clients without client 1 fail on client 2
    with pytest.raises(NumericalError) as err:
        fedavg_round(start, [ds for ds in sets if ds.household_id != h1], cfg,
                     round_index)
    assert str(err.value) == f"round {round_index}: client {h2} failed: {second}"
    assert err.value.param_index == second.param_index
    assert h0 < h1 < h2 < h3


def test_a_validation_failure_yields_to_an_earlier_session(tiny_datasets):
    # Session 1 scores inf on its validation set before any training, and
    # session 0 hits a poisoned gradient at its third step, later on.  One
    # after another, training never reaches session 1: session 0's error is
    # the one raised.
    d = tiny_datasets[0].feature_dim
    start = init_model(d, np.random.default_rng(5))
    start[:80 * d].reshape(80, d)[:, :2] = 0.0  # as in the test above
    ds0 = poisoned(tiny_datasets[0], 0, 2, np.random.default_rng(40))
    ds1 = tiny_datasets[1]
    unreachable = SequenceSet(ds1.val.windows, np.full(len(ds1.val), 1e200))

    def sessions():
        return [Session(start, ds0.train.windows, ds0.train.labels,
                        np.random.default_rng(40), ds0.val),
                Session(start, ds1.train.windows, ds1.train.labels,
                        np.random.default_rng(41), unreachable)]

    with pytest.raises(NumericalError) as lone:
        train_serially(sessions()[0], 2, B, LR, patience=5)
    with pytest.raises(NumericalError) as err:
        fit_epochs(sessions(), 2, B, LR, patience=5)
    assert str(err.value) == str(lone.value)
    assert err.value.param_index == lone.value.param_index
    assert err.value.session == 0
    # alone, session 1 fails on its score, which overflows to inf
    with pytest.raises(NumericalError) as err:
        fit_epochs(sessions()[1:], 2, B, LR, patience=5)
    assert str(err.value) == "validation RMSE is inf"
    assert err.value.session == 0 and err.value.param_index is None
