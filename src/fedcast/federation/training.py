"""Shared training machinery: the lockstep engine, evaluation, early stopping.

One "session" is a continuous optimisation of one model on one dataset: its
own starting parameters, training data, generator and Adam moments, which
persist across its epochs and are never carried over from a different
session.  `fit_epochs` trains any set of independent sessions in lockstep on
one (C, P) parameter matrix, so one stacked gradient call serves many
sessions per step, and every session ends bitwise as it would trained alone.

Early stopping tracks the best validation metric seen, including the metric
of the starting parameters (epoch 0), and restores the best snapshot
bitwise, so a validated session can never end worse than it began.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.sequences import SequenceSet
from ..errors import NumericalError, ValidationError
from ..nn import adam_step, compute_gradients, forward_batch
from .config import ScenarioConfig

EVAL_BATCH = 1024

# Most rows (sessions x batch size) one gradient call stacks.  Time per
# session-step against one session per call, measured with the wavefront
# kernel on a 2-vCPU Xeon with single-threaded OpenBLAS at K=6 and 12 (two
# runs each): 20 sessions at B=8 ran 2.4-4.4x faster and 8-12 at B=32
# 1.5-2.1x, while 2 at B=256 ran at 0.94-1.13x and 4 at B=128 (K=12) at
# 0.99-1.09x.  Small stacks save per-call overhead; large ones gain nothing.
STACK_ROWS = 256


@dataclass
class EarlyStopper:
    """Patience-based stopping with a bitwise best-parameter snapshot.

    Without a patience it never stops and only tracks the best snapshot.
    """

    patience: int | None
    initial_metric: float | None = None
    best_metric: float = float("inf")
    best_params: np.ndarray | None = None
    best_step: int = -1
    stale: int = 0
    _step: int = field(default=-1, repr=False)

    def update(self, metric: float, params: np.ndarray) -> bool:
        """Record one evaluation point; returns True on improvement."""
        if not np.isfinite(metric):
            raise NumericalError(f"validation RMSE is {metric}")
        self._step += 1
        if self._step == 0:
            self.initial_metric = float(metric)
        if metric < self.best_metric:
            self.best_metric = float(metric)
            self.best_params = np.array(params, dtype=np.float64, copy=True)
            self.best_step = self._step
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.patience is not None and self.stale >= self.patience


def evaluate_rmse(params: np.ndarray, seq_set) -> float:
    """Root mean squared error of one model on one sequence set, predicted
    EVAL_BATCH windows at a time; inf when the squared errors overflow."""
    windows = seq_set.windows
    if len(windows) == 0:
        raise ValidationError("no windows to predict")
    preds = np.concatenate([forward_batch(windows[i:i + EVAL_BATCH], params)
                            for i in range(0, len(windows), EVAL_BATCH)])
    with np.errstate(over="ignore"):
        diff = preds - seq_set.labels
        return float(np.sqrt(np.mean(diff * diff)))


@dataclass(frozen=True)
class Session:
    """One model to train: its start, its data and its own generator.

    With a validation set the session is scored before training and after
    every epoch, and stops early on that score.
    """

    params: np.ndarray  # (P,) starting parameters, left unchanged
    windows: np.ndarray
    labels: np.ndarray
    gen: np.random.Generator
    val: SequenceSet | None = None


@dataclass(frozen=True)
class SessionResult:
    params: np.ndarray    # best snapshot if validated, else the final parameters
    best_metric: float | None
    best_epoch: int | None  # 0 means the starting parameters were never beaten
    initial_metric: float | None
    epochs_run: int
    records: list         # one dict per epoch: train_loss, val_rmse, samples
    samples: int


def _rows(chunk: list):
    """Index of a chunk of sessions: a slice (a view) when contiguous."""
    if chunk[-1] - chunk[0] == len(chunk) - 1:
        return slice(chunk[0], chunk[-1] + 1)
    return chunk


def fit_epochs(sessions, epochs: int, batch_size: int, learning_rate: float,
               patience: int | None = None) -> list:
    """Train independent sessions in lockstep; one SessionResult each.

    Every epoch each session shuffles its data with its own generator and
    takes minibatch Adam steps; at each step the sessions whose batches are
    equally long share one gradient call, at most
    max(1, STACK_ROWS // batch_size) of them.  Validated sessions stop after
    `patience` epochs without improvement.  A session's records hold its
    mean pre-update batch loss per epoch and the optimizer-visited
    sequences (every sequence counts once per epoch).

    A bad gradient or a non-finite validation score fails a session.  The
    error raised is the one training the sessions one after another would
    raise: that of the first failing session in list order.  epochs=0
    returns every session unchanged.
    """
    sessions = list(sessions)
    for s in sessions:
        if len(s.labels) == 0:
            raise ValidationError("cannot train on an empty sequence set")
    if not sessions:
        return []
    params = np.stack([np.asarray(s.params, dtype=np.float64) for s in sessions])
    # Adam's state: moments and step counts, one row per session.
    first_moment = np.zeros_like(params)
    second_moment = np.zeros_like(params)
    steps = np.zeros(len(sessions), dtype=np.int64)
    per_stack = max(1, STACK_ROWS // batch_size)
    _, k, d = sessions[0].windows.shape
    stoppers = [None if s.val is None else EarlyStopper(patience)
                for s in sessions]
    records = [[] for _ in sessions]
    # The first failing session and its error; later sessions are dropped.
    failure = None
    limit = len(sessions)

    def fail(i, err):
        nonlocal failure, limit
        if i < limit:
            err.session = limit = i
            failure = err

    def validate(i):
        """Session i's validation RMSE, fed to its stopper (None if unvalidated)."""
        if stoppers[i] is None:
            return None
        metric = evaluate_rmse(params[i], sessions[i].val)
        try:
            stoppers[i].update(metric, params[i])
        except NumericalError as err:
            fail(i, err)
        return metric

    for i in range(len(sessions)):
        validate(i)
    active = list(range(len(sessions)))

    def step(chunk, lo, size, perms, losses):
        while chunk:
            x = np.empty((len(chunk) * size, k, d))
            y = np.empty(len(chunk) * size)
            for j, i in enumerate(chunk):
                idx = perms[i][lo:lo + size]
                np.take(sessions[i].windows, idx, axis=0,
                        out=x[j * size:(j + 1) * size])
                np.take(sessions[i].labels, idx, out=y[j * size:(j + 1) * size])
            rows = _rows(chunk)
            state = p, m, v, t = (params[rows], first_moment[rows],
                                  second_moment[rows], steps[rows])
            try:
                grads, batch_losses = compute_gradients(x, y, p)
            except NumericalError as err:
                fail(chunk[err.session], err)
                chunk = [i for i in chunk if i < limit]
                continue
            adam_step(p, grads, m, v, t, learning_rate)
            if not isinstance(rows, slice):  # copies, not views: write back
                params[rows], first_moment[rows], second_moment[rows], steps[rows] = state
            for j, i in enumerate(chunk):
                losses[i].append(float(batch_losses[j]))
            return

    for epoch in range(1, epochs + 1):
        if not active:
            break
        perms = {i: sessions[i].gen.permutation(len(sessions[i].labels))
                 for i in active}
        losses = {i: [] for i in active}
        for lo in range(0, max(len(perms[i]) for i in active), batch_size):
            by_size = {}
            for i in active:
                size = min(batch_size, len(perms[i]) - lo)
                if size > 0:
                    by_size.setdefault(size, []).append(i)
            for size, members in by_size.items():
                for start in range(0, len(members), per_stack):
                    chunk = [i for i in members[start:start + per_stack] if i < limit]
                    step(chunk, lo, size, perms, losses)
        for i in active:
            if i < limit:
                records[i].append({"epoch": epoch,
                                   "train_loss": float(np.mean(losses[i])),
                                   "val_rmse": validate(i),
                                   "samples": len(sessions[i].labels)})
        active = [i for i in active if i < limit
                  and (stoppers[i] is None or not stoppers[i].should_stop)]
    if failure is not None:
        raise failure

    results = []
    for i, (s, stopper) in enumerate(zip(sessions, stoppers)):
        samples = len(s.labels) * len(records[i])
        if stopper is None:
            results.append(SessionResult(params[i].copy(), None, None, None,
                                         len(records[i]), records[i], samples))
        else:
            results.append(SessionResult(
                stopper.best_params, stopper.best_metric, stopper.best_step,
                stopper.initial_metric, len(records[i]), records[i], samples))
    return results


def train_session(params: np.ndarray, windows: np.ndarray, labels: np.ndarray,
                  val: SequenceSet, max_epochs: int, cfg: ScenarioConfig,
                  gen: np.random.Generator) -> SessionResult:
    """One validated session: `fit_epochs` with a single session.

    The starting parameters are evaluated first, so the session result can
    never be worse than its starting point.
    """
    session = Session(params, windows, labels, gen, val)
    return fit_epochs([session], max_epochs, cfg.batch_size, cfg.learning_rate,
                      cfg.patience)[0]
