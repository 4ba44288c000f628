"""Penalized maximum-likelihood training for tensor-network classifiers.

The objective minimized here is the summed cross entropy of the batch plus a
Gaussian weight penalty:

    loss(A) = sum_i ce(logits(x_i), y_i) + (precision / 2) * |A|^2

where |A|^2 runs over every node entry. Binary models (one output channel)
score class 1 with a sigmoid; wider models use a softmax over the output
channels. Both cross entropies are evaluated in log space so saturated
logits stay finite. The sigmoid, softmax and logsumexp defined here are
numpy forms of ``scipy.special``'s, which :mod:`bmps.laplace` and
:mod:`bmps.baseline` share, so importing the package loads no scipy.

Gradients come from one cached-environment sweep per batch
(:func:`bmps.mps.sweep_env`), so a step costs the same order of work as the
forward pass. ``train_map`` never mutates the model it is given; it returns
the iterate with the lowest full-training-set loss seen at any epoch
boundary, together with a per-epoch history that serializes to CSV or JSON.

Divergence is detected two ways and reported as
:class:`bmps.errors.TrainingDiverged` carrying the epoch and batch index:
a non-finite batch loss (or an overflowing contraction), or a mean
per-sample cross entropy exceeding :data:`DIVERGENCE_FACTOR` times its value
at initialization, or ``log(width)`` (chance level over the label width)
when that is larger.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import mps
from .errors import DataError, NumericError, ShapeError, TrainingDiverged

OPTIMIZERS = ("adam", "sgd", "sgd_momentum")

DEFAULT_LEARNING_RATE = 1e-3

# The optimizers' own constants: sgd_momentum's velocity decay, and Adam's
# moment decays and denominator offset.
MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A batch whose mean cross entropy exceeds both this multiple of its value
# at initialization and chance level (log of the label width) ends training
# as diverged.
DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class PriorSpec:
    """Isotropic Gaussian prior on all node entries.

    ``precision`` is the inverse variance; 0 means no penalty (pure
    maximum likelihood) and skips the penalty term entirely.
    """

    precision: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.precision) or self.precision < 0:
            raise ValueError(f"precision must be finite and >= 0, got {self.precision}")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for :func:`train_map`."""

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = DEFAULT_LEARNING_RATE
    optimizer: str = "adam"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}"
            )


@dataclass(frozen=True)
class EpochRecord:
    """Metrics captured at the end of one epoch."""

    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    param_std: float
    seconds: float
    # the end-of-epoch evaluation's share of ``seconds``
    eval_seconds: float


_HISTORY_FIELDS = tuple(f.name for f in fields(EpochRecord))


@dataclass
class TrainHistory:
    """Per-epoch records plus the index of the best (lowest loss) epoch.

    ``best_epoch`` is 0 when the initial model was never improved on,
    otherwise the 1-based epoch whose end-of-epoch iterate was kept.
    """

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_HISTORY_FIELDS)
            for rec in self.records:
                writer.writerow([getattr(rec, name) for name in _HISTORY_FIELDS])

    def to_json(self, path):
        payload = {
            "best_epoch": self.best_epoch,
            "records": [
                {name: getattr(rec, name) for name in _HISTORY_FIELDS}
                for rec in self.records
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _targets(model, labels):
    """Validated one-hot labels; a single-logit model scores two classes."""
    width = max(model.shape.n_labels, 2)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[1] != width:
        raise ShapeError(
            f"labels must have shape (batch, {width}), got {labels.shape}"
        )
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("labels must be one-hot rows of 0s and 1s")
    if not np.all(labels.sum(axis=1) == 1.0):
        raise DataError("each label row must have exactly one 1")
    return labels


def expit(x):
    """Logistic sigmoid ``1 / (1 + e^-x)``, the arithmetic of
    ``scipy.special.expit``: where ``e^-x`` overflows to inf the result is
    exactly 0, as scipy's is, and no warning is raised."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softmax(a):
    """Softmax along the last axis, bit for bit as ``scipy.special.softmax``."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(a):
    """``log(sum(exp(a)))`` along the last axis, bit for bit as
    ``scipy.special.logsumexp``: the maxima leave the sum as their count m,
    ``log1p(s) + log(m) + max`` with s the rest's shifted sum over m, and a
    result that is not finite comes from the direct sum."""
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=-1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
        direct = np.log(np.exp(a).sum(axis=-1, keepdims=True))
    return np.where(np.isfinite(out), out, direct)[..., 0]


def probabilities(logits):
    """Class probabilities from (batch, n_labels) logits: sigmoid of a single
    logit as two columns [P(0), P(1)], else softmax."""
    if logits.shape[1] == 1:
        return binary_columns(expit(logits[:, 0]))
    return softmax(logits)


def binary_columns(p1):
    """The two columns [1 - p1, p1] of a single-channel model's class
    probabilities, written into one new (n, 2) array."""
    out = np.empty((len(p1), 2))
    np.subtract(1.0, p1, out=out[:, 0])
    out[:, 1] = p1
    return out


def _cross_entropy(logits, targets):
    """Summed cross entropy of logits against validated one-hot targets."""
    if logits.shape[0] != targets.shape[0]:
        raise ShapeError(f"{logits.shape[0]} samples but {targets.shape[0]} label rows")
    # a row's term is log(1 + sum of e^(other - hit)), which no cancellation
    # rounds to 0; -z is exactly the class-0 logit relative to class 1
    if logits.shape[1] == 1:
        z = logits[:, 0]
        return float(np.sum(np.logaddexp(0.0, np.where(targets[:, 1] == 1.0, -z, z))))
    hit = np.sum(logits * targets, axis=1)
    return float(np.sum(np.logaddexp.reduce(logits - hit[:, None], axis=1)))


def _hit_rate(probs, targets):
    """Fraction of rows whose most probable class (lowest on ties) is the label."""
    return float(np.mean(np.argmax(probs, axis=1) == np.argmax(targets, axis=1)))


def _penalty(model, prior):
    if prior.precision == 0.0:
        return 0.0
    return 0.5 * prior.precision * mps.weight_norm_sq(model)


def loss(model, X, labels, prior=PriorSpec()):
    """Objective value: summed cross entropy on one-hot labels plus the prior penalty.

    Single-channel models take (batch, 2) labels; wider models one column
    per output channel.
    """
    targets = _targets(model, labels)
    logits = predict_logits(model, X)
    return _cross_entropy(logits, targets) + _penalty(model, prior)


def _loss_and_grad(env, targets, prior, out):
    """Batch cross entropy at a swept batch; writes the gradient of the
    penalized loss into ``out``, flat in ``model.params`` order.

    The penalty's gradient reads the swept model's ``params``. The gradient
    of the summed cross entropy with respect to the logits is the predicted
    probability minus the target; a single-logit model's channel is the
    class-1 column.
    """
    ce = _cross_entropy(env.logits, targets)
    residual = probabilities(env.logits) - targets
    mps.weighted_grad_from_env(env, residual[:, -env.model.shape.n_labels :], out=out)
    if prior.precision != 0.0:
        out += prior.precision * env.model.params
    return ce


def grad_loss(model, X, labels, prior=PriorSpec()):
    """Exact gradient of :func:`loss` with respect to every node entry.

    Returns a list of arrays matching ``model.nodes`` shapes, views of one
    flat gradient in ``model.params`` order.
    """
    targets = _targets(model, labels)
    env = mps.sweep_env(model, mps.embed(X))
    grad = np.empty_like(model.params)
    _loss_and_grad(env, targets, prior, grad)
    return mps.unflatten_params(model.shape, grad)


# Each optimizer updates the flat parameter vector in place with the usual
# elementwise rule, so every entry sees exactly the arithmetic of a
# per-node update. The rule's temporaries are written into scratch vectors
# allocated with the optimizer, once per run, in the order the expression
# form ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` evaluates them,
# so the bits are the same.


class _Sgd:
    def __init__(self, config, size):
        self.lr = config.learning_rate
        self.scratch = np.empty(size)

    def step(self, theta, grad):
        # theta -= lr * grad
        theta -= np.multiply(self.lr, grad, out=self.scratch)


class _SgdMomentum:
    def __init__(self, config, size):
        self.lr = config.learning_rate
        self.velocity = np.zeros(size)
        self.scratch = np.empty(size)

    def step(self, theta, grad):
        # v = mu * v + grad; theta -= lr * v
        v = self.velocity
        v *= MOMENTUM
        v += grad
        theta -= np.multiply(self.lr, v, out=self.scratch)


class _Adam:
    def __init__(self, config, size):
        self.lr = config.learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty(size)
        self.denom = np.empty(size)

    def step(self, theta, grad):
        # m = b1 * m + (1 - b1) * grad; v = b2 * v + (1 - b2) * grad**2;
        # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, tmp, denom = self.m, self.v, self.scratch, self.denom
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=tmp)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.square(grad, out=tmp), out=tmp)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bc1, out=tmp)
        np.multiply(self.lr, tmp, out=tmp)
        theta -= np.divide(tmp, denom, out=tmp)


_OPTIMIZER_CLASSES = {"sgd": _Sgd, "sgd_momentum": _SgdMomentum, "adam": _Adam}


def train_map(model, data, config=TrainConfig(), prior=PriorSpec()):
    """Minibatch gradient descent on the penalized cross entropy.

    ``data`` must expose ``train_x``/``train_y`` (and may expose non-empty
    ``test_x``/``test_y`` for per-epoch held-out accuracy). Returns
    ``(best_model, history)`` where ``best_model`` is the epoch-boundary
    iterate with the lowest full-training-set loss. The input model is not
    modified.
    """
    X = np.asarray(data.train_x, dtype=np.float64)
    Y = _targets(model, data.train_y)
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(
            f"train_x has shape {X.shape}, train_y has {Y.shape[0]} rows"
        )
    if X.shape[0] == 0:
        raise DataError("training set is empty")
    # the test set is checked here, not first at the end of an epoch
    test_x = mps._features(getattr(data, "test_x", np.zeros((0, X.shape[1]))))
    test_y = _targets(model, getattr(data, "test_y", np.zeros((0, Y.shape[1]))))
    if test_x.shape != (test_y.shape[0], X.shape[1]):
        raise ShapeError(
            f"test_x has shape {test_x.shape}, expected {test_y.shape[0]} rows "
            f"(test_y) of {X.shape[1]} features (train_x)"
        )
    has_test = test_x.shape[0] > 0

    # the iterate is work's parameter vector, stepped in place; its
    # gradient and the optimizer state are flat vectors in the same order
    work = model.copy()
    theta = work.params
    grad = np.empty_like(theta)
    opt = _OPTIMIZER_CLASSES[config.optimizer](config, theta.size)
    rng = np.random.default_rng(config.seed)
    m = X.shape[0]

    try:
        ce = _cross_entropy(predict_logits(work, X), Y)
    except NumericError as exc:
        raise TrainingDiverged(
            f"initial evaluation overflowed: {exc}", epoch=0, batch=0
        ) from exc
    # from the cross entropy alone, which a large penalty would round away;
    # a start near 0 (or at exactly 0) still allows chance level
    initial_mean_ce = ce / m
    limit = max(DIVERGENCE_FACTOR * initial_mean_ce, np.log(Y.shape[1]))
    best_loss = ce + _penalty(work, prior)
    best_theta = theta.copy()
    best_epoch = 0
    history = TrainHistory()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(m) if config.shuffle else np.arange(m)
        env = None
        for batch_idx, start in enumerate(range(0, m, config.batch_size)):
            rows = order[start : start + config.batch_size]
            try:
                env = mps.sweep_env(work, mps.embed(X[rows]), reuse=env)
                batch_ce = _loss_and_grad(env, Y[rows], prior, grad)
            except NumericError as exc:
                raise TrainingDiverged(
                    f"contraction overflowed at epoch {epoch}, batch {batch_idx}: {exc}",
                    epoch=epoch,
                    batch=batch_idx,
                ) from exc
            mean_ce = batch_ce / len(rows)
            if not mean_ce <= limit:  # also NaN and inf
                raise TrainingDiverged(
                    f"mean cross entropy {mean_ce:.6g} at epoch {epoch}, "
                    f"batch {batch_idx} (started at {initial_mean_ce:.6g})",
                    epoch=epoch,
                    batch=batch_idx,
                )
            opt.step(theta, grad)
        env = None  # the batch buffers are not needed while evaluating

        t_eval = time.perf_counter()
        try:
            logits = predict_logits(work, X)
            test_acc = accuracy(work, test_x, test_y) if has_test else float("nan")
        except NumericError as exc:
            raise TrainingDiverged(
                f"evaluation overflowed after epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        train_loss = _cross_entropy(logits, Y) + _penalty(work, prior)
        train_acc = _hit_rate(probabilities(logits), Y)
        if not np.isfinite(train_loss):
            raise TrainingDiverged(
                f"non-finite training loss after epoch {epoch}",
                epoch=epoch,
            )
        param_std = float(theta.std())
        t1 = time.perf_counter()
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_acc=train_acc,
                test_acc=test_acc,
                param_std=param_std,
                seconds=t1 - t0,
                eval_seconds=t1 - t_eval,
            )
        )
        if train_loss < best_loss:
            best_loss = train_loss
            best_theta = theta.copy()
            best_epoch = epoch

    history.best_epoch = best_epoch
    return mps.model_from_params(model.shape, best_theta), history


def predict_logits(model, X):
    """Logits for a batch, evaluated in chunks to bound peak memory."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d (batch, features), got shape {X.shape}")
    chunks = mps.map_chunks(
        lambda rows: mps.forward_batch(model, mps.embed(X[rows])),
        X.shape[0],
        mps.forward_row_bytes(model.shape),
    )
    return np.concatenate(chunks)


def predict_proba(model, X):
    """Class probabilities; binary models return two columns [P(0), P(1)]."""
    return probabilities(predict_logits(model, X))


def predict_labels(model, X):
    """Most probable class index per sample (lowest index on ties)."""
    return np.argmax(predict_proba(model, X), axis=1)


def accuracy(model, X, labels):
    """Fraction of samples whose predicted class matches the one-hot label."""
    labels = _targets(model, labels)
    if labels.shape[0] == 0:
        raise DataError("cannot score an empty batch")
    probs = predict_proba(model, X)
    if probs.shape[0] != labels.shape[0]:
        raise ShapeError(f"{probs.shape[0]} samples but {labels.shape[0]} label rows")
    return _hit_rate(probs, labels)
