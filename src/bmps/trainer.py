"""Penalized maximum-likelihood training for tensor-network classifiers.

The objective minimized here is the summed cross entropy of the batch plus a
Gaussian weight penalty:

    loss(A) = sum_i ce(logits(x_i), y_i) + (precision / 2) * |A|^2

where |A|^2 runs over every node entry. Binary models (one output channel)
score class 1 with a sigmoid; wider models use a softmax over the output
channels. Both cross entropies are evaluated in log space so saturated
logits stay finite.

Gradients come from one cached-environment sweep per batch
(:func:`bmps.mps.sweep_env`), so a step costs the same order of work as the
forward pass. ``train_map`` never mutates the model it is given; it returns
the iterate with the lowest full-training-set loss seen at any epoch
boundary, together with a per-epoch history that serializes to CSV or JSON.

Divergence is detected two ways and reported as
:class:`bmps.errors.TrainingDiverged` carrying the epoch and batch index:
a non-finite batch loss (or an overflowing contraction), or a mean
per-sample cross entropy exceeding ``divergence_factor`` times its value at
initialization.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, softmax

from . import mps
from .errors import DataError, NumericError, ShapeError, TrainingDiverged

OPTIMIZERS = ("adam", "sgd", "sgd_momentum")

DEFAULT_LEARNING_RATE = 1e-3


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
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    shuffle: bool = True
    seed: int = 0
    divergence_factor: float = 1e3
    magnitude_cap: float = mps.DEFAULT_MAGNITUDE_CAP

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
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must be in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not self.divergence_factor > 1:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
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


_HISTORY_FIELDS = ("epoch", "train_loss", "train_acc", "test_acc", "param_std", "seconds")


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
            self._write_csv(fh)

    def to_csv_string(self):
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()

    def _write_csv(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HISTORY_FIELDS)
        for rec in self.records:
            writer.writerow([getattr(rec, name) for name in _HISTORY_FIELDS])

    def to_json(self, path=None):
        payload = {
            "best_epoch": self.best_epoch,
            "records": [
                {name: getattr(rec, name) for name in _HISTORY_FIELDS}
                for rec in self.records
            ],
        }
        if path is None:
            return json.dumps(payload, indent=2)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return None


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


def probabilities(logits):
    """Class probabilities from (batch, n_labels) logits: sigmoid of a single
    logit as two columns [P(0), P(1)], else softmax."""
    if logits.shape[1] == 1:
        p1 = expit(logits[:, 0])
        return np.column_stack([1.0 - p1, p1])
    return softmax(logits, axis=1)


def _cross_entropy(logits, targets):
    """Summed cross entropy of logits against validated one-hot targets."""
    if logits.shape[0] != targets.shape[0]:
        raise ShapeError(f"{logits.shape[0]} samples but {targets.shape[0]} label rows")
    if logits.shape[1] == 1:
        z = logits[:, 0]
        # log(1 + e^z) written via logaddexp keeps large |z| exact.
        return float(np.sum(np.logaddexp(0.0, z) - targets[:, 1] * z))
    hit = np.sum(logits * targets, axis=1)
    lse = np.logaddexp.reduce(logits, axis=1)
    return float(np.sum(lse - hit))


def _hit_rate(probs, targets):
    """Fraction of rows whose most probable class (lowest on ties) is the label."""
    return float(np.mean(np.argmax(probs, axis=1) == np.argmax(targets, axis=1)))


def _penalty(model, prior):
    if prior.precision == 0.0:
        return 0.0
    return 0.5 * prior.precision * mps.weight_norm_sq(model)


def loss(model, X, labels, prior=PriorSpec(), magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Objective value: summed cross entropy on one-hot labels plus the prior penalty.

    Single-channel models take (batch, 2) labels; wider models one column
    per output channel.
    """
    targets = _targets(model, labels)
    logits = predict_logits(model, X, magnitude_cap=magnitude_cap)
    return _cross_entropy(logits, targets) + _penalty(model, prior)


def _loss_and_grads(env, targets, prior):
    """Batch cross entropy and the gradient of the penalized loss at a swept batch.

    The gradient of the summed cross entropy with respect to the logits is
    the predicted probability minus the target; a single-logit model's
    channel is the class-1 column.
    """
    ce = _cross_entropy(env.logits, targets)
    residual = probabilities(env.logits) - targets
    grads = mps.weighted_grad_from_env(env, residual[:, -env.model.shape.n_labels :])
    if prior.precision != 0.0:
        for g, node in zip(grads, env.model.nodes):
            g += prior.precision * node
    return ce, grads


def grad_loss(model, X, labels, prior=PriorSpec(), magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Exact gradient of :func:`loss` with respect to every node entry.

    Returns a list of arrays matching ``model.nodes`` shapes.
    """
    targets = _targets(model, labels)
    env = mps.sweep_env(model, X, magnitude_cap=magnitude_cap)
    return _loss_and_grads(env, targets, prior)[1]


class _Sgd:
    def __init__(self, config, nodes):
        self.lr = config.learning_rate

    def step(self, nodes, grads):
        for node, g in zip(nodes, grads):
            node -= self.lr * g


class _SgdMomentum:
    def __init__(self, config, nodes):
        self.lr = config.learning_rate
        self.mu = config.momentum
        self.velocity = [np.zeros_like(n) for n in nodes]

    def step(self, nodes, grads):
        for node, g, v in zip(nodes, grads, self.velocity):
            v *= self.mu
            v += g
            node -= self.lr * v


class _Adam:
    def __init__(self, config, nodes):
        self.lr = config.learning_rate
        self.b1 = config.adam_beta1
        self.b2 = config.adam_beta2
        self.eps = config.adam_eps
        self.t = 0
        self.m = [np.zeros_like(n) for n in nodes]
        self.v = [np.zeros_like(n) for n in nodes]

    def step(self, nodes, grads):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for node, g, m, v in zip(nodes, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * np.square(g)
            node -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
    test_x = np.asarray(getattr(data, "test_x", np.zeros((0, X.shape[1]))))
    test_y = np.asarray(getattr(data, "test_y", np.zeros((0, Y.shape[1]))))
    has_test = test_x.shape[0] > 0

    work = model.copy()
    opt = _OPTIMIZER_CLASSES[config.optimizer](config, work.nodes)
    rng = np.random.default_rng(config.seed)
    m = X.shape[0]
    cap = config.magnitude_cap

    try:
        initial_loss = loss(work, X, Y, prior, cap)
    except NumericError as exc:
        raise TrainingDiverged(
            f"initial evaluation overflowed: {exc}", epoch=0, batch=0
        ) from exc
    initial_mean_ce = (initial_loss - _penalty(work, prior)) / m
    best_loss = initial_loss
    best_nodes = [n.copy() for n in work.nodes]
    best_epoch = 0
    history = TrainHistory()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(m) if config.shuffle else np.arange(m)
        for batch_idx, start in enumerate(range(0, m, config.batch_size)):
            rows = order[start : start + config.batch_size]
            try:
                batch_ce, grads = _loss_and_grads(
                    mps.sweep_env(work, X[rows], magnitude_cap=cap), Y[rows], prior
                )
            except NumericError as exc:
                raise TrainingDiverged(
                    f"contraction overflowed at epoch {epoch}, batch {batch_idx}: {exc}",
                    epoch=epoch,
                    batch=batch_idx,
                ) from exc
            mean_ce = batch_ce / len(rows)
            if not np.isfinite(mean_ce) or (
                initial_mean_ce > 0
                and mean_ce > config.divergence_factor * initial_mean_ce
            ):
                raise TrainingDiverged(
                    f"mean cross entropy {mean_ce:.6g} at epoch {epoch}, "
                    f"batch {batch_idx} (started at {initial_mean_ce:.6g})",
                    epoch=epoch,
                    batch=batch_idx,
                )
            opt.step(work.nodes, grads)

        try:
            logits = predict_logits(work, X, magnitude_cap=cap)
            test_acc = (
                accuracy(work, test_x, test_y, magnitude_cap=cap)
                if has_test
                else float("nan")
            )
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
        params = mps.flatten_params(work)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_acc=train_acc,
                test_acc=test_acc,
                param_std=float(params.std()),
                seconds=time.perf_counter() - t0,
            )
        )
        if train_loss < best_loss:
            best_loss = train_loss
            best_nodes = [n.copy() for n in work.nodes]
            best_epoch = epoch

    history.best_epoch = best_epoch
    return mps.MpsModel(model.shape, best_nodes), history


def predict_logits(model, X, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Logits for a batch, evaluated in chunks to bound peak memory."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d (batch, features), got shape {X.shape}")
    chunks = mps.map_chunks(
        lambda xb: mps.forward_batch(model, xb, magnitude_cap=magnitude_cap), X
    )
    return np.concatenate(chunks)


def predict_proba(model, X, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Class probabilities; binary models return two columns [P(0), P(1)]."""
    return probabilities(predict_logits(model, X, magnitude_cap=magnitude_cap))


def predict_labels(model, X, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Most probable class index per sample (lowest index on ties)."""
    return np.argmax(predict_proba(model, X, magnitude_cap=magnitude_cap), axis=1)


def accuracy(model, X, labels, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Fraction of samples whose predicted class matches the one-hot label."""
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise DataError("cannot score an empty batch")
    return _hit_rate(predict_proba(model, X, magnitude_cap=magnitude_cap), labels)
