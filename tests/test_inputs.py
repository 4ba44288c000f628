"""Each feature and label matrix is checked once, where it enters.

Every public entry point runs the one feature check (``mps._features``) and
the one one-hot check (``data._labels``) on each matrix it is given, before
its first sweep, so the same fault raises the same error class wherever it
enters: ``ShapeError`` for a matrix that is not 2-D, ``DataError`` for a
value outside [0, 1] (NaN too) or a label row that is not one-hot.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from bmps import data, laplace, mps, trainer
from bmps.errors import DataError, ShapeError

from oracles import random_model

CONFIG = trainer.TrainConfig(epochs=2, batch_size=2)


def halves(x, y, tx, ty):
    return SimpleNamespace(train_x=x, train_y=y, test_x=tx, test_y=ty)


# name: (call(case, X, Y), whether the entry takes labels)
ENTRIES = {
    "embed": (lambda c, X, Y: mps.embed(X), False),
    "DatasetSplit-train": (lambda c, X, Y: data.DatasetSplit(X, Y, c.x, c.y), True),
    "DatasetSplit-test": (lambda c, X, Y: data.DatasetSplit(c.x, c.y, X, Y), True),
    "train_map-train": (
        lambda c, X, Y: trainer.train_map(c.model, halves(X, Y, c.x, c.y), CONFIG),
        True,
    ),
    "train_map-test": (
        lambda c, X, Y: trainer.train_map(c.model, halves(c.x, c.y, X, Y), CONFIG),
        True,
    ),
    "predict_logits": (lambda c, X, Y: trainer.predict_logits(c.model, X), False),
    "loss": (lambda c, X, Y: trainer.loss(c.model, X, Y), True),
    "grad_loss": (lambda c, X, Y: trainer.grad_loss(c.model, X, Y), True),
    "accuracy": (lambda c, X, Y: trainer.accuracy(c.model, X, Y), True),
    "ggn_factors": (lambda c, X, Y: laplace.ggn_factors(c.model, X), False),
    "predictive_batch": (lambda c, X, Y: laplace.predictive_batch(c.post, X), False),
}


def last_row(arr, row):
    out = arr.copy()
    out[-1] = row
    return out


# name: (fault(x, y) -> (X, Y), error, whether the fault is in the labels)
FAULTS = {
    "1-D features": (lambda x, y: (x[-1], y), ShapeError, False),
    "3-D features": (lambda x, y: (x[None], y), ShapeError, False),
    "feature 1.5": (lambda x, y: (last_row(x, [0.5, 0.5, 0.5, 1.5]), y), DataError, False),
    "feature NaN": (lambda x, y: (last_row(x, [0.5, np.nan, 0.5, 0.5]), y), DataError, False),
    "1-D labels": (lambda x, y: (x, y.argmax(axis=1)), ShapeError, True),
    "3-D labels": (lambda x, y: (x, y[None]), ShapeError, True),
    "label 0.5": (lambda x, y: (x, last_row(y, [0.5, 0.5, 0.0])), DataError, True),
    "two 1s": (lambda x, y: (x, last_row(y, [1.0, 1.0, 0.0])), DataError, True),
}


@pytest.fixture
def case(monkeypatch):
    """A 3-class chain, its posterior, 6 good rows, and every pass split
    into serial 2-row chunks, so a fault in the last row is in the last
    batch and chunk."""
    rng = np.random.default_rng(0)
    model = random_model(rng, mps.MpsShape(4, 2, 2, 3), scale=0.6)
    x = rng.uniform(0, 1, size=(6, 4))
    y = np.eye(3)[np.arange(6) % 3]
    post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, x), 0.5)
    monkeypatch.setattr(mps, "chunk_plan", lambda n_rows, row_bytes: (2, 1))
    return SimpleNamespace(model=model, post=post, x=x, y=y)


def counted(monkeypatch, module, name):
    """Calls of ``module.name`` from now on, as a list of 1s."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry, (_, takes_labels) in ENTRIES.items()
        for fault, (_, _, in_labels) in FAULTS.items()
        if takes_labels or not in_labels
    ],
)
def test_a_fault_raises_one_class_before_any_sweep(monkeypatch, case, entry, fault):
    call = ENTRIES[entry][0]
    make, error, _ = FAULTS[fault]
    X, Y = make(case.x, case.y)
    sweeps = counted(monkeypatch, mps, "_sweep")
    with pytest.raises(error) as raised:
        call(case, X, Y)
    assert type(raised.value) is error
    assert sweeps == []


@pytest.mark.parametrize("entry", ENTRIES)
def test_one_call_checks_each_matrix_once(monkeypatch, case, entry):
    call, takes_labels = ENTRIES[entry]
    features = counted(monkeypatch, mps, "_features")
    labels = counted(monkeypatch, data, "_labels")
    sweeps = counted(monkeypatch, mps, "_sweep")
    call(case, case.x, case.y)
    # both halves of a split, one matrix otherwise
    matrices = 2 if entry.startswith(("DatasetSplit", "train_map")) else 1
    assert len(features) == matrices
    assert len(labels) == (matrices if takes_labels else 0)
    # every chunked pass ran its 3 chunks (training: batches) after the check
    unchunked = ("embed", "DatasetSplit-train", "DatasetSplit-test", "grad_loss")
    assert entry in unchunked or len(sweeps) >= 3


def test_a_feature_value_is_named():
    with pytest.raises(DataError, match=r"feature value 1\.5 outside \[0, 1\]"):
        mps.embed([[0.5, 1.5]])
    with pytest.raises(DataError, match=r"feature value nan outside \[0, 1\]"):
        data.DatasetSplit([[np.nan, 0.5]], [[1.0, 0.0]], np.zeros((0, 2)), np.zeros((0, 2)))


def test_the_per_module_checks_are_gone():
    assert not hasattr(data, "_check_features")
    assert not hasattr(data, "_check_onehot")
