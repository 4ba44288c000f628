"""Label decisions from predictive distributions.

Two rules: plain argmax (minimizes misclassification rate) and expected
utility against a square payoff matrix whose entry [a][t] is the utility of
answering ``a`` when the truth is ``t``. Ties always break toward the lowest
index, so both rules are deterministic. With the identity utility matrix the
two rules coincide.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError, ParseError, ShapeError


class UtilityMatrix:
    """Square payoff table; entry [action][truth]."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeError(f"utility matrix must be square, got shape {values.shape}")
        if values.shape[0] == 0:
            raise ShapeError("utility matrix must have at least one action")
        if not np.all(np.isfinite(values)):
            raise DataError("utility matrix entries must be finite")
        self.values = values

    @property
    def n_labels(self):
        return self.values.shape[0]

    @classmethod
    def identity(cls, n_labels):
        return cls(np.eye(n_labels))

    @classmethod
    def from_csv(cls, path):
        """Load an L x L matrix from a headerless CSV of numbers."""
        rows = []
        with open(path, newline="") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise ParseError(
                        f"{path}: line {line_no}: non-numeric cell ({exc})"
                    ) from exc
        if not rows:
            raise ParseError(f"{path}: no rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError(f"{path}: ragged rows (widths {sorted(widths)})")
        return cls(rows)


def _check_probs(probs):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim not in (1, 2) or probs.shape[-1] == 0:
        raise DataError(
            f"need a nonempty probability vector or (batch, classes) matrix, "
            f"got shape {probs.shape}"
        )
    # Written so that NaN, which fails every comparison, is rejected too.
    sums_ok = np.abs(probs.sum(axis=-1) - 1.0) <= 1e-6
    if not (np.all(probs >= -1e-12) and np.all(sums_ok)):
        raise DataError("probabilities must be nonnegative and sum to 1")
    return probs


def _labels(scores):
    labels = np.argmax(scores, axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def classify_map(probs):
    """Most probable label; lowest index wins ties.

    ``probs`` is one distribution ``(L,)``, giving an int, or one per row
    ``(B, L)``, giving an int array of B labels.
    """
    return _labels(_check_probs(probs))


def classify_utility(probs, util):
    """Label maximizing expected utility; lowest index wins ties.

    Accepts ``(L,)`` or ``(B, L)`` like :func:`classify_map`.
    """
    probs = _check_probs(probs)
    if util.n_labels != probs.shape[-1]:
        raise ShapeError(
            f"utility matrix is {util.n_labels}x{util.n_labels} but "
            f"distribution has {probs.shape[-1]} classes"
        )
    # One matrix-vector product per row, the same arithmetic for a batch as
    # for a single distribution.
    return _labels(np.matmul(util.values, probs[..., None])[..., 0])
