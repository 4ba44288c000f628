"""Logistic-regression reference classifier.

Used by the experiment runner to contrast weight distributions and sanity
accuracies against the tensor-network models. Plain multinomial logistic
regression (binary is the k=2 case) with an optional quadratic penalty on
the weights (never the intercept), fit with L-BFGS on the exact analytic
gradient. The optimizer (``scipy.optimize``) is imported on the first fit,
so importing this module, or ``bmps``, does not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .trainer import logsumexp, softmax

MAX_ITER = 500  # L-BFGS iterations a fit may take


class LogisticBaseline:
    """Softmax regression; ``weights_`` is (n_features, n_classes)."""

    def __init__(self, l2=0.0):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = float(l2)
        self.weights_ = None
        self.intercept_ = None

    def fit(self, X, Y):
        from scipy.optimize import minimize

        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise DataError(
                f"need matching 2-d X and one-hot Y, got {X.shape} and {Y.shape}"
            )
        if X.shape[0] == 0:
            raise DataError("cannot fit on an empty dataset")
        m, d = X.shape
        k = Y.shape[1]

        def unpack(vec):
            W = vec[: d * k].reshape(d, k)
            b = vec[d * k :]
            return W, b

        def objective(vec):
            W, b = unpack(vec)
            logits = X @ W + b
            probs = softmax(logits)
            lse = logsumexp(logits)
            nll = float(np.sum(lse - np.sum(logits * Y, axis=1)))
            nll += 0.5 * self.l2 * float(np.sum(W * W))
            resid = probs - Y
            grad_W = X.T @ resid + self.l2 * W
            grad_b = resid.sum(axis=0)
            return nll, np.concatenate([grad_W.ravel(), grad_b])

        start = np.zeros(d * k + k)
        result = minimize(
            objective, start, jac=True, method="L-BFGS-B",
            options={"maxiter": MAX_ITER},
        )
        self.weights_, self.intercept_ = unpack(result.x)
        return self

    def predict_proba(self, X):
        if self.weights_ is None:
            raise DataError("fit the model before predicting")
        X = np.asarray(X, dtype=np.float64)
        return softmax(X @ self.weights_ + self.intercept_)

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)

    def accuracy(self, X, Y):
        truth = np.argmax(np.asarray(Y), axis=1)
        return float(np.mean(self.predict(X) == truth))
