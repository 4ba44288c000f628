"""Low-rank Gaussian posterior around a trained model.

The curvature of the cross-entropy loss is approximated by its outer-product
(Gauss-Newton) form, which is positive semidefinite by construction: every
training sample contributes rows to a factor matrix U such that H = U'U.
For a sample with predicted class probabilities y and logit Jacobian rows
g_k, the rows are

    sqrt(y_k) * (g_k - sum_j y_j g_j)        (one per class)

and a single-channel model contributes the single row sqrt(y(1-y)) * g.
Summing the outer products of these rows over samples gives exactly
J'(diag(y) - yy')J, the curvature of softmax (or sigmoid) cross entropy
with the second-derivative-of-logits term dropped.

The posterior precision is M = H + precision*I. Solves against M use the
Woodbury identity,

    M^{-1} v = (v - U'(precision*I_R + UU')^{-1} U v) / precision,

which costs O(R*P + R^3) instead of O(P^3); the R x R core factorization is
cached. Predictions are moderated by the posterior: for each class, the
logit-gap mu'_j = psi_j - logsumexp_{k != j} psi_k is shrunk by
kappa(sigma_j^2) = (1 + pi*sigma_j^2/8)^{-1/2}, where sigma_j^2 is the
posterior variance of logit j, and the resulting sigmoids are renormalized.
With no factors and a huge precision this reduces exactly to the softmax of
the point estimate.

Posterior files use a self-contained container: magic ``BLAP1``, a fixed
little-endian header (rank, parameter count, prior precision, metadata
length, model-blob length), a JSON metadata block, the embedded model in its
own format, then the factor rows as little-endian float64 in row-major
order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit, logsumexp

from . import mps
from .errors import DataError, NumericError, ParseError, ShapeError

DEFAULT_RANK_CAP = 2000

_MAGIC = b"BLAP1"
_HEADER = struct.Struct("<qqdqq")  # rank, n_params, precision, meta len, model len


def model_digest(model):
    """Hex digest identifying a model's exact bytes."""
    return hashlib.sha256(mps.model_to_bytes(model)).hexdigest()


@dataclass(frozen=True)
class GgnFactors:
    """Factor rows of the outer-product curvature H = factors' @ factors.

    ``sample_ids`` records which rows of the source data were used when the
    rank cap forced subsampling; None means every sample contributed.
    """

    factors: np.ndarray
    n_samples: int
    sample_ids: np.ndarray | None
    model_digest: str

    def __post_init__(self):
        factors = np.ascontiguousarray(np.asarray(self.factors, dtype=np.float64))
        if factors.ndim != 2:
            raise ShapeError(f"factors must be 2-d (rank, params), got {factors.shape}")
        if not np.all(np.isfinite(factors)):
            raise NumericError("factors contain non-finite entries")
        object.__setattr__(self, "factors", factors)
        if self.sample_ids is not None:
            ids = np.asarray(self.sample_ids, dtype=np.int64)
            object.__setattr__(self, "sample_ids", ids)

    @property
    def rank(self):
        return self.factors.shape[0]

    @property
    def n_params(self):
        return self.factors.shape[1]


def ggn_factors(
    model,
    X,
    rank_cap=DEFAULT_RANK_CAP,
    seed=0,
    magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP,
):
    """Curvature factor rows for a batch of inputs at the given model.

    The targets do not enter: the outer-product curvature depends only on
    the predicted class probabilities. When samples * rows-per-sample would
    exceed ``rank_cap``, a seeded uniform subsample is used and its row
    indices are recorded on the result.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError(f"need a nonempty 2-d batch, got shape {X.shape}")
    if rank_cap < 1:
        raise ValueError(f"rank_cap must be >= 1, got {rank_cap}")
    n_labels = model.shape.n_labels
    rows_per_sample = 1 if n_labels == 1 else n_labels
    m = X.shape[0]

    sample_ids = None
    if m * rows_per_sample > rank_cap:
        n_keep = rank_cap // rows_per_sample
        if n_keep == 0:
            raise ValueError(
                f"rank_cap {rank_cap} cannot fit the {rows_per_sample} rows "
                "one sample produces"
            )
        rng = np.random.default_rng(seed)
        sample_ids = np.sort(rng.choice(m, size=n_keep, replace=False))
        X = X[sample_ids]

    chunks = mps.map_chunks(lambda xb: _ggn_rows(model, xb, magnitude_cap), X)
    U = np.ascontiguousarray(np.vstack(chunks))
    return GgnFactors(
        factors=U,
        n_samples=X.shape[0],
        sample_ids=sample_ids,
        model_digest=model_digest(model),
    )


def _ggn_rows(model, X, magnitude_cap):
    """The factor rows of a batch, sample by sample (see the module docstring)."""
    env = mps.sweep_env(model, X, magnitude_cap=magnitude_cap)
    jac = mps.jacobian_from_env(env)  # (b, L, P)
    if model.shape.n_labels == 1:
        y = expit(env.logits[:, 0])
        w = np.sqrt(y * (1.0 - y))
        return w[:, None] * jac[:, 0, :]
    z = env.logits - env.logits.max(axis=1, keepdims=True)
    y = np.exp(z)
    y /= y.sum(axis=1, keepdims=True)
    mean_g = np.einsum("bl,blp->bp", y, jac)
    centered = jac - mean_g[:, None, :]
    rows = np.sqrt(y)[:, :, None] * centered
    return rows.reshape(-1, rows.shape[2])


class LaplacePosterior:
    """Gaussian posterior N(map_model, (U'U + precision*I)^{-1}).

    Immutable after construction; the R x R Woodbury core factorization is
    computed once. Safe to share across threads for reads.
    """

    def __init__(self, map_model, factors, prior_precision):
        if not np.isfinite(prior_precision) or prior_precision <= 0:
            raise ValueError(
                f"prior_precision must be finite and > 0, got {prior_precision}"
            )
        n_params = map_model.shape.param_count
        if factors.n_params != n_params:
            raise ShapeError(
                f"factors have {factors.n_params} columns, model has {n_params} parameters"
            )
        if factors.model_digest != model_digest(map_model):
            raise ValueError("factors were built for a different model")
        self.map_model = map_model
        self.factors = factors
        self.prior_precision = float(prior_precision)
        U = factors.factors
        if factors.rank == 0:
            self._core = None
        else:
            core = U @ U.T
            core[np.diag_indices_from(core)] += self.prior_precision
            try:
                self._core = cho_factor(core)
            except LinAlgError as exc:
                raise NumericError(
                    "posterior core factorization failed; factors are likely "
                    "contaminated by non-finite values"
                ) from exc

    def solve(self, v):
        """M^{-1} v for a single flattened-parameter vector."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.factors.n_params,):
            raise ShapeError(
                f"expected vector of length {self.factors.n_params}, got shape {v.shape}"
            )
        return self.solve_many(v[None])[0]

    def solve_many(self, V):
        """M^{-1} applied to each row of V; shape (k, n_params) in and out."""
        V = np.asarray(V, dtype=np.float64)
        if V.ndim != 2 or V.shape[1] != self.factors.n_params:
            raise ShapeError(
                f"expected rows of length {self.factors.n_params}, got shape {V.shape}"
            )
        lam = self.prior_precision
        if self._core is None:
            return V / lam
        U = self.factors.factors
        w = U @ V.T  # (R, k)
        s = cho_solve(self._core, w)
        return (V - s.T @ U) / lam


def kappa(sigma2):
    """Moderation factor (1 + pi*sigma2/8)^{-1/2}; 1 at zero variance."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be nonnegative")
    out = 1.0 / np.sqrt(1.0 + (np.pi / 8.0) * sigma2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PredictiveBatch:
    """Moderated predictions for a batch, or for one sample from :func:`predictive`.

    ``probabilities`` has one column per class (two for single-channel
    models); the remaining arrays have one column per output channel. A
    single sample's result holds that row's vectors.
    """

    probabilities: np.ndarray
    sigma2: np.ndarray
    mu_prime: np.ndarray
    kappa: np.ndarray
    logits: np.ndarray


def _logit_gaps(logits):
    """Per-class margin over the rest: psi_j - logsumexp of the others."""
    n_labels = logits.shape[1]
    if n_labels == 1:
        return logits.copy()
    out = np.empty_like(logits)
    for j in range(n_labels):
        others = np.delete(logits, j, axis=1)
        out[:, j] = logits[:, j] - logsumexp(others, axis=1)
    return out


def _moderate(post, X, magnitude_cap):
    """Moderated predictions of one batch; see :func:`predictive_batch`."""
    n_labels = post.map_model.shape.n_labels
    env = mps.sweep_env(post.map_model, X, magnitude_cap=magnitude_cap)
    jac = mps.jacobian_from_env(env)  # (b, L, P)
    b = jac.shape[0]
    flat = jac.reshape(b * n_labels, -1)
    solved = post.solve_many(flat)
    sigma2 = np.einsum("rp,rp->r", flat, solved).reshape(b, n_labels)
    sigma2 = np.maximum(sigma2, 0.0)
    gaps = _logit_gaps(env.logits)
    k = kappa(sigma2)
    moderated = expit(k * gaps)
    if n_labels == 1:
        p1 = moderated[:, 0]
        p = np.column_stack([1.0 - p1, p1])
    else:
        p = moderated / moderated.sum(axis=1, keepdims=True)
    return PredictiveBatch(
        probabilities=p, sigma2=sigma2, mu_prime=gaps, kappa=k, logits=env.logits
    )


def predictive_batch(post, X, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Posterior-moderated class probabilities for a batch of inputs.

    ``logits`` are the point-estimate logits, identical to
    :func:`bmps.mps.forward_batch` on the same rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d (batch, features), got shape {X.shape}")
    parts = mps.map_chunks(lambda xb: _moderate(post, xb, magnitude_cap), X)
    return PredictiveBatch(
        *(np.vstack([getattr(p, f.name) for p in parts]) for f in fields(PredictiveBatch))
    )


def predictive(post, x, magnitude_cap=mps.DEFAULT_MAGNITUDE_CAP):
    """Posterior-moderated class probabilities for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"x must be a 1-d feature vector, got shape {x.shape}")
    batch = predictive_batch(post, x[None], magnitude_cap=magnitude_cap)
    return PredictiveBatch(*(getattr(batch, f.name)[0] for f in fields(batch)))


def posterior_to_bytes(post):
    """Serialize a posterior, embedding the model it moderates."""
    factors = post.factors
    meta = {
        "model_digest": factors.model_digest,
        "n_samples": factors.n_samples,
        "sample_ids": None
        if factors.sample_ids is None
        else factors.sample_ids.tolist(),
    }
    meta_blob = json.dumps(meta).encode("utf-8")
    model_blob = mps.model_to_bytes(post.map_model)
    header = _HEADER.pack(
        factors.rank,
        factors.n_params,
        post.prior_precision,
        len(meta_blob),
        len(model_blob),
    )
    payload = np.ascontiguousarray(factors.factors, dtype="<f8").tobytes()
    return _MAGIC + header + meta_blob + model_blob + payload


def posterior_from_bytes(blob):
    """Inverse of :func:`posterior_to_bytes`; raises ParseError on damage."""
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ParseError(f"bad magic at offset 0: expected {_MAGIC!r}")
    offset = len(_MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise ParseError(f"truncated header at offset {offset}")
    rank, n_params, precision, meta_len, model_len = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    if rank < 0 or n_params < 0 or meta_len < 0 or model_len < 0:
        raise ParseError("negative size field in header")
    if len(blob) < offset + meta_len + model_len:
        raise ParseError("file shorter than declared metadata and model blocks")
    meta_blob = blob[offset : offset + meta_len]
    offset += meta_len
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"metadata block is not valid JSON: {exc}") from exc
    model_blob = blob[offset : offset + model_len]
    offset += model_len
    digest = hashlib.sha256(model_blob).hexdigest()
    if digest != meta.get("model_digest"):
        raise ParseError("embedded model does not match its recorded digest")
    model = mps.model_from_bytes(model_blob)
    expected = rank * n_params * 8
    payload = blob[offset:]
    if len(payload) != expected:
        raise ParseError(
            f"factor payload has {len(payload)} bytes at offset {offset}, expected {expected}"
        )
    U = np.frombuffer(payload, dtype="<f8").reshape(rank, n_params).copy()
    sample_ids = meta.get("sample_ids")
    factors = GgnFactors(
        factors=U,
        n_samples=int(meta.get("n_samples", 0)),
        sample_ids=None if sample_ids is None else np.asarray(sample_ids, dtype=np.int64),
        model_digest=meta["model_digest"],
    )
    return LaplacePosterior(model, factors, precision)


def save_posterior(post, path):
    """Write a posterior container; load with :func:`load_posterior`."""
    with open(path, "wb") as fh:
        fh.write(posterior_to_bytes(post))


def load_posterior(path):
    """Read a posterior container written by :func:`save_posterior`."""
    with open(path, "rb") as fh:
        return posterior_from_bytes(fh.read())
