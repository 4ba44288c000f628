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
the point estimate. The variance of a logit with Jacobian row g is the
quadratic form

    sigma^2 = g'M^{-1}g = (|g|^2 - |C^{-T} U g|^2) / precision,

with C'C = precision*I_R + UU' the cached core factorization, so a batch of
Jacobian rows costs one pass of products with U and one triangular solve,
and M^{-1}g is never formed.

Both Jacobian passes, the factor build and prediction, run in chunks that
:func:`bmps.mps.map_chunks` sizes by a byte budget on the chunk's Jacobian
(``n_labels * param_count * 8`` bytes a row) and maps over a thread per
usable core when the budget sets the size. Neither holds a chunk's whole
Jacobian: both take it from :func:`bmps.mps.jacobian_blocks`, one stacked
sweep of the chunk in one-site groups; its logits come from the streamed
forward. The factor build hands it the coefficients
``sqrt(y_k) (delta_kj - y_j)`` (or ``sqrt(y(1-y))``), which it folds into
the label site's class stack before its environment recurrence, and the
chunk's rows of one preallocated U, which it writes the factor rows into,
so the build's peak is U plus, for each chunk in flight, the Jacobian's
sweep and environment blocks. Prediction takes the Jacobian in runs of
contiguous sites, each written into one reused buffer of at most
``mps._JACOBIAN_BLOCK_BYTES``, and adds each run into ``A = U J'`` (R x k,
k = rows * n_labels) by one product; the triangular solve overwrites A
with Z. So a prediction chunk holds A, the run buffer, the current run's
product before it is added to A, and the one-site sweep's stacks and class
stack. Its row count is the one its whole Jacobian would fix: that width,
``k``, keeps the passes over U few and wide.

Importing this module loads numpy and no scipy module. The sigmoid,
softmax and logsumexp are the numpy forms of :mod:`bmps.trainer`, and
``scipy.linalg`` (the Cholesky factor, its solves and the core check's
triangular product) is imported where a posterior is first built or
loaded, so a process that never holds a posterior never loads it. Each
of those calls runs on one BLAS thread, under ``mps._one_blas_thread``
entered after the import: scipy ships its own OpenBLAS beside numpy's,
and its idle worker spins for about 0.1 s after a threaded call, taking
a core from numpy's next product. numpy's products (``UU'``, ``UJ'``,
the probe's passes over U) keep numpy's count. One thread also keeps the
Cholesky step's bits independent of the thread count; ``UU'`` (a syrk)
is so on OpenBLAS 0.3.31 only where R is a multiple of 8.

Posterior files use a self-contained container: magic ``BLAP2``, a fixed
little-endian header (rank R, parameter count P, prior precision, metadata
length, model-blob length), a JSON metadata block, the embedded model in its
own format, the R x P factor rows as little-endian float64 in row-major
order, then the R x R core factor C as ``cho_factor`` leaves it (upper,
Fortran order, the unused lower triangle included), also little-endian
float64. Rank 0 writes no core section. Loading reads C instead of forming
UU' and factoring it again, and checks it against U rather than trusting it:
every entry must be finite, every diagonal entry positive, and for a fixed
seeded normal vector v the probe residual ``|C'Cv - (U(U'v) + precision*v)|``
must be at most 1e-10 times ``|U(U'v) + precision*v|`` (Cholesky's backward
error here is about R*eps). The probe reads only C's upper triangle and
makes two passes over U. ``BLAP1`` files, which carry no core factor, must
be refit.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import mps
from .errors import DataError, NumericError, ParseError, ShapeError
from .trainer import binary_columns, expit, logsumexp, softmax

DEFAULT_RANK_CAP = 2000

_MAGIC = b"BLAP2"
_RETIRED_MAGIC = b"BLAP1"  # factor rows without the core factor
_CORE_PROBE_TOL = 1e-10
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
        if not mps._within(factors, np.inf):
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


def ggn_factors(model, X, rank_cap=DEFAULT_RANK_CAP, seed=0):
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
    L, P = model.shape.n_labels, model.shape.param_count  # L rows a sample
    m = X.shape[0]

    sample_ids = None
    if m * L > rank_cap:
        n_keep = rank_cap // L
        if n_keep == 0:
            raise ValueError(
                f"rank_cap {rank_cap} cannot fit the {L} rows one sample produces"
            )
        rng = np.random.default_rng(seed)
        sample_ids = np.sort(rng.choice(m, size=n_keep, replace=False))
        X = X[sample_ids]
        m = n_keep

    U = np.empty((m * L, P))

    def fill(rows):  # each chunk writes its own rows of U
        xb = X[rows]
        out = U[rows.start * L : (rows.start + len(xb)) * L]
        _ggn_rows(model, xb, out.reshape(len(xb), L, P))

    mps.map_chunks(fill, m, mps.jacobian_row_bytes(model.shape))
    return GgnFactors(
        factors=U,
        n_samples=m,
        sample_ids=sample_ids,
        model_digest=model_digest(model),
    )


def _ggn_rows(model, X, out):
    """Write the factor rows of a batch into ``out`` (b, n_labels, P), sample
    by sample (see the module docstring), straight from the Jacobian stream
    (:func:`bmps.mps.jacobian_blocks`): row ``c`` is ``sum_l coeff[c, l]
    g_l`` with ``coeff[c, l] = sqrt(y_c) (delta_cl - y_l)``, or
    ``sqrt(y (1 - y))`` for a single channel. The coefficients are folded
    in before the environment recurrence, so the magnitude checks see the
    products that make up these rows."""
    phi = mps.embed(X)
    logits = mps.forward_batch(model, phi)
    if model.shape.n_labels == 1:
        y = expit(logits)
        coeff = np.sqrt(y * (1.0 - y))[:, :, None]
    else:
        y = softmax(logits)
        coeff = np.sqrt(y)[:, :, None] * (np.eye(y.shape[1]) - y[:, None, :])
    for _ in mps.jacobian_blocks(model, phi, coeff, out=out):
        pass


class LaplacePosterior:
    """Gaussian posterior N(map_model, (U'U + precision*I)^{-1}).

    Immutable after construction; the R x R Woodbury core factorization is
    computed once, or read from a posterior file and checked there, and
    ``_core`` holds its upper factor, empty at rank 0. Safe to share across
    threads for reads.
    """

    def __init__(self, map_model, factors, prior_precision):
        self._bind(map_model, factors, prior_precision)
        from scipy.linalg import LinAlgError, cho_factor

        U = factors.factors
        core = U @ U.T
        core[np.diag_indices_from(core)] += self.prior_precision
        try:
            # core is exactly symmetric (U @ U.T runs as one syrk), so its
            # transpose is the Fortran-ordered array LAPACK factors in
            # place; a C-ordered one would be copied first
            with mps._one_blas_thread:
                self._core = cho_factor(core.T, overwrite_a=True)[0]
        except LinAlgError as exc:
            raise NumericError(
                "posterior core factorization failed; factors are likely "
                "contaminated by non-finite values"
            ) from exc

    @classmethod
    def _with_core(cls, map_model, factors, prior_precision, c):
        """A posterior around a core factor computed before (upper, Fortran
        order, as ``cho_factor`` leaves it), checked against the factor rows
        by :func:`_check_core` instead of formed and factored again."""
        post = cls.__new__(cls)
        post._bind(map_model, factors, prior_precision)
        _check_core(c, factors.factors, post.prior_precision)
        post._core = c
        return post

    def _bind(self, map_model, factors, prior_precision):
        """Check the three public arguments against each other and store them."""
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
        from scipy.linalg import cho_solve

        U = self.factors.factors
        w = U @ V.T  # (R, k)
        with mps._one_blas_thread:
            s = cho_solve((self._core, False), w)
        return (V - s.T @ U) / self.prior_precision

    @property
    def log_det_precision(self):
        """log det(U'U + precision*I_P), from the cached R x R core factorization.

        Equals ``(P - R) log(precision) + log det(UU' + precision*I_R)``.
        """
        P, R = self.factors.n_params, self.factors.rank
        log_det = (P - R) * np.log(self.prior_precision)
        return float(log_det + 2.0 * np.sum(np.log(np.diag(self._core))))


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
        out[:, j] = logits[:, j] - logsumexp(others)
    return out


def _variance(post, phi):
    """Row-wise ``j' M^{-1} j`` for the logit Jacobian rows of a batch of
    embedded rows ``phi``; shape (batch, n_labels).

    By Woodbury this is ``(|j|^2 - |Z|^2) / precision`` per row, where
    ``Z = C^{-T} U j`` and ``C'C = precision*I_R + UU'`` is the cached core
    factorization. The Jacobian streams through in column runs
    (:func:`bmps.mps.jacobian_blocks`): each adds its part of ``A = U J'``
    (R x k, held as its transpose, so the triangular solve overwrites it)
    and of ``|j|^2``. ``M^{-1} J`` and the whole Jacobian are never formed.
    """
    U, model = post.factors.factors, post.map_model
    b, L = phi.shape[0], model.shape.n_labels
    sq, At, part = np.zeros(b * L), np.zeros((b * L, len(U))), None
    for c0, c1, J in mps.jacobian_blocks(model, phi):
        J = J.reshape(b * L, c1 - c0)
        sq += np.einsum("kp,kp->k", J, J)
        part = np.matmul(J, U[:, c0:c1].T, out=part)  # (k, R)
        At += part
    J = part = None  # the block buffer is not needed while solving
    from scipy.linalg import solve_triangular

    with mps._one_blas_thread:
        Z = solve_triangular(post._core, At.T, trans=1, lower=False, overwrite_b=True)
    sq -= np.einsum("rk,rk->k", Z, Z)
    return (sq / post.prior_precision).reshape(b, L)


def _moderate(post, X):
    """Moderated predictions of one batch; see :func:`predictive_batch`."""
    phi = mps.embed(X)
    logits = mps.forward_batch(post.map_model, phi)
    sigma2 = np.maximum(_variance(post, phi), 0.0)
    gaps = _logit_gaps(logits)
    k = kappa(sigma2)
    moderated = expit(k * gaps)
    if logits.shape[1] == 1:
        p = binary_columns(moderated[:, 0])
    else:
        p = moderated / moderated.sum(axis=1, keepdims=True)
    return PredictiveBatch(
        probabilities=p, sigma2=sigma2, mu_prime=gaps, kappa=k, logits=logits
    )


def predictive_batch(post, X):
    """Posterior-moderated class probabilities for a batch of inputs.

    ``logits`` are the point-estimate logits, identical to
    :func:`bmps.mps.forward_batch` on the embedded rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d (batch, features), got shape {X.shape}")
    if X.shape[0] == 0:
        raise DataError(f"need a nonempty 2-d batch, got shape {X.shape}")
    parts = mps.map_chunks(
        lambda rows: _moderate(post, X[rows]),
        X.shape[0],
        mps.jacobian_row_bytes(post.map_model.shape),
    )
    return PredictiveBatch(
        *(np.vstack([getattr(p, f.name) for p in parts]) for f in fields(PredictiveBatch))
    )


def predictive(post, x):
    """Posterior-moderated class probabilities for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"x must be a 1-d feature vector, got shape {x.shape}")
    batch = predictive_batch(post, x[None])
    return PredictiveBatch(*(getattr(batch, f.name)[0] for f in fields(batch)))


def _posterior_head(post):
    """The container up to the factor rows: magic, header, metadata, model."""
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
    return _MAGIC + header + meta_blob + model_blob


def _payloads(post):
    """The factor rows, then the core factor in its Fortran order, as flat
    little-endian float64 (views on little-endian hosts); both are empty at
    rank 0."""
    return [
        np.ascontiguousarray(post.factors.factors, dtype="<f8").reshape(-1),
        np.asfortranarray(post._core, dtype="<f8").ravel(order="F"),
    ]


def posterior_to_bytes(post):
    """Serialize a posterior, embedding the model it moderates."""
    return _posterior_head(post) + b"".join(a.tobytes() for a in _payloads(post))


def posterior_from_bytes(blob):
    """Inverse of :func:`posterior_to_bytes`; raises ParseError on damage."""
    return _read_posterior(io.BytesIO(blob))


def _check_core(c, U, precision):
    """Raise ParseError unless the upper triangle of ``c`` is a Cholesky
    factor of ``UU' + precision*I``: finite, a positive diagonal, and a
    seeded probe within ``_CORE_PROBE_TOL`` (two passes over U and no R x R
    temporary)."""
    from scipy.linalg.blas import dtrmv

    if c.size == 0:  # dtrmv refuses a length-0 vector
        return
    if not mps._within(c, np.inf):
        raise ParseError("core factor contains non-finite entries")
    if not np.all(np.diag(c) > 0):
        raise ParseError("core factor has a diagonal entry <= 0")
    v = np.random.default_rng(0).standard_normal(c.shape[0])
    # the norms are taken over want's largest entry, so they do not overflow;
    # a probe that does (factor rows of 1e155 or more) gives NaN and fails
    with np.errstate(over="ignore", invalid="ignore"):
        want = U @ (U.T @ v) + precision * v
        with mps._one_blas_thread:
            got = dtrmv(c, dtrmv(c, v), trans=1)  # C'Cv, upper triangle only
        top = np.abs(want).max()
        err, scale = np.linalg.norm((got - want) / top), np.linalg.norm(want / top)
    if not err <= _CORE_PROBE_TOL * scale:
        raise ParseError("core factor does not match the factor rows")


def _is_count(x):
    """Whether a JSON value is an integer that fits int64 and is >= 0."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < 1 << 63


def _read_meta(blob):
    """The metadata block: a JSON object with a model digest, a count
    ``n_samples`` and ``sample_ids`` that are null or a list of counts."""
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"metadata block is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"metadata block is not a JSON object: {type(meta).__name__}")
    n = meta.get("n_samples")
    if not _is_count(n):
        raise ParseError(f"metadata n_samples must be an integer >= 0, got {n!r}")
    ids = meta.get("sample_ids")
    if ids is not None and not (isinstance(ids, list) and all(map(_is_count, ids))):
        raise ParseError("metadata sample_ids must be null or a list of integers >= 0")
    return meta


def _read_posterior(fh):
    """Parse a posterior container from a binary file object. The factor
    rows and the core factor are read straight into their arrays, so each is
    held once, and the core is checked, not recomputed."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    magic = fh.read(len(_MAGIC))
    if magic == _RETIRED_MAGIC:
        raise ParseError(
            f"posterior format changed ({_RETIRED_MAGIC!r} has no core factor); "
            "re-run laplace-fit"
        )
    if magic != _MAGIC:
        raise ParseError(f"bad magic at offset 0: expected {_MAGIC!r}")
    offset = len(_MAGIC)
    if size < offset + _HEADER.size:
        raise ParseError(f"truncated header at offset {offset}")
    rank, n_params, precision, meta_len, model_len = _HEADER.unpack(
        fh.read(_HEADER.size)
    )
    offset += _HEADER.size
    if rank < 0 or n_params < 0 or meta_len < 0 or model_len < 0:
        raise ParseError("negative size field in header")
    if size < offset + meta_len + model_len:
        raise ParseError("file shorter than declared metadata and model blocks")
    meta = _read_meta(fh.read(meta_len))
    offset += meta_len
    model_blob = fh.read(model_len)
    offset += model_len
    digest = hashlib.sha256(model_blob).hexdigest()
    if digest != meta.get("model_digest"):
        raise ParseError("embedded model does not match its recorded digest")
    model = mps.model_from_bytes(model_blob)
    u_bytes, c_bytes = rank * n_params * 8, rank * rank * 8
    if size - offset != u_bytes + c_bytes:
        raise ParseError(
            f"factor payload has {size - offset} bytes at offset {offset}, "
            f"expected {u_bytes} of factor rows and {c_bytes} of core factor"
        )
    U = np.empty((rank, n_params), dtype="<f8")
    if fh.readinto(U.reshape(-1).view(np.uint8)) != u_bytes:
        raise ParseError(f"factor payload at offset {offset} could not be read")
    c = np.empty((rank, rank), dtype="<f8", order="F")
    if fh.readinto(c.ravel(order="F").view(np.uint8)) != c_bytes:
        raise ParseError(f"core factor at offset {offset + u_bytes} could not be read")
    try:  # a non-finite factor row is damage in the file, not a numeric failure
        factors = GgnFactors(
            U, meta["n_samples"], meta.get("sample_ids"), meta["model_digest"]
        )
    except NumericError as exc:
        raise ParseError(f"factor rows: {exc}") from exc
    return LaplacePosterior._with_core(model, factors, precision, c)


def save_posterior(post, path):
    """Write a posterior container; load with :func:`load_posterior`.

    The factor rows and the core factor go to the file from their arrays,
    not through a copy.
    """
    with open(path, "wb") as fh:
        fh.write(_posterior_head(post))
        for a in _payloads(post):
            fh.write(a.view(np.uint8))


def load_posterior(path):
    """Read a posterior container written by :func:`save_posterior`."""
    with open(path, "rb") as fh:
        return _read_posterior(fh)
