"""Matrix-product-state classifier core: shapes, contraction, gradients, serialization.

Conventions
-----------
A model is a chain of ``n_sites`` real tensors. Site ``i`` holds a node of
shape ``(left, phys, right)``; exactly one site (``label_site``) carries an
extra class axis and has shape ``(left, phys, n_labels, right)``.

* ``boundary="cyclic"``: every bond has size ``bond_dim`` and the chain closes
  on itself, so the logits are a trace over the wrap-around bond.
* ``boundary="open"``: the leftmost left bond and the rightmost right bond have
  size 1; the same trace closure then degenerates to a scalar read-off, so one
  code path serves both modes.

A sample ``x`` (features in [0, 1]) enters through the local map
``phi(x) = [x, 1 - x]``. Contracting each node with its site vector gives a
transfer matrix ``M_i`` per site (a stack ``M_k[l]``, one per class, at the
label site ``k``); the logits are the trace of their ordered product,
``logits[l] = trace(M_0 .. M_k[l] .. M_{n-1})``.

One sweep serves forward pass, gradient and Jacobian. A single class-free
product runs back round the ring from the label site: the left product
``M_0..M_{k-1}``, then the right product's matrices ``M_{n-1}``, ..,
``M_{k+1}`` multiplied onto it. It ends in ``right @ left``, whose
transpose ``C`` is the label node's environment, so
``logits[l] = <M_k[l], C>``. Every other site's environment joins a cached
partial product of that sweep with a running product through stand-in label
matrices: the class stack for the Jacobian, or ``sum_l coeff[l] * M_k[l]``
for a loss gradient, which folds the logit coefficients in first so that
pass is reverse mode on a scalar, without a class axis. An outer product
with the site vector restores the physical index.

Every array the engine forms (partial and running products, closure,
logits, folded label matrices, environments) is checked: a magnitude above
``magnitude_cap`` (default 1e100), or a non-finite one, raises
:class:`~bmps.errors.NumericError` naming the site. Rows are contracted one
by one, so a row's results do not depend on its batch. All operations are
pure: they never mutate their inputs, and identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ParseError, ShapeError

DEFAULT_MAGNITUDE_CAP = 1e100

# Rows contracted together by the whole-dataset passes (prediction, GGN
# factors): bounds their per-batch state, the Jacobian above all.
CHUNK_ROWS = 512

_MAGIC = b"BMPS1"
_BOUNDARY_FLAGS = {"cyclic": 0, "open": 1}
_FLAG_BOUNDARIES = {v: k for k, v in _BOUNDARY_FLAGS.items()}


@dataclass(frozen=True)
class MpsShape:
    """Static geometry of a chain classifier.

    ``label_site`` defaults to ``n_sites // 2`` (middle of the chain).
    """

    n_sites: int
    phys_dim: int
    bond_dim: int
    n_labels: int
    label_site: int | None = None
    boundary: str = "cyclic"

    def __post_init__(self):
        for name in ("n_sites", "phys_dim", "bond_dim", "n_labels"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.label_site is None:
            object.__setattr__(self, "label_site", self.n_sites // 2)
        if not 0 <= self.label_site < self.n_sites:
            raise ValueError(
                f"label_site {self.label_site} outside [0, {self.n_sites})"
            )
        if self.boundary not in _BOUNDARY_FLAGS:
            raise ValueError(
                f"boundary must be 'cyclic' or 'open', got {self.boundary!r}"
            )

    def bond_dims(self, i):
        """(left, right) bond sizes of site ``i``."""
        if self.boundary == "cyclic":
            return self.bond_dim, self.bond_dim
        left = 1 if i == 0 else self.bond_dim
        right = 1 if i == self.n_sites - 1 else self.bond_dim
        return left, right

    def node_shape(self, i):
        """Array shape of the node at site ``i``."""
        left, right = self.bond_dims(i)
        if i == self.label_site:
            return (left, self.phys_dim, self.n_labels, right)
        return (left, self.phys_dim, right)

    @property
    def param_count(self):
        return sum(
            int(np.prod(self.node_shape(i))) for i in range(self.n_sites)
        )


@dataclass
class MpsModel:
    """A shape plus its node tensors (float64, finite)."""

    shape: MpsShape
    nodes: list = field(repr=False)

    def __post_init__(self):
        if len(self.nodes) != self.shape.n_sites:
            raise ShapeError(
                f"expected {self.shape.n_sites} nodes, got {len(self.nodes)}"
            )
        cast = []
        for i, node in enumerate(self.nodes):
            arr = np.ascontiguousarray(node, dtype=np.float64)
            want = self.shape.node_shape(i)
            if arr.shape != want:
                raise ShapeError(
                    f"node {i} has shape {arr.shape}, expected {want}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"node {i} contains non-finite entries")
            cast.append(arr)
        self.nodes = cast

    def copy(self):
        return MpsModel(self.shape, [n.copy() for n in self.nodes])


@dataclass
class FeatureEmbedding:
    """Per-site feature vectors, stored as an (n_sites, phys_dim) array."""

    site_vectors: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.site_vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(
                f"site_vectors must be 2-D (n_sites, phys_dim), got ndim={arr.ndim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("site_vectors contain non-finite entries")
        self.site_vectors = arr

    @property
    def n_sites(self):
        return self.site_vectors.shape[0]

    @property
    def phys_dim(self):
        return self.site_vectors.shape[1]


def feature_map(x):
    """Local map of one feature in [0, 1] to the vector [x, 1 - x].

    The two components are non-negative and sum to one. Values outside the
    unit interval raise :class:`DataError`.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DataError(f"feature value {x!r} outside [0, 1]")
    return np.array([x, 1.0 - x])


def embed(sample, n_sites=None):
    """Map a feature vector to a FeatureEmbedding via :func:`feature_map`.

    ``n_sites``, when given, pins the expected length (ShapeError otherwise).
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    if n_sites is not None and sample.size != n_sites:
        raise ShapeError(f"sample has {sample.size} features, expected {n_sites}")
    return FeatureEmbedding(_phi_matrix(sample.reshape(1, -1))[0])


def _phi_matrix(X):
    # X: (batch, n_sites) in [0, 1]  ->  (batch, n_sites, 2)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    # Written so that NaN, which fails every comparison, is rejected too.
    if X.size and not (0.0 <= X.min() and X.max() <= 1.0):
        bad = X.min() if not 0.0 <= X.min() else X.max()
        raise DataError(f"feature value {bad!r} outside [0, 1]")
    return np.stack([X, 1.0 - X], axis=2)


def map_chunks(fn, X):
    """``fn`` of each block of at most :data:`CHUNK_ROWS` rows of ``X``, in order.

    An empty ``X`` is one (empty) block, so results keep their trailing shape.
    """
    return [fn(X[s : s + CHUNK_ROWS]) for s in range(0, max(len(X), 1), CHUNK_ROWS)]


def _check(arr, site, cap):
    """Return ``arr`` once its largest magnitude is finite and within ``cap``."""
    m = np.abs(arr).max() if arr.size else 0.0
    if not np.isfinite(m) or m > cap:
        raise NumericError(
            f"contraction magnitude {m:.3e} exceeded cap {cap:.3e} at site {site}"
        )
    return arr


def _site_matrix(model, phi, i):
    """Transfer matrices of site ``i`` for a batch: (batch, left, right), and
    (batch, n_labels, left, right) at the label site.

    Each row is its own vector-matrix product, so a row's matrices do not
    depend on the batch it is in.
    """
    # physical axis first: (phys, left, right) or (phys, n_labels, left, right)
    axes = (1, 2, 0, 3) if i == model.shape.label_site else (1, 0, 2)
    node = model.nodes[i].transpose(axes)
    m = np.matmul(phi[:, i, None], node.reshape(node.shape[0], -1))
    return m.reshape(phi.shape[:1] + node.shape[1:])


@dataclass
class BatchEnv:
    """Contraction state of one batch: its logits plus what environments need.

    ``mats[j]`` is the site matrix of ``ring[j]`` (see :func:`_ring`) and
    ``tails[j]`` the product ``mats[j] @ .. @ mats[-1]``, the identity for
    ``j = len(ring)``; ``closure`` is ``tails[0]`` transposed, the label
    node's environment. ``cap`` is the magnitude cap every later product is
    checked against.
    """

    model: MpsModel
    phi: np.ndarray
    cap: float
    mats: list
    tails: list
    closure: np.ndarray
    logits: np.ndarray


def _ring(shape):
    """Every site but the label site ``k``, in trace order: ``k+1 .. n-1, 0 .. k-1``."""
    k = shape.label_site
    return [*range(k + 1, shape.n_sites), *range(k)]


def _sweep(model, phi, cap, keep):
    """Contract a batch of embedded rows ``phi`` (batch, n_sites, phys) round
    the ring (see the module docstring).

    ``keep`` holds every partial product for the environments; otherwise
    only the latest is held, so memory stays O(batch * bond^2).
    """
    batch, k = phi.shape[0], model.shape.label_site
    e = model.shape.bond_dims(k)[0]
    mats = deque(maxlen=None if keep else 1)
    tails = deque([np.broadcast_to(np.eye(e), (batch, e, e))], maxlen=mats.maxlen)
    for i in reversed(_ring(model.shape)):
        mats.appendleft(_site_matrix(model, phi, i))
        tails.appendleft(_check(np.matmul(mats[0], tails[0]), i, cap))
    full = _check(np.matmul(_site_matrix(model, phi, k), tails[0][:, None]), k, cap)
    logits = _check(np.trace(full, axis1=2, axis2=3), k, cap)
    closure = np.swapaxes(tails[0], 1, 2)
    return BatchEnv(model, phi, cap, list(mats), list(tails), closure, logits)


def forward(model, emb, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Logits of one embedded sample; vector of length ``n_labels``."""
    _check_embedding(model, emb)
    return _sweep(model, emb.site_vectors[None], magnitude_cap, keep=False).logits[0]


def forward_batch(model, X, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Logits for a batch of raw feature rows; shape (batch, n_labels)."""
    return _sweep(model, _phi_batch(model, X), magnitude_cap, keep=False).logits


def sweep_env(model, X, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Run one full sweep over a batch, caching what gradients need."""
    return _sweep(model, _phi_batch(model, X), magnitude_cap, keep=True)


def _phi_batch(model, X):
    phi = _phi_matrix(X)
    if phi.shape[1] != model.shape.n_sites:
        raise ShapeError(
            f"batch has {phi.shape[1]} features, model expects {model.shape.n_sites}"
        )
    if model.shape.phys_dim != 2:
        raise ShapeError(
            f"default feature map produces phys_dim 2, model expects {model.shape.phys_dim}"
        )
    return phi


def _check_embedding(model, emb):
    if not isinstance(emb, FeatureEmbedding):
        raise TypeError("emb must be a FeatureEmbedding")
    if emb.n_sites != model.shape.n_sites:
        raise ShapeError(
            f"embedding has {emb.n_sites} sites, model expects {model.shape.n_sites}"
        )
    if emb.phys_dim != model.shape.phys_dim:
        raise ShapeError(
            f"embedding phys_dim {emb.phys_dim} != model phys_dim {model.shape.phys_dim}"
        )


def _environments(env, label_mats):
    """Yield ``(i, environment)`` for every site ``i`` but the label site.

    ``label_mats`` (batch, c, left, right) stands in for the label site's
    matrices; ``environment[b, c]`` is the derivative of
    ``trace(M_0 .. label_mats[b, c] .. M_{n-1})`` with respect to ``M_i``,
    laid out like ``M_i``.
    """
    ring = _ring(env.model.shape)
    run = label_mats  # label_mats @ mats[0] @ .. @ mats[j - 1]
    for j, i in enumerate(ring):
        e = np.matmul(env.tails[j + 1][:, None], run)
        yield i, _check(np.swapaxes(e, 2, 3), i, env.cap)
        if j + 1 < len(ring):
            run = _check(np.matmul(run, env.mats[j][:, None]), i, env.cap)


@dataclass
class LogitGradient:
    """d logits / d nodes for a single embedded sample.

    ``tensors[i]`` has shape ``(n_labels,) + node_shape(i)``; its entry
    ``[l, ...]`` is the derivative of ``logits[l]`` with respect to that node
    entry, so a directional derivative is the inner product with the
    perturbation.
    """

    shape: MpsShape
    tensors: list

    def flatten(self):
        """Stack into an (n_labels, param_count) Jacobian, nodes in site order."""
        L = self.shape.n_labels
        return np.concatenate([t.reshape(L, -1) for t in self.tensors], axis=1)


def grad_logits(model, emb, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Analytic gradient of every logit w.r.t. every node, one cached sweep."""
    _check_embedding(model, emb)
    env = _sweep(model, emb.site_vectors[None], magnitude_cap, keep=True)
    per_label = [unflatten_params(model.shape, row) for row in jacobian_from_env(env)[0]]
    return LogitGradient(model.shape, [np.stack(t) for t in zip(*per_label)])


def jacobian_from_env(env):
    """Flattened logit Jacobians: (batch, n_labels, param_count).

    Each site's block is written straight into its columns of one array.
    """
    shape = env.model.shape
    B, L, k = env.phi.shape[0], shape.n_labels, shape.label_site
    sizes = [int(np.prod(shape.node_shape(i))) for i in range(shape.n_sites)]
    starts = np.cumsum([0, *sizes])
    jac = np.empty((B, L, starts[-1]))

    def block(i):  # site i's columns, laid out (batch, n_labels, *node_shape(i))
        return jac[:, :, starts[i] : starts[i + 1]].reshape(
            (B, L) + shape.node_shape(i)
        )

    for i, e in _environments(env, _site_matrix(env.model, env.phi, k)):
        # block[b, l, a, s, r] = e[b, l, a, r] * phi[b, i, s]
        np.multiply(e[:, :, :, None], env.phi[:, i, None, None, :, None], out=block(i))
    # logit l depends only on class slice l of the label node
    label = block(k)
    label[...] = 0.0
    diag = np.einsum("bar,bs->basr", env.closure, env.phi[:, k])
    for l in range(L):
        label[:, l, :, :, l] = diag
    return jac


def weighted_grad_from_env(env, coeff):
    """sum_b sum_l coeff[b, l] * d logits[b, l] / d nodes.

    ``coeff`` has shape (batch, n_labels). Returns one array per node, shaped
    like the node, without ever forming per-sample Jacobians (the
    coefficients are folded into the label site's matrices first). This is
    the workhorse behind loss gradients.
    """
    model = env.model
    coeff = np.asarray(coeff, dtype=np.float64)
    B, L, k = env.phi.shape[0], model.shape.n_labels, model.shape.label_site
    if coeff.shape != (B, L):
        raise ShapeError(f"coeff shape {coeff.shape} != {(B, L)}")
    label = _site_matrix(model, env.phi, k)
    folded = _check(np.einsum("bl,blar->bar", coeff, label)[:, None], k, env.cap)
    grads = [None] * model.shape.n_sites
    for i, e in _environments(env, folded):
        grads[i] = np.einsum("bar,bs->asr", e[:, 0], env.phi[:, i])
    grads[k] = np.einsum("bl,bar,bs->aslr", coeff, env.closure, env.phi[:, k])
    return grads


def weight_norm_sq(model):
    """Sum of squares of every node entry."""
    return float(sum(np.vdot(n, n) for n in model.nodes))


def flatten_params(model):
    """All node entries as one vector, nodes in site order, C order within a node."""
    return np.concatenate([n.ravel() for n in model.nodes])


def unflatten_params(shape, vec):
    """Inverse of :func:`flatten_params`; returns a list of node arrays."""
    vec = np.asarray(vec, dtype=np.float64).ravel()
    if vec.size != shape.param_count:
        raise ShapeError(f"vector has {vec.size} entries, expected {shape.param_count}")
    nodes, pos = [], 0
    for i in range(shape.n_sites):
        ns = shape.node_shape(i)
        size = int(np.prod(ns))
        nodes.append(vec[pos : pos + size].reshape(ns).copy())
        pos += size
    return nodes


def model_from_params(shape, vec):
    return MpsModel(shape, unflatten_params(shape, vec))


# --- serialization -------------------------------------------------------
#
# Flat binary container:
#   magic "BMPS1" | n_sites, phys_dim, bond_dim, n_labels, label_site as
#   little-endian int64 | one boundary byte (0 cyclic, 1 open) | node entries
#   as little-endian float64, nodes in site order, C order within a node
#   (left, phys, [label,] right).

_HEADER = struct.Struct("<5q")


def model_to_bytes(model):
    shape = model.shape
    head = _MAGIC + _HEADER.pack(
        shape.n_sites, shape.phys_dim, shape.bond_dim, shape.n_labels, shape.label_site
    )
    head += struct.pack("B", _BOUNDARY_FLAGS[shape.boundary])
    body = b"".join(n.astype("<f8").tobytes(order="C") for n in model.nodes)
    return head + body


def model_from_bytes(data):
    if data[: len(_MAGIC)] != _MAGIC:
        raise ParseError(
            f"bad magic {data[:len(_MAGIC)]!r} at offset 0, expected {_MAGIC!r}"
        )
    pos = len(_MAGIC)
    if len(data) < pos + _HEADER.size + 1:
        raise ParseError(f"truncated header: file ends at offset {len(data)}")
    fields = _HEADER.unpack_from(data, pos)
    pos += _HEADER.size
    (flag,) = struct.unpack_from("B", data, pos)
    pos += 1
    if flag not in _FLAG_BOUNDARIES:
        raise ParseError(f"unknown boundary flag {flag} at offset {pos - 1}")
    try:
        shape = MpsShape(*fields, boundary=_FLAG_BOUNDARIES[flag])
    except ValueError as exc:
        raise ParseError(f"invalid shape header: {exc}") from exc
    want = shape.param_count * 8
    if len(data) - pos != want:
        raise ParseError(
            f"payload has {len(data) - pos} bytes at offset {pos}, expected {want}"
        )
    vec = np.frombuffer(data, dtype="<f8", count=shape.param_count, offset=pos)
    try:
        return model_from_params(shape, vec.astype(np.float64))
    except ValueError as exc:
        raise ParseError(f"corrupted payload: {exc}") from exc


def save_model(model, path):
    """Write the model container; load_model restores it bit-for-bit."""
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path):
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
