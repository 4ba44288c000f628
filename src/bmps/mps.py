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
transfer matrix per site (the label site gives a stack of matrices, one per
class); the logits are the trace of their ordered product:

    logits[l] = trace(M_0 @ M_1 @ ... @ M_{n-1})   with the class axis riding
                along from the label site.

Gradients of the logits with respect to every node are assembled from cached
left/right partial products (one sweep, linear in ``n_sites``): for node ``i``
with prefix ``P_i = M_0..M_{i-1}`` and suffix ``S_i = M_{i+1}..M_{n-1}``,

    d logits[l] / d M_i = (S_i @ P_i)^T,

and the physical index is restored by an outer product with the site vector.

Any intermediate whose magnitude exceeds ``magnitude_cap`` (default 1e100), or
turns non-finite, raises :class:`~bmps.errors.NumericError` naming the site.
All operations are pure: they never mutate their inputs, and identical inputs
give bit-identical outputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ParseError, ShapeError

DEFAULT_MAGNITUDE_CAP = 1e100

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


def _check(arr, site, cap):
    m = np.abs(arr).max() if arr.size else 0.0
    if not np.isfinite(m) or m > cap:
        raise NumericError(
            f"contraction magnitude {m:.3e} exceeded cap {cap:.3e} at site {site}"
        )


def _site_matrix(model, phi, i):
    """Transfer matrix of site ``i`` for a batch: (batch, c, left, right).

    c is ``n_labels`` at the label site and 1 elsewhere.
    """
    node = model.nodes[i]
    if i == model.shape.label_site:
        # (b,s) x (l,s,L,r) -> (b,l,L,r) -> (b,L,l,r)
        m = np.tensordot(phi[:, i], node, axes=([1], [1]))
        m = np.moveaxis(m, 2, 1)
    else:
        # (b,s) x (l,s,r) -> (b,l,r) -> (b,1,l,r)
        m = np.tensordot(phi[:, i], node, axes=([1], [1]))[:, None]
    return np.ascontiguousarray(m)


def _sweep(model, phi, cap, need_env):
    """One contraction sweep over the chain.

    Always returns the logits (batch, n_labels). With ``need_env`` it also
    returns the site matrices and the cached prefix/suffix partial products
    that the gradient assembly consumes; without it, site matrices are
    consumed on the fly so memory stays O(batch * bond^2).
    """
    n = model.shape.n_sites
    e0 = model.shape.bond_dims(0)[0]
    eye0 = np.eye(e0)[None, None]

    if not need_env:
        running = eye0
        for i in range(n):
            running = np.matmul(running, _site_matrix(model, phi, i))
            _check(running, i, cap)
        logits = np.trace(running, axis1=2, axis2=3)
        return logits, None, None, None

    mats = [_site_matrix(model, phi, i) for i in range(n)]
    prefix = [eye0]
    for i in range(1, n):
        prefix.append(np.matmul(prefix[i - 1], mats[i - 1]))
        _check(prefix[i], i - 1, cap)
    full = np.matmul(prefix[n - 1], mats[n - 1])
    _check(full, n - 1, cap)
    logits = np.trace(full, axis1=2, axis2=3)

    e_last = mats[n - 1].shape[3]
    suffix = [None] * n
    suffix[n - 1] = np.eye(e_last)[None, None]
    for i in range(n - 2, -1, -1):
        suffix[i] = np.matmul(mats[i + 1], suffix[i + 1])
        _check(suffix[i], i + 1, cap)
    return logits, mats, prefix, suffix


def forward(model, emb, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Logits of one embedded sample; vector of length ``n_labels``."""
    _check_embedding(model, emb)
    phi = emb.site_vectors[None]
    logits, _, _, _ = _sweep(model, phi, magnitude_cap, need_env=False)
    return logits[0]


def forward_batch(model, X, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Logits for a batch of raw feature rows; shape (batch, n_labels)."""
    phi = _phi_batch(model, X)
    logits, _, _, _ = _sweep(model, phi, magnitude_cap, need_env=False)
    return logits


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


def _environments(model, mats, prefix, suffix, cap):
    """Environment matrix of every node: list of (batch, c, left, right).

    Entry [b, l, a, r] is d logits[b, l] / d M_i[a, r]; c is 1 at the label
    site (its class axis is explicit in the node) and n_labels elsewhere
    whenever n_labels > 1.
    """
    envs = []
    for i in range(model.shape.n_sites):
        raw = np.matmul(suffix[i], prefix[i])
        _check(raw, i, cap)
        envs.append(np.swapaxes(raw, 2, 3))
    return envs


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
    phi = emb.site_vectors[None]
    logits, mats, prefix, suffix = _sweep(model, phi, magnitude_cap, need_env=True)
    envs = _environments(model, mats, prefix, suffix, magnitude_cap)
    jac = jacobian_from_env(BatchEnv(model, phi, logits, envs))[0]
    per_label = [unflatten_params(model.shape, row) for row in jac]
    return LogitGradient(model.shape, [np.stack(t) for t in zip(*per_label)])


@dataclass
class BatchEnv:
    """Cached contraction state for one batch: logits plus per-node environments."""

    model: MpsModel
    phi: np.ndarray
    logits: np.ndarray
    envs: list


def sweep_env(model, X, magnitude_cap=DEFAULT_MAGNITUDE_CAP):
    """Run one full sweep over a batch, caching what gradients need."""
    phi = _phi_batch(model, X)
    logits, mats, prefix, suffix = _sweep(model, phi, magnitude_cap, need_env=True)
    envs = _environments(model, mats, prefix, suffix, magnitude_cap)
    return BatchEnv(model, phi, logits, envs)


def jacobian_from_env(env):
    """Flattened logit Jacobians: (batch, n_labels, param_count)."""
    shape = env.model.shape
    B, L = env.phi.shape[0], shape.n_labels
    blocks = []
    for i in range(shape.n_sites):
        e = env.envs[i]  # (B, c, a, r)
        vec = env.phi[:, i]  # (B, s)
        if i == shape.label_site:
            left, s, _, right = shape.node_shape(i)
            block = np.zeros((B, L, left, s, L, right))
            core = np.einsum("bar,bs->basr", e[:, 0], vec)
            for l in range(L):
                block[:, l, :, :, l, :] = core
        else:
            block = np.einsum("blar,bs->blasr", e, vec)
        blocks.append(block.reshape(B, L, -1))
    return np.concatenate(blocks, axis=2)


def weighted_grad_from_env(env, coeff):
    """sum_b sum_l coeff[b, l] * d logits[b, l] / d nodes.

    ``coeff`` has shape (batch, n_labels). Returns one array per node, shaped
    like the node, without ever forming per-sample Jacobians. This is the
    workhorse behind loss gradients.
    """
    model = env.model
    coeff = np.asarray(coeff, dtype=np.float64)
    want = (env.phi.shape[0], model.shape.n_labels)
    if coeff.shape != want:
        raise ShapeError(f"coeff shape {coeff.shape} != {want}")
    grads = []
    for i in range(model.shape.n_sites):
        e = env.envs[i]  # (B, c, a, r)
        vec = env.phi[:, i]
        if i == model.shape.label_site:
            # label axis lives in the node: weight the shared environment per class
            g = np.einsum("bl,bar,bs->aslr", coeff, e[:, 0], vec)
        else:
            w = np.einsum("bl,blar->bar", coeff, e)
            g = np.einsum("bar,bs->asr", w, vec)
        grads.append(g)
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
