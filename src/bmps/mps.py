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

A row of features in [0, 1] enters the engine embedded: :func:`embed` maps
each feature ``x`` to the site vector ``phi(x) = [x, 1 - x]``, and every
contraction takes a batch ``phi`` (batch, n_sites, phys_dim) of such rows.
Contracting each node with its site vector gives a
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

Bonds are padded to ``bond_dim`` with zeros, so an open chain runs as a
cyclic one whose end nodes have zero rows or columns and every ring site's
matrices share one shape. Some passes stack sites, others stream them:

* :func:`sweep_env` forms every ring site's matrices in one batched product
  and writes the partial products into one preallocated stack.
  :func:`forward_batch` streams, so a chunk of whole-dataset prediction
  holds O(batch * bond^2), three (:data:`_GROUP`) consecutive ring sites a
  product. The node tensors are shared by every row, so one product per
  call merges each group's nodes into the slice products
  ``A_j^{s_0} A_{j+1}^{s_1} A_{j+2}^{s_2}``; a row weights them by
  ``phi_j[s_0] phi_{j+1}[s_1] phi_{j+2}[s_2]`` and multiplies the result
  onto its product so far: one vector-matrix and one bond-by-bond product a
  group, not a site. The ring sites that fill no group stream one at a
  time.
* The environment pass runs in blocks of ring sites sized by a byte budget
  (``_BLOCK_BYTES``). In the class-free gradient pass of a training batch a
  block spans tens of sites: its running products fill one stack, one
  batched product forms all its environments and another all its sites'
  gradients. The class-wide Jacobian of a chunk streams, one site a block.

Whole-dataset passes run through :func:`map_chunks`. A chunk holds at most
:data:`CHUNK_ROWS` rows, and no more than :data:`CHUNK_BYTES` of the
pass's largest per-row array: :func:`jacobian_row_bytes` for the Jacobian
passes (GGN factors, moderated prediction), :func:`forward_row_bytes` for
the MAP forward. Where the byte budget, not the row cap, sets the chunk
size, the chunks are mapped over a thread per usable core. That is the
Jacobian passes at the digit scale; the forward pass stays serial there,
and the training step always does.

Every array the engine forms (partial and running products, closure,
logits, folded label matrices, environments) is checked against
:data:`MAGNITUDE_CAP`: an entry above it in magnitude, or a
NaN or infinite one, raises :class:`~bmps.errors.NumericError` naming the
site. A streamed product is checked as soon as it is formed. In the
forward stream that is one product a group: a group whose product fails is
formed again one site at a time from its incoming product, so the error
names the site, with the text and warnings, that a per-site stream gives;
if every site passes (an overflowing merged slice that the row weights by
0 gives NaN only in the merged form), the stream goes on from there. A
product inside a group is never formed, so an excursion above the cap that
starts and ends inside one group passes :func:`forward_batch`;
:func:`sweep_env` still names its site. A stack (the
sweep's partial products, a block's running products and environments) is
scanned once when it is full, by one min and one max reduction that copy
nothing; only if that scan fails is it rescanned product by product, in
the order the products were formed, so the error names the site a
one-at-a-time check would have named. Rows are contracted one by one, so a
row's results do not depend on its batch. All operations are pure: they
never mutate their inputs (bar an env handed to :func:`sweep_env` as
``reuse``), and identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ParseError, ShapeError

# Largest magnitude any product of a contraction may reach; read by each
# sweep when it runs.
MAGNITUDE_CAP = 1e100

# Rows contracted together by the whole-dataset passes (prediction, GGN
# factors), and the bytes their largest per-row array (the Jacobian above
# all) may take in one chunk. At the digit scale (196 sites, bond 8,
# 10 classes: 2.1 MB of Jacobian a row) the budget gives 63-row chunks.
CHUNK_ROWS = 512
CHUNK_BYTES = 128 << 20

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
            int(math.prod(self.node_shape(i))) for i in range(self.n_sites)
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


def embed(X):
    """Embedded rows ``phi`` (batch, n_sites, 2) of feature rows ``X``
    (batch, n_sites): each feature ``x`` becomes ``[x, 1 - x]``.

    ``X`` must be 2-D (ShapeError) with every value in [0, 1] (DataError).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    # Written so that NaN, which fails every comparison, is rejected too.
    if X.size and not (0.0 <= X.min() and X.max() <= 1.0):
        bad = X.min() if not 0.0 <= X.min() else X.max()
        raise DataError(f"feature value {bad!r} outside [0, 1]")
    return np.stack([X, 1.0 - X], axis=2)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def jacobian_row_bytes(shape):
    """Bytes of one row's logit Jacobian, the largest array of the Jacobian
    passes (GGN factors, moderated prediction)."""
    return shape.n_labels * shape.param_count * 8


def forward_row_bytes(shape):
    """Bytes of one row's label-site product, the largest array of
    :func:`forward_batch`."""
    return shape.n_labels * shape.bond_dim**2 * 8


def chunk_plan(n_rows, row_bytes):
    """``(rows, workers)``: the chunk size and thread count :func:`map_chunks`
    uses for ``n_rows`` rows whose largest per-row array takes ``row_bytes``.

    Chunks hold at most :data:`CHUNK_ROWS` rows and :data:`CHUNK_BYTES` of
    that array. Only when the byte budget sets the size do they go to a
    pool: pooling row-capped chunks raised peak memory (one malloc arena a
    thread) for no clear speed-up.
    """
    rows = max(1, min(CHUNK_ROWS, CHUNK_BYTES // max(row_bytes, 1)))
    if rows == CHUNK_ROWS:
        return rows, 1
    return rows, max(1, min(_usable_cores(), -(-n_rows // rows)))


def map_chunks(fn, n_rows, row_bytes):
    """``[fn(rows), ..]`` over consecutive row slices covering ``range(n_rows)``.

    Chunk sizes and threads come from :func:`chunk_plan`; results are in
    row order either way. An empty range is one empty slice, so results
    keep their trailing shape. If chunks raise, the error of the first
    failing chunk in row order is raised, as a serial run would raise it,
    and chunks that have not started are cancelled. No thread outlives the
    call.
    """
    rows, workers = chunk_plan(n_rows, row_bytes)
    chunks = [slice(s, s + rows) for s in range(0, max(n_rows, 1), rows)]
    if workers == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, c) for c in chunks]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()


def _within(arr, cap):
    """Whether every entry of ``arr`` is finite and at most ``cap`` in
    magnitude: one min and one max reduction, no copy."""
    if not arr.size:
        return True
    lo, hi = np.minimum.reduce(arr, axis=None), np.maximum.reduce(arr, axis=None)
    # NaN fails every comparison; the isfinite tests catch inf under cap=inf
    return -cap <= lo and hi <= cap and math.isfinite(lo) and math.isfinite(hi)


def _check(arr, site, cap):
    """Return ``arr`` once its largest magnitude is finite and within ``cap``."""
    if not _within(arr, cap):
        m = np.abs(arr).max()
        raise NumericError(
            f"contraction magnitude {m:.3e} exceeded cap {cap:.3e} at site {site}"
        )
    return arr


def _ring(shape):
    """Every site but the label site ``k``, in trace order: ``k+1 .. n-1, 0 .. k-1``."""
    k = shape.label_site
    return [*range(k + 1, shape.n_sites), *range(k)]


_Layout = namedtuple("_Layout", "starts ring nodes label grad")


@functools.lru_cache(maxsize=32)
def _layout(shape):
    """Index maps between the flat parameters and the engine's stacks.

    The engine pads every bond to ``D = bond_dim`` with zeros. That turns
    an open chain into a cyclic one whose site 0 has zero rows and site
    ``n-1`` zero columns: the padded products hold the open chain's
    products in their leading block and exact zeros elsewhere, so every
    ring site's matrices stack into one array.

    * ``starts``: where each node begins in the flat vector, and its end.
    * ``ring``: the sites of :func:`_ring`.
    * ``nodes`` (R, phys, D, D) and ``label`` (phys, n_labels, D, D): the
      flat position of every ring node and label node entry, physical axis
      first; padding points one past the end, where :func:`_sweep` puts a 0.
    * ``grad``: for each flat position, its place in a padded gradient
      holding the ring sites (R, phys, right, left), then the label node
      (left, phys, n_labels, right).
    """
    P, D = shape.param_count, shape.bond_dim
    sizes = [math.prod(shape.node_shape(i)) for i in range(shape.n_sites)]
    starts = np.cumsum([0, *sizes])

    def padded(i):  # node_shape(i) positions, both bonds padded to D
        pos = np.arange(starts[i], starts[i + 1]).reshape(shape.node_shape(i))
        left, right = shape.bond_dims(i)
        width = [(0, D - left)] + [(0, 0)] * (pos.ndim - 2) + [(0, D - right)]
        return np.pad(pos, width, constant_values=P)

    ring = np.array(_ring(shape), dtype=np.intp)
    nodes = np.array([padded(i) for i in ring], dtype=np.intp)
    nodes = nodes.reshape(len(ring), D, shape.phys_dim, D)
    label = padded(shape.label_site)
    where = np.concatenate([nodes.transpose(0, 2, 3, 1).ravel(), label.ravel()])
    grad = np.empty(P, dtype=np.intp)
    grad[where[where < P]] = np.flatnonzero(where < P)
    return _Layout(
        starts, ring, nodes.transpose(0, 2, 1, 3), label.transpose(1, 2, 0, 3), grad
    )


def _buffer(pool, name, shape):
    """``pool[name]`` if it has ``shape``, else a new array stored there."""
    buf = pool.get(name)
    if buf is None or buf.shape != shape:
        buf = pool[name] = np.empty(shape)
    return buf


@dataclass
class BatchEnv:
    """Contraction state of one batch: its logits plus what environments need.

    Bonds are padded to ``D = bond_dim`` (see :func:`_layout`). ``mats[j]``
    (batch, D, D) is the site matrix of ``ring[j]`` (see :func:`_ring`) and
    ``tails[j]`` the product ``mats[j] @ .. @ mats[-1]``, the identity for
    ``j = len(ring)``; ``label`` holds the label site's matrices (batch,
    n_labels, D, D), and ``closure``, ``tails[0]`` transposed, is the label
    node's environment. ``cap``, :data:`MAGNITUDE_CAP` when the sweep ran,
    is the magnitude cap every later product is checked against.
    ``buffers`` holds ``mats``, ``tails`` and the gradient pass's scratch
    arrays, for :func:`sweep_env`'s ``reuse``.
    """

    model: MpsModel
    phi: np.ndarray
    cap: float
    mats: np.ndarray
    tails: np.ndarray
    label: np.ndarray
    closure: np.ndarray
    logits: np.ndarray
    buffers: dict = field(default_factory=dict, repr=False)


_PAD = np.zeros(1)

# Consecutive ring sites the streamed forward merges into one node tensor
# (see the module docstring). A 400-row digit-scale forward (196 sites,
# bond 8, 10 classes; 2 vCPUs, OpenBLAS, median of 25) took 25.1, 16.5,
# 14.3, 18.5 and 18.7 ms with groups of 1 to 5.
_GROUP = 3


def _merged(nodes, phi):
    """Merged node tensors and row weights of groups of :data:`_GROUP`
    consecutive ring sites.

    ``nodes`` (G * _GROUP, phys, D, D) and ``phi`` (G * _GROUP, batch, phys)
    give ``merged`` (G, 1, phys**_GROUP, D * D) and ``psi`` (G, batch, 1,
    phys**_GROUP): for ``j = t * _GROUP``, entry ``(s_0, s_1, ..)`` of group
    ``t`` is the node slice product ``A_j^{s_0} A_{j+1}^{s_1} ..`` in
    ``merged`` and the weight ``phi_j[s_0] phi_{j+1}[s_1] ..`` in ``psi``, so
    ``psi[t] @ merged[t]`` is the product of the group's site matrices.
    """
    G, (_, B, s), D = len(nodes) // _GROUP, phi.shape, nodes.shape[-1]
    nodes = nodes.reshape(G, _GROUP, s, D, D)
    phi = phi.reshape(G, _GROUP, B, s)
    merged, psi = nodes[:, -1], phi[:, -1]
    for m in reversed(range(_GROUP - 1)):
        q = s ** (_GROUP - m)
        merged = np.matmul(nodes[:, m, :, None], merged[:, None]).reshape(G, q, D, D)
        psi = (phi[:, m, :, :, None] * psi[:, :, None]).reshape(G, B, q)
    return merged.reshape(G, 1, s**_GROUP, D * D), psi[:, :, None]


def _sweep(model, phi, keep, reuse=None):
    """Contract a batch of embedded rows ``phi`` (batch, n_sites, phys) round
    the ring (see the module docstring).

    ``keep`` stacks every site matrix and partial product for the
    environments, and scans the stack once; otherwise the sweep streams
    :data:`_GROUP` sites a product, each checked as it is formed, so
    memory stays O(batch * bond^2).
    """
    shape, cap = model.shape, MAGNITUDE_CAP
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[1:] != (shape.n_sites, shape.phys_dim):
        raise ShapeError(
            f"phi has shape {phi.shape}, model expects "
            f"(batch, {shape.n_sites}, {shape.phys_dim})"
        )
    lay = _layout(shape)
    B, R, D, k = phi.shape[0], len(lay.ring), shape.bond_dim, shape.label_site
    theta = np.concatenate([*model.nodes, _PAD], axis=None)
    # site matrices: each row's are its own vector-matrix product, so they
    # do not depend on the batch the row is in
    nodes = theta[lay.nodes].reshape(R, 1, shape.phys_dim, D * D)
    ring_phi = phi[:, lay.ring, None].swapaxes(0, 1)  # (R, B, 1, phys)
    pool = {} if reuse is None else reuse.buffers
    mats = tails = None
    tail = np.broadcast_to(np.eye(D), (B, D, D))
    if keep:
        mats = _buffer(pool, "mats", (R, B, D, D))
        np.matmul(ring_phi, nodes, out=mats.reshape(R, B, 1, D * D))
        tails = _buffer(pool, "tails", (R + 1, B, D, D))
        tails[R] = tail
        for j in reversed(range(R)):
            tail = np.matmul(mats[j], tail, out=tails[j])
        # one scan; on failure, rescan in the order of formation
        if not _within(tails[:R], cap):
            for j in reversed(range(R)):
                _check(tails[j], lay.ring[j], cap)
    else:

        def site(j, tail):
            m = np.matmul(ring_phi[j], nodes[j]).reshape(B, D, D)
            return _check(np.matmul(m, tail), lay.ring[j], cap)

        n = R - R % _GROUP  # ring positions [0, n) stream in groups
        for j in reversed(range(n, R)):
            tail = site(j, tail)
        # an overflow or 0 * inf in a group fails its check, silently; the
        # sites of a failed group are formed, checked and warn as in a
        # per-site stream
        errs = np.geterr()
        with np.errstate(over="ignore", invalid="ignore"):
            merged, psi = _merged(
                nodes[:n].reshape(n, shape.phys_dim, D, D), ring_phi[:n, :, 0]
            )
            for t in reversed(range(n // _GROUP)):
                out = np.matmul(np.matmul(psi[t], merged[t]).reshape(B, D, D), tail)
                if _within(out, cap):
                    tail = out
                    continue
                with np.errstate(**errs):
                    for j in reversed(range(t * _GROUP, (t + 1) * _GROUP)):
                        tail = site(j, tail)
    label = np.matmul(phi[:, k, None], theta[lay.label].reshape(shape.phys_dim, -1))
    label = label.reshape(B, shape.n_labels, D, D)
    full = _check(np.matmul(label, tail[:, None]), k, cap)
    logits = _check(np.trace(full, axis1=2, axis2=3), k, cap)
    closure = np.swapaxes(tail, 1, 2)
    return BatchEnv(model, phi, cap, mats, tails, label, closure, logits, pool)


def forward_batch(model, phi):
    """Logits for a batch of embedded rows; shape (batch, n_labels)."""
    return _sweep(model, phi, keep=False).logits


def sweep_env(model, phi, reuse=None):
    """Run one full sweep over a batch of embedded rows, caching what
    gradients need.

    ``reuse``, an env of an earlier sweep that will not be used again,
    lends its arrays to this one where their shapes match, so a training
    loop's steps allocate no new stacks (freeing them each step made the
    allocator return them to the OS and fault them back in, about a third
    of a digit-scale step).
    """
    return _sweep(model, phi, keep=True, reuse=reuse)


# Bytes of running products the environment recurrence holds at once (its
# environments take as much again). A 32-row digit-scale gradient pass
# (16 KiB a site) runs in four blocks that stay in cache, no slower than one
# and 4 MB smaller; a 63-row, 10-class Jacobian chunk (320 KB a site)
# streams one site at a time.
_BLOCK_BYTES = 1 << 20


def _environments(env, label_mats, pool):
    """Yield ``(j0, envs)`` for blocks of consecutive ring positions.

    ``label_mats`` (batch, c, D, D) stands in for the label site's
    matrices; ``envs[j - j0, b, c]`` is the derivative of
    ``trace(M_0 .. label_mats[b, c] .. M_{n-1})`` with respect to the
    matrix of site ``ring[j]``, transposed (laid out (right, left)). A block
    holds as many sites as :data:`_BLOCK_BYTES` allows: its running
    products come one site at a time, its environments from one product.
    Both live in ``pool``'s arrays, which each block overwrites.
    """
    R, cap = len(env.mats), env.cap
    ring = _layout(env.model.shape).ring
    size = max(1, min(R, _BLOCK_BYTES // max(label_mats.nbytes, 1)))
    # runs[t] = label_mats @ mats[0] @ .. @ mats[j0 + t - 2]; runs[0] carries
    # the previous block's last run in
    runs = _buffer(pool, "runs", (size + 1,) + label_mats.shape)
    envs = _buffer(pool, "envs", (size,) + label_mats.shape)
    for j0 in range(0, R, size):
        n = min(size, R - j0)
        if j0:
            runs[0] = runs[size]
        else:
            runs[1] = label_mats
        for j in range(max(j0, 1), j0 + n):
            np.matmul(runs[j - j0], env.mats[j - 1][:, None], out=runs[j - j0 + 1])
        np.matmul(env.tails[j0 + 1 : j0 + 1 + n, :, None], runs[1 : n + 1], out=envs[:n])
        # one scan per buffer; on failure, rescan in the order of formation
        if not (_within(runs[1 if j0 else 2 : n + 1], cap) and _within(envs[:n], cap)):
            for j in range(j0, j0 + n):
                if j:
                    _check(runs[j - j0 + 1], ring[j - 1], cap)
                _check(envs[j - j0], ring[j], cap)
        yield j0, envs[:n]


def jacobian_from_env(env, out=None):
    """Flattened logit Jacobians: (batch, n_labels, param_count).

    Each site's block is written straight into its columns of one array:
    ``out`` when given (a C-contiguous array of that shape), else a new one.
    """
    shape = env.model.shape
    B, L, k = env.phi.shape[0], shape.n_labels, shape.label_site
    starts, ring = _layout(shape)[:2]
    want = (B, L, starts[-1])
    if out is None:
        jac = np.empty(want)
    elif out.shape != want or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {want} array, got {out.shape}")
    else:
        jac = out

    def block(i):  # site i's columns, laid out (batch, n_labels, *node_shape(i))
        return jac[:, :, starts[i] : starts[i + 1]].reshape(
            (B, L) + shape.node_shape(i)
        )

    for j0, envs in _environments(env, env.label, {}):
        for i, e in zip(ring[j0:], envs):
            left, right = shape.bond_dims(i)
            e = e.swapaxes(2, 3)[:, :, :left, None, :right]
            # block[b, l, a, s, r] = e[b, l, a, r] * phi[b, i, s]
            np.multiply(e, env.phi[:, i, None, None, :, None], out=block(i))
    # logit l depends only on class slice l of the label node
    label = block(k)
    label[...] = 0.0
    left, right = shape.bond_dims(k)
    diag = np.einsum("bar,bs->basr", env.closure[:, :left, :right], env.phi[:, k])
    for l in range(L):
        label[:, l, :, :, l] = diag
    return jac


def weighted_grad_from_env(env, coeff, out=None):
    """sum_b sum_l coeff[b, l] * d logits[b, l] / d nodes.

    ``coeff`` has shape (batch, n_labels). Returns one array per node,
    shaped like the node; or, given a ``param_count`` vector ``out``, writes
    the gradient into it in :func:`flatten_params` order and returns it.
    Per-sample Jacobians are never formed: the coefficients are folded into
    the label site's matrices first, so one class-free environment pass
    serves every site, and each block of sites takes one product for its
    gradients. This is the workhorse behind loss gradients.
    """
    shape = env.model.shape
    lay = _layout(shape)
    coeff = np.asarray(coeff, dtype=np.float64)
    B, L, k, D = env.phi.shape[0], shape.n_labels, shape.label_site, shape.bond_dim
    if coeff.shape != (B, L):
        raise ShapeError(f"coeff shape {coeff.shape} != {(B, L)}")
    folded = _check(np.einsum("bl,blar->bar", coeff, env.label)[:, None], k, env.cap)
    R, s = lay.nodes.shape[:2]
    pad = _buffer(env.buffers, "grad", (R * s * D * D + lay.label.size,))
    ring_grad = pad[: R * s * D * D].reshape(R, s, D * D)
    phi = env.phi[:, lay.ring].transpose(1, 2, 0)  # (R, phys, batch)
    for j0, envs in _environments(env, folded, env.buffers):
        j1 = j0 + len(envs)
        # grad[j, s, (r, a)] = sum_b phi[b, ring[j], s] * envs[j, b, 0, r, a]
        np.matmul(phi[j0:j1], envs.reshape(j1 - j0, B, D * D), out=ring_grad[j0:j1])
    label = pad[R * s * D * D :].reshape(D, s, L, D)
    np.einsum("bl,bar,bs->aslr", coeff, env.closure, env.phi[:, k], out=label)
    flat = np.take(pad, lay.grad, out=out)
    return flat if out is not None else unflatten_params(shape, flat, copy=False)


def weight_norm_sq(model):
    """Sum of squares of every node entry."""
    return float(sum(np.vdot(n, n) for n in model.nodes))


def flatten_params(model):
    """All node entries as one vector, nodes in site order, C order within a node."""
    return np.concatenate([n.ravel() for n in model.nodes])


def unflatten_params(shape, vec, copy=True):
    """Inverse of :func:`flatten_params`; returns a list of node arrays.

    With ``copy=False`` the node arrays are views of ``vec`` when it is a
    contiguous float64 vector, so writing to either writes to both.
    """
    vec = np.asarray(vec, dtype=np.float64).ravel()
    if vec.size != shape.param_count:
        raise ShapeError(f"vector has {vec.size} entries, expected {shape.param_count}")
    nodes, pos = [], 0
    for i in range(shape.n_sites):
        ns = shape.node_shape(i)
        size = math.prod(ns)
        node = vec[pos : pos + size].reshape(ns)
        nodes.append(node.copy() if copy else node)
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
