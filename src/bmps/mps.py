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
``logits[l] = <M_k[l], C> = sum_s phi_k[s] <A_k[s, l], C>``: both sweeps
read the logits off the label node, one product of each row's flattened
closure with the node viewed as (phys * n_labels, D * D) and then the
phys-weighted sum, without forming the class stack ``M_k[l]``. Every
other site's environment joins a cached partial product of that sweep with
a running product through stand-in label matrices formed from the label
node: ``sum_l coeff[c, l] * M_k[l]``, the logit coefficients folded in
before the recurrence. A loss gradient has one such row, so its pass is
reverse mode on a scalar, without a class axis; the Jacobian has one a
row it writes, the class stack itself for plain logit rows. An outer
product with the site vector restores the physical index.

Bonds are padded to ``bond_dim`` with zeros, so an open chain runs as a
cyclic one whose end nodes have zero rows or columns and every ring site's
matrices share one shape. Every sweep cuts the ring into groups of three
(:data:`_GROUP`) consecutive ring sites and streams or stacks one product a
group. The node tensors are shared by every row, so one product per call
merges each group's nodes into the slice products
``K[s_0, s_1, s_2] = A_j^{s_0} A_{j+1}^{s_1} A_{j+2}^{s_2}``; the batch
weights them by its rows of
``psi[s_0, s_1, s_2] = phi_j[s_0] phi_{j+1}[s_1] phi_{j+2}[s_2]``, one GEMM
with the batch as its rows, and each row multiplies the group's matrix
onto its product so far. The ring sites that fill no group come first, one
at a time, each one GEMM of the batch's ``phi`` against the site's node.
Both sweeps run one loop, which forms each unit's matrix and multiplies it
onto the product so far, so their logits agree bit for bit:

* :func:`forward_batch` streams, so a chunk of whole-dataset prediction
  holds its rows' embeddings and group weights, O(batch * n_sites), and
  O(batch * bond^2) of products.
* :func:`sweep_env` keeps the same products: each unit's matrix in one
  preallocated stack and each partial product in another.
* The class-free gradient pass of a training batch runs its environment
  recurrence over the same groups, in blocks sized by a byte budget
  (``_BLOCK_BYTES``): a block's running products fill one stack and one
  batched product forms all its environments. One product over the batch
  then takes each group's environments to the gradient of its merged
  tensor, ``H = sum_b psi_b (x) E_b``, and the chain rule through ``K``
  takes that to the group's three nodes, with no batch axis:
  ``dA_j^{s_0} = sum H[s_0, s_1, s_2] (A_{j+1}^{s_1} A_{j+2}^{s_2})'``,
  ``dA_{j+1}^{s_1} = sum (A_j^{s_0})' H (A_{j+2}^{s_2})'`` and
  ``dA_{j+2}^{s_2} = sum (A_j^{s_0} A_{j+1}^{s_1})' H``.
* The class-wide Jacobian needs every site's environment, so it sweeps
  its rows once, stacked, in groups of one site: that sweep forms and
  checks every site's matrix and partial product. It then runs the
  recurrence per site, in blocks of a few sites for a chunk (three at the
  digit scale). The gradient pass falls back to its own pass over the
  same one-site sweep, whose group weights are ``phi`` and whose chain
  rule is a copy.
  :func:`jacobian_blocks`, the one Jacobian writer, turns each site's
  environments into its Jacobian columns, one product a row and class of
  the environment against a spread of the site's ``phi`` with one entry a
  column, so each entry is one product of an environment entry and a
  ``phi`` entry. It writes runs of contiguous sites' columns into one
  buffer that holds a run at a time, which prediction takes, or straight
  into a caller's array: :func:`jacobian_from_env`'s, or the GGN factor
  build's rows of U, whose coefficients ``sqrt(y_c) (delta_cl - y_l)`` it
  folds into the class stack before the recurrence, so the recurrence runs
  over the rows it writes and checks every array it forms.

The MAP forward over a whole dataset streams :data:`CHUNK_ROWS`-row
slices, one after another. Only the Jacobian passes (GGN factors,
moderated prediction) are budgeted and pooled: they run through
:func:`map_chunks`, whose chunks hold at most :data:`CHUNK_ROWS` rows
and no more than :data:`CHUNK_BYTES` of :func:`jacobian_row_bytes`, of
which they hold only runs. Where the byte budget, not the row cap, sets
the chunk size, the chunks are mapped over a thread per usable core,
sized so that the workers take even shares of the rows where that lowers
the busiest worker's share (see :func:`chunk_plan`). Each pooled chunk's
BLAS calls run on one thread, so a pool of a thread a core does not also
run every BLAS call on every core. The training step always runs serial.
Every ``scipy.linalg`` call of :mod:`bmps.laplace` runs on one BLAS
thread too, pooled or not: scipy ships a second OpenBLAS, whose idle
worker spins for about 0.1 s after a threaded call and takes a core from
numpy's next product.

Every array the engine forms (partial and running products, the read-off
product of closure and label node, logits, folded label matrices, the
Jacobian's class stack, environments) is checked against
:data:`MAGNITUDE_CAP`: an entry above it in magnitude, or a
NaN or infinite one, raises :class:`~bmps.errors.NumericError` naming the
site. One rule serves every pass: a pass over groups that fails a check
runs again over the one-site sweep of the same rows, where the first
failing product in formation order names its site. A stream checks each
product as it is formed; a stack (the sweep's partial products, a block's
running products and environments) is scanned once when full, by one min
and one max reduction that copy nothing, and rescanned product by product
in formation order only on a one-site sweep. So a sweep whose merged slice
overflows but is weighted by 0 (NaN only in the merged form) gives the
one-site sweep's result, an env with ``group == 1``. The gradient pass
scans its group running products and environments, the prefix products
``A_j^{s_0} A_{j+1}^{s_1}`` of its chain rule and, for non-finite entries,
the gradient; a one-site pass whose gradient is still not finite names
the first such site in ring order, or the label site. No grouped pass
forms a product inside a group, so an excursion above the cap that
starts and ends inside one group passes
:func:`forward_batch`, :func:`sweep_env` and :func:`weighted_grad_from_env`,
and so training, unless another check fails and the pass reruns;
:func:`jacobian_blocks`, whose one-site sweep forms them, names its site.

A row's results do not depend on its batch. Each product of the batch
against a tensor every row shares (a unit's merged or one-site node, the
gradient's folded label node) is one GEMM with the batch as its rows,
through :func:`_rows_by`: on OpenBLAS a gemm row's bits do not depend on
the rows around it at these inner sizes (phys**group, phys,
phys * n_labels), but numpy sends a one-row product to gemv, whose bits
differ, so a one-row batch runs as two copies of its row. The other
products are one a row: each row's unit matrix onto its running product,
the Jacobian's class stack and the label read-off. At the read-off's inner
size ``D * D`` (64 at the digit scale), with the label node as the
transposed operand, gemm rows of small batches differ from the same rows
in larger ones, so it stays a product a row.
All operations are pure: they never mutate their inputs (bar an env
handed to :func:`sweep_env` as ``reuse``), and identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ParseError, ShapeError

# Largest magnitude any product of a contraction may reach; read by each
# check when it runs.
MAGNITUDE_CAP = 1e100

# Rows contracted together by the whole-dataset passes (MAP forward, GGN
# factors, moderated prediction), and the bytes of Jacobian a chunk of the
# Jacobian passes may take; only those passes are budgeted and pooled. No
# pass holds a chunk's whole Jacobian, so the budget sets the chunk width
# (rows * n_labels) that keeps prediction's products with U wide, and the
# worker count. At the digit scale (196 sites, bond 8, 10 classes: 2.1 MB
# of Jacobian a row) it gives at most 63 rows; :func:`chunk_plan` runs 200
# or 400 rows on two workers as chunks of 50.
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
    """A shape plus its parameters (float64, finite), stored once.

    ``params`` holds every node entry, nodes in site order and C order
    within a node (the ``model.bmps`` payload order); ``nodes`` is a tuple
    of views of it. The constructor copies the given nodes into a new vector.
    """

    shape: MpsShape
    nodes: tuple = field(repr=False)
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.nodes) != self.shape.n_sites:
            raise ShapeError(
                f"expected {self.shape.n_sites} nodes, got {len(self.nodes)}"
            )
        given, self.params = self.nodes, np.empty(self.shape.param_count)
        self.nodes = tuple(unflatten_params(self.shape, self.params))
        for i, (node, view) in enumerate(zip(given, self.nodes)):
            arr = np.asarray(node, dtype=np.float64)
            if arr.shape != view.shape:
                raise ShapeError(
                    f"node {i} has shape {arr.shape}, expected {view.shape}"
                )
            view[...] = arr
        if not _within(self.params, np.inf):
            i = next(i for i, n in enumerate(self.nodes) if not _within(n, np.inf))
            raise ValueError(f"node {i} contains non-finite entries")

    def copy(self):
        return MpsModel(self.shape, self.nodes)


def embed(X):
    """Embedded rows ``phi`` (batch, n_sites, 2) of feature rows ``X``
    (batch, n_sites): each feature ``x`` becomes ``[x, 1 - x]``.

    ``X`` must be 2-D (ShapeError) with every value in [0, 1] (DataError).
    """
    return _stack(_features(X))


def _stack(X):
    """:func:`embed` of a feature matrix :func:`_features` has checked."""
    return np.stack([X, 1.0 - X], axis=2)


def _features(X):
    """``X`` as float64, checked as :func:`embed` checks it, not embedded;
    each public pass runs it once, before its first batch or chunk."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    # Written so that NaN, which fails every comparison, is rejected too.
    if X.size and not (0.0 <= X.min() and X.max() <= 1.0):
        bad = X.min() if not 0.0 <= X.min() else X.max()
        raise DataError(f"feature value {float(bad)!r} outside [0, 1]")
    return X


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def jacobian_row_bytes(shape):
    """Bytes of one row's logit Jacobian. Neither Jacobian pass (GGN
    factors, moderated prediction) holds a chunk's whole Jacobian; against
    :data:`CHUNK_BYTES` this sets their chunk width, which keeps
    prediction's products with U wide, and their worker count."""
    return shape.n_labels * shape.param_count * 8


def _busiest(n_rows, rows, workers):
    """Rows the busiest of ``workers`` threads takes when chunks of ``rows``
    rows, the last one short, go to them in turn: the first thread takes
    the most chunks, the short last one among them only when no other
    thread takes as many."""
    chunks = -(-n_rows // rows)
    short = chunks * rows - n_rows if (chunks - 1) % workers == 0 else 0
    return -(-chunks // workers) * rows - short


def chunk_plan(n_rows, row_bytes):
    """``(rows, workers)``: the chunk size and thread count :func:`map_chunks`
    uses for ``n_rows`` rows of a Jacobian pass that holds ``row_bytes`` a
    row; the MAP forward is neither budgeted nor pooled.

    Chunks hold at most :data:`CHUNK_ROWS` rows and :data:`CHUNK_BYTES` of
    that measure. Only when the byte budget sets the size do they go to a
    pool: pooling row-capped chunks raised peak memory (one malloc arena a
    thread) for no clear speed-up. A pool's chunk count is then rounded up
    to a multiple of the workers and the rows spread evenly over it, where
    that lowers the rows of the busiest worker: at the digit scale, 200 rows
    run as 4 chunks of 50, not 63, 63, 63 and 11, which gave one of two
    workers 126 rows. Where it does not (10 rows of at most 3 on 3 workers
    would run as five chunks of 2, 4 rows on the busiest either way), the
    budget's wider chunks stay.
    """
    rows = max(1, min(CHUNK_ROWS, CHUNK_BYTES // max(row_bytes, 1)))
    if rows == CHUNK_ROWS:
        return rows, 1
    chunks = -(-n_rows // rows)
    workers = max(1, min(_usable_cores(), chunks))
    if workers > 1:
        even = -(-n_rows // (-(-chunks // workers) * workers))
        if _busiest(n_rows, even, workers) < _busiest(n_rows, rows, workers):
            rows = even
    return rows, workers


def _openblas():
    """``{path: openblas_set_num_threads_local}`` for every OpenBLAS loaded
    in the process (numpy's and scipy's wheels each bundle one), found
    through ``/proc/self/maps`` as the mapped files whose path names
    OpenBLAS; empty where that file cannot be read or none exports the
    setter. Despite its name the setter sets the library's process-wide
    count, and it returns the count it replaced. The dict is shared, and the
    search (~0.5 ms) reruns only when an import changes ``sys.modules``.
    """
    return _find_openblas(len(sys.modules))


@functools.lru_cache(maxsize=1)
def _find_openblas(n_modules):
    try:
        with open("/proc/self/maps") as fh:
            lines = [line for line in fh if "openblas" in line]
        paths = {line.split(None, 5)[5].rstrip("\n") for line in lines}
    except OSError:
        return {}
    found, seen = {}, set()
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        address = ctypes.cast(setter, ctypes.c_void_p).value
        if address not in seen:  # one library mapped under two names
            seen.add(address)
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            found[path] = setter
    return found


class _OneBlasThread:
    """Context manager under which every OpenBLAS :func:`_openblas` finds
    runs one thread, so a pool of ``workers`` threads keeps ``workers``
    cores busy rather than ``workers`` times the BLAS count.

    OpenBLAS's count is process-wide, so one lock and a depth counter serve
    every pool in the process: the first pass to enter sets each library
    to 1 and keeps the count the setter returned, and the last to leave
    restores it, once, however the passes nest or overlap. A library
    loaded inside is left as it is, so a caller imports what it runs
    before it enters.

    :mod:`bmps.laplace` runs each ``scipy.linalg`` call under it (the
    Cholesky factor, its solves and the core check's triangular product):
    scipy's OpenBLAS is a second library, whose idle worker spins after a
    threaded call and takes a core from numpy's next product, and one
    thread keeps the Cholesky step's bits independent of the count. numpy's
    products outside every guard, such as the Laplace core's ``U U'`` and
    prediction's ``U J'``, keep the library's own count.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._depth = 0
        self._saved = []  # (setter, count to restore)

    def __enter__(self):
        with self.lock:
            if not self._depth:
                self._saved = [(f, f(1)) for f in _openblas().values()]
            self._depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self._depth -= 1
            if not self._depth:
                for f, count in self._saved:
                    f(count)
                self._saved = []


_one_blas_thread = _OneBlasThread()


def _blas_counts():
    """``{path: count}``: each loaded OpenBLAS's thread count now. The
    setter is the one thread-count call every OpenBLAS exports under the
    same name (the getter carries each wheel's symbol prefix), so a count
    is read by setting 1 and restoring what it returns, under the pools'
    lock."""
    counts = {}
    with _one_blas_thread.lock:
        for path, f in _openblas().items():
            counts[path] = f(1)
            f(counts[path])
    return counts


def blas_threads(workers):
    """BLAS threads each chunk of a :func:`map_chunks` pass on ``workers``
    threads runs with: 1 in a pool, else the largest count of the loaded
    OpenBLAS libraries; None where none is found."""
    counts = _blas_counts()
    if not counts:
        return None
    return 1 if workers > 1 else max(counts.values())


def map_chunks(fn, n_rows, row_bytes):
    """``[fn(rows), ..]`` over consecutive row slices covering ``range(n_rows)``.

    Chunk sizes and threads come from :func:`chunk_plan`; results are in
    row order either way. A pool runs under :class:`_OneBlasThread`, so
    each chunk's BLAS calls run on one thread, and the libraries' counts
    are restored once the pool has joined. An empty range is one empty
    slice, so results keep their trailing shape. If chunks raise, the error
    of the first failing chunk in row order is raised, as a serial run
    would raise it, and chunks that have not started are cancelled. No
    thread outlives the call.
    """
    rows, workers = chunk_plan(n_rows, row_bytes)
    chunks = [slice(s, s + rows) for s in range(0, max(n_rows, 1), rows)]
    if workers == 1:
        return [fn(c) for c in chunks]
    with _one_blas_thread, ThreadPoolExecutor(workers) as pool:
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


def _check(arr, site):
    """Return ``arr`` once its largest magnitude is finite and within
    :data:`MAGNITUDE_CAP`."""
    if not _within(arr, MAGNITUDE_CAP):
        m = np.abs(arr).max()
        raise NumericError(
            f"contraction magnitude {m:.3e} exceeded cap {MAGNITUDE_CAP:.3e} "
            f"at site {site}"
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
    # C order, so that gathering through them gives C-contiguous stacks
    nodes = np.ascontiguousarray(nodes.transpose(0, 2, 1, 3))
    label = np.ascontiguousarray(label.transpose(1, 2, 0, 3))
    return _Layout(starts, ring, nodes, label, grad)


def _buffer(pool, name, shape):
    """``pool[name]`` if it has ``shape``, else a new array stored there."""
    buf = pool.get(name)
    if buf is None or buf.shape != shape:
        buf = pool[name] = np.empty(shape)
    return buf


@dataclass
class BatchEnv:
    """Contraction state of one batch: its logits plus what environments need.

    Bonds are padded to ``D = bond_dim`` (see :func:`_layout`). The ring
    (see :func:`_ring`) is cut into units: ``G = len(ring) // group``
    groups of ``group`` consecutive ring positions (:data:`_GROUP` unless
    the sweep was given another size, or 1 if a grouped sweep failed a
    magnitude check and ran again one site at a time; a grouped env has
    passed every check), then the ``len(ring) % group``
    leftover positions, one unit each. ``mats[u]``
    (batch, D, D) is unit ``u``'s matrix (for a group, the product of its
    sites' matrices, formed from the merged node tensor) and ``tails[u]``
    the product ``mats[u] @ .. @ mats[-1]``, the identity for
    ``u = len(mats)``. ``nodes`` (len(ring), phys, D, D) are the ring's
    padded nodes, and ``psi`` and ``suffixes`` the groups' row weights and
    merged products (see :func:`_merged`), for the gradient's
    back-propagation. ``mats`` and ``tails`` are None from
    :func:`forward_batch`, which streams. ``closure``, ``tails[0]``
    transposed, is the label node's environment.
    ``buffers`` holds ``mats``, ``tails`` and the scratch arrays of the
    passes over this sweep: the environment recurrence's running products
    and environments, and the gradient's own, for :func:`sweep_env`'s
    ``reuse``.
    """

    model: MpsModel
    phi: np.ndarray
    group: int
    nodes: np.ndarray
    psi: np.ndarray
    suffixes: list
    mats: np.ndarray
    tails: np.ndarray
    closure: np.ndarray
    logits: np.ndarray
    buffers: dict = field(default_factory=dict, repr=False)


# Consecutive ring sites the sweeps merge into one node tensor (see the
# module docstring). At the digit scale (196 sites, bond 8, 10 classes;
# 2 vCPUs, OpenBLAS, median of 25 interleaved runs), with each group
# product one GEMM, groups of 1 to 5 took 14.2, 8.04, 5.55, 6.82 and
# 10.2 ms for a 400-row forward, and 5.84, 3.27, 2.68, 2.72 and 3.29 ms for
# a 32-row training step (stacked sweep and gradient pass).
_GROUP = 3


def _rows_by(rows, node, out=None):
    """``rows @ node``: a batch of rows (batch, K) against a matrix ``node``
    (K, N) that every row shares, as one GEMM with the batch as its rows.

    ``rows`` may be laid out batch fastest, which BLAS reads as its
    transposed operand, so it is not copied. At the engine's inner sizes a
    gemm row's bits do not depend on the rows around it (see the module
    docstring), but numpy sends a one-row product to gemv, whose bits
    differ; so one row runs as two copies of itself, one of them kept. A
    zero-row batch gives zero rows.
    """
    if len(rows) != 1:
        return np.matmul(rows, node, out=out)
    one = np.matmul(np.repeat(rows, 2, axis=0), node)[:1]
    if out is None:
        return one
    out[...] = one
    return out


def _merged(nodes, phi, group):
    """Merged node tensors and row weights of groups of ``group``
    consecutive ring sites.

    ``nodes`` (G * group, phys, D, D) and ``phi`` (G * group, phys, batch)
    give ``suffixes`` and ``psi`` (G, batch, phys**group). For
    ``j = t * group``, ``suffixes[m]`` (G, phys**(group - m), D, D) holds
    the slice products ``A_{j+m}^{s_m} .. A_{j+group-1}^{s_{group-1}}`` of
    the group's last sites, so ``suffixes[0]`` is its merged tensor; entry
    ``(s_0, s_1, ..)`` of ``psi[t]`` is the weight ``phi_j[s_0]
    phi_{j+1}[s_1] ..``. ``psi[t] @ suffixes[0][t]`` (flattened to
    (phys**group, D * D)) gives every row the product of the group's site
    matrices in one GEMM with the batch as its rows (:func:`_rows_by`,
    which runs a one-row batch as two rows). ``psi`` keeps the batch axis
    fastest, as ``phi`` has it, and BLAS reads each ``psi[t]`` as its
    transposed operand, so neither is copied for the product; at
    ``group = 1``, ``psi`` is ``phi`` itself.
    """
    G, (_, s, B), D = len(nodes) // group, phi.shape, nodes.shape[-1]
    nodes = nodes.reshape(G, group, s, D, D)
    suffixes = [nodes[:, -1]]
    for m in reversed(range(group - 1)):
        q = s ** (group - 1 - m)
        if m:  # laid out (G, D, phys * q, D), as :func:`_backprop` reads it
            buf = np.empty((G, D, s, q, D))
            out = buf.transpose(0, 2, 3, 1, 4)
            np.matmul(nodes[:, m, :, None], suffixes[0][:, None], out=out)
            merged = buf.reshape(G, D, s * q, D).swapaxes(1, 2)
        else:
            merged = np.matmul(nodes[:, m, :, None], suffixes[0][:, None])
            merged = merged.reshape(G, s * q, D, D)
        suffixes.insert(0, merged)
    # one outer product a row, batch axis last in the factors
    phi = phi.reshape(G, group, s, B).transpose(1, 0, 2, 3)
    axes = "ijklmnopqr"[:group]
    psi = np.einsum(",".join(f"g{a}b" for a in axes) + f"->gb{axes}", *phi)
    return suffixes, psi.reshape(G, B, s**group)


def _sweep(model, phi, keep, reuse=None, group=None):
    """Contract a batch of embedded rows ``phi`` (batch, n_sites, phys) round
    the ring (see the module docstring).

    One loop forms each unit's matrix, one GEMM a unit, and multiplies it
    onto the partial product, last unit first. ``keep`` writes both into
    stacks, for the environments, and scans the partial products once
    after the loop; otherwise the sweep streams, each product checked as
    it is formed, so it holds O(batch * bond^2) of products. The stacked
    sweep's products are thus the stream's, bit for bit. A grouped sweep
    that fails a check returns the one-site sweep (``group=1``) of the same
    rows, whose check names the first failing product in formation order.
    ``group`` defaults to :data:`_GROUP` as it is when the sweep runs.
    """
    shape = model.shape
    group = _GROUP if group is None else group
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[1:] != (shape.n_sites, shape.phys_dim):
        raise ShapeError(
            f"phi has shape {phi.shape}, model expects "
            f"(batch, {shape.n_sites}, {shape.phys_dim})"
        )
    lay = _layout(shape)
    B, R, D, k = phi.shape[0], len(lay.ring), shape.bond_dim, shape.label_site
    s, L = shape.phys_dim, shape.n_labels
    theta = np.append(model.params, 0.0)
    nodes = theta[lay.nodes]  # (R, phys, D, D)
    flat_nodes = nodes.reshape(R, s, D * D)
    n = R - R % group  # ring positions [0, n) form groups, the rest stream
    G = n // group
    U = G + R - n
    # the grouped sites' rows, (n, phys, B), batch axis last (C order), as
    # psi keeps them for its GEMMs: the one copy of phi the sweep makes,
    # dropped once psi is formed; the other sites' rows are read in place
    grouped = np.take(phi.transpose(1, 2, 0), lay.ring[:n], axis=0)
    # an overflow or 0 * inf fails a check silently: a grouped sweep that
    # fails one runs again in one-site groups, whose check names the site
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        suffixes, psi = _merged(nodes[:n], grouped, group)
    del grouped
    merged = suffixes[0].reshape(G, s**group, D * D)

    def unit(u, out=None):  # unit u's matrices, one GEMM with the batch as rows
        if u < G:
            return _rows_by(psi[u], merged[u], out)
        return _rows_by(phi[:, lay.ring[n + u - G]], flat_nodes[n + u - G], out)

    pool = {} if reuse is None else reuse.buffers
    mats = tails = None
    tail = np.broadcast_to(np.eye(D), (B, D, D))
    if keep:
        mats = _buffer(pool, "mats", (U, B, D, D))
        tails = _buffer(pool, "tails", (U + 1, B, D, D))
        tails[U] = tail
    with np.errstate(**quiet):
        for u in reversed(range(U)):
            m = unit(u, mats[u].reshape(B, D * D) if keep else None)
            tail = np.matmul(m.reshape(B, D, D), tail, out=tails[u] if keep else None)
            if keep:
                continue
            if group == 1:
                _check(tail, lay.ring[u])
            elif not _within(tail, MAGNITUDE_CAP):
                return _sweep(model, phi, keep, reuse, group=1)
        # a stack is scanned once; a one-site sweep's rescan in formation
        # order names the first failing product
        if keep and not _within(tails[:U], MAGNITUDE_CAP):
            if group > 1:
                return _sweep(model, phi, keep, reuse, group=1)
            for u in reversed(range(U)):
                _check(tails[u], lay.ring[u])
    # logits[b, l] = sum_s phi[b, k, s] <A_k[s, l], C_b>: the label node,
    # (phys * n_labels, D * D) in the closure's transposed layout, against
    # each row's flattened tail, one product a row, then the phys-weighted sum
    node = theta[lay.label.swapaxes(2, 3)].reshape(s * L, D * D)
    read = _check(np.matmul(tail.reshape(B, 1, D * D), node.T), k)
    logits = _check(np.matmul(phi[:, k, None], read.reshape(B, s, L))[:, 0], k)
    closure = np.swapaxes(tail, 1, 2)
    return BatchEnv(
        model, phi, group, nodes, psi, suffixes, mats, tails, closure, logits, pool
    )


def forward_batch(model, phi):
    """Logits for a batch of embedded rows; shape (batch, n_labels)."""
    return _sweep(model, phi, keep=False).logits


def sweep_env(model, phi, reuse=None):
    """Run one full sweep over a batch of embedded rows, caching what
    gradients need. Its logits equal :func:`forward_batch`'s bit for bit.

    ``reuse``, an env of an earlier sweep that will not be used again,
    lends its arrays to this one where their shapes match, so a training
    loop's steps allocate no new stacks (freeing them each step made the
    allocator return them to the OS and fault them back in, about a third
    of a digit-scale step).
    """
    return _sweep(model, phi, keep=True, reuse=reuse)


# Bytes of running products the environment recurrence holds at once (its
# environments take as much again). A 32-row digit-scale gradient pass
# (16 KiB a unit) runs its 65 units in two blocks that stay in cache; a
# 63-row, 10-class Jacobian chunk (322,560 B a site) runs its 195 ring
# sites in 65 blocks of three.
_BLOCK_BYTES = 1 << 20


def _environments(env, label_mats):
    """Yield ``(j0, envs)`` for blocks of consecutive units of a stacked
    sweep ``env``: its unit matrices ``mats`` (U, batch, D, D) and their
    partial products ``tails`` from the right.

    ``label_mats`` (batch, c, D, D) stands in for the label site's
    matrices; ``envs[j - j0, b, c]`` is the derivative of
    ``trace(label_mats[b, c] @ mats[0] @ .. @ mats[-1])`` with respect to
    ``mats[j]``, transposed (laid out (right, left)). A block holds as many
    units as :data:`_BLOCK_BYTES` allows: its running products
    ``label_mats @ mats[0] @ .. @ mats[j - 1]`` come one unit at a time,
    its environments from one product. Both live in the env's ``buffers``,
    which each block overwrites, and each is scanned once. If a scan fails
    on a grouped sweep, it yields ``(j0, None)`` and stops, so that its
    caller runs again over the one-site sweep; there, whose units are the
    ring sites, the block is rescanned product by product in the order of
    formation, which raises :class:`~bmps.errors.NumericError` naming the
    site.
    """
    mats, tails, pool = env.mats, env.tails, env.buffers
    ring = _layout(env.model.shape).ring
    R = len(mats)
    size = max(1, min(R, _BLOCK_BYTES // max(label_mats.nbytes, 1)))
    runs = _buffer(pool, "runs", (size + 1,) + label_mats.shape)
    envs = _buffer(pool, "envs", (size,) + label_mats.shape)
    for j0 in range(0, R, size):
        n = min(size, R - j0)
        # runs[t] is the running product up to unit j0 + t - 2: runs[0]
        # carries the previous block's last one in
        if j0:
            runs[0] = runs[size]
        else:
            runs[1] = label_mats
        for j in range(max(j0, 1), j0 + n):
            np.matmul(runs[j - j0], mats[j - 1][:, None], out=runs[j - j0 + 1])
        np.matmul(tails[j0 + 1 : j0 + 1 + n, :, None], runs[1 : n + 1], out=envs[:n])
        # runs[1] of the first block is the checked label stand-in
        if not (
            _within(runs[1 if j0 else 2 : n + 1], MAGNITUDE_CAP)
            and _within(envs[:n], MAGNITUDE_CAP)
        ):
            if env.group != 1:
                yield j0, None
                return
            for j in range(j0, j0 + n):
                if j:
                    _check(runs[j - j0 + 1], ring[j - 1])
                _check(envs[j - j0], ring[j])
        yield j0, envs[:n]


# Bytes of Jacobian columns :func:`jacobian_blocks` holds at once: 39 sites
# (4,992 columns) of a 63-row, 10-class chunk at the digit scale (196 sites,
# bond 8), against its 126 MiB whole Jacobian. Moderated prediction of 400
# such rows around a rank-2,000 posterior (2 workers, 2 vCPUs, OpenBLAS;
# median rows/s of 4 to 6 interleaved runs, and one run's peak RSS) gave:
# 4 MiB 69 rows/s; 8 MiB 69 rows/s, 611 MiB; 16 MiB 72-77 rows/s, 627 MiB;
# 24 MiB 78 rows/s, 642 MiB; 32 MiB 76-78 rows/s, 658 MiB; 48 MiB 79 rows/s,
# 691 MiB; the whole Jacobian at once 77-78 rows/s, 812 MiB. The GGN factor
# build holds no such buffer: it writes its runs into its rows of U.
_JACOBIAN_BLOCK_BYTES = 24 << 20


def jacobian_blocks(model, phi, coeff=None, out=None):
    """Yield ``(c0, c1, J)`` for runs of contiguous sites that together
    cover every column: ``J`` (batch, rows, c1 - c0) holds columns
    ``c0:c1`` of the logit Jacobian at the embedded rows ``phi``, one row a
    class, or, given ``coeff`` (batch, rows, n_labels), of the rows
    ``sum_l coeff[b, c, l] d logit_l / d theta``.

    ``J`` is a view of ``out`` (batch, rows, param_count), which ends up
    holding every column, or else of one buffer of at most
    :data:`_JACOBIAN_BLOCK_BYTES` (or one site), which the next run
    overwrites, so the whole Jacobian is never held; a caller may change
    ``J`` before it takes the next run. The rows are swept once, stacked,
    in one-site groups, and sites are written in ring order, then the label
    site, each as soon as the checked :func:`_environments` pass gives its
    environments. Runs take them in that order and end where the column
    order jumps: at the ring's wrap from site ``n - 1`` to 0, and before a
    label site 0.

    ``coeff=None`` is the identity. The class stack ``M_k[l]`` is formed
    and checked, then folded into the stand-ins ``sum_l coeff[b, c, l]
    M_k[l]``, one product a row, checked at the label site, and the
    :func:`_environments` recurrence runs over those ``rows`` stand-ins.
    So every array the pass writes is one it checked, and an overflow
    names the site where the folded products leave the cap, which a
    coefficient may move or remove. A site's block is one product a row
    of ``phi`` and of ``J``: the environment (left, right) against a
    (right, phys * right) spread of ``phi`` with one nonzero entry a
    column. So every entry is one product of an environment entry and a
    ``phi`` entry (up to the sign of a zero), whatever the batch.
    """
    env = _sweep(model, phi, keep=True, group=1)
    shape = model.shape
    B, L, k, D = env.phi.shape[0], shape.n_labels, shape.label_site, shape.bond_dim
    s = shape.phys_dim
    if coeff is None:
        coeff = np.broadcast_to(np.eye(L), (B, L, L))
    C = coeff.shape[1]
    if coeff.shape != (B, C, L):
        raise ShapeError(f"coeff shape {coeff.shape} != (batch {B}, rows, {L})")
    if out is not None and out.shape != (B, C, shape.param_count):
        raise ShapeError(f"out shape {out.shape} != {(B, C, shape.param_count)}")
    width = _JACOBIAN_BLOCK_BYTES // max(B * C * 8, 1)
    starts, ring, _, label_pos = _layout(shape)[:4]
    runs = []  # [sites, c0, c1]
    for i in [*ring, k]:
        if runs and runs[-1][2] == starts[i] and starts[i + 1] - runs[-1][1] <= width:
            runs[-1][0].append(i)
            runs[-1][2] = starts[i + 1]
        else:
            runs.append([[i], starts[i], starts[i + 1]])
    widest = max(c1 - c0 for _, c0, c1 in runs)
    buf = np.empty(B * C * widest) if out is None else None
    where, ends = {}, {}
    for sites, c0, c1 in runs:
        if buf is None:
            J = out[:, :, c0:c1]
        else:
            J = buf[: B * C * (c1 - c0)].reshape(B, C, c1 - c0)
        where.update((i, (J, c0)) for i in sites)
        ends[sites[-1]] = (c0, c1, J)

    def block(i):  # site i's columns, laid out (batch, rows, *node_shape(i))
        J, c0 = where[i]
        cols = slice(starts[i] - c0, starts[i + 1] - c0)
        return J[:, :, cols].reshape((B, C) + shape.node_shape(i))

    spreads = {}

    def spread(i, right):  # spread[b, 0, r, (s, r)] = phi[b, i, s], else 0
        if right not in spreads:
            spreads[right] = np.zeros((B, 1, right, s, right))
        np.einsum("brsr->bsr", spreads[right][:, 0])[...] = env.phi[:, i, :, None]
        return spreads[right].reshape(B, 1, right, s * right)

    # the class stack M_k[l] = sum_s phi_k[s] A_k[s, l] from the label node,
    # then the stand-ins sum_l coeff[b, c, l] M_k[l], one product a row
    node = np.append(model.params, 0.0)[label_pos]  # (phys, n_labels, D, D)
    stack = _check(np.matmul(env.phi[:, k, None], node.reshape(len(node), -1)), k)
    stack = _check(np.matmul(coeff, stack.reshape(B, L, D * D)), k)
    for j0, envs in _environments(env, stack.reshape(B, C, D, D)):
        for i, e in zip(ring[j0:], envs):
            left, right = shape.bond_dims(i)
            # block[b, c, a, (s, r)] = e[b, c, r, a] * phi[b, i, s]
            np.matmul(
                e.swapaxes(2, 3)[:, :, :left, :right],
                spread(i, right),
                out=block(i).reshape(B, C, left, s * right),
            )
            if i in ends:
                yield ends[i]
    # logit l depends only on class slice l of the label node:
    # block[b, c, a, s, l, r] = coeff[b, c, l] * closure[b, a, r] * phi[b, k, s]
    left, right = shape.bond_dims(k)
    diag = np.einsum("bar,bs->basr", env.closure[:, :left, :right], env.phi[:, k])
    np.multiply(coeff[:, :, None, None, :, None], diag[:, None, :, :, None], out=block(k))
    yield ends[k]


def jacobian_from_env(env):
    """The logit Jacobians of the env's rows, (batch, n_labels, param_count):
    :func:`jacobian_blocks` written into one new array."""
    shape = env.model.shape
    out = np.empty((env.phi.shape[0], shape.n_labels, shape.param_count))
    for _ in jacobian_blocks(env.model, env.phi, out=out):
        pass
    return out


def _backprop(nodes, suffixes, H, out):
    """Write the gradients of the groups' node slices into ``out`` (G,
    group, phys, D, D), transposed, given ``H`` (G, phys**group, D, D),
    the gradients of their merged slices, transposed.

    The merged slice is ``prefix @ A_m^s @ suffix``, with ``suffix`` one of
    :func:`_merged`'s ``suffixes[m + 1]`` and ``prefix`` the slice product
    ``A_j^{s_0} .. A_{j+m-1}^{s_{m-1}}`` of the group's first sites. So
    ``dA_m^s`` is the sum of ``prefix' H' suffix'`` over the other sites'
    slices; transposed, ``suffix @ H[.., s, ..] @ prefix``: two batched
    products over the groups, with no batch axis. The prefixes, products
    a running product of the group's sites would hold, are formed first
    and scanned against :data:`MAGNITUDE_CAP`; returns False, writing
    nothing, if that scan fails.
    """
    G, group, s, D, _ = out.shape
    A = nodes.reshape(out.shape)
    prefixes = [None, A[:, 0]]  # prefixes[m] (G, phys**m, D, D)
    for m in range(1, group - 1):
        prefix = np.matmul(prefixes[m][:, :, None], A[:, m, None])
        prefixes.append(prefix.reshape(G, s ** (m + 1), D, D))
    if not all(_within(p, MAGNITUDE_CAP) for p in prefixes[2:]):
        return False
    for m in range(group):
        p, q = s**m, s ** (group - 1 - m)
        T = H.reshape(G, p, s, q * D, D)
        if m == 0:  # no prefix slices: straight into out
            dest = out[:, 0, None]
        else:  # written (G, phys, D, p, D), as the sum over them reads it
            sums = np.empty((G, s, D, p, D))
            dest = sums.transpose(0, 3, 1, 2, 4)
        if m < group - 1:  # sum over the suffix slices
            S = suffixes[m + 1].transpose(0, 2, 1, 3).reshape(G, 1, 1, D, q * D)
            np.matmul(S, T, out=dest)
        else:
            dest[...] = T
        if m:  # sum over the prefix slices
            T = sums.reshape(G, s, D, p * D)
            np.matmul(T, prefixes[m].reshape(G, 1, p * D, D), out=out[:, m])
    return True


def _grouped_grad(env, folded, ring_grad):
    """Write the ring sites' part of a class-free gradient into
    ``ring_grad`` (R, phys, D * D) through the merged group tensors.

    The :func:`_environments` pass runs over the sweep's units, and each
    group's gradient reaches its nodes by :func:`_backprop`; over a
    one-site sweep the group weights are ``phi`` and that is a copy.
    Returns False, with ``ring_grad`` partly written, if a block's or a
    prefix's scan fails, and the caller runs it again over the one-site
    sweep; there a failed block scan raises the error naming its site
    instead.
    """
    B, (R, s, D) = env.phi.shape[0], env.nodes.shape[:3]
    G, group = len(env.psi), env.group
    n = G * group
    psi = env.psi.swapaxes(1, 2)  # (G, phys**group, B)
    phi = env.phi[:, _layout(env.model.shape).ring[n:]].transpose(1, 2, 0)
    H = _buffer(env.buffers, "merged_grad", (G, s**group, D * D))
    for u0, envs in _environments(env, folded):
        if envs is None:
            return False
        u1 = u0 + len(envs)
        envs = envs.reshape(u1 - u0, B, D * D)
        # H[t, sigma, (r, a)] = sum_b psi[t, b, sigma] * envs[t, b, 0, r, a];
        # a leftover site's gradient is its phi against its environments
        g1, lo, hi = min(u1, G), max(u0, G) - G, max(u1, G) - G
        np.matmul(psi[u0:g1], envs[: max(g1 - u0, 0)], out=H[u0:g1])
        np.matmul(phi[lo:hi], envs[lo + G - u0 :], out=ring_grad[n + lo : n + hi])
    grad = ring_grad[:n].reshape(G, group, s, D, D)
    return _backprop(env.nodes[:n], env.suffixes, H, grad)


def weighted_grad_from_env(env, coeff, out=None):
    """sum_b sum_l coeff[b, l] * d logits[b, l] / d nodes.

    ``coeff`` has shape (batch, n_labels). Returns the gradient as a
    ``param_count`` vector in ``model.params`` order: ``out`` when given,
    else a new one.
    Per-sample Jacobians are never formed: the coefficients are folded into
    the label node first, so one class-free environment pass serves every
    site. It runs over the sweep's units, one product a group per batch
    takes each group's gradient to its merged tensor, and :func:`_backprop`
    takes it to the nodes. If a scan of that pass fails, or the gradient is
    not finite, the same pass runs again over the one-site sweep of the
    rows, which raises the error naming the site or gives its result: the
    engine's one overflow rule, as :func:`sweep_env` follows it. Where the
    one-site pass's gradient is not finite either, the error names the
    first ring site whose gradient is not, and a non-finite label node
    gradient names the label site. This is the workhorse behind loss
    gradients.
    """
    shape = env.model.shape
    lay = _layout(shape)
    coeff = np.asarray(coeff, dtype=np.float64)
    B, L, k, D = env.phi.shape[0], shape.n_labels, shape.label_site, shape.bond_dim
    if coeff.shape != (B, L):
        raise ShapeError(f"coeff shape {coeff.shape} != {(B, L)}")
    R, s = lay.nodes.shape[:2]
    # folded[b] = sum_l coeff[b, l] M_k[l] = sum_(s, l) weights[b, (s, l)] A_k[s, l]
    weights = (env.phi[:, k, :, None] * coeff[:, None]).reshape(B, s * L)
    node = np.append(env.model.params, 0.0)[lay.label].reshape(s * L, D * D)
    folded = _check(_rows_by(weights, node).reshape(B, 1, D, D), k)
    pad = _buffer(env.buffers, "grad", (R * s * D * D + lay.label.size,))
    ring_grad = pad[: R * s * D * D].reshape(R, s, D * D)
    with np.errstate(over="ignore", invalid="ignore"):
        # label[a, s, l, r] = sum_b weights[b, (s, l)] * closure[b, a, r]
        label = np.matmul(weights.T, env.closure.reshape(B, D * D))
        label = label.reshape(s, L, D, D).transpose(2, 0, 1, 3)
        pad[R * s * D * D :].reshape(D, s, L, D)[...] = label
        # a failed scan or a non-finite gradient reruns over the one-site
        # sweep, whose scans raise at their site
        if not (_grouped_grad(env, folded, ring_grad) and _within(pad, np.inf)):
            one = _sweep(env.model, env.phi, keep=True, group=1)
            _grouped_grad(one, folded, ring_grad)
            if not _within(pad, np.inf):
                bad = (i for i, g in zip(lay.ring, ring_grad) if not _within(g, np.inf))
                raise NumericError(f"non-finite gradient at site {next(bad, k)}")
    return np.take(pad, lay.grad, out=out)


def weight_norm_sq(model):
    """Sum of squares of every node entry."""
    return float(sum(np.vdot(n, n) for n in model.nodes))


def unflatten_params(shape, vec):
    """A flat ``param_count`` vector in ``model.params`` order, split into a
    list of node arrays.

    The node arrays are views of ``vec`` when it is a contiguous float64
    vector, so writing to either writes to both; copy them to keep them.
    """
    vec = np.asarray(vec, dtype=np.float64).ravel()
    shapes = [shape.node_shape(i) for i in range(shape.n_sites)]
    starts = np.cumsum([0] + [math.prod(ns) for ns in shapes]).tolist()
    if vec.size != starts[-1]:
        raise ShapeError(f"vector has {vec.size} entries, expected {starts[-1]}")
    return [vec[a:b].reshape(ns) for ns, a, b in zip(shapes, starts, starts[1:])]


def model_from_params(shape, vec):
    """A model holding a copy of the flat parameter vector ``vec``."""
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
    return head + model.params.astype("<f8").tobytes()


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
    # every node holds at least phys_dim entries; checked before the shape,
    # whose parameter count takes a step a site
    n_sites, phys_dim = fields[:2]
    if n_sites * phys_dim * 8 > len(data) - pos:
        raise ParseError(
            f"payload has {len(data) - pos} bytes at offset {pos}, too few for "
            f"{n_sites} sites of at least {phys_dim} entries"
        )
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
        return model_from_params(shape, vec)
    except ValueError as exc:
        raise ParseError(f"corrupted payload: {exc}") from exc


def save_model(model, path):
    """Write the model container; load_model restores it bit-for-bit."""
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path):
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
