"""Dataset loading, preprocessing, synthesis, and splitting.

Every loader produces a :class:`DatasetSplit` whose features already lie in
[0, 1] (the domain of the site feature map) and whose labels are one-hot
rows. Loaders fill only the training half; pair official train/test files
with :meth:`DatasetSplit.with_test` or carve a held-out set with
:func:`split`.

Feature scaling always uses declared ranges (the schema for CSVs, the fixed
0..255 range for image bytes), never per-split minima and maxima, so train
and test share one map and summary statistics are well defined. The one
exception is :func:`make_blobs`, which min-max scales the freshly sampled
point cloud it just created.

Two per-feature statistics are exposed for initialization: the raw variance
(``feature_variance``) and the second moment of the embedded pair
[x, 1-x] (``kernel_second_moment``). The scalar fed to calibrated
initializers is ``init_var_x()``, the mean embedded second moment; it stays
well behaved for constant features (e.g. dead pixels), where the raw
variance collapses to zero.

The cache directory for named datasets is ``$BMPS_DATA_DIR`` (default
``./data``).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mps
from .errors import DataError, ParseError, ShapeError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

MNIST_CLASSES = 10


def data_dir():
    """Directory for cached datasets: $BMPS_DATA_DIR or ./data."""
    return Path(os.environ.get("BMPS_DATA_DIR", "data"))


def minmax_scale(X):
    """Scale each column of X into [0, 1] by its observed range.

    Idempotent: applying it twice equals applying it once. Constant columns
    map to 0.
    """
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0, 1.0, span)
    return (X - lo) / span


def _labels(Y):
    """``Y`` as float64, checked as one-hot rows: 2-D (ShapeError), each
    entry 0 or 1 and one 1 a row (DataError); run once a public call."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ShapeError(f"labels must be 2-D one-hot rows, got shape {Y.shape}")
    if not np.all((Y == 0.0) | (Y == 1.0)):
        raise DataError("labels must be one-hot rows of 0s and 1s")
    if not np.all(Y.sum(axis=1) == 1.0):
        raise DataError("each label row must have exactly one 1")
    return Y


@dataclass(frozen=True)
class DatasetSplit:
    """Preprocessed features in [0,1] with one-hot labels.

    ``provenance`` records where the data came from and what was done to it
    (source path, scaling, dropped row count, seeds).
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        tx = np.ascontiguousarray(mps._features(self.train_x))
        ty = np.ascontiguousarray(_labels(self.train_y))
        ex = np.ascontiguousarray(mps._features(self.test_x))
        ey = np.ascontiguousarray(_labels(self.test_y))
        if tx.shape[0] != ty.shape[0] or ex.shape[0] != ey.shape[0]:
            raise DataError("feature and label row counts differ")
        if not tx.shape[0]:
            raise DataError("train_x has no rows")
        if ex.shape[0] and ex.shape[1] != tx.shape[1]:
            raise DataError(
                f"test has {ex.shape[1]} features, train has {tx.shape[1]}"
            )
        if ex.shape[0] and ey.shape[1] != ty.shape[1]:
            raise DataError(
                f"test has {ey.shape[1]} classes, train has {ty.shape[1]}"
            )
        for attr, arr in (("train_x", tx), ("train_y", ty), ("test_x", ex), ("test_y", ey)):
            object.__setattr__(self, attr, arr)

    @property
    def n_features(self):
        return self.train_x.shape[1]

    @property
    def n_classes(self):
        return self.train_y.shape[1]

    @property
    def feature_variance(self):
        """Per-feature variance of the training features."""
        return self.train_x.var(axis=0)

    @property
    def kernel_second_moment(self):
        """Per-feature mean of (x^2 + (1-x)^2)/2 over training rows."""
        x = self.train_x
        return np.mean((x**2 + (1.0 - x) ** 2) / 2.0, axis=0)

    def init_var_x(self):
        """Scalar spread statistic for calibrated initialization."""
        return float(self.kernel_second_moment.mean())

    def with_test(self, other):
        """Use another split's training half as this split's test set."""
        if self.test_x.shape[0] or other.test_x.shape[0]:
            raise DataError("with_test expects two splits without test rows")
        prov = dict(self.provenance)
        prov["test_source"] = other.provenance.get("source", "unknown")
        return DatasetSplit(
            train_x=self.train_x,
            train_y=self.train_y,
            test_x=other.train_x,
            test_y=other.train_y,
            provenance=prov,
        )


def _onehot(indices, n_classes):
    out = np.zeros((len(indices), n_classes))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def _read_idx(path, expected_magic):
    """One array from an IDX file (big-endian, unsigned-byte payload)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ParseError(f"{path}: truncated magic at offset 0 ({len(raw)} bytes)")
    magic = int.from_bytes(raw[:4], "big")
    if magic != expected_magic:
        raise ParseError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise ParseError(f"{path}: truncated dimension header at offset 4")
    dims = np.frombuffer(raw, dtype=">u4", count=ndim, offset=4).astype(np.int64)
    expected = int(dims.prod()) + header_end
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload is {len(raw) - header_end} bytes at offset {header_end}, "
            f"expected {expected - header_end}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    return data.reshape(dims)


def _pool2x2(images):
    n, h, w = images.shape
    if h % 2 or w % 2:
        raise DataError(f"cannot 2x2-pool odd image size {h}x{w}")
    return images.reshape(n, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def load_mnist(image_path, label_path, subset_size=None, downsample="none", seed=0):
    """Digit images and labels from an IDX file pair.

    Pixels are scaled by 1/255; ``downsample="pool_to_14x14"`` mean-pools
    2x2 blocks. ``subset_size`` keeps a seeded uniform subset (sorted, so
    file order is preserved). Labels are one-hot over all 10 digits
    regardless of which digits the subset happens to contain. The result
    has an empty test half.
    """
    if downsample not in ("none", "pool_to_14x14"):
        raise ValueError(f"unknown downsample mode {downsample!r}")
    images = _read_idx(image_path, IDX_MAGIC_IMAGES).astype(np.float64)
    labels = _read_idx(label_path, IDX_MAGIC_LABELS).astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= MNIST_CLASSES):
        raise DataError(f"label values outside 0..{MNIST_CLASSES - 1}")
    if subset_size is not None:
        if not 0 < subset_size <= images.shape[0]:
            raise DataError(
                f"subset_size {subset_size} not in 1..{images.shape[0]}"
            )
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(images.shape[0], size=subset_size, replace=False))
        images, labels = images[keep], labels[keep]
    if downsample == "pool_to_14x14":
        images = _pool2x2(images)
    X = images.reshape(images.shape[0], -1) / 255.0
    Y = _onehot(labels, MNIST_CLASSES)
    prov = {
        "source": str(image_path),
        "labels": str(label_path),
        "scaling": "bytes/255" + (" + 2x2 mean pool" if downsample != "none" else ""),
        "subset_size": subset_size,
        "seed": seed,
    }
    n_feat = X.shape[1]
    return DatasetSplit(
        train_x=X,
        train_y=Y,
        test_x=np.zeros((0, n_feat)),
        test_y=np.zeros((0, MNIST_CLASSES)),
        provenance=prov,
    )


def _check_schema(schema):
    """Refuse a schema whose structure cannot scale a cell, or a ``map``
    value outside [0, 1], naming the column.

    The cells' own checks (value type, declared range, category) stay with
    the cells, so the first bad cell in file order is the one named.
    """
    if not isinstance(schema, dict):
        raise DataError(f"schema must be a JSON object, got {type(schema).__name__}")
    for column, spec in schema.items():
        if not isinstance(spec, dict):
            raise DataError(f"column {column!r}: spec must be a JSON object, got {spec!r}")
        kind = spec.get("kind")
        if kind not in ("range", "map"):
            raise DataError(f"column {column!r}: unknown schema kind {kind!r}")
        try:
            if kind == "range":
                float(spec["min"]), float(spec["max"])
            else:
                mapped = {key: float(v) for key, v in spec["values"].items()}
        except KeyError as exc:
            raise DataError(f"column {column!r}: {kind} spec has no {exc}") from exc
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"column {column!r}: malformed {kind} spec {spec!r}") from exc
        if kind == "map":
            for key, v in mapped.items():
                if not 0.0 <= v <= 1.0:  # NaN fails too
                    raise DataError(
                        f"column {column!r}: map value {v} of {key!r} is outside [0, 1]"
                    )


def _scale_cell(column, spec, value, line_no):
    if spec["kind"] == "range":
        try:
            v = float(value)
        except ValueError as exc:
            raise DataError(
                f"line {line_no}: column {column!r}: non-numeric value {value!r}"
            ) from exc
        lo, hi = float(spec["min"]), float(spec["max"])
        if not lo < hi:
            raise DataError(f"column {column!r}: declared range [{lo}, {hi}] is empty")
        if not lo <= v <= hi:
            raise DataError(
                f"line {line_no}: column {column!r}: value {v} outside declared "
                f"range [{lo}, {hi}]"
            )
        return (v - lo) / (hi - lo)
    mapping = spec["values"]  # a "map" spec, by _check_schema
    if value not in mapping:
        raise DataError(f"line {line_no}: column {column!r}: unknown category {value!r}")
    return float(mapping[value])


def _scale_cells(feature_cols, schema, rows, line_nos):
    """Scale cell by cell in file order, so the first bad cell raises."""
    return np.asarray(
        [
            [_scale_cell(c, schema[c], value, line_no) for c, value in zip(feature_cols, row)]
            for row, line_no in zip(rows, line_nos)
        ],
        dtype=np.float64,
    )


def _scale_columns(feature_cols, schema, columns):
    """The floats of :func:`_scale_cells`, one column at a time, from each
    column's stripped cells (a range column's may be floats already).

    Returns None where any cell or column spec would fail, so the caller can
    rerun the per-cell path to raise the first failure in file order.
    """
    n = len(columns[0])
    X = np.empty((n, len(feature_cols)))
    for j, (column, cells) in enumerate(zip(feature_cols, columns)):
        spec = schema[column]
        try:
            if spec["kind"] == "range":
                lo, hi = float(spec["min"]), float(spec["max"])
                if not isinstance(cells, np.ndarray):
                    cells = np.fromiter(map(float, cells), np.float64, n)
                # NaN fails both comparisons, as it does in _scale_cell
                if not lo < hi or not np.all((lo <= cells) & (cells <= hi)):
                    return None
                X[:, j] = (cells - lo) / (hi - lo)
            else:
                mapping = spec["values"]
                X[:, j] = np.fromiter((float(mapping[c]) for c in cells), np.float64, n)
        except (LookupError, ValueError):  # a cell _scale_cell refuses
            return None
    return X


def _read_rows(path, feature_cols, label_column, schema):
    """``(X, labels, dropped)`` of a CSV read record by record: rows with a
    missing value in a used column are dropped and counted, and the first
    bad cell in file order raises, naming its file line."""
    used = feature_cols + [label_column]
    rows, line_nos, labels, dropped = [], [], [], 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in used if c not in header]
        if missing:
            raise ParseError(f"{path}: missing columns {missing}")
        for rec in reader:
            cells = [rec[c] for c in used]
            if None in cells:
                dropped += 1
                continue
            cells = [c.strip() for c in cells]
            if "" in cells or "?" in cells:
                dropped += 1
                continue
            rows.append(cells[:-1])
            line_nos.append(reader.line_num)  # the file line the record ends on
            labels.append(cells[-1])
    if not rows:
        raise DataError(f"{path}: no usable rows (dropped {dropped})")
    X = _scale_columns(feature_cols, schema, list(zip(*rows)))
    if X is None:
        X = _scale_cells(feature_cols, schema, rows, line_nos)
    return X, labels, dropped


def _read_clean(path, feature_cols, label_column, schema):
    """``(X, labels)`` of a clean CSV, parsed by numpy's C reader, or None.

    Clean means :func:`_read_rows` would drop no row and refuse no cell, and
    no line ends in a bare ``\\r``; it then gives the same floats and labels,
    bit for bit. numpy's reader takes quotes as the ``csv`` module does,
    strips what ``float`` strips and skips empty lines; a record it cannot
    parse (too short, blank but whitespace, ``1_000``) makes the file unclean.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), [])
            text = fh.read()
        except (UnicodeDecodeError, csv.Error):
            return None
    where = {name: i for i, name in enumerate(header)}  # a repeated name's last, as DictReader
    used = feature_cols + [label_column]
    if any(c not in where for c in used) or not text.strip() or text.count("\r") != text.count("\r\n"):
        return None
    # _read_rows refuses a field longer than the csv module's limit; a quoted one may span lines
    if (len(text) if '"' in text else max(map(len, text.split("\n")))) > csv.field_size_limit():
        return None
    kinds = [np.float64 if schema[c]["kind"] == "range" else object for c in feature_cols]
    dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds + [object])])
    try:
        rec = np.loadtxt(
            io.StringIO(text), dtype=dtype, delimiter=",", comments=None,
            quotechar='"', usecols=[where[c] for c in used], ndmin=1,
        )
    except ValueError:
        return None
    # the map columns' and the labels' strings, stripped as _read_rows strips them
    cells = [rec[name] for name in dtype.names]
    cells = [[c.strip() for c in v.tolist()] if v.dtype == object else v for v in cells]
    if any("" in v or "?" in v for v in cells if isinstance(v, list)):
        return None  # a row _read_rows drops
    X = _scale_columns(feature_cols, schema, cells[:-1])
    return None if X is None else (X, cells[-1])


def load_csv(path, label_column, schema, classes=None):
    """Feature rows from a CSV with a header, scaled by a declared schema.

    ``schema`` maps feature column names to either
    ``{"kind": "range", "min": a, "max": b}`` (affine rescale of the
    declared range onto [0,1]) or ``{"kind": "map", "values": {...}}``
    (exact category strings to values in [0,1]). Rows with missing values
    ('' or '?') in used columns are dropped and counted in provenance.
    ``classes`` fixes the label order and may not repeat a class; by
    default the sorted distinct observed labels are used. The result has an
    empty test half. A schema of the wrong structure, or a ``map`` value
    outside [0, 1], raises ``DataError`` naming the column before any cell
    is read.

    A clean file (no dropped row, no bad cell; see :func:`_read_clean`) is
    parsed by numpy's C reader. Any other file is read record by record,
    and its first bad cell in file order raises ``DataError`` naming its
    line. Both give the same split and provenance, bit for bit.
    """
    _check_schema(schema)
    feature_cols = list(schema)
    if label_column in schema:
        raise DataError(f"label column {label_column!r} also appears in the schema")
    if not feature_cols:
        raise DataError("schema declares no feature columns")

    clean = _read_clean(path, feature_cols, label_column, schema)
    if clean is None:
        X, labels, dropped = _read_rows(path, feature_cols, label_column, schema)
    else:
        (X, labels), dropped = clean, 0
    variances = X.var(axis=0)
    flat = [feature_cols[i] for i in np.nonzero(variances == 0)[0]]
    if flat:
        raise DataError(f"zero variance in columns {flat}")

    if classes is None:
        classes = sorted(set(labels))
    classes = [str(c) for c in classes]
    repeated = sorted({c for c in classes if classes.count(c) > 1})
    if repeated:
        raise DataError(f"classes {repeated} repeated in declared classes {classes}")
    index = {c: i for i, c in enumerate(classes)}
    unknown = sorted(set(labels) - set(classes))
    if unknown:
        raise DataError(f"labels {unknown} not in declared classes {classes}")
    Y = _onehot([index[lab] for lab in labels], len(classes))

    prov = {
        "source": str(path),
        "label_column": label_column,
        "classes": classes,
        "dropped_rows": dropped,
        "scaling": "declared schema ranges",
    }
    return DatasetSplit(
        train_x=X,
        train_y=Y,
        test_x=np.zeros((0, X.shape[1])),
        test_y=np.zeros((0, len(classes))),
        provenance=prov,
    )




# The two cloud centers of :func:`make_blobs`, class 0 first.
BLOB_CENTERS = ((-2.0, 0.0), (2.0, 0.0))


def make_blobs(n_samples, std=1.0, seed=0):
    """Two isotropic Gaussian clouds in the plane, centered on
    :data:`BLOB_CENTERS` and min-max scaled to [0,1]^2.

    Half the samples (rounding down) belong to class 0, the rest to class 1.
    """
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    if n_samples < 2:
        raise DataError(f"need at least 2 samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    n0 = n_samples // 2
    counts = (n0, n_samples - n0)
    points, labels = [], []
    for cls, (center, count) in enumerate(zip(BLOB_CENTERS, counts)):
        points.append(rng.normal(loc=center, scale=std, size=(count, 2)))
        labels.extend([cls] * count)
    X = minmax_scale(np.vstack(points))
    Y = _onehot(np.asarray(labels), 2)
    prov = {
        "source": "synthetic blobs",
        "centers": [list(map(float, c)) for c in BLOB_CENTERS],
        "std": float(std),
        "seed": seed,
        "scaling": "min-max to [0,1]^2",
    }
    return DatasetSplit(
        train_x=X,
        train_y=Y,
        test_x=np.zeros((0, 2)),
        test_y=np.zeros((0, 2)),
        provenance=prov,
    )


def split(dataset, test_fraction, seed=0):
    """Stratified train/test split of an unsplit DatasetSplit.

    Per class, round(test_fraction * count) samples move to the test half
    (always leaving at least one training sample). Deterministic by seed.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if dataset.test_x.shape[0]:
        raise DataError("dataset already has a test half; refusing to re-split")
    labels = np.argmax(dataset.train_y, axis=1)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(dataset.n_classes):
        members = np.nonzero(labels == cls)[0]
        if len(members) == 0:
            continue
        if len(members) < 2:
            raise DataError(f"class {cls} has fewer than 2 samples; cannot split")
        order = rng.permutation(members)
        n_test = int(round(test_fraction * len(members)))
        n_test = min(max(n_test, 0), len(members) - 1)
        test_idx.extend(order[:n_test])
        train_idx.extend(order[n_test:])
    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    prov = dict(dataset.provenance)
    prov["split"] = {"test_fraction": test_fraction, "seed": seed, "stratified": True}
    return DatasetSplit(
        train_x=dataset.train_x[train_idx],
        train_y=dataset.train_y[train_idx],
        test_x=dataset.train_x[test_idx],
        test_y=dataset.train_y[test_idx],
        provenance=prov,
    )
