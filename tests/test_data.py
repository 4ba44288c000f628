"""Tests for dataset loading, preprocessing, synthesis, and splitting."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmps import data
from bmps.errors import DataError, ParseError


def write_idx_images(path, images):
    """Independent IDX writer: header by hand, bytes appended directly."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())


def mnist_pair(tmp_path, images, labels):
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    write_idx_images(img, images)
    write_idx_labels(lab, labels)
    return img, lab


class TestIdxLoading:
    def test_parses_images_and_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        img, lab = mnist_pair(tmp_path, images, labels)
        ds = data.load_mnist(img, lab)
        assert ds.train_x.shape == (10, 784)
        assert ds.train_y.shape == (10, 10)
        assert np.array_equal(np.argmax(ds.train_y, axis=1), labels)
        assert np.allclose(ds.train_x, images.reshape(10, -1) / 255.0)
        assert ds.test_x.shape == (0, 784)

    def test_all_zero_image_row(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        img, lab = mnist_pair(tmp_path, images, [0, 1, 2])
        ds = data.load_mnist(img, lab)
        assert np.all(ds.train_x == 0.0)

    def test_constant_image_pools_to_known_value(self, tmp_path):
        images = np.full((2, 28, 28), 128, dtype=np.uint8)
        img, lab = mnist_pair(tmp_path, images, [3, 7])
        ds = data.load_mnist(img, lab, downsample="pool_to_14x14")
        assert ds.train_x.shape == (2, 196)
        assert np.allclose(ds.train_x, 128 / 255)

    def test_pooling_averages_blocks(self, tmp_path):
        # one 2x2 block of (0, 255, 255, 0) must pool to 127.5/255
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        images[0, 0, 1] = 255
        images[0, 1, 0] = 255
        img, lab = mnist_pair(tmp_path, images, [0])
        ds = data.load_mnist(img, lab, downsample="pool_to_14x14")
        assert ds.train_x[0, 0] == pytest.approx(127.5 / 255)
        assert np.all(ds.train_x[0, 1:] == 0)

    def test_subset_is_seeded_and_sorted(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
        labels = (np.arange(30) % 10).astype(np.uint8)
        img, lab = mnist_pair(tmp_path, images, labels)
        a = data.load_mnist(img, lab, subset_size=12, seed=5)
        b = data.load_mnist(img, lab, subset_size=12, seed=5)
        c = data.load_mnist(img, lab, subset_size=12, seed=6)
        assert np.array_equal(a.train_x, b.train_x)
        assert not np.array_equal(a.train_x, c.train_x)
        assert a.train_x.shape == (12, 784)

    def test_onehot_width_always_ten(self, tmp_path):
        images = np.zeros((4, 28, 28), dtype=np.uint8)
        img, lab = mnist_pair(tmp_path, images, [2, 2, 5, 5])
        ds = data.load_mnist(img, lab)
        assert ds.train_y.shape == (4, 10)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", 0x12345678, 3) + b"\0\0\0")
        lab = tmp_path / "labels.idx"
        write_idx_labels(lab, [0, 1, 2])
        with pytest.raises(ParseError, match="magic"):
            data.load_mnist(path, lab)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\0" * 100)
        lab = tmp_path / "labels.idx"
        write_idx_labels(lab, [0, 1])
        with pytest.raises(ParseError, match="offset"):
            data.load_mnist(path, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = mnist_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8), [0, 1, 2])
        lab = tmp_path / "two.idx"
        write_idx_labels(lab, [0, 1])
        with pytest.raises(DataError, match="images but"):
            data.load_mnist(img, lab)

    def test_bad_subset_and_mode(self, tmp_path):
        img, lab = mnist_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8), [0, 1, 2])
        with pytest.raises(DataError):
            data.load_mnist(img, lab, subset_size=4)
        with pytest.raises(ValueError):
            data.load_mnist(img, lab, downsample="nearest")


CSV_SCHEMA = {
    "clump": {"kind": "range", "min": 1, "max": 10},
    "size": {"kind": "range", "min": 1, "max": 10},
    "shade": {
        "kind": "map",
        "values": {"-1": 0.0, "0": 0.5, "1": 1.0},
    },
}


def write_csv(path, rows, header="clump,size,shade,outcome"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestCsvLoading:
    def test_scales_by_declared_ranges(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,10,-1,benign", "10,1,1,malignant", "5,5,0,benign"])
        ds = data.load_csv(path, "outcome", CSV_SCHEMA)
        assert ds.train_x.shape == (3, 3)
        assert ds.train_x[0] == pytest.approx([0.0, 1.0, 0.0])
        assert ds.train_x[1] == pytest.approx([1.0, 0.0, 1.0])
        assert ds.train_x[2] == pytest.approx([4 / 9, 4 / 9, 0.5])
        # sorted distinct labels: benign=0, malignant=1
        assert np.array_equal(np.argmax(ds.train_y, axis=1), [0, 1, 0])

    def test_explicit_class_order(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,yes", "2,1,1,no"])
        ds = data.load_csv(path, "outcome", CSV_SCHEMA, classes=["yes", "no"])
        assert np.array_equal(np.argmax(ds.train_y, axis=1), [0, 1])

    def test_missing_values_dropped_and_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", ",2,1,b", "3,?,0,a", "4,5,1,b"])
        ds = data.load_csv(path, "outcome", CSV_SCHEMA)
        assert ds.train_x.shape[0] == 2
        assert ds.provenance["dropped_rows"] == 2

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", "2,3,7,b"])
        with pytest.raises(DataError, match="unknown category"):
            data.load_csv(path, "outcome", CSV_SCHEMA)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        for bad_row in ("11,3,0,b", "nan,3,0,b"):
            write_csv(path, ["1,2,0,a", bad_row])
            with pytest.raises(DataError, match="line 3: column 'clump'.*outside declared range"):
                data.load_csv(path, "outcome", CSV_SCHEMA)

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,2,0,a", "", "11,3,0,b"],  # a blank line before the bad row
            ['1,2,0,"a', 'b"', "11,3,0,b"],  # a quoted label spanning two lines
        ],
    )
    def test_error_names_the_file_line(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        write_csv(path, rows)
        with pytest.raises(DataError, match="line 4: column 'clump'.*outside declared range"):
            data.load_csv(path, "outcome", CSV_SCHEMA)

    def test_zero_variance_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["5,2,0,a", "5,3,1,b"])
        with pytest.raises(DataError, match="zero variance.*clump"):
            data.load_csv(path, "outcome", CSV_SCHEMA)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,a"], header="clump,size,outcome")
        with pytest.raises(ParseError, match="missing columns"):
            data.load_csv(path, "outcome", CSV_SCHEMA)

    def test_label_in_schema_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a"])
        schema = dict(CSV_SCHEMA, outcome={"kind": "range", "min": 0, "max": 1})
        with pytest.raises(DataError, match="label column"):
            data.load_csv(path, "outcome", schema)

    def test_repeated_class_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", "2,3,1,b"])
        with pytest.raises(DataError, match=re.escape("classes ['a'] repeated")):
            data.load_csv(path, "outcome", CSV_SCHEMA, classes=["a", "a", "b"])

    def test_unknown_label_value_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", "2,3,1,c"])
        with pytest.raises(DataError, match="not in declared classes"):
            data.load_csv(path, "outcome", CSV_SCHEMA, classes=["a", "b"])

    def test_column_path_is_bitwise_the_per_cell_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        rows = []
        for i in range(300):
            clump, size = rng.uniform(1, 10, size=2)
            shade = rng.choice(["-1", "0", "1"])
            cells = [repr(float(clump)), f" {size:.6e} ", shade, "ab"[i % 2]]
            if i % 37 == 5:
                cells[i % 3] = "?"
            if i % 41 == 7:
                cells[(i + 1) % 4] = ""
            rows.append(",".join(cells))
            if i % 53 == 11:
                rows.append("")
        rows += ["1,10,-1,a", "10,1,1,b"]
        path = tmp_path / "d.csv"
        write_csv(path, rows)

        def no_fallback(*args):
            raise AssertionError("the column path fell back to the per-cell path")

        monkeypatch.setattr(data, "_scale_cells", no_fallback)
        fast = data.load_csv(path, "outcome", CSV_SCHEMA)
        monkeypatch.undo()
        monkeypatch.setattr(data, "_scale_columns", lambda *args: None)
        slow = data.load_csv(path, "outcome", CSV_SCHEMA)
        assert fast.train_x.tobytes() == slow.train_x.tobytes()
        assert np.array_equal(fast.train_y, slow.train_y)
        assert fast.provenance == slow.provenance
        assert fast.provenance["dropped_rows"] == 8 + 8
        assert fast.provenance["classes"] == ["a", "b"]

    @pytest.mark.parametrize(
        "bad_rows, message",
        [
            # the earlier line wins even though its bad cell is in a later column
            (["2,3,7,a", "11,3,0,b"], "line 3: column 'shade': unknown category '7'"),
            (["2,x,0,a", "2,3,9,b"], "line 3: column 'size': non-numeric value 'x'"),
            (["2,3,0,a", "2,3,9,b", "nan,3,0,a"], "line 4: column 'shade'"),
        ],
    )
    def test_first_bad_cell_in_file_order_wins(self, tmp_path, bad_rows, message):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a"] + bad_rows)
        with pytest.raises(DataError, match=message):
            data.load_csv(path, "outcome", CSV_SCHEMA)

    def test_empty_declared_range_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", "2,3,1,b"])
        schema = dict(CSV_SCHEMA, size={"kind": "range", "min": 3, "max": 3})
        with pytest.raises(DataError, match=r"column 'size': declared range \[3.0, 3.0\] is empty"):
            data.load_csv(path, "outcome", schema)


    @pytest.mark.parametrize(
        "column, spec, message",
        [
            ("size", "range", "column 'size': spec must be a JSON object"),
            ("size", {"kind": "range", "max": 10}, "column 'size': range spec has no 'min'"),
            ("shade", {"kind": "map"}, "column 'shade': map spec has no 'values'"),
            ("shade", {"kind": "map", "values": [0, 1]}, "column 'shade': malformed map spec"),
            ("size", {"kind": "range", "min": [1], "max": 10}, "column 'size': malformed range"),
            ("size", {"kind": "log"}, "column 'size': unknown schema kind 'log'"),
            ("shade", {"kind": "map", "values": {"-1": 0, "1": 5}},
             "column 'shade': map value 5.0 of '1' is outside [0, 1]"),
            ("shade", {"kind": "map", "values": {"-1": -0.5, "1": 1}},
             "column 'shade': map value -0.5 of '-1' is outside [0, 1]"),
            ("shade", {"kind": "map", "values": {"-1": 0, "1": float("nan")}},
             "column 'shade': map value nan of '1' is outside [0, 1]"),
            ("shade", {"kind": "map", "values": {"-1": "inf", "1": 1}},
             "column 'shade': map value inf of '-1' is outside [0, 1]"),
        ],
    )
    def test_malformed_spec_rejected_before_any_cell(
        self, tmp_path, monkeypatch, column, spec, message
    ):
        path = tmp_path / "d.csv"
        write_csv(path, ["x,2,0,a", "2,3,1,b"])  # a bad first cell loses to the schema
        monkeypatch.setattr(data, "_scale_columns", lambda *args: pytest.fail("scaled a cell"))
        with pytest.raises(DataError, match=re.escape(message)):
            data.load_csv(path, "outcome", dict(CSV_SCHEMA, **{column: spec}))

    def test_schema_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["1,2,0,a", "2,3,1,b"])
        with pytest.raises(DataError, match="schema must be a JSON object, got list"):
            data.load_csv(path, "outcome", ["clump", "size", "shade"])


class TestBlobs:
    def test_counts_and_range(self):
        ds = data.make_blobs(200, std=0.5, seed=0)
        counts = ds.train_y.sum(axis=0)
        assert counts.tolist() == [100.0, 100.0]
        assert ds.train_x.min() >= 0 and ds.train_x.max() <= 1
        assert ds.train_x.min(axis=0) == pytest.approx([0.0, 0.0])
        assert ds.train_x.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_odd_count_rounds_down_class0(self):
        ds = data.make_blobs(7, seed=1)
        assert ds.train_y.sum(axis=0).tolist() == [3.0, 4.0]

    def test_seed_determinism(self):
        a = data.make_blobs(50, std=0.3, seed=9)
        b = data.make_blobs(50, std=0.3, seed=9)
        c = data.make_blobs(50, std=0.3, seed=10)
        assert np.array_equal(a.train_x, b.train_x)
        assert not np.array_equal(a.train_x, c.train_x)

    def test_separated_blobs_are_linearly_separable(self):
        # a spread tiny against the centers' distance: a midpoint threshold
        # on x1 separates
        ds = data.make_blobs(100, std=0.2, seed=2)
        labels = np.argmax(ds.train_y, axis=1)
        threshold_pred = (ds.train_x[:, 0] > 0.5).astype(int)
        assert np.mean(threshold_pred == labels) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            data.make_blobs(10, std=0.0)
        with pytest.raises(DataError):
            data.make_blobs(1)


class TestSplit:
    def test_stratified_counts(self):
        ds = data.make_blobs(200, seed=3)
        out = data.split(ds, 0.25, seed=0)
        assert out.train_x.shape[0] == 150
        assert out.test_x.shape[0] == 50
        assert out.train_y.sum(axis=0).tolist() == [75.0, 75.0]
        assert out.test_y.sum(axis=0).tolist() == [25.0, 25.0]

    def test_half_split_stays_balanced(self):
        ds = data.make_blobs(100, seed=4)
        out = data.split(ds, 0.5, seed=1)
        assert abs(out.train_y.sum(axis=0)[0] - out.train_y.sum(axis=0)[1]) <= 1
        assert abs(out.test_y.sum(axis=0)[0] - out.test_y.sum(axis=0)[1]) <= 1

    def test_deterministic(self):
        ds = data.make_blobs(60, seed=5)
        a = data.split(ds, 0.3, seed=2)
        b = data.split(ds, 0.3, seed=2)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_x, b.test_x)

    def test_no_row_lost_or_duplicated(self):
        ds = data.make_blobs(40, seed=6)
        out = data.split(ds, 0.25, seed=0)
        combined = np.vstack([out.train_x, out.test_x])
        assert combined.shape[0] == 40
        original = {tuple(row) for row in ds.train_x}
        assert {tuple(row) for row in combined} == original

    def test_rejects_resplit_and_tiny_class(self):
        ds = data.make_blobs(40, seed=7)
        once = data.split(ds, 0.25)
        with pytest.raises(DataError, match="already has a test half"):
            data.split(once, 0.25)
        tiny = data.DatasetSplit(
            train_x=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
            train_y=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros((0, 2)),
        )
        with pytest.raises(DataError, match="fewer than 2"):
            data.split(tiny, 0.5)
        with pytest.raises(ValueError):
            data.split(ds, 0.0)

    def test_always_leaves_a_training_sample(self):
        ds = data.DatasetSplit(
            train_x=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),
            train_y=np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros((0, 2)),
        )
        out = data.split(ds, 0.9, seed=0)
        assert np.all(out.train_y.sum(axis=0) >= 1)


class TestDatasetSplit:
    def test_validation(self):
        ok_x = np.array([[0.1, 0.9]])
        ok_y = np.array([[1.0, 0.0]])
        empty_x, empty_y = np.zeros((0, 2)), np.zeros((0, 2))
        with pytest.raises(DataError, match="outside"):
            data.DatasetSplit(np.array([[1.5, 0.0]]), ok_y, empty_x, empty_y)
        with pytest.raises(DataError, match="outside"):
            data.DatasetSplit(np.array([[np.nan, 0.0]]), ok_y, empty_x, empty_y)
        with pytest.raises(DataError, match="one-hot"):
            data.DatasetSplit(ok_x, np.array([[0.5, 0.5]]), empty_x, empty_y)
        with pytest.raises(DataError, match="row counts"):
            data.DatasetSplit(ok_x, np.vstack([ok_y, ok_y]), empty_x, empty_y)
        with pytest.raises(DataError, match="features"):
            data.DatasetSplit(ok_x, ok_y, np.array([[0.1, 0.2, 0.3]]), ok_y)

    def test_statistics(self):
        x = np.array([[0.0, 0.5], [1.0, 0.5]])
        ds = data.DatasetSplit(
            train_x=x,
            train_y=np.array([[1.0, 0.0], [0.0, 1.0]]),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros((0, 2)),
        )
        assert ds.feature_variance == pytest.approx([0.25, 0.0])
        # feature 0: mean of (0+1)/2 and (1+0)/2 -> 0.5; feature 1: 0.25
        assert ds.kernel_second_moment == pytest.approx([0.5, 0.25])
        assert ds.init_var_x() == pytest.approx(0.375)

    def test_constant_feature_keeps_usable_init_stat(self):
        x = np.hstack([np.zeros((5, 1)), np.linspace(0, 1, 5)[:, None]])
        ds = data.DatasetSplit(
            train_x=x,
            train_y=np.tile([1.0, 0.0], (5, 1)),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros((0, 2)),
        )
        assert ds.feature_variance[0] == 0.0
        assert ds.kernel_second_moment[0] == pytest.approx(0.5)
        assert ds.init_var_x() > 0.3

    def test_with_test_pairs_two_loads(self):
        a = data.make_blobs(20, seed=10)
        b = data.make_blobs(10, seed=11)
        paired = a.with_test(b)
        assert np.array_equal(paired.train_x, a.train_x)
        assert np.array_equal(paired.test_x, b.train_x)
        with pytest.raises(DataError):
            paired.with_test(b)

    def test_data_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BMPS_DATA_DIR", str(tmp_path / "cache"))
        assert data.data_dir() == tmp_path / "cache"
        monkeypatch.delenv("BMPS_DATA_DIR")
        assert str(data.data_dir()) == "data"


class TestMinMaxScale:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_idempotent_and_bounded(self, X):
        once = data.minmax_scale(X)
        twice = data.minmax_scale(once)
        assert np.all(once >= 0) and np.all(once <= 1)
        assert np.allclose(once, twice, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = data.minmax_scale(X)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1] == pytest.approx([0.0, 1.0])
