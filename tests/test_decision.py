"""Tests for argmax and expected-utility label decisions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmps.decision import UtilityMatrix, classify_map, classify_utility
from bmps.errors import DataError, ParseError, ShapeError


def batches(max_len=6, max_rows=8):
    """(B, L) matrices with one distribution per row."""
    return (
        st.integers(1, max_len)
        .flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.integers(1, max_rows), st.just(n)),
                elements=st.floats(0.001, 1.0, allow_nan=False),
            )
        )
        .map(lambda m: m / m.sum(axis=1, keepdims=True))
    )


def with_bad_row(probs, index):
    """Copy of ``probs`` whose row ``index % B`` sums to 2."""
    broken = probs.copy()
    broken[index % len(probs)] *= 2.0
    return broken


class TestClassifyMap:
    def test_picks_mode(self):
        assert classify_map([0.1, 0.7, 0.2]) == 1

    def test_tie_breaks_low(self):
        assert classify_map([0.5, 0.5]) == 0
        assert classify_map([0.25, 0.25, 0.25, 0.25]) == 0
        assert classify_map([[0.5, 0.5], [0.25, 0.75]]).tolist() == [0, 1]

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(DataError):
            classify_map([])
        with pytest.raises(DataError):
            classify_map([0.9, 0.3])
        with pytest.raises(DataError):
            classify_map([-0.2, 1.2])
        with pytest.raises(DataError):
            classify_map([np.nan, 1.0])

    @given(batches(), st.integers(0, 7))
    def test_result_is_always_valid_index(self, probs, bad):
        labels = classify_map(probs)
        assert labels.shape == (len(probs),)
        for row, label in zip(probs, labels):
            assert classify_map(row) == label
            assert isinstance(classify_map(row), int)
            assert 0 <= label < len(row)
            assert row[label] == row.max()
        with pytest.raises(DataError):
            classify_map(with_bad_row(probs, bad))


class TestClassifyUtility:
    def test_identity_utility_example(self):
        assert classify_utility([0.3, 0.7], UtilityMatrix.identity(2)) == 1

    def test_asymmetric_example_shifts_threshold(self):
        # Declaring a false negative ten times worse than a false positive
        # flips an 85/15 call: expected utilities are -1.5 vs -0.85.
        util = UtilityMatrix([[0.0, -10.0], [-1.0, 0.0]])
        assert classify_utility([0.85, 0.15], util) == 1
        assert classify_map([0.85, 0.15]) == 0

    def test_constant_utility_picks_lowest_index(self):
        util = UtilityMatrix(np.full((3, 3), 2.5))
        assert classify_utility([0.2, 0.3, 0.5], util) == 0
        assert classify_utility([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], util).tolist() == [0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            classify_utility([0.5, 0.5], UtilityMatrix.identity(3))

    @given(batches(), st.integers(0, 7))
    def test_identity_utility_equals_map(self, probs, bad):
        util = UtilityMatrix.identity(probs.shape[1])
        assert np.array_equal(classify_utility(probs, util), classify_map(probs))
        with pytest.raises(DataError):
            classify_utility(with_bad_row(probs, bad), util)

    @given(
        batches(max_len=4),
        st.floats(-5.0, 5.0, allow_nan=False),
        st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_positive_affine_invariance(self, probs, shift, scale):
        rng = np.random.default_rng(probs.shape[1])
        base = rng.normal(size=(probs.shape[1], probs.shape[1]))
        util = UtilityMatrix(base)
        moved = UtilityMatrix(scale * base + shift)
        labels = classify_utility(probs, util)
        assert labels.tolist() == [classify_utility(row, util) for row in probs]
        assert np.array_equal(labels, classify_utility(probs, moved))


class TestUtilityMatrix:
    def test_validation(self):
        with pytest.raises(ShapeError):
            UtilityMatrix([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            UtilityMatrix(np.zeros((0, 0)))
        with pytest.raises(DataError):
            UtilityMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_from_csv(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("0,-10\n-1,0\n")
        util = UtilityMatrix.from_csv(path)
        assert np.array_equal(util.values, [[0.0, -10.0], [-1.0, 0.0]])

    def test_from_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("1,0\n\n0,1\n")
        assert UtilityMatrix.from_csv(path).n_labels == 2

    def test_from_csv_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            UtilityMatrix.from_csv(bad)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,0\n0,1,2\n")
        with pytest.raises(ParseError, match="ragged"):
            UtilityMatrix.from_csv(ragged)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="no rows"):
            UtilityMatrix.from_csv(empty)
        rect = tmp_path / "rect.csv"
        rect.write_text("1,0,0\n0,1,0\n")
        with pytest.raises(ShapeError):
            UtilityMatrix.from_csv(rect)
