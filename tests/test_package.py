"""Tests for the package's public surface."""

import bmps


def test_every_exported_name_resolves():
    missing = [name for name in bmps.__all__ if not hasattr(bmps, name)]
    assert missing == []
