"""Fixtures shared by the test modules."""

import pytest

from bmps import mps


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Fail a test after which a loaded OpenBLAS runs a different thread
    count than before it: a pooled pass must restore what it set."""
    before = mps._blas_counts()
    yield
    after = mps._blas_counts()
    changed = {p: (n, after[p]) for p, n in before.items() if after.get(p, n) != n}
    assert not changed, f"OpenBLAS thread counts changed (before, after): {changed}"


@pytest.fixture
def blas_at_3():
    """Every loaded OpenBLAS set to 3 threads, a count no pool uses, and
    restored after the test; skips where none is found."""
    setters = mps._openblas()
    if not setters:
        pytest.skip("no OpenBLAS with a thread setter is loaded")
    saved = {path: setter(3) for path, setter in setters.items()}
    yield {path: 3 for path in setters}
    for path, count in saved.items():
        setters[path](count)
