"""Peak-memory measurement for the memory gates."""

import tracemalloc


def traced_peak(fn):
    """``(peak, value)``: the most bytes ``fn()`` held at once under
    tracemalloc beyond what was held when it started, and what it returned."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = fn()
        return tracemalloc.get_traced_memory()[1] - start, value
    finally:
        tracemalloc.stop()
