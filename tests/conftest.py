"""Settings and helpers shared by every test module."""

import os
import tracemalloc

import pytest

# One BLAS thread unless the caller chose otherwise. The tests multiply
# small matrices, where a second BLAS thread only adds waiting: on 2 vCPUs
# with the other one busy, a B=64 batched step took 293 ms with two
# threads against 27 ms with one. numpy reads these variables when it is
# first imported, which happens after pytest loads this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _traced(fn, *args, **kwargs):
    """fn(*args, **kwargs) under tracemalloc: its result, the bytes still
    traced when it returns, and the peak of traced bytes during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture
def traced_memory():
    """The `_traced` helper: traced_memory(fn, *args) -> (result, retained, peak)."""
    return _traced
