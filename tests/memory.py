"""Peak traced allocation of one call, for the memory regression tests."""

import tracemalloc


def peak_bytes(fn, *args, **kwargs):
    """Call fn(*args, **kwargs) under tracemalloc; return (peak bytes, result).

    The peak counts only what the call allocates through Python's and
    numpy's allocators, measured from the call's start.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result
