import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list that collects the positional arguments of each call."""

    def install(module, name):
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` once and returns the
    ``tracemalloc`` peak of the call, in bytes above what was allocated before
    it; numpy reports its array buffers to ``tracemalloc``."""

    def measure(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure


def dense_ladder(dim: int) -> np.ndarray:
    """Truncated annihilation operator, the building block of the expm oracles."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1)
