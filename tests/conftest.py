"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def in_process_pool(monkeypatch):
    """The ``(max_workers, initializer, initargs)`` of every process pool the
    test starts; each pool maps its tasks in this process instead, so no
    worker is started."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools
