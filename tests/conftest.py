from concurrent.futures import ThreadPoolExecutor

import pytest

from bayeshield import estimator


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pass run from here on, one per pass in
    call order: each pass makes its own pool, one worker included."""
    sizes = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", RecordedPool)
    return sizes
