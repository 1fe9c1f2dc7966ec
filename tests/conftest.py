import pytest

from mdplab import core


@pytest.fixture
def chunk_workers(monkeypatch):
    """`set(count)` fixes map_chunks' worker count for one test.

    A count above the host's CPUs still runs the pool: the test gets a fresh
    pool of that many threads, shut down when the test ends.
    """

    def set_workers(count):
        monkeypatch.setattr(core, "chunk_workers", lambda: count)
        monkeypatch.setattr(core, "_pool", None)

    yield set_workers
    if core._pool is not None:  # still the test's own pool: monkeypatch undoes later
        core._pool.shutdown(wait=False)
