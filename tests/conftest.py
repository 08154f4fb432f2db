import os

import pytest

from attrakit import _forked


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process during the test.

    On teardown, every forked process must have been reaped.
    """
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def openblas():
    """(get, set) of numpy's OpenBLAS thread count, put back after the test; skips without one."""
    threads = _forked._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is no OpenBLAS whose threads can be set")
    get, set_ = threads
    before = get()
    yield threads
    set_(before)
