import os

import pytest


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
