import os
import subprocess
import sys
from pathlib import Path

import pytest

from attrakit import _forked

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, unset=(), **kwargs):
    """Runs this interpreter on args with PYTHONPATH set to src/; the completed process.

    Output is captured as text. The environment is this process's, less the
    variables named in `unset`; kwargs go to subprocess.run.
    """
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


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


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Fails a test that leaves numpy's OpenBLAS on another thread count than it found.

    Nothing is checked where numpy's BLAS is no OpenBLAS whose threads can be set.
    """
    threads = _forked._openblas_threads()
    before = threads and threads[0]()
    yield
    if threads is not None:
        after = threads[0]()
        threads[1](before)  # so that no later test starts from the wrong count
        assert after == before, f"the test left OpenBLAS on {after} threads, not {before}"


@pytest.fixture
def openblas(blas_threads_kept):
    """(get, set) of numpy's OpenBLAS thread count, put back after the test; skips without one.

    It puts the count back before blas_threads_kept checks it.
    """
    threads = _forked._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is no OpenBLAS whose threads can be set")
    get, set_ = threads
    before = get()
    yield threads
    set_(before)
