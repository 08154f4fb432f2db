import ast
import errno
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attrakit import _forked


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that a Child forks on a one-CPU machine too."""
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 2)


def test_usable_cpus_is_one_without_an_affinity_call(monkeypatch):
    assert _forked.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _forked.usable_cpus() == 1


@pytest.mark.parametrize("cpus, count, least, cuts", [
    (1, 100, 10, [0, 100]),
    (2, 19, 10, [0, 19]),
    (2, 20, 10, [0, 10, 20]),
    (3, 29, 10, [0, 14, 29]),
    (3, 30, 10, [0, 10, 20, 30]),
    (4, 0, 10, [0, 0]),
    (3, 1001, 256, [0, 333, 667, 1001]),
])
def test_range_cuts(monkeypatch, cpus, count, least, cuts):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    assert _forked.range_cuts(count, least) == cuts


def write_range(lo, hi, out):
    out.write(b"".join(b"%d;" % i for i in range(lo, hi)))


def serial(count):
    return b"head;" + b"".join(b"%d;" % i for i in range(count))


def run_into(tmp_path, sink, work, cuts):
    """Run work over cuts after a head into a BytesIO or a binary file; return the bytes."""
    parts = tmp_path / "parts"
    parts.mkdir()
    if sink == "bytesio":
        out = io.BytesIO()
        out.write(b"head;")
        _forked.run_in_ranges(work, cuts, out, parts)
        got = out.getvalue()
    else:
        with open(tmp_path / "out", "wb") as out:
            out.write(b"head;")  # still buffered when the children fork
            _forked.run_in_ranges(work, cuts, out, parts)
        got = (tmp_path / "out").read_bytes()
    assert os.listdir(parts) == []
    return got


@pytest.mark.parametrize("cuts", [[0, 4, 9], [0, 3, 7, 12], [0, 5, 5, 9], [0, 0, 6]])
@pytest.mark.parametrize("sink", ["bytesio", "file"])
def test_run_in_ranges_joins_the_parts_in_range_order(tmp_path, forks, two_cpus, sink,
                                                      cuts):
    assert run_into(tmp_path, sink, write_range, cuts) == serial(cuts[-1])
    assert len(forks) == len(cuts) - 2


@pytest.mark.parametrize("sink", ["bytesio", "file"])
def test_run_in_ranges_runs_a_failed_range_again_here_in_its_place(tmp_path, forks, two_cpus,
                                                                   sink):
    parent = os.getpid()
    ran_here = []

    def work(lo, hi, out):
        if os.getpid() == parent:
            ran_here.append(lo)
        elif lo in (2, 7):
            raise RuntimeError("this range fails in a forked process")
        write_range(lo, hi, out)
    assert run_into(tmp_path, sink, work, [0, 2, 4, 7, 9]) == serial(9)
    assert len(forks) == 3
    assert ran_here == [0, 2, 7]


def test_run_in_ranges_with_one_range_forks_nothing(tmp_path, forks):
    pids = []

    def work(lo, hi, out):
        pids.append(os.getpid())
        write_range(lo, hi, out)
    assert run_into(tmp_path, "bytesio", work, [0, 6]) == serial(6)
    assert forks == []
    assert pids == [os.getpid()]


def test_run_in_ranges_reaps_every_child_when_its_own_range_fails(tmp_path, forks, two_cpus):
    parent = os.getpid()

    def work(lo, hi, out):
        if os.getpid() == parent:
            raise RuntimeError("the first range fails")
        write_range(lo, hi, out)
    with pytest.raises(RuntimeError, match="the first range fails"):
        _forked.run_in_ranges(work, [0, 3, 6, 9], io.BytesIO(), tmp_path)
    assert len(forks) == 2
    assert os.listdir(tmp_path) == []


def test_os_fork_has_one_call_site_under_src():
    sites = []
    package = Path(_forked.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("fork", "forkpty"):
                    sites.append(path.relative_to(package.parent).as_posix())
    assert sites == ["attrakit/_forked.py"]


def test_only_forked_checks_the_cpus_or_a_broken_pipe():
    # the fork policy, and what a child that is gone means, live in one module
    sites = set()
    package = Path(_forked.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("usable_cpus", "BrokenPipeError"):
                sites.add((path.relative_to(package.parent).as_posix(), name))
    assert sites == {("attrakit/_forked.py", "usable_cpus"),
                     ("attrakit/_forked.py", "BrokenPipeError")}


def read_all(src, out):
    while data := src.read(3):
        out.write(data.upper())


def test_fed_child_formats_what_it_is_sent_until_the_join(tmp_path, forks, two_cpus):
    sink = io.BytesIO()
    with _forked.Child(read_all, tmp_path, fed=True) as child:
        for chunk in (b"abc", b"defg", b"h"):
            child.feed.write(chunk)
            child.feed.flush()
        assert child.join(sink)
        assert child.feed is None
    assert sink.getvalue() == b"ABCDEFGH"
    assert len(forks) == 1
    assert os.listdir(tmp_path) == [] and _forked._feeds == set()


def test_fed_child_reads_eof_while_a_later_child_is_alive(tmp_path, forks, two_cpus):
    # the later child closes the first one's feed too, or the first would
    # wait for it forever and the join would hang
    def alarm(signum, frame):
        raise TimeoutError("the join hung")
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(20)
    try:
        first_sink, later_sink = io.BytesIO(), io.BytesIO()
        with _forked.Child(read_all, tmp_path, fed=True) as first:
            first.feed.write(b"first")
            with _forked.Child(read_all, tmp_path, fed=True) as later:
                later.feed.write(b"later")
                assert first.join(first_sink)
                assert later.join(later_sink)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (first_sink.getvalue(), later_sink.getvalue()) == (b"FIRST", b"LATER")
    assert len(forks) == 2


def test_child_that_fails_is_reaped_and_its_part_not_copied(tmp_path, forks, two_cpus):
    def fail(src, out):
        out.write(b"partial")
        out.flush()
        raise RuntimeError("the child fails at once")
    sink = io.BytesIO()
    with _forked.Child(fail, tmp_path, fed=True) as child:
        with pytest.raises(BrokenPipeError):
            # more than a feed's pipe holds
            for _ in range(2 * _forked._FEED_PIPE_BYTES // 4096):
                child.feed.write(b"x" * 4096)
                child.feed.flush()
        assert not child.join(sink)
    assert sink.getvalue() == b""
    assert os.listdir(tmp_path) == []


def cannot_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("sink", ["bytesio", "file"])
def test_run_in_ranges_runs_a_range_that_cannot_fork_here_in_its_place(tmp_path, monkeypatch,
                                                                        two_cpus, sink):
    monkeypatch.setattr(os, "fork", cannot_fork)
    ran_here = []

    def work(lo, hi, out):
        ran_here.append(lo)
        write_range(lo, hi, out)
    fds = open_fds()
    assert run_into(tmp_path, sink, work, [0, 2, 4, 7, 9]) == serial(9)
    assert ran_here == [0, 2, 4, 7]
    assert open_fds() == fds


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_fed_child_that_cannot_fork_has_no_feed_and_a_join_that_fails(tmp_path, monkeypatch,
                                                                       two_cpus):
    monkeypatch.setattr(os, "fork", cannot_fork)
    fds = open_fds()
    sink = io.BytesIO()
    with _forked.Child(read_all, tmp_path, fed=True) as child:
        assert child.feed is None and _forked._feeds == set()
        assert not child.join(sink)
    assert sink.getvalue() == b""
    assert os.listdir(tmp_path) == [] and open_fds() == fds


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_child_on_one_cpu_forks_nothing_and_opens_nothing(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 1)
    fds = open_fds()
    sink = io.BytesIO()
    with _forked.Child(read_all, tmp_path, fed=True) as child:
        assert open_fds() == fds
        assert child.feed is None and _forked._feeds == set()
        assert child.send(b"abc") is False
        assert child.join(sink) is False
    assert forks == [] and sink.getvalue() == b""
    assert os.listdir(tmp_path) == [] and open_fds() == fds


def test_send_to_a_child_that_has_exited_drops_its_feed(tmp_path, forks, two_cpus):
    def fail(src, out):
        raise RuntimeError("the child fails at once")
    with _forked.Child(fail, tmp_path, fed=True) as child:
        # once it has exited, left unreaped for the join
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        assert child.send(b"abc") is False
        assert child.feed is None and _forked._feeds == set()
        assert child.send(b"def") is False
        assert not child.join(io.BytesIO())
    assert len(forks) == 1


def test_run_in_ranges_runs_every_range_on_one_blas_thread(tmp_path, forks, two_cpus, openblas):
    get, set_ = openblas
    set_(3)

    def work(lo, hi, out):
        out.write(b"%d:%d;" % (lo, get()))
    out = io.BytesIO()
    _forked.run_in_ranges(work, [0, 2, 4, 6], out, tmp_path)
    assert out.getvalue() == b"0:1;2:1;4:1;"
    assert len(forks) == 2 and get() == 3

    def fail_here(lo, hi, out):
        work(lo, hi, out)
        raise RuntimeError("the first range fails")
    with pytest.raises(RuntimeError, match="the first range fails"):
        _forked.run_in_ranges(fail_here, [0, 2], io.BytesIO(), tmp_path)
    assert get() == 3


def threads_after_import(modules):
    """Entries in /proc/self/task and OPENBLAS_NUM_THREADS after importing modules afresh."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import json, os, {modules}\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
            "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_import_leaves_openblas_threads_as_numpy_starts_them():
    assert threads_after_import("attrakit.cli") == threads_after_import("numpy")


def test_one_blas_thread_pins_its_block_and_puts_the_count_back(openblas):
    get, set_ = openblas
    set_(3)
    with _forked.one_blas_thread() as pinned:
        assert pinned is True and get() == 1
    assert get() == 3
    with pytest.raises(RuntimeError), _forked.one_blas_thread():
        assert get() == 1
        raise RuntimeError
    assert get() == 3


def test_one_blas_thread_yields_false_and_leaves_the_blas_alone_without_openblas(
        monkeypatch, openblas):
    get, set_ = openblas
    set_(3)
    monkeypatch.setattr(_forked, "_openblas_threads", lambda: None)
    with _forked.one_blas_thread() as pinned:
        assert pinned is False and get() == 3
    assert get() == 3


@pytest.mark.parametrize("m, k, n", [(32, 128, 64), (384, 128, 64), (1000, 12, 128),
                                     (384, 128, 128), (128, 128, 128)])
def test_a_product_within_the_bounds_has_the_bits_of_any_thread_count(openblas, m, k, n):
    # products summing over at most 128 terms, split by rows and columns on
    # several threads or not split at all: as the synthetic probe recipe
    # runs its accuracy and stratification study on the caller's threads,
    # its bytes are the same on any number of CPUs
    get, set_ = openblas
    rng = np.random.default_rng(m * k * n)
    A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    products = []
    for threads in (1, 2, 3):
        set_(threads)
        products.append((A @ B).tobytes())
        products.append((B.T @ A.T).tobytes())
    assert products[0::2] == [products[0]] * 3 and products[1::2] == [products[1]] * 3


def test_fed_child_feed_holds_a_mebibyte_where_the_kernel_allows(tmp_path, forks, two_cpus):
    fcntl = pytest.importorskip("fcntl")
    src, feed = os.pipe()
    try:
        fcntl.fcntl(feed, fcntl.F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pytest.skip("this kernel grants no 1 MiB pipe")
    finally:
        os.close(src)
        os.close(feed)
    with _forked.Child(read_all, tmp_path, fed=True) as child:
        assert fcntl.fcntl(child.feed.fileno(), fcntl.F_GETPIPE_SZ) == 1 << 20
        assert child.join(io.BytesIO())


def test_attrakit_imports_and_feeds_a_child_without_fcntl():
    # where there is no fcntl (Windows), a feed's pipe keeps its default size
    code = ("import io, sys\n"
            "sys.modules['fcntl'] = None\n"
            "import attrakit.cli\n"
            "from attrakit import _forked\n"
            "_forked.usable_cpus = lambda: 2\n"
            "def upper(src, out):\n"
            "    out.write(src.read().upper())\n"
            "with _forked.Child(upper, fed=True) as child:\n"
            "    child.feed.write(b'abc')\n"
            "    sink = io.BytesIO()\n"
            "    print(child.join(sink), sink.getvalue())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout == "True b'ABC'\n"
