import ast
import io
import os
import signal
from pathlib import Path

import pytest

from attrakit import _forked


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
def test_run_in_ranges_joins_the_parts_in_range_order(tmp_path, forks, sink, cuts):
    assert run_into(tmp_path, sink, write_range, cuts) == serial(cuts[-1])
    assert len(forks) == len(cuts) - 2


@pytest.mark.parametrize("sink", ["bytesio", "file"])
def test_run_in_ranges_runs_a_failed_range_again_here_in_its_place(tmp_path, forks, sink):
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


def test_run_in_ranges_reaps_every_child_when_its_own_range_fails(tmp_path, forks):
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


def read_all(src, out):
    while data := src.read(3):
        out.write(data.upper())


def test_fed_child_formats_what_it_is_sent_until_the_join(tmp_path, forks):
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


def test_fed_child_reads_eof_while_a_later_child_is_alive(tmp_path, forks):
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


def test_child_that_fails_is_reaped_and_its_part_not_copied(tmp_path, forks):
    def fail(src, out):
        out.write(b"partial")
        out.flush()
        raise RuntimeError("the child fails at once")
    sink = io.BytesIO()
    with _forked.Child(fail, tmp_path, fed=True) as child:
        with pytest.raises(BrokenPipeError):
            for _ in range(100):  # more than a pipe holds
                child.feed.write(b"x" * 4096)
                child.feed.flush()
        assert not child.join(sink)
    assert sink.getvalue() == b""
    assert os.listdir(tmp_path) == []
