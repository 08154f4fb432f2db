import ast
import io
import os
from pathlib import Path

import pytest

from attrakit import _forked


def test_usable_cpus_is_one_without_an_affinity_call(monkeypatch):
    assert _forked.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _forked.usable_cpus() == 1


@pytest.mark.parametrize("cpus, count, least, unit, cuts", [
    (1, 100, 10, 1, [0, 100]),
    (2, 19, 10, 1, [0, 19]),
    (2, 20, 10, 1, [0, 10, 20]),
    (3, 29, 10, 1, [0, 14, 29]),
    (3, 30, 10, 1, [0, 10, 20, 30]),
    (4, 0, 10, 1, [0, 0]),
    (2, 1000, 256, 256, [0, 512, 1000]),
    (3, 1001, 256, 256, [0, 256, 512, 1001]),
])
def test_range_cuts(monkeypatch, cpus, count, least, unit, cuts):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    assert _forked.range_cuts(count, least, unit) == cuts



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


def test_ranges_fork_now_and_join_later_in_the_order_added(tmp_path, forks):
    parent = os.getpid()
    ran_here = []

    def work(lo, hi, out):
        if os.getpid() == parent:
            ran_here.append(lo)
        write_range(lo, hi, out)
    sink = io.BytesIO()
    with _forked.Ranges(work, tmp_path) as ranges:
        ranges.fork_range(0, 3)
        ranges.fork_range(3, 5)
        assert len(forks) == 2 and ran_here == []
        ranges.here(5, 9)
        ranges.split([9, 10, 12, 15])
        assert len(forks) == 4 and ran_here == []
        ranges.join(sink)
    assert sink.getvalue() == serial(15)[len(b"head;"):]
    assert ran_here == [5, 9]
    assert os.listdir(tmp_path) == []


def test_ranges_join_runs_a_failed_range_again_at_its_place(tmp_path, forks):
    parent = os.getpid()
    ran_here = []

    def work(lo, hi, out):
        if os.getpid() == parent:
            ran_here.append(lo)
        elif lo == 4:
            raise RuntimeError("this range fails in a forked process")
        write_range(lo, hi, out)
    sink = io.BytesIO()
    with _forked.Ranges(work, tmp_path) as ranges:
        ranges.fork_range(0, 4)
        ranges.fork_range(4, 6)
        ranges.here(6, 8)
        ranges.fork_range(8, 11)
        ranges.join(sink)
    assert sink.getvalue() == serial(11)[len(b"head;"):]
    assert len(forks) == 3
    assert ran_here == [4, 6]


def test_ranges_left_without_a_join_reap_every_child_and_drop_every_part(tmp_path, forks):
    with pytest.raises(RuntimeError, match="before the join"):
        with _forked.Ranges(write_range, tmp_path) as ranges:
            ranges.fork_range(0, 5)
            ranges.fork_range(5, 9)
            raise RuntimeError("an error before the join")
    assert len(forks) == 2
    assert os.listdir(tmp_path) == []
