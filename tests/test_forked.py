import os

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

