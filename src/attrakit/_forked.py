"""Run work over contiguous ranges of items, one forked process per usable CPU.

The one place in attrakit that forks. A caller hands over a function
work(lo, hi, out) that handles the items lo..hi-1 and writes the bytes they
give to the binary file-like out. This process runs the first range into
the caller's sink; a forked process runs each later range into an unnamed
temporary file, which is then copied to the sink in range order. So the
sink ends up as if one process had run every range in order.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (not Linux)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def range_cuts(count: int, min_per_range: int, unit: int = 1) -> list[int]:
    """Cut points of 0..count: one range per usable CPU, as far as each gets min_per_range.

    Cuts fall on multiples of unit, except the last at count, and the
    ranges hold whole numbers of units that differ by at most one.
    """
    ranges = max(1, min(usable_cpus(), count // min_per_range))
    units = -(-count // unit)
    return [min(count, i * units // ranges * unit) for i in range(ranges + 1)]


def run_in_ranges(work, cuts, sink, part_dir=None) -> None:
    """Run work(cuts[i], cuts[i + 1], out) over every range, as one process would.

    This process runs the first range into sink. Each later range runs in a
    forked process into an unnamed temporary file in part_dir (tempfile's
    default directory when None); once every process is reaped, each part
    is rewound and copied to sink in range order. A range whose process
    does not exit 0 is run again here, into sink, at its place in the
    order, so any error is raised just as a one-process run raises it. With
    one range nothing is forked.
    """
    with contextlib.ExitStack() as stack:
        children = []  # (pid, part file) per range after the first
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                part = stack.enter_context(tempfile.TemporaryFile(dir=part_dir))
                # The process is multi-threaded once OpenBLAS has started its
                # pool (Python >= 3.12 warns about forking then). numpy's
                # OpenBLAS registers a pthread_atfork handler that shuts the
                # pool down around the fork (2 threads before, 1 in the
                # child), so a child may call BLAS and LAPACK. That is not
                # known to hold for macOS Accelerate; usable_cpus() returns 1
                # off Linux, so nothing forks there. The child leaves through
                # os._exit, so it never flushes the buffers it inherited (the
                # sink, stdout) or returns into the caller.
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        work(lo, hi, part)
                        part.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, part))
            work(cuts[0], cuts[1], sink)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for (_, part), code, lo, hi in zip(children, codes, cuts[1:-1], cuts[2:]):
            if code == 0:
                part.seek(0)
                shutil.copyfileobj(part, sink)
            else:
                work(lo, hi, sink)
