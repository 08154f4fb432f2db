"""Run work over contiguous ranges of items in forked processes, joined in order.

The one place in attrakit that forks. A caller hands over a function
work(lo, hi, out) that handles the items lo..hi-1 and writes the bytes they
give to the binary file-like out. Ranges collects such ranges in item
order: a range forked now runs at once in a child process, into an unnamed
temporary file, while this process goes on; a range left here runs in this
process when the ranges are joined. The join writes every range's bytes to
one sink in order, so the sink ends up as if one process had run every
range in order. A caller can thus fork ranges as soon as their items are
ready and join them all at the end. run_in_ranges is the one-shot form:
one range per usable CPU, the first run here.
"""

from __future__ import annotations

import contextlib
import io
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


class Ranges:
    """Ranges of work(lo, hi, out), each forked now or run here later, joined in order.

    Parts go to unnamed temporary files in part_dir (tempfile's default
    directory when None). Use it as a context manager: leaving the block
    reaps every forked process and drops every part, whether or not join
    ran, so an error raised between a fork and the join leaves neither a
    process nor a file behind.
    """

    def __init__(self, work, part_dir=None):
        self._work = work
        self._part_dir = part_dir
        self._parts = contextlib.ExitStack()
        self._ranges = []  # (lo, hi, pid, part) in order; pid and part None when run here
        self._unreaped = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def fork_range(self, lo, hi) -> None:
        """Run lo..hi in a forked process now, into a part of its own."""
        # unbuffered here, so a part held until the join costs this process
        # no buffer; the child writes through a buffer of its own
        part = self._parts.enter_context(
            tempfile.TemporaryFile(buffering=0, dir=self._part_dir))
        # The process is multi-threaded once OpenBLAS has started its pool
        # (Python >= 3.12 warns about forking then). numpy's OpenBLAS
        # registers a pthread_atfork handler that shuts the pool down around
        # the fork (2 threads before, 1 in the child), so a child may call
        # BLAS and LAPACK. That is not known to hold for macOS Accelerate;
        # usable_cpus() returns 1 off Linux, so nothing forks there. The
        # child leaves through os._exit, so it never flushes the buffers it
        # inherited (a sink, stdout) or returns into the caller.
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                out = io.BufferedWriter(part)
                self._work(lo, hi, out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        self._unreaped.append(pid)
        self._ranges.append((lo, hi, pid, part))

    def here(self, lo, hi) -> None:
        """Leave lo..hi to this process, to run into the sink at its place in the join."""
        self._ranges.append((lo, hi, None, None))

    def split(self, cuts) -> None:
        """Add the ranges between cuts: the first to run here, each later one forked now."""
        self.here(cuts[0], cuts[1])
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            self.fork_range(lo, hi)

    def join(self, sink) -> None:
        """Write every range to sink in the order the ranges were added.

        A range left here runs into sink. A forked range's part is copied
        to sink once its process is reaped; if that process did not exit 0,
        the range runs again here, into sink, at its place, so any error is
        raised just as a one-process run raises it.
        """
        for lo, hi, pid, part in self._ranges:
            if pid is not None and self._reap(pid) == 0:
                part.seek(0)
                shutil.copyfileobj(part, sink)
            else:
                self._work(lo, hi, sink)

    def close(self) -> None:
        """Reap every forked process still unreaped and drop every part."""
        try:
            while self._unreaped:
                self._reap(self._unreaped[0])
        finally:
            self._parts.close()

    def _reap(self, pid) -> int:
        self._unreaped.remove(pid)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def run_in_ranges(work, cuts, sink, part_dir=None) -> None:
    """Run work(cuts[i], cuts[i + 1], out) over every range, as one process would.

    This process runs the first range into sink; each later range runs in
    a forked process into a part, which Ranges.join copies to sink in
    range order (or runs again here when that process failed). With one
    range nothing is forked and no part is made.
    """
    with Ranges(work, part_dir) as ranges:
        ranges.split(cuts)
        ranges.join(sink)
