"""Work run in forked processes, each into an unnamed part file, joined in order.

The one place in attrakit that forks. A Child runs work(out) in a forked
process, out being its part, an unnamed temporary file; a fed Child runs
work(src, out), src reading what this process writes to its feed, a pipe,
until the join closes it and copies the part to a sink. run_in_ranges runs
the first of its ranges here and each later one in a Child, as one process.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import shutil
import tempfile

# the write ends of every feed this process holds; each child closes them
# all, as a pipe reads EOF only once no process holds its write end
_feeds: set[int] = set()


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (not Linux)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def range_cuts(count: int, min_per_range: int) -> list[int]:
    """Cut points of 0..count: a range per usable CPU, as far as each gets min_per_range."""
    ranges = max(1, min(usable_cpus(), count // min_per_range))
    return [i * count // ranges for i in range(ranges + 1)]


class Child:
    """work run in a forked process into a part in part_dir (tempfile's default when None).

    Leaving the with block closes the feed, reaps the process and drops
    the part, whether or not join ran, so an error raised before the join
    leaves neither a process nor a file behind.
    """

    def __init__(self, work, part_dir=None, fed=False):
        # unbuffered here, so a part held until the join costs this process
        # no buffer; the child writes through a buffer of its own
        self._part = tempfile.TemporaryFile(buffering=0, dir=part_dir)
        self._status = None
        self.feed = None
        if fed:
            src, feed = os.pipe()
            _feeds.add(feed)
        # numpy's OpenBLAS shuts its thread pool down around a fork (a
        # pthread_atfork handler), so a child may call BLAS and LAPACK; that
        # is not known to hold for macOS Accelerate, but usable_cpus() is 1
        # off Linux, so nothing forks there. The child leaves through
        # os._exit, so it never flushes the buffers it inherited (a sink,
        # stdout) or returns into the caller.
        self._pid = os.fork()
        if self._pid == 0:
            status = 1
            try:
                for fd in _feeds:
                    os.close(fd)
                out = io.BufferedWriter(self._part)
                if fed:
                    work(open(src, "rb"), out)
                else:
                    work(out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        if fed:
            os.close(src)
            self.feed = open(feed, "wb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def join(self, sink) -> bool:
        """Reap the process and copy the part to sink if it exited 0; say whether it did."""
        copied = self._reap() == 0
        if copied:
            self._part.seek(0)
            shutil.copyfileobj(self._part, sink)
        return copied

    def close(self) -> None:
        try:
            self._reap()
        finally:
            self._part.close()

    def _reap(self) -> int:
        if self.feed is not None:
            _feeds.discard(self.feed.fileno())
            # a child that failed has closed its end, and what is unsent is moot
            with contextlib.suppress(BrokenPipeError):
                self.feed.close()
            self.feed = None
        if self._status is None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._status


def run_in_ranges(work, cuts, sink, part_dir=None) -> None:
    """Run work(cuts[i], cuts[i + 1], out) over every range, as one process would.

    The first range runs here, into sink; each later one in a Child, whose
    part is copied to sink in order, or which runs again here at its place
    when its process failed, so any error is raised as in one process.
    """
    later = list(zip(cuts[1:-1], cuts[2:]))
    with contextlib.ExitStack() as children:
        forked = [children.enter_context(Child(functools.partial(work, lo, hi), part_dir))
                  for lo, hi in later]
        work(cuts[0], cuts[1], sink)
        for (lo, hi), child in zip(later, forked):
            if not child.join(sink):
                work(lo, hi, sink)
