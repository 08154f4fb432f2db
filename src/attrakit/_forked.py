"""Work run in forked processes, each into an unnamed part file, joined in order.

The one place in attrakit that forks. A Child runs work(out) in a forked
process, out being its part, an unnamed temporary file; a fed Child runs
work(src, out), src reading what this process writes to its feed, a pipe,
until the join closes it and copies the part to a sink. run_in_ranges runs
the first of its ranges here and each later one in a Child, as one process.

A Child whose fork fails (os.fork raising OSError, say EAGAIN at a process
limit) counts as one that exited non-zero: its pipe's ends are closed at
once, it has no feed, and its join returns False without a wait, so the
caller does the work here as it does for any failed child.

A feed's pipe is asked to hold 1 MiB (64 KiB by default), so a caller that
sends its work in bursts, such as probe.train's 80 KB of weights a few ms
apart, seldom waits for the child to read.

one_blas_thread puts numpy's OpenBLAS on one thread for a with block; a
child forked in the block inherits the one thread. probe.train trains
with probes so: its spectra child pays off only then, as OpenBLAS's
threads otherwise take the core the child runs on, and on one thread a
product's bits do not depend on how many CPUs there are.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import os
import shutil
import tempfile

# the write ends of every feed this process holds; each child closes them
# all, as a pipe reads EOF only once no process holds its write end
_feeds: set[int] = set()

# the size asked for a feed's pipe: the most an unprivileged process may ask
_FEED_PIPE_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (not Linux)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def range_cuts(count: int, min_per_range: int) -> list[int]:
    """Cut points of 0..count: a range per usable CPU, as far as each gets min_per_range."""
    ranges = max(1, min(usable_cpus(), count // min_per_range))
    return [i * count // ranges for i in range(ranges + 1)]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS loaded here; None if there is none.

    Called once numpy is loaded. numpy loads its OpenBLAS privately, so
    the library is found by its path in /proc/self/maps; its functions
    carry the prefix and suffix of the build
    (scipy_openblas_set_num_threads64_ in numpy's wheels).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:  # not Linux
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a library since replaced on disk, say
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the with block; it yields True so.

    Where numpy's BLAS is no OpenBLAS found here, it yields False and leaves
    the BLAS alone. Leaving the block, by an exception too, puts the
    caller's count back.
    """
    threads = _openblas_threads()
    if threads is None:
        yield False
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


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
            # a pipe left at its default size is as correct, only slower;
            # there is no fcntl on Windows, and F_SETPIPE_SZ is Linux's. It
            # is imported here, so a process that forks no fed child never
            # maps it (peak RSS)
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl
                fcntl.fcntl(feed, fcntl.F_SETPIPE_SZ, _FEED_PIPE_BYTES)
        # a child may call BLAS and LAPACK: numpy's OpenBLAS shuts its
        # thread pool down around a fork (a pthread_atfork handler) and
        # starts it again where it is next needed; a child forked within
        # one_blas_thread keeps the one thread. That is not known to hold
        # for macOS Accelerate, but usable_cpus() is 1 off Linux, so
        # nothing forks there. The child leaves through os._exit, so it
        # never flushes the buffers it inherited (a sink, stdout) or
        # returns into the caller.
        try:
            self._pid = os.fork()
        except OSError:
            # a child that failed before it started (see the module docstring)
            self._status = 1
            if fed:
                _feeds.discard(feed)
                os.close(feed)
                os.close(src)
            return
        if self._pid == 0:
            status = 1
            try:
                for fd in _feeds:
                    os.close(fd)
                out = io.BufferedWriter(self._part)
                if fed:
                    with open(src, "rb") as source:
                        work(source, out)
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
