"""Parts of one computation run at once in forked children.

A caller cuts its work into parts, one per usable CPU. It hands every
part but the first to `forked`, which starts a child per part that
sends its result through a pipe, works on the first part itself, then
reads each child's stream with `read_exact`. A child that fails, or
cannot be started, sends a stream that ends early, and the caller falls
back to its own process, so results and errors are those of one
process. No child outlives the `forked` block, also on an error. Where
the os module lacks fork or sched_getaffinity, `usable_cpus` is 1 and
callers make one part, so nothing forks. This is the one place that
forks.
"""

from __future__ import annotations

import contextlib
import os


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the os module lacks
    fork or sched_getaffinity."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


@contextlib.contextmanager
def forked(work, parts):
    """Start a forked child per part that runs work(part, out), `out`
    the write end of a pipe as a binary file, then exits; yield the read
    end of each child's pipe, in part order. A child that cannot be
    started sends nothing. On leaving, every child is killed and reaped."""
    children = []
    try:
        for part in parts:
            children.append(_fork(work, part))
        yield [fh for _, fh in children]
    finally:
        for pid, fh in children:
            fh.close()
            if pid is not None:
                _kill(pid)
                os.waitpid(pid, 0)


def _fork(work, part):
    """(pid, read end of its pipe) of a child that runs work(part, out);
    pid is None, and the pipe at its end, when no child can be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid != 0:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:  # the child, which always ends in os._exit
        os.close(r)
        with os.fdopen(w, "wb") as out:
            work(part, out)
    finally:
        os._exit(0)


def _kill(pid: int) -> None:
    # not at the top: building its enum classes costs each CLI start
    # about 0.7 ms, and most commands never fork
    import signal

    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def read_exact(fh, size: int) -> bytes:
    """The next `size` bytes of fh; EOFError when its stream ends first."""
    data = fh.read(size)
    if len(data) < size:
        raise EOFError(f"{len(data)} of {size} bytes")
    return data
