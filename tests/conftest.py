"""Fixtures shared by the tests: no test may leave a child process behind,
and a relevance file can be parsed in a forced number of parts."""

import contextlib
import os

import pytest

from cusa import dataio


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@contextlib.contextmanager
def _parts_forced(parts: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "PART_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
        if parts == 1:
            mp.setattr(os, "fork", _no_fork, raising=False)
        yield


def _no_fork():
    raise AssertionError("a one-part parse forked")


@pytest.fixture(scope="session")
def relevance_parts():
    """relevance_parts(k): a context in which read_relevance splits each
    file into k parts, fewer when the file has fewer lines, whatever its
    size and the CPUs this process may use."""
    return _parts_forced
