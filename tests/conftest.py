"""Fixtures shared by the tests: no test may leave a child process behind,
os.fork calls can be counted, and the relevance parse and the ranker can
be run on a forced number of CPUs."""

import contextlib
import os

import pytest

from cusa import dataio, metrics


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


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork call this process makes during the test."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@contextlib.contextmanager
def _cpus_forced(cpus: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "PART_BYTES", 1)
        mp.setattr(metrics, "RANGE_ROWS", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        if cpus == 1:
            mp.setattr(os, "fork", _no_fork, raising=False)
        yield


def _no_fork():
    raise AssertionError("a one-CPU run forked")


@pytest.fixture(scope="session")
def forced_cpus():
    """forced_cpus(k): a context in which this process may use k CPUs,
    whatever it may use in fact: read_relevance splits each file into k
    parts (fewer when the file has fewer lines), whatever its size, and
    the ranker cuts each direction's query blocks into k ranges (fewer
    when there are fewer blocks), whatever their rows. At k = 1 nothing
    forks."""
    return _cpus_forced
