"""Outputs do not depend on the BLAS thread count or on the number of
CPUs the ranker runs on.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so each
thread count runs in its own `python -m cusa.cli` child; only the
child's environment is changed. The CPU count is forced in process.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cusa
from cusa import metrics
from cusa.cli import main

SRC = str(Path(cusa.__file__).resolve().parents[1])


def _eval_argv(bundle, task):
    argv = ["eval", "--task", task, "--img-emb", str(bundle / "img_base.feat"),
            "--relevance", str(bundle / "relevance.tsv")]
    if task == "cross":
        argv += ["--txt-emb", str(bundle / "txt_base.feat")]
    return argv


def _cli_stdout(argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "cusa.cli", *argv], env=env,
                          capture_output=True, check=True, timeout=300)
    return done.stdout


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert main(["synth", "--out", str(out), "--clusters", "4",
                 "--pairs-per-cluster", "300", "--seed", "5"]) == 0
    return out


@pytest.mark.slow
@pytest.mark.parametrize("task", ["cross", "img"])
def test_eval_report_is_thread_count_invariant(bundle, task):
    argv = _eval_argv(bundle, task)
    one = _cli_stdout(argv, 1)
    assert b'"payload"' in one
    assert _cli_stdout(argv, 2) == one


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_bundle")
    assert main(["synth", "--out", str(out), "--clusters", "3",
                 "--pairs-per-cluster", "12", "--seed", "7", "--noise", "0.4"]) == 0
    return out


@pytest.mark.parametrize("case", ["cross-relevance", "cross-pairs", "img"])
def test_eval_report_is_cpu_count_invariant(small_bundle, forced_cpus, forks, monkeypatch, case):
    # 36 queries in blocks of 8 make 5 blocks per direction, so 3 CPUs
    # rank 3 ranges in each
    monkeypatch.setattr(metrics, "BLOCK_ROWS", 8)
    argv = _eval_argv(small_bundle, case.split("-")[0])
    if case == "cross-pairs":
        at = argv.index("--relevance")
        del argv[at:at + 2]
        argv += ["--pairs", str(small_bundle / "pairs.tsv")]
    reports = []
    for cpus in (1, 2, 3):
        out = io.StringIO()
        with forced_cpus(cpus), redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        reports.append(out.getvalue())
    assert '"payload"' in reports[0]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    # per direction, one child at 2 CPUs and two at 3; the parse forks none
    assert len(forks) == 3 * (2 if case.startswith("cross") else 1)
