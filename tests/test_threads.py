"""Outputs do not depend on the BLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so each
thread count runs in its own `python -m cusa.cli` child; only the
child's environment is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cusa
from cusa.cli import main

SRC = str(Path(cusa.__file__).resolve().parents[1])


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
    argv = ["eval", "--task", task, "--img-emb", str(bundle / "img_base.feat"),
            "--relevance", str(bundle / "relevance.tsv")]
    if task == "cross":
        argv += ["--txt-emb", str(bundle / "txt_base.feat")]
    one = _cli_stdout(argv, 1)
    assert b'"payload"' in one
    assert _cli_stdout(argv, 2) == one
