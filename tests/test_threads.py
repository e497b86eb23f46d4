"""Outputs do not depend on the BLAS thread count or on the number of
CPUs the ranker runs on. For training this holds at batch 200 with
narrow heads, not at every shape (see README).

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


def _training_outputs(tmp_path, synth_flags, train_flags):
    """(step log, checkpoint) bytes of one `train` run at 1 and at 2 BLAS
    threads, on a bundle made by `synth` with synth_flags."""
    assert main(["synth", "--out", str(tmp_path), *synth_flags]) == 0
    files = {name: str(tmp_path / f"{name}.feat")
             for name in ("img_base", "txt_base", "img_teacher", "txt_teacher")}
    outputs = []
    for threads in (1, 2):
        ckpt, log = tmp_path / f"model{threads}.ckpt", tmp_path / f"train{threads}.log"
        _cli_stdout(["train", "--pairs", str(tmp_path / "pairs.tsv"),
                     "--img-base", files["img_base"], "--txt-base", files["txt_base"],
                     "--img-teacher", files["img_teacher"], "--txt-teacher", files["txt_teacher"],
                     "--out-ckpt", str(ckpt), "--log", str(log), *train_flags], threads)
        outputs.append((log.read_bytes(), ckpt.read_bytes()))
    return outputs


def test_batch_200_training_is_thread_count_invariant(tmp_path):
    # the train-b200 benchmark's settings, on the default bundle
    outputs = _training_outputs(tmp_path, ["--seed", "1"],
                                ["--batch-size", "200", "--lr", "1e-2", "--teacher-inv-temp", "8",
                                 "--d-e", "4", "--d-u", "4", "--epochs", "5", "--seed", "1"])
    assert outputs[0][0].count(b"\n") == 1 + 20  # the header and 4 steps in each of 5 epochs
    assert outputs[1] == outputs[0]


@pytest.mark.xfail(strict=True,
                   reason="backward's batch-axis GEMMs are BLAS (ROADMAP item 2, cause 2)")
def test_batch_1000_training_is_thread_count_invariant(tmp_path):
    # wide heads on a 4 x 500 bundle: contractions over 1,000 batch rows
    outputs = _training_outputs(tmp_path,
                                ["--clusters", "4", "--pairs-per-cluster", "500", "--seed", "1"],
                                ["--batch-size", "1000", "--d-e", "64", "--d-u", "64",
                                 "--epochs", "2", "--seed", "1"])
    assert outputs[0][0].count(b"\n") == 1 + 4  # the header and 2 steps in each of 2 epochs
    assert outputs[1] == outputs[0]


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
