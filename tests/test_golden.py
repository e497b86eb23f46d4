"""Byte identity of one small fixed-seed training run.

The digests pin every bit of the checkpoint and the step log of a run
with both teacher terms on (alpha, beta > 0) and a separate uni-modal
temperature. They were produced before the training step moved to
in-place softmax/KL kernels, a forward tape and load-time teacher
validation, changes that keep every floating-point operation and its
order; any change that moves a bit of the trajectory fails here.

The bytes depend on the floating-point stack (numpy build and BLAS
kernels). On another stack, regenerate the digests from a commit whose
outputs are trusted rather than from the change under test.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from cusa import cli

CKPT_SHA256 = "e334ff10aa3ea9aabb861797328e9e681b7392e78a5f97f494719da90d753149"
LOG_SHA256 = "858f8b95b7e42fe1433fa07dec05a9baa2a36719ff5e303e2bcd80ab3acf3c85"


def _cli(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixed_seed_train_run_is_byte_identical(tmp_path):
    assert _cli(["synth", "--out", str(tmp_path), "--clusters", "3",
                 "--pairs-per-cluster", "10", "--seed", "13",
                 "--d-student-img", "6", "--d-student-txt", "7",
                 "--d-teacher-img", "8", "--d-teacher-txt", "9"]) == 0
    assert _cli(["train", "--pairs", str(tmp_path / "pairs.tsv"),
                 "--img-base", str(tmp_path / "img_base.feat"),
                 "--txt-base", str(tmp_path / "txt_base.feat"),
                 "--img-teacher", str(tmp_path / "img_teacher.feat"),
                 "--txt-teacher", str(tmp_path / "txt_teacher.feat"),
                 "--out-ckpt", str(tmp_path / "model.ckpt"),
                 "--log", str(tmp_path / "train.log"),
                 "--batch-size", "10", "--epochs", "4", "--lr", "1e-2",
                 "--alpha", "0.6", "--beta", "0.4", "--teacher-inv-temp", "8",
                 "--separate-uni-temp", "--d-e", "5", "--d-u", "3",
                 "--seed", "2"]) == 0
    assert _sha256(tmp_path / "model.ckpt") == CKPT_SHA256
    assert _sha256(tmp_path / "train.log") == LOG_SHA256
