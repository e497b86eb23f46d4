"""Byte identity of one small fixed-seed training run and of a gradcheck report.

The digests pin every bit of the checkpoint and the step log of a run
with both teacher terms on (alpha, beta > 0) and a separate uni-modal
temperature; any change that moves a bit of the trajectory fails here.
They were re-pinned when the training step moved to a per-run
workspace. The KLs now come from the log-sum-exp form (sum(p log p) -
sum(p z) + lse, with no log q); the softmaxes shift their logits by the
matrix maximum rather than each row's; the t2i softmax runs along the
columns of the i2t logits; the cross-modal gradient is regrouped as
(c1 + c2)(Q_i2t + Q_t2i^T) - c2(P_i + P_t^T) - 2 c1 I; the sums of
d * s are dot products; and backward applies d and d^T to f apart.
These reorder floating-point operations, so the step log and the
checkpoint moved by a few ulps (at most 5e-15 relative on a logged
loss of the batch-200 benchmark run); the values are otherwise the
same.

The zero-weight digests pin the same run with alpha, beta or both at
0. They were produced at commit 2706335, while the loss core still had
a separate branch for each zero weight, before every weight took the
one general path.

The gradcheck digest pins the stdout of a small run: finite
differences of the loss core over its three logit matrices and two
log-temperatures, and of the model with its batch sizes alternating
between the shared and the separate uni-modal temperature layouts. Its
printed errors moved with the same re-pin. It was re-pinned once more
when the targets of both checks began to come from
`build_batch_targets` on seeded teacher features (in place of a
softmax of random logits) and the model check began to differentiate
the trainer's own step, `trainer.step_gradients`, at a warm workspace:
the seeded draws and the differentiated function changed, so the
printed errors moved (the largest to 4.1e-7, against a tolerance of
1e-4). No other digest moved.

The eval digests pin the stdout of `eval --task cross --relevance`,
`eval --task cross --pairs` and `eval --task img --relevance` on a
fixed-seed bundle. They were produced while relevance was still a dict
of id sets and every score row was stable-argsorted, before relevance
became an int32 CSR and ranking a per-block default sort with stable
re-sorts of tied rows only.

The multi-block eval digests pin the stdout of `eval --task cross
--relevance` and `eval --task img --relevance` on embeddings of 450
rows, which the ranker takes in four blocks of at most 128 query rows.
They were produced while eval still ranked every block in one process,
and they must hold with 1, 2 and 3 forced CPUs, where the blocks are
ranked in that many processes.

The report digests pin the stdout of `inspect` from a fresh init and
from a checkpoint with a separate uni-modal temperature (alpha = beta =
0), of `eval --task sts` from direct embeddings and from a checkpoint's
projector head (`--usa-branch`), and of `eval --task cross` from direct
embeddings. They were produced at commit fb14666, before `inspect` took
its logits from `losses.student_logits` and before the eval inputs and
the text readers each got one code path. They held unchanged when
`inspect` began to print `row_softmax` of its logits in place of copies
of the loss core's softmaxes.

The synth-bundle digests pin each of the six files of a fixed-seed
`synth` bundle, `relevance.tsv` included. The reader-error digest pins
the (exception class, offset, message) that `read_features` and
`load_checkpoint` give for every prefix, one appended byte and every
single-byte flip of a small feature file with a non-ASCII id and of a
checkpoint with two temperatures. Both were produced at commit f13f42e,
before the binary framing checks, the relevance writer and the
relevance reader's empty-id check each got one code path. The reader
digest was re-pinned once since, when `load_checkpoint` began to reject
a `has_uni_temp` byte other than 0 or 1: exactly one of the 430
outcomes moved, index 286 (that byte flipped from 0x01 to 0xFE), from
loading as a two-temperature checkpoint to a FormatError.

The relevance-reader digest pins what `read_relevance` gives for every
prefix, one appended byte and every single-byte flip of a small
relevance file (a non-ASCII id, a CRLF line end, an unknown id and a
repeated query), read with an id table and with interning: the
(exception class, line number, message) of its error, or the CSR and
the order of its id table. It was produced at commit 6b33e30, while the
reader still parsed every file in one process, and it must hold with
the file split into 1, 2 and 3 parts.

The bytes depend on the floating-point stack (numpy build and BLAS
kernels). On another stack, regenerate the digests from a commit whose
outputs are trusted rather than from the change under test.
"""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from cusa import cli
from cusa.dataio import (
    load_checkpoint,
    read_features,
    read_relevance,
    save_checkpoint,
    write_features,
)
from cusa.model import init_params

CKPT_SHA256 = "a9bd6283de03929c06156639ecddf6f86f89efb3923c816ecd29c8e06c47afe7"
LOG_SHA256 = "6c8b69bceac00403e85bb3b01cc6ea5aa9addf43e4a84d4e8cf853a8bfb32a45"
# (alpha, beta) -> (checkpoint, step log) of the same run with a weight at 0
ZERO_WEIGHT_SHA256 = {
    ("0", "0"): ("512754994679ec122f7003896d6f8029f0a0889766120a49eb7196797c090237",
                 "dd267641d757669dd8a509651e1c458f828580e71c2d6d99e6393844e73ff121"),
    ("0", "0.4"): ("13b30ae9cd2021029623397c0543f49842eefc405017b66d8983c11e35b1d712",
                   "79846c3e91f2d5f1e4ce4cfb46cff00e66c6972c999bb42e5b2769028ac34727"),
    ("0.6", "0"): ("001310b8693c7ef109a1477c47a2a392bcbd33c10ef64304ccba6768acb01f66",
                   "f42f3eb6447d970e599c52c1900262bdb4d3785f08420e502e58d612890091c7"),
}
GRADCHECK_SHA256 = "d384a1b769d06fc7a5e851cd1843129689a1e8c4585c4a5a057fefe2cecbdaff"
EVAL_SHA256 = {
    "cross-relevance": "ff4dc2f4eef0d3a8f8bef84165000e1a29b12be590b6f5e44ea99a6d0cfe7a99",
    "cross-pairs": "aba60caad135f6ebe3b8acaa57b72e6840f19e3afbb253d90535010be79f7d24",
    "img-relevance": "42664819cb7afbe616c08e57f14a79274792144c48016bc188f86052253732f4",
}
MULTI_BLOCK_EVAL_SHA256 = {
    "cross-relevance": "7c9078fb6c57b38e652642e0634cd35b601948bf3fa8457704aacd6924730299",
    "img-relevance": "06c2e404c1bd15917029b7fe8212719e1e119e52924e759c72b28949e0f15a0b",
}
REPORT_SHA256 = {
    "inspect-fresh": "5d5992c4d220cc32467570405a14eb299d7043d825c35115e6f6fa0411d15e6a",
    "inspect-ckpt-separate-uni-temp":
        "318329b5eda9eff6f2f7d6ba2e336532c61fa52d0575aa78faaaabc705d4ff22",
    "sts-emb": "280b45d8ed1d53051114b48412452ee9b9851c10de63082915025075daf4b02d",
    "sts-ckpt-usa-branch": "d28f6c98219862f4002d8eb24d33ba8ae8a3a57de538ddb981c697114914b497",
    "cross-emb": "346a161ef07a3ccda21f1f21942d173ebb8b6a9623599677d6eaf2de436f3703",
}
SYNTH_SHA256 = {
    "img_base.feat": "74f6424777a911397cb8acb3c2105815805f7d6e285c82300c587dd7d60c5be7",
    "txt_base.feat": "759d332eaf2858402a9a2b25eb005f21a9d12d02f926ad83fd9e760b86ef721c",
    "img_teacher.feat": "1b9e16c8f1818f45dd3223ccce453ee0e4704f9d268007373c1f6bcd23bcad96",
    "txt_teacher.feat": "2bf7d4c87dbeed9f4cf5512eab84fe33eaa2bff308de2fd2bd35964af3aa90d4",
    "pairs.tsv": "7ecdd3d8ef7bbee91d1ac0fdfdb595df99a8a267b503eeceac3c5c7662ba6660",
    "relevance.tsv": "52019b78855972fc6ea7308f083e6970f449d940547fd2070b2a54f262a4240c",
}
READER_ERRORS_SHA256 = "dc398092ebb6fe86272413489cce8116b876798038726992fa18579777269cbf"
# a non-ASCII id, one CRLF line end, an id outside RELEVANCE_IDS and a
# repeated query; read with RELEVANCE_IDS as the id table and without
RELEVANCE_TEXT = "q\ta,\u00e9\r\n\u00e9\tq\nb\tb,a\na\t\u00e9,z\nb\tq\n"
RELEVANCE_IDS = ["q", "a", "b", "\u00e9"]
RELEVANCE_OUTCOMES_SHA256 = "95d63fafdb194c6303e4624923a988239f55ba93128dcf95ccfc4c74060d8f7b"


def _cli(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _train_digests(tmp_path, alpha, beta):
    """sha256 of the checkpoint and the step log of one golden-corpus run."""
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
                 "--alpha", alpha, "--beta", beta, "--teacher-inv-temp", "8",
                 "--separate-uni-temp", "--d-e", "5", "--d-u", "3",
                 "--seed", "2"]) == 0
    return _sha256(tmp_path / "model.ckpt"), _sha256(tmp_path / "train.log")


def test_fixed_seed_train_run_is_byte_identical(tmp_path):
    assert _train_digests(tmp_path, "0.6", "0.4") == (CKPT_SHA256, LOG_SHA256)


@pytest.mark.parametrize("alpha, beta", ZERO_WEIGHT_SHA256)
def test_zero_weight_train_runs_are_byte_identical(tmp_path, alpha, beta):
    assert _train_digests(tmp_path, alpha, beta) == ZERO_WEIGHT_SHA256[alpha, beta]


def test_gradcheck_report_is_byte_identical():
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(["gradcheck", "--trials", "2", "--dims", "5,4,3,2"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GRADCHECK_SHA256


def test_fixed_seed_eval_reports_are_byte_identical(tmp_path, monkeypatch):
    # relative paths, because the report echoes them
    monkeypatch.chdir(tmp_path)
    assert _cli(["synth", "--out", ".", "--clusters", "3", "--pairs-per-cluster", "12",
                 "--seed", "21", "--noise", "0.4"]) == 0
    assert _cli(["train", "--pairs", "pairs.tsv", "--img-base", "img_base.feat",
                 "--txt-base", "txt_base.feat", "--img-teacher", "img_teacher.feat",
                 "--txt-teacher", "txt_teacher.feat", "--out-ckpt", "model.ckpt",
                 "--log", "train.log", "--batch-size", "12", "--epochs", "2",
                 "--d-e", "6", "--d-u", "3", "--seed", "5"]) == 0
    ckpt = ["--ckpt", "model.ckpt", "--img-base", "img_base.feat"]
    runs = {
        "cross-relevance": ["--task", "cross", *ckpt, "--txt-base", "txt_base.feat",
                            "--relevance", "relevance.tsv"],
        "cross-pairs": ["--task", "cross", *ckpt, "--txt-base", "txt_base.feat",
                        "--pairs", "pairs.tsv"],
        "img-relevance": ["--task", "img", *ckpt, "--relevance", "relevance.tsv"],
    }
    digests = {}
    for name, flags in runs.items():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(["eval", *flags]) == 0
        digests[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digests == EVAL_SHA256


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_multi_block_eval_reports_are_byte_identical(tmp_path, monkeypatch, forced_cpus, cpus):
    monkeypatch.chdir(tmp_path)
    assert _cli(["synth", "--out", ".", "--clusters", "3", "--pairs-per-cluster", "150",
                 "--seed", "31", "--noise", "0.4"]) == 0
    runs = {
        "cross-relevance": ["--task", "cross", "--img-emb", "img_base.feat",
                            "--txt-emb", "txt_base.feat", "--relevance", "relevance.tsv"],
        "img-relevance": ["--task", "img", "--img-emb", "img_base.feat",
                          "--relevance", "relevance.tsv"],
    }
    digests = {}
    for name, flags in runs.items():
        out = io.StringIO()
        with forced_cpus(cpus), redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(["eval", *flags]) == 0
        digests[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digests == MULTI_BLOCK_EVAL_SHA256


def _report_runs(tmp_path, monkeypatch):
    """Build the report corpus in tmp_path, which becomes the working
    directory, and return the argv of each pinned report."""
    monkeypatch.chdir(tmp_path)
    assert _cli(["synth", "--out", ".", "--clusters", "3", "--pairs-per-cluster", "8",
                 "--seed", "17", "--d-student-img", "6", "--d-student-txt", "6",
                 "--d-teacher-img", "7", "--d-teacher-txt", "5"]) == 0
    files = ["--pairs", "pairs.tsv", "--img-base", "img_base.feat",
             "--txt-base", "txt_base.feat", "--img-teacher", "img_teacher.feat",
             "--txt-teacher", "txt_teacher.feat"]
    assert _cli(["train", *files, "--out-ckpt", "model.ckpt", "--log", "train.log",
                 "--batch-size", "6", "--epochs", "2", "--separate-uni-temp",
                 "--d-e", "4", "--d-u", "3", "--seed", "3"]) == 0
    ids = read_features("txt_base.feat").ids
    with open("scored.tsv", "w", encoding="utf-8") as fh:
        for k in range(12):
            fh.write(f"{ids[k]}\t{ids[(5 * k + 3) % len(ids)]}\t{(7 * k) % 5 / 4}\n")
    runs = {
        "inspect-fresh": ["inspect", *files, "--batch", "0,5,9,20", "--alpha", "0.3",
                          "--beta", "0.7", "--teacher-inv-temp", "6", "--d-e", "4",
                          "--d-u", "3", "--seed", "4"],
        "inspect-ckpt-separate-uni-temp": ["inspect", *files, "--batch", "2,11,23",
                                           "--ckpt", "model.ckpt", "--alpha", "0",
                                           "--beta", "0", "--d-e", "4", "--d-u", "3"],
        "sts-emb": ["eval", "--task", "sts", "--txt-emb", "txt_base.feat",
                    "--pairs", "scored.tsv"],
        "sts-ckpt-usa-branch": ["eval", "--task", "sts", "--ckpt", "model.ckpt",
                                "--txt-base", "txt_base.feat", "--pairs", "scored.tsv",
                                "--usa-branch"],
        "cross-emb": ["eval", "--task", "cross", "--img-emb", "img_base.feat",
                      "--txt-emb", "txt_base.feat", "--relevance", "relevance.tsv"],
    }
    return runs


def test_fixed_seed_inspect_and_eval_input_reports_are_byte_identical(tmp_path, monkeypatch):
    digests = {}
    for name, argv in _report_runs(tmp_path, monkeypatch).items():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        digests[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digests == REPORT_SHA256


def _mean_kl(p, q):
    """Mean over rows of KL(p || q), summed over the entries with p > 0."""
    return float(np.mean([sum(pj * math.log(pj / qj) for pj, qj in zip(pr, qr) if pj > 0.0)
                          for pr, qr in zip(p, q)]))


@pytest.mark.parametrize("name", ["inspect-fresh", "inspect-ckpt-separate-uni-temp"])
def test_inspect_losses_follow_from_its_printed_distributions(tmp_path, monkeypatch, name):
    # the printed Q matrices are the ones the printed losses were taken on
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(_report_runs(tmp_path, monkeypatch)[name]) == 0
    payload = json.loads(out.getvalue())["payload"]
    p_i2i, p_t2t = payload["p_i2i"], payload["p_t2t"]
    want = {"i2t": _mean_kl(p_i2i, payload["q_i2t"]), "t2i": _mean_kl(p_t2t, payload["q_t2i"]),
            "i2i": _mean_kl(p_i2i, payload["q_i2i"]), "t2t": _mean_kl(p_t2t, payload["q_t2t"])}
    got = payload["loss"]["per_direction"]
    assert set(got) == set(want)
    for key, value in want.items():
        assert abs(got[key] - value) < 1e-12, key
    diag_log_q = [np.mean(np.log(np.diagonal(payload[key]))) for key in ("q_i2t", "q_t2i")]
    assert abs(payload["loss"]["l_original"] + 0.5 * sum(diag_log_q)) < 1e-12


def test_fixed_seed_synth_bundle_is_byte_identical(tmp_path):
    assert _cli(["synth", "--out", str(tmp_path), "--clusters", "3",
                 "--pairs-per-cluster", "7", "--seed", "9",
                 "--d-student-img", "5", "--d-student-txt", "4",
                 "--d-teacher-img", "6", "--d-teacher-txt", "3"]) == 0
    assert {name: _sha256(tmp_path / name) for name in SYNTH_SHA256} == SYNTH_SHA256


def _variants(raw: bytes):
    """Every prefix, one appended byte and every single-byte flip of raw."""
    yield from (raw[:k] for k in range(len(raw)))
    yield raw + b"\x00"
    for k in range(len(raw)):
        yield raw[:k] + bytes([raw[k] ^ 0xFF]) + raw[k + 1:]


def test_reader_errors_are_byte_identical(tmp_path):
    feat, ckpt = tmp_path / "small.feat", tmp_path / "small.ckpt"
    write_features(feat, ["a", "\u00e9t\u00e9"], np.array([[1.0, -2.0], [0.5, 4.0]]))
    save_checkpoint(ckpt, init_params(3, 2, 3, 2, 1, separate_uni_temp=True), {"seed": 3})
    outcomes = []
    for reader, path in ((read_features, feat), (load_checkpoint, ckpt)):
        variant_path = tmp_path / ("variant" + path.suffix)
        for raw in _variants(path.read_bytes()):
            variant_path.write_bytes(raw)
            try:
                reader(variant_path)
            except Exception as e:  # noqa: BLE001 - the class is what is pinned
                outcomes.append((type(e).__name__, getattr(e, "offset", None), str(e)))
            else:
                outcomes.append(("loaded", None, ""))
    digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
    assert digest == READER_ERRORS_SHA256


def _relevance_outcomes(tmp_path):
    """What read_relevance gives for every variant of RELEVANCE_TEXT, with
    the id table and interning: (class, line number, message) of its
    error, or the CSR and the index order."""
    path = tmp_path / "variant.tsv"
    outcomes = []
    for raw in _variants(RELEVANCE_TEXT.encode("utf-8")):
        path.write_bytes(raw)
        for known_ids in (RELEVANCE_IDS, None):
            try:
                rel = read_relevance(path, known_ids=known_ids)
            except Exception as e:  # noqa: BLE001 - the class is what is pinned
                outcomes.append((type(e).__name__, getattr(e, "lineno", None), str(e)))
            else:
                outcomes.append((list(rel.index), rel.queries.tolist(), rel.indptr.tolist(),
                                 rel.indices.tolist()))
    return outcomes


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_relevance_reader_outcomes_are_byte_identical(tmp_path, forced_cpus, parts):
    with forced_cpus(parts):
        outcomes = _relevance_outcomes(tmp_path)
    digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
    assert digest == RELEVANCE_OUTCOMES_SHA256
