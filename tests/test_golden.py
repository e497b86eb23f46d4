"""Byte identity of fixed-seed runs, one row of RECIPES per golden recipe.

A row names the corpus it runs in, the argv of `cli.main` or the library
call that it runs, and the sha256 of each output it pins: the run's
stdout, files the run writes, or the bytes the call returns. The rows
cover training (checkpoint and step log), the gradcheck, inspect and
eval reports, the synth bundle and what the binary and relevance
readers make of damaged input. Each row's why line says what it guards
and the conditions it must hold under.

The bytes depend on the floating-point stack: the numpy build and its
dispatch of exp and log, the BLAS kernels and the BLAS thread count
(README, "Command line"). Re-pin a digest only from a commit whose
outputs are trusted, never from the change under test, and give the
reason in CHANGES.md.
"""

import hashlib
import io
import json
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from brute_force import masked_kl
from cusa import cli, dataio
from cusa.model import embed_images, embed_texts, init_params


class Recipe(NamedTuple):
    corpus: str | None  # a key of CORPORA, or None for a fresh directory
    run: str | Callable  # the argv of cli.main, split at spaces, or a call that returns bytes
    pinned: dict  # "stdout", "result" (of a call) or a file name -> sha256
    why: str


BUNDLE = ("--pairs pairs.tsv --img-base img_base.feat --txt-base txt_base.feat "
          "--img-teacher img_teacher.feat --txt-teacher txt_teacher.feat")
TRAIN = f"train {BUNDLE} --out-ckpt model.ckpt --log train.log"


def _write_scored_pairs():
    """scored.tsv: 12 text pairs of the corpus with gold scores."""
    ids = dataio.read_features("txt_base.feat").ids
    with open("scored.tsv", "w", encoding="utf-8") as fh:
        for k in range(12):
            fh.write(f"{ids[k]}\t{ids[(5 * k + 3) % len(ids)]}\t{(7 * k) % 5 / 4}\n")


# the steps that build each corpus in its directory: argv of cli.main, or calls
CORPORA = {
    "train": ["synth --out . --clusters 3 --pairs-per-cluster 10 --seed 13 --d-student-img 6 "
              "--d-student-txt 7 --d-teacher-img 8 --d-teacher-txt 9"],
    "eval": ["synth --out . --clusters 3 --pairs-per-cluster 12 --seed 21 --noise 0.4",
             f"{TRAIN} --batch-size 12 --epochs 2 --d-e 6 --d-u 3 --seed 5"],
    "multi-block": ["synth --out . --clusters 3 --pairs-per-cluster 150 --seed 31 --noise 0.4"],
    "report": ["synth --out . --clusters 3 --pairs-per-cluster 8 --seed 17 --d-student-img 6 "
               "--d-student-txt 6 --d-teacher-img 7 --d-teacher-txt 5",
               f"{TRAIN} --batch-size 6 --epochs 2 --d-e 4 --d-u 3 --seed 3", _write_scored_pairs],
}


def _train(alpha, beta, teacher_inv_temp="8"):
    """The argv of a golden training run on the train corpus."""
    return (f"{TRAIN} --batch-size 10 --epochs 4 --lr 1e-2 --alpha {alpha} --beta {beta} "
            f"--teacher-inv-temp {teacher_inv_temp} --d-e 5 --d-u 3 --seed 2")


def _projector_heads():
    """The projector-head embeddings of every image and text of the
    corpus, from its checkpoint."""
    params, _ = dataio.load_checkpoint("model.ckpt")
    return b"".join(embed(dataio.read_features(name).features, params, usa_branch=True).tobytes()
                    for embed, name in ((embed_images, "img_base.feat"),
                                        (embed_texts, "txt_base.feat")))


def _variants(raw: bytes):
    """Every prefix, one appended byte and every single-byte flip of raw."""
    yield from (raw[:k] for k in range(len(raw)))
    yield raw + b"\x00"
    for k in range(len(raw)):
        yield raw[:k] + bytes([raw[k] ^ 0xFF]) + raw[k + 1:]


def _reader_outcomes():
    """(exception class, offset, message), or a load, of read_features and
    load_checkpoint on every variant of a small feature file with a
    non-ASCII id and of a checkpoint."""
    feat, ckpt = Path("small.feat"), Path("small.ckpt")
    dataio.write_features(feat, ["a", "\u00e9t\u00e9"], np.array([[1.0, -2.0], [0.5, 4.0]]))
    dataio.save_checkpoint(ckpt, init_params(3, 2, 3, 2, 1), {"seed": 3})
    outcomes = []
    for reader, path in ((dataio.read_features, feat), (dataio.load_checkpoint, ckpt)):
        variant_path = Path("variant" + path.suffix)
        for raw in _variants(path.read_bytes()):
            variant_path.write_bytes(raw)
            try:
                reader(variant_path)
            except Exception as e:  # noqa: BLE001 - the class is what is pinned
                outcomes.append((type(e).__name__, getattr(e, "offset", None), str(e)))
            else:
                outcomes.append(("loaded", None, ""))
    return repr(outcomes).encode("utf-8")


# a non-ASCII id, one CRLF line end, an id outside RELEVANCE_IDS and a
# repeated query; read with RELEVANCE_IDS as the id table and without
RELEVANCE_TEXT = "q\ta,\u00e9\r\n\u00e9\tq\nb\tb,a\na\t\u00e9,z\nb\tq\n"
RELEVANCE_IDS = ["q", "a", "b", "\u00e9"]


def _relevance_outcomes():
    """What read_relevance gives for every variant of RELEVANCE_TEXT, with
    the id table and interning: (class, line number, message) of its
    error, or the CSR and the index order."""
    path = Path("variant.tsv")
    outcomes = []
    for raw in _variants(RELEVANCE_TEXT.encode("utf-8")):
        path.write_bytes(raw)
        for known_ids in (RELEVANCE_IDS, None):
            try:
                rel = dataio.read_relevance(path, known_ids=known_ids)
            except Exception as e:  # noqa: BLE001 - the class is what is pinned
                outcomes.append((type(e).__name__, getattr(e, "lineno", None), str(e)))
            else:
                outcomes.append((list(rel.index), rel.queries.tolist(), rel.indptr.tolist(),
                                 rel.indices.tolist()))
    return repr(outcomes).encode("utf-8")


EVAL_CKPT = "eval --ckpt model.ckpt --img-base img_base.feat"
CROSS_CKPT = f"{EVAL_CKPT} --task cross --txt-base txt_base.feat"
EMB = "--img-emb img_base.feat --txt-emb txt_base.feat"
ZERO = "a weight at 0 takes the loss core's general path, which once had a branch for it"

RECIPES = {
    "train": Recipe("train", _train("0.6", "0.4"), {
        "model.ckpt": "043e0fd66adad1667d438e53edd7cd54ccda3515c31c2694f20681f9cab26f9e",
        "train.log": "3dabf60cb0da6bcb00046586198adc0b0d69c24df55797148d2fe445d75e733c"},
        "both teacher terms on; less its config echo's Adam keys, equal to c96c8c2's run"),
    "row-shift": Recipe("train", _train("0.6", "0.4", "1e18"), {
        "model.ckpt": "43a8a7d2bcf339488a5b5e452ad68231a34738f66570bffdb7860fd969424b1d",
        "train.log": "2879ca3482262549c5bfb4c8b95bd1a53a519b8f625362dc6777f0b0ecc0f9a9"},
        "one modality's targets take the per-row shift in 8 of 12 batches; no moderate "
        "temperature can (a teacher row needs t > ln(1/LSE_FLOOR) / (4 NORM_TOL) = 1.4e11, "
        "a student row sums to >= e^-200), so test_mathops guards the per-matrix shift"),
    "zero-weight-0-0": Recipe("train", _train("0", "0"), {
        "model.ckpt": "ac8089c056bc679d5fc8f8288e074f08a14fdcc6158065b620cfd3f3177ac986",
        "train.log": "b404018cb172eda93baea11c24d3cb7deed27dab83a829cf0e753be9ccbca159"}, ZERO),
    "zero-weight-0-0.4": Recipe("train", _train("0", "0.4"), {
        "model.ckpt": "0a35ce9c694f52905811b9e2b884cba1b255cedb3b6ec33531dc7b8774502aa0",
        "train.log": "0f351b3d593da1f8664c39ffd78fa089e726f01de987607ec192fd27e3e9f4d6"}, ZERO),
    "zero-weight-0.6-0": Recipe("train", _train("0.6", "0"), {
        "model.ckpt": "c3b4741908e5e0613d48ec9e6f4021263888e58447f3750e8773603e2974f668",
        "train.log": "602df38c4671dedf3ce895f1291809fb2001d2ba725b442056cb5ba798299ca2"}, ZERO),
    "gradcheck": Recipe(None, "gradcheck --trials 2 --dims 5,4,3,2", {
        "stdout": "cd704ecac72df20b7b90c1093b688ab1875ae0a97c8b895eca0321138f3af5c3"},
        "finite differences of the loss core and the step; largest error 5.9491e-9"),
    "eval-cross-relevance": Recipe("eval", f"{CROSS_CKPT} --relevance relevance.tsv", {
        "stdout": "ff4dc2f4eef0d3a8f8bef84165000e1a29b12be590b6f5e44ea99a6d0cfe7a99"},
        "pinned with the dict-of-sets ranker; rsum adds its recalls left to right"),
    "eval-cross-pairs": Recipe("eval", f"{CROSS_CKPT} --pairs pairs.tsv", {
        "stdout": "aba60caad135f6ebe3b8acaa57b72e6840f19e3afbb253d90535010be79f7d24"},
        "pairs as relevance; pinned with the dict-of-sets ranker"),
    "eval-img-relevance": Recipe("eval", f"{EVAL_CKPT} --task img --relevance relevance.tsv", {
        "stdout": "42664819cb7afbe616c08e57f14a79274792144c48016bc188f86052253732f4"},
        "self-exclusion; pinned with the dict-of-sets ranker"),
    "multi-block-cross-relevance": Recipe(
        "multi-block", f"eval --task cross {EMB} --relevance relevance.tsv", {
            "stdout": "7c9078fb6c57b38e652642e0634cd35b601948bf3fa8457704aacd6924730299"},
        "four query blocks, pinned in one process: holds on 1-3 CPUs; long lines share ids"),
    "multi-block-img-relevance": Recipe(
        "multi-block", "eval --task img --img-emb img_base.feat --relevance relevance.tsv", {
            "stdout": "06c2e404c1bd15917029b7fe8212719e1e119e52924e759c72b28949e0f15a0b"},
        "as multi-block-cross-relevance, under self-exclusion"),
    "inspect-fresh": Recipe("report", f"inspect {BUNDLE} --batch 0,5,9,20 --alpha 0.3 "
                                      "--beta 0.7 --teacher-inv-temp 6 --d-e 4 --d-u 3 --seed 4", {
        "stdout": "3ee173de59ba8b60967142cb3ca98a6227190972ac88c413ceaa5c197a5b048c"},
        "a fresh init's losses and the Q matrices they follow from"),
    "inspect-ckpt": Recipe("report", f"inspect {BUNDLE} --batch 2,11,23 --ckpt model.ckpt "
                                     "--alpha 0 --beta 0 --d-e 4 --d-u 3", {
        "stdout": "7a03aa0a18d9f47e1366c27085e9956e417dab32528927332d80239147be0829"},
        "the same from the corpus checkpoint at zero weights; anchored at 7f52f45"),
    "sts-emb": Recipe("report", "eval --task sts --txt-emb txt_base.feat --pairs scored.tsv", {
        "stdout": "280b45d8ed1d53051114b48412452ee9b9851c10de63082915025075daf4b02d"},
        "Spearman of direct embeddings; pinned at fb14666"),
    "sts-ckpt-usa-branch": Recipe("report", "eval --task sts --ckpt model.ckpt --txt-base "
                                            "txt_base.feat --pairs scored.tsv --usa-branch", {
        "stdout": "d28f6c98219862f4002d8eb24d33ba8ae8a3a57de538ddb981c697114914b497"},
        "only the rank order of 12 pairs: projector-heads pins the checkpoint"),
    "cross-emb": Recipe("report", f"eval --task cross {EMB} --relevance relevance.tsv", {
        "stdout": "346a161ef07a3ccda21f1f21942d173ebb8b6a9623599677d6eaf2de436f3703"},
        "cross eval of direct embeddings; pinned at fb14666"),
    "projector-heads": Recipe("report", _projector_heads, {
        "result": "02d54b170bb07b619dc484a2fbb1ad0384dabb59a37ccbe7289daebdf4bcfe44"},
        "usa_branch embeddings of every row from the corpus checkpoint; anchored at 1e72b1d"),
    "synth-bundle": Recipe(None, "synth --out . --clusters 3 --pairs-per-cluster 7 --seed 9 "
        "--d-student-img 5 --d-student-txt 4 --d-teacher-img 6 --d-teacher-txt 3", {
        "img_base.feat": "74f6424777a911397cb8acb3c2105815805f7d6e285c82300c587dd7d60c5be7",
        "txt_base.feat": "759d332eaf2858402a9a2b25eb005f21a9d12d02f926ad83fd9e760b86ef721c",
        "img_teacher.feat": "1b9e16c8f1818f45dd3223ccce453ee0e4704f9d268007373c1f6bcd23bcad96",
        "txt_teacher.feat": "2bf7d4c87dbeed9f4cf5512eab84fe33eaa2bff308de2fd2bd35964af3aa90d4",
        "pairs.tsv": "7ecdd3d8ef7bbee91d1ac0fdfdb595df99a8a267b503eeceac3c5c7662ba6660",
        "relevance.tsv": "52019b78855972fc6ea7308f083e6970f449d940547fd2070b2a54f262a4240c"},
        "all six files of a bundle; pinned at f13f42e"),
    "reader-errors": Recipe(None, _reader_outcomes, {
        "result": "2bb4580e95b3acc9b92a13be94708df5479ef673e681455f970e39aad1f31a2e"},
        "each damaged variant's outcome; anchored at 7f52f45 on a one-temperature checkpoint"),
    "relevance-outcomes": Recipe(None, _relevance_outcomes, {
        "result": "95d63fafdb194c6303e4624923a988239f55ba93128dcf95ccfc4c74060d8f7b"},
        "pinned at 6b33e30; holds at SHARED_ENDS_MIN and with that gate at 0"),
}


def _stdout(argv) -> str:
    """The stdout of cli.main(argv), which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(name): {output: bytes} of recipe `name`, run with its corpus as
    the working directory, since reports echo the relative paths of their
    inputs. A corpus is built once, on first use; a row without one runs
    in a fresh directory."""
    corpora = {}

    def run_recipe(name):
        recipe = RECIPES[name]
        with pytest.MonkeyPatch.context() as mp:
            if recipe.corpus in corpora:
                mp.chdir(corpora[recipe.corpus])
            else:
                mp.chdir(tmp_path_factory.mktemp(recipe.corpus or name))
                for step in CORPORA.get(recipe.corpus, []):
                    step() if callable(step) else _stdout(step.split())
                if recipe.corpus:
                    corpora[recipe.corpus] = Path.cwd()
            if callable(recipe.run):
                return {"result": recipe.run()}
            stdout = _stdout(recipe.run.split()).encode("utf-8")
            return {key: stdout if key == "stdout" else Path(key).read_bytes()
                    for key in recipe.pinned}

    return run_recipe


def check(run, *names):
    """Run each named recipe; the sha256 of each output equals its pin."""
    got = {name: {key: hashlib.sha256(data).hexdigest() for key, data in run(name).items()}
           for name in names}
    assert got == {name: RECIPES[name].pinned for name in names}


def test_fixed_seed_train_run_is_byte_identical(run):
    check(run, "train")


def test_a_run_whose_teacher_modalities_take_the_row_shift_apart_is_byte_identical(run):
    check(run, "row-shift")


@pytest.mark.parametrize("alpha, beta", [("0", "0"), ("0", "0.4"), ("0.6", "0")])
def test_zero_weight_train_runs_are_byte_identical(run, alpha, beta):
    check(run, f"zero-weight-{alpha}-{beta}")


def test_gradcheck_report_is_byte_identical(run):
    check(run, "gradcheck")


def test_fixed_seed_eval_reports_are_byte_identical(run):
    check(run, "eval-cross-relevance", "eval-cross-pairs", "eval-img-relevance")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_multi_block_eval_reports_are_byte_identical(run, forced_cpus, shared_ends_calls, cpus):
    with forced_cpus(cpus):
        check(run, "multi-block-cross-relevance", "multi-block-img-relevance")
    assert shared_ends_calls  # the parse copied shared ids


def test_fixed_seed_inspect_and_eval_input_reports_are_byte_identical(run):
    check(run, "inspect-fresh", "inspect-ckpt", "sts-emb", "sts-ckpt-usa-branch", "cross-emb")


def test_report_checkpoint_projector_heads_are_byte_identical(run):
    check(run, "projector-heads")


@pytest.mark.parametrize("name", ["inspect-fresh", "inspect-ckpt"])
def test_inspect_losses_follow_from_its_printed_distributions(run, name):
    # the printed Q matrices are the ones the printed losses were taken on
    payload = json.loads(run(name)["stdout"])["payload"]
    p_i2i, p_t2t = np.array(payload["p_i2i"]), np.array(payload["p_t2t"])
    want = {direction: masked_kl(p, np.log(payload[f"q_{direction}"])).mean()
            for direction, p in (("i2t", p_i2i), ("t2i", p_t2t), ("i2i", p_i2i), ("t2t", p_t2t))}
    got = payload["loss"]["per_direction"]
    assert set(got) == set(want)
    for key, value in want.items():
        assert abs(got[key] - value) < 1e-12, key
    diag_log_q = [np.mean(np.log(np.diagonal(payload[key]))) for key in ("q_i2t", "q_t2i")]
    assert abs(payload["loss"]["l_original"] + 0.5 * sum(diag_log_q)) < 1e-12


def test_fixed_seed_synth_bundle_is_byte_identical(run):
    check(run, "synth-bundle")


def test_reader_errors_are_byte_identical(run):
    check(run, "reader-errors")


def test_relevance_reader_outcomes_are_byte_identical(run):
    for gate in (0, dataio.SHARED_ENDS_MIN):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "SHARED_ENDS_MIN", gate)
            check(run, "relevance-outcomes")
