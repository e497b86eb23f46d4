"""End-to-end CLI behavior: exit codes, report envelope, determinism.

Everything runs in-process through cli.main(argv) so coverage and
monkeypatching work; corpora are kept tiny (12 pairs) for speed.
"""

import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cusa.cli
import cusa.losses
import cusa.trainer
from cusa.cli import main
from cusa.dataio import read_features, save_checkpoint, write_features
from cusa.errors import BadMagic, InvalidConfig, NotNormalized, UnknownId
from cusa.losses import LossGradients
from cusa.mathops import l2_normalize_rows
from cusa.model import param_segments

SYNTH_FLAGS = ["--clusters", "3", "--pairs-per-cluster", "4",
               "--d-student-img", "6", "--d-student-txt", "6",
               "--d-teacher-img", "8", "--d-teacher-txt", "8",
               "--seed", "7"]
FILE_NAMES = ["img_base.feat", "txt_base.feat", "img_teacher.feat",
              "txt_teacher.feat", "pairs.tsv", "relevance.tsv"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def train_flags(corpus, out_dir, extra=()):
    return ["train",
            "--pairs", str(corpus / "pairs.tsv"),
            "--img-base", str(corpus / "img_base.feat"),
            "--txt-base", str(corpus / "txt_base.feat"),
            "--img-teacher", str(corpus / "img_teacher.feat"),
            "--txt-teacher", str(corpus / "txt_teacher.feat"),
            "--out-ckpt", str(out_dir / "model.ckpt"),
            "--log", str(out_dir / "train.log"),
            "--batch-size", "4", "--epochs", "2",
            "--d-e", "8", "--d-u", "4", "--seed", "1",
            *extra]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), *SYNTH_FLAGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(train_flags(corpus, out)) == 0
    return out


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

class TestReportEnvelope:
    def test_fields_and_stderr_timing(self, capsys, tmp_path):
        code, report, err = run(capsys, ["synth", "--out", str(tmp_path / "c"),
                                         *SYNTH_FLAGS])
        assert code == 0
        assert set(report) == {"command", "config", "seed", "payload", "format_version"}
        assert report["format_version"] == 1
        assert report["command"] == "synth"
        assert report["seed"] == 7
        assert "wall_time_s=" in err

    def test_stdout_is_sorted_json(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["synth", "--out", str(tmp_path / "c"), *SYNTH_FLAGS])
        assert code == 0
        # rerun and compare raw bytes (paths identical, so full report matches)
        main(["synth", "--out", str(tmp_path / "c"), *SYNTH_FLAGS])
        out1 = capsys.readouterr().out
        main(["synth", "--out", str(tmp_path / "c"), *SYNTH_FLAGS])
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert out1 == json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

class TestSynthCommand:
    def test_writes_bundle(self, corpus, capsys):
        for name in FILE_NAMES:
            assert (corpus / name).exists(), name
        code, report, _ = run(capsys, ["synth", "--out", str(corpus), *SYNTH_FLAGS])
        assert code == 0
        assert report["payload"]["n_pairs"] == 12
        assert sorted(report["payload"]["files"]) == [
            "img_base", "img_teacher", "pairs", "relevance", "txt_base", "txt_teacher"]

    def test_rerun_byte_identical(self, corpus, tmp_path, capsys):
        code, _, _ = run(capsys, ["synth", "--out", str(tmp_path / "b"), *SYNTH_FLAGS])
        assert code == 0
        for name in FILE_NAMES:
            assert (tmp_path / "b" / name).read_bytes() == (corpus / name).read_bytes()

    def test_missing_out_flag(self, capsys):
        code, report, err = run(capsys, ["synth", *SYNTH_FLAGS])
        assert code == 2 and report is None and err

    def test_bad_cluster_count(self, capsys, tmp_path):
        code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "c"),
                                    "--clusters", "1"])
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("flag, field", [("--pairs-per-cluster", "pairs_per_cluster"),
                                             ("--clusters", "n_clusters"),
                                             ("--d-student-img", "d_student_img")])
    def test_unallocatable_size_rejected(self, capsys, tmp_path, flag, field):
        # 10^12 rows or columns need terabytes, so the allocation fails at once
        out = tmp_path / "big"
        code, report, err = run(capsys, ["synth", "--out", str(out), flag, "1000000000000"])
        assert code == 2 and report is None
        line = next(line for line in err.splitlines() if line.startswith("error:"))
        assert f"{field}=1000000000000" in line
        assert "Traceback" not in err
        assert not out.exists()

    # 1e308 is finite but makes the noisy features overflow to inf
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_noise_rejected(self, capsys, tmp_path, value):
        out = tmp_path / "noisy"
        code, report, err = run(capsys, ["synth", "--out", str(out), "--noise", value])
        assert code == 2 and report is None
        assert "intra_noise" in next(line for line in err.splitlines() if line.startswith("error:"))
        assert "Traceback" not in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TestTrainCommand:
    def test_outputs_and_report(self, corpus, trained, capsys):
        assert (trained / "model.ckpt").exists()
        assert (trained / "train.log").exists()
        code, report, _ = run(capsys, train_flags(corpus, trained))
        assert code == 0
        assert report["payload"]["n_steps"] == 6  # 12 pairs / bs 4 * 2 epochs
        final = report["payload"]["final"]
        assert final["epoch"] == 1 and final["step"] == 2  # step resets per epoch
        assert final["l_total"] >= final["l_original"] > 0.0

    def test_rerun_byte_identical(self, corpus, trained, tmp_path, capsys):
        code, _, _ = run(capsys, train_flags(corpus, tmp_path))
        assert code == 0
        assert (tmp_path / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()
        assert (tmp_path / "train.log").read_bytes() == (trained / "train.log").read_bytes()

    def test_zero_weights_drop_soft_terms(self, corpus, tmp_path, capsys):
        code, report, _ = run(capsys, train_flags(corpus, tmp_path,
                                                  ["--alpha", "0", "--beta", "0"]))
        assert code == 0
        final = report["payload"]["final"]
        assert final["l_total"] == final["l_original"]

    def test_batch_size_one_rejected(self, corpus, tmp_path, capsys):
        code, _, err = run(capsys, train_flags(corpus, tmp_path, ["--batch-size", "1"]))
        assert code == 2 and "error:" in err

    def test_negative_alpha_rejected(self, corpus, tmp_path, capsys):
        code, _, _ = run(capsys, train_flags(corpus, tmp_path, ["--alpha", "-0.5"]))
        assert code == 2

    @pytest.mark.parametrize("flag, field, value", [
        ("--alpha", "alpha", "nan"), ("--beta", "beta", "nan"),
        ("--weight-decay", "weight_decay", "nan"), ("--lr", "learning_rate", "inf"),
        ("--teacher-inv-temp", "teacher_inv_temp", "inf"), ("--alpha", "alpha", "inf"),
    ])
    def test_non_finite_flag_rejected(self, corpus, tmp_path, capsys, flag, field, value):
        code, report, err = run(capsys, train_flags(corpus, tmp_path, [flag, value]))
        assert code == 2 and report is None
        assert field in next(line for line in err.splitlines() if line.startswith("error:"))
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "train.log").exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--lr", "--weight-decay"])
    def test_overflowing_flag_aborts_training(self, corpus, tmp_path, capsys, flag):
        # finite, but the step overflows: a typed abort (exit 5), not a
        # numpy warning (which the test settings turn into a failure)
        code, report, err = run(capsys, train_flags(corpus, tmp_path, [flag, "1e308"]))
        assert code == 5 and report is None
        assert next(line for line in err.splitlines() if line.startswith("error:")).startswith(
            "error: training aborted at epoch 0, step ")
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--epochs", "epochs", "0"), ("--weight-decay", "weight_decay", "-0.5"),
    ])
    def test_out_of_range_flag_rejected(self, corpus, tmp_path, capsys, flag, field, value):
        code, report, err = run(capsys, train_flags(corpus, tmp_path, [flag, value]))
        assert code == 2 and report is None
        assert field in next(line for line in err.splitlines() if line.startswith("error:"))

    @pytest.mark.parametrize("flag, field", [("--d-e", "d_e"), ("--d-u", "d_u")])
    def test_unallocatable_dimension_rejected(self, corpus, tmp_path, capsys, flag, field):
        # 10^12 columns need terabytes, so the allocation fails at once
        code, report, err = run(capsys, train_flags(corpus, tmp_path, [flag, "1000000000000"]))
        assert code == 2 and report is None
        line = next(line for line in err.splitlines() if line.startswith("error:"))
        assert f"{field}=1000000000000" in line
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_missing_input_file(self, corpus, tmp_path, capsys):
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--pairs") + 1] = str(tmp_path / "nope.tsv")
        code, _, err = run(capsys, argv)
        assert code == 3 and "error:" in err

    def test_corrupt_feature_file(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.feat"
        bad.write_bytes(b"WHAT" + (corpus / "img_base.feat").read_bytes()[4:])
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--img-base") + 1] = str(bad)
        code, _, _ = run(capsys, argv)
        assert code == 3

    def test_teacher_missing_pair_id(self, corpus, tmp_path, capsys):
        table = read_features(corpus / "img_teacher.feat")
        partial = tmp_path / "partial.feat"
        write_features(partial, table.ids[:-1], table.features[:-1])
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--img-teacher") + 1] = str(partial)
        code, _, _ = run(capsys, argv)
        assert code == 4

    def test_teacher_missing_pair_id_names_the_teacher_table(self, corpus, tmp_path, capsys):
        table = read_features(corpus / "txt_teacher.feat")
        partial = tmp_path / "partial.feat"
        write_features(partial, table.ids[:-1], table.features[:-1])
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--txt-teacher") + 1] = str(partial)
        code, _, err = run(capsys, argv)
        assert code == 4
        assert err == f"error: text teacher table: no feature row for id {table.ids[-1]!r}\n"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEvalCross:
    def eval_flags(self, corpus, trained, extra=()):
        return ["eval", "--task", "cross",
                "--ckpt", str(trained / "model.ckpt"),
                "--img-base", str(corpus / "img_base.feat"),
                "--txt-base", str(corpus / "txt_base.feat"),
                *extra]

    def test_with_pairs(self, corpus, trained, capsys):
        code, report, _ = run(capsys, self.eval_flags(
            corpus, trained, ["--pairs", str(corpus / "pairs.tsv")]))
        assert code == 0
        payload = report["payload"]
        assert set(payload) == {"i2t", "t2i", "rsum"}
        assert 0.0 <= payload["rsum"] <= 600.0
        six = [payload[d][f"r_at_{k}"] for d in ("i2t", "t2i") for k in (1, 5, 10)]
        assert abs(payload["rsum"] - sum(six)) < 1e-9

    def test_with_relevance(self, corpus, trained, capsys):
        code, report, _ = run(capsys, self.eval_flags(
            corpus, trained, ["--relevance", str(corpus / "relevance.tsv")]))
        assert code == 0
        # multi-positive credit can only help relative to pair-only matching
        _, pair_report, _ = run(capsys, self.eval_flags(
            corpus, trained, ["--pairs", str(corpus / "pairs.tsv")]))
        assert report["payload"]["rsum"] >= pair_report["payload"]["rsum"] - 1e-9

    def test_rerun_byte_identical(self, corpus, trained, capsys):
        argv = self.eval_flags(corpus, trained, ["--pairs", str(corpus / "pairs.tsv")])
        main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_usa_branch_changes_metrics(self, corpus, trained, capsys):
        base = self.eval_flags(corpus, trained, ["--relevance", str(corpus / "relevance.tsv")])
        code, report_main, _ = run(capsys, base)
        assert code == 0
        code, report_usa, _ = run(capsys, base + ["--usa-branch"])
        assert code == 0
        assert report_usa["config"]["usa_branch"] is True
        assert report_usa["payload"] != report_main["payload"]

    def test_self_retrieval_direct_embeddings(self, corpus, tmp_path, capsys):
        emb = str(corpus / "img_base.feat")
        ids = read_features(emb).ids
        pairs = tmp_path / "self.tsv"
        pairs.write_text("".join(f"{i}\t{i}\n" for i in ids), encoding="utf-8")
        code, report, _ = run(capsys, ["eval", "--task", "cross",
                                       "--img-emb", emb, "--txt-emb", emb,
                                       "--pairs", str(pairs)])
        assert code == 0
        for direction in ("i2t", "t2i"):
            assert report["payload"][direction]["r_at_1"] == 100.0
            assert report["payload"][direction]["map_at_r"] == 1.0
        assert report["payload"]["rsum"] == 600.0

    def test_pairs_and_relevance_together(self, corpus, trained, capsys):
        code, _, err = run(capsys, self.eval_flags(
            corpus, trained, ["--pairs", str(corpus / "pairs.tsv"),
                              "--relevance", str(corpus / "relevance.tsv")]))
        assert code == 2 and "error:" in err

    def test_neither_pairs_nor_relevance(self, corpus, trained, capsys):
        code, _, _ = run(capsys, self.eval_flags(corpus, trained))
        assert code == 2

    def test_ckpt_and_direct_embeddings_conflict(self, corpus, trained, capsys):
        code, _, _ = run(capsys, self.eval_flags(
            corpus, trained, ["--img-emb", str(corpus / "img_base.feat"),
                              "--pairs", str(corpus / "pairs.tsv")]))
        assert code == 2

    @pytest.mark.parametrize("with_ckpt, flag", [(True, "--txt-base"), (False, "--txt-emb")])
    def test_missing_text_input_is_named(self, corpus, trained, capsys, with_ckpt, flag):
        inputs = (["--ckpt", str(trained / "model.ckpt"),
                   "--img-base", str(corpus / "img_base.feat")] if with_ckpt
                  else ["--img-emb", str(corpus / "img_base.feat")])
        code, report, err = run(capsys, ["eval", "--task", "cross", *inputs,
                                         "--pairs", str(corpus / "pairs.tsv")])
        assert code == 2 and report is None
        assert flag in next(line for line in err.splitlines() if line.startswith("error:"))

    def test_usa_branch_needs_ckpt(self, corpus, capsys):
        emb = str(corpus / "img_base.feat")
        code, _, _ = run(capsys, ["eval", "--task", "cross", "--usa-branch",
                                  "--img-emb", emb, "--txt-emb", emb,
                                  "--pairs", str(corpus / "pairs.tsv")])
        assert code == 2

    def test_unknown_pair_id(self, corpus, trained, tmp_path, capsys):
        pairs = tmp_path / "bad.tsv"
        pairs.write_text("img-c000-p0000\tno-such-text\n", encoding="utf-8")
        code, _, _ = run(capsys, self.eval_flags(corpus, trained,
                                                 ["--pairs", str(pairs)]))
        assert code == 4

    def test_embedding_widths_differ(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        img_ids = [f"i{k}" for k in range(5)]
        txt_ids = [f"t{k}" for k in range(5)]
        write_features(tmp_path / "img.feat", img_ids, rng.standard_normal((5, 4)))
        write_features(tmp_path / "txt.feat", txt_ids, rng.standard_normal((5, 6)))
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"{i}\t{t}\n" for i, t in zip(img_ids, txt_ids)),
                         encoding="utf-8")
        code, report, err = run(capsys, ["eval", "--task", "cross",
                                         "--img-emb", str(tmp_path / "img.feat"),
                                         "--txt-emb", str(tmp_path / "txt.feat"),
                                         "--pairs", str(pairs)])
        assert code == 4
        assert report is None
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_embedding_file(self, corpus, tmp_path, capsys):
        code, _, _ = run(capsys, ["eval", "--task", "cross",
                                  "--img-emb", str(tmp_path / "none.feat"),
                                  "--txt-emb", str(corpus / "txt_base.feat"),
                                  "--pairs", str(corpus / "pairs.tsv")])
        assert code == 3

    # Image and text tables that name their rows with the same id strings:
    # relevance and pairs resolve every id in one table over both
    # modalities. Values pinned from the dict-of-sets implementation.
    SHARED_IDS_PAYLOAD = {
        "--relevance": {
            "i2t": {"map_at_r": 0.4333333333333333, "map_at_r_pct": 43.33333333333333,
                    "r_at_1": 60.0, "r_at_5": 100.0, "r_at_10": 100.0,
                    "r_precision": 0.4333333333333333,
                    "r_precision_pct": 43.33333333333333},
            "t2i": {"map_at_r": 0.4833333333333333, "map_at_r_pct": 48.33333333333333,
                    "r_at_1": 60.0, "r_at_5": 100.0, "r_at_10": 100.0,
                    "r_precision": 0.5333333333333333,
                    "r_precision_pct": 53.333333333333336},
            "rsum": 520.0},
        "--pairs": {
            "i2t": {"map_at_r": 0.5, "map_at_r_pct": 50.0,
                    "r_at_1": 60.0, "r_at_5": 100.0, "r_at_10": 100.0,
                    "r_precision": 0.5, "r_precision_pct": 50.0},
            "t2i": {"map_at_r": 0.55, "map_at_r_pct": 55.00000000000001,
                    "r_at_1": 60.0, "r_at_5": 100.0, "r_at_10": 100.0,
                    "r_precision": 0.6, "r_precision_pct": 60.0},
            "rsum": 520.0},
    }

    @pytest.mark.parametrize("flag", ["--relevance", "--pairs"])
    def test_ids_shared_by_both_modalities(self, flag, tmp_path, capsys):
        ids = ["a", "b", "c", "d", "e"]
        write_features(tmp_path / "img.feat", ids, [
            [1.0, 0.0, 0.2], [0.6, 0.8, 0.0], [0.0, 1.0, 0.5], [-0.6, 0.8, 0.1],
            [0.3, -0.4, 1.0]])
        write_features(tmp_path / "txt.feat", ids, [
            [0.8, 0.6, 0.0], [0.9, -0.1, 0.3], [-0.2, 1.0, 0.4], [0.1, 0.7, -0.6],
            [0.0, 0.0, 1.0]])
        rel = tmp_path / "rel.tsv"
        rel.write_text("a\ta,b\nb\tb,e\nc\tc,d,a\nd\td\ne\te,a\n", encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\ta\nb\tb\nc\tc\nd\td\ne\te\na\tb\nc\td\n", encoding="utf-8")
        code, report, _ = run(capsys, ["eval", "--task", "cross",
                                       "--img-emb", str(tmp_path / "img.feat"),
                                       "--txt-emb", str(tmp_path / "txt.feat"),
                                       flag, str(rel if flag == "--relevance" else pairs)])
        assert code == 0
        assert report["payload"] == self.SHARED_IDS_PAYLOAD[flag]


class TestEvalImg:
    def test_uni_modal_report(self, corpus, capsys):
        code, report, _ = run(capsys, ["eval", "--task", "img",
                                       "--img-emb", str(corpus / "img_base.feat"),
                                       "--relevance", str(corpus / "relevance.tsv")])
        assert code == 0
        assert set(report["payload"]) == {"r_at_1"}
        assert 0.0 <= report["payload"]["r_at_1"] <= 100.0

    def test_relevance_required(self, corpus, capsys):
        code, _, _ = run(capsys, ["eval", "--task", "img",
                                  "--img-emb", str(corpus / "img_base.feat")])
        assert code == 2


class TestEvalSts:
    def test_perfectly_correlated_gold(self, corpus, tmp_path, capsys):
        table = read_features(corpus / "txt_base.feat")
        emb = l2_normalize_rows(table.features)
        ids = table.ids
        triples = [(ids[0], ids[j], float(emb[0] @ emb[j])) for j in range(1, 6)]
        scored = tmp_path / "scored.tsv"
        scored.write_text("".join(f"{a}\t{b}\t{s:.9f}\n" for a, b, s in triples),
                          encoding="utf-8")
        code, report, _ = run(capsys, ["eval", "--task", "sts",
                                       "--txt-emb", str(corpus / "txt_base.feat"),
                                       "--pairs", str(scored)])
        assert code == 0
        assert report["payload"]["n_pairs"] == 5
        assert report["payload"]["spearman"] == 1.0

    def test_pairs_required(self, corpus, capsys):
        code, _, _ = run(capsys, ["eval", "--task", "sts",
                                  "--txt-emb", str(corpus / "txt_base.feat")])
        assert code == 2


class TestEvalUnreadFlags:
    """A path flag the task would not read is a usage error that names
    the flag, before any file is opened."""

    CASES = [
        ("img", ["--img-emb", "img_base.feat", "--relevance", "relevance.tsv"], "--pairs"),
        ("sts", ["--txt-emb", "txt_base.feat", "--pairs", "pairs.tsv"], "--relevance"),
        ("sts", ["--txt-emb", "txt_base.feat", "--pairs", "pairs.tsv"], "--img-emb"),
        ("sts", ["--ckpt", "model.ckpt", "--txt-base", "txt_base.feat",
                 "--pairs", "pairs.tsv"], "--img-base"),
        ("img", ["--img-emb", "img_base.feat", "--relevance", "relevance.tsv"], "--txt-emb"),
        ("img", ["--ckpt", "model.ckpt", "--img-base", "img_base.feat",
                 "--relevance", "relevance.tsv"], "--txt-base"),
        ("cross", ["--img-emb", "img_base.feat", "--txt-emb", "txt_base.feat",
                   "--relevance", "relevance.tsv"], "--img-base"),
        ("cross", ["--img-emb", "img_base.feat", "--txt-emb", "txt_base.feat",
                   "--relevance", "relevance.tsv"], "--txt-base"),
    ]

    @pytest.mark.parametrize("task, inputs, flag", CASES,
                             ids=[f"{task} {flag}" for task, _, flag in CASES])
    def test_rejected(self, corpus, trained, capsys, task, inputs, flag):
        paths = [v if v.startswith("--") else str((trained if v == "model.ckpt" else corpus) / v)
                 for v in inputs]
        code, report, err = run(capsys, ["eval", "--task", task, *paths,
                                         flag, str(corpus / "nonexistent")])
        assert code == 2 and report is None
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

class TestGradcheckCommand:
    def test_passes_with_exact_gradients(self, capsys):
        code, report, err = run(capsys, ["gradcheck", "--trials", "2",
                                         "--dims", "5,4,3,2"])
        assert code == 0
        payload = report["payload"]
        assert payload["passed"] is True
        assert payload["tolerance"] == 1e-4
        expected = {"loss.s_i2t", "loss.s_i2i", "loss.s_t2t", "loss.log_inv_temp",
                    "loss.log_inv_temp_uni", "model.w_img", "model.w_txt", "model.u_img",
                    "model.u_txt", "model.log_inv_temp", "model.log_inv_temp_uni"}
        assert set(payload["max_errors"]) == expected
        assert all(v < 1e-4 for v in payload["max_errors"].values())

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run(capsys, ["gradcheck", "--trials", "0"])
        assert code == 2

    def test_negative_seed_rejected(self, capsys):
        code, report, err = run(capsys, ["gradcheck", "--seed", "-1", "--trials", "1"])
        assert code == 2 and report is None
        assert "seed" in err and "Traceback" not in err

    def test_malformed_dims(self, capsys):
        code, _, _ = run(capsys, ["gradcheck", "--dims", "3,3,3"])
        assert code == 2
        code, _, _ = run(capsys, ["gradcheck", "--dims", "a,b,c,d"])
        assert code == 2
        code, _, err = run(capsys, ["gradcheck", "--dims", "6,6,0,3"])
        assert code == 2 and "--dims entries must be >= 1" in err

    def test_unallocatable_dims_rejected(self, capsys):
        # 10^12 base columns need terabytes, so the allocation fails at once
        code, report, err = run(capsys, ["gradcheck", "--dims", "1000000000000,6,4,3",
                                         "--trials", "1"])
        assert code == 2 and report is None
        line = next(line for line in err.splitlines() if line.startswith("error:"))
        assert "d_base_img=1000000000000" in line
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(LossGradients)])
    def test_broken_gradient_detected(self, capsys, monkeypatch, field):
        real = cusa.losses.loss_from_logits

        def flipped(*args, **kwargs):
            report, grads = real(*args, **kwargs)
            setattr(grads, field, -getattr(grads, field))
            return report, grads

        monkeypatch.setattr(cusa.losses, "loss_from_logits", flipped)
        code, report, err = run(capsys, ["gradcheck", "--trials", "1",
                                         "--dims", "5,4,3,2"])
        assert code == 6
        assert report["payload"]["passed"] is False
        failed = err.split("gradcheck failed: ")[1].splitlines()[0].split(", ")
        assert "loss." + field.removeprefix("d_") in failed

    @pytest.mark.parametrize("segment", [name for name, *_ in param_segments((5, 4, 3, 2), 2)])
    def test_broken_training_step_detected(self, capsys, monkeypatch, segment):
        # gradcheck differentiates the step that training runs, so a
        # fault in the backward the trainer calls reaches its report
        real = cusa.trainer.backward

        def flipped(*args, **kwargs):
            grads = real(*args, **kwargs)
            for name, start, stop, _ in grads.segments:
                if name == segment:
                    grads.flat[start:stop] *= -1.0
            return grads

        monkeypatch.setattr(cusa.trainer, "backward", flipped)
        code, report, err = run(capsys, ["gradcheck", "--trials", "1",
                                         "--dims", "5,4,3,2"])
        assert code == 6
        assert report["payload"]["passed"] is False
        failed = err.split("gradcheck failed: ")[1].splitlines()[0].split(", ")
        assert "model." + segment in failed


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

class TestInspectCommand:
    def inspect_flags(self, corpus, extra=()):
        return ["inspect",
                "--pairs", str(corpus / "pairs.tsv"),
                "--img-base", str(corpus / "img_base.feat"),
                "--txt-base", str(corpus / "txt_base.feat"),
                "--img-teacher", str(corpus / "img_teacher.feat"),
                "--txt-teacher", str(corpus / "txt_teacher.feat"),
                "--d-e", "8", "--d-u", "4",
                *extra]

    def test_distributions_and_loss_identity(self, corpus, capsys):
        code, report, _ = run(capsys, self.inspect_flags(
            corpus, ["--batch", "0,3,7", "--alpha", "0.4", "--beta", "0.2"]))
        assert code == 0
        payload = report["payload"]
        assert payload["batch"] == [0, 3, 7]
        for key in ("p_i2i", "p_t2t", "q_i2t", "q_t2i", "q_i2i", "q_t2t"):
            rows = np.array(payload[key])
            assert rows.shape == (3, 3)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(rows > 0.0)
        loss = payload["loss"]
        want = loss["l_original"] + 0.4 * loss["l_csa"] + 0.2 * loss["l_usa"]
        assert abs(loss["l_total"] - want) < 1e-12
        assert set(loss["per_direction"]) == {"i2t", "t2i", "i2i", "t2t"}
        assert [e["id"] for e in payload["embeddings"]["images"]] == [
            "img-c000-p0000", "img-c000-p0003", "img-c001-p0003"]

    def test_identical_teacher_rows_split_mass(self, tmp_path, capsys):
        # two pairs whose teacher image rows coincide: soft targets 0.5 / 0.5
        ids_i, ids_t = ["i0", "i1"], ["t0", "t1"]
        rng = np.random.default_rng(0)
        base = l2_normalize_rows(rng.standard_normal((2, 4)))
        write_features(tmp_path / "ib.feat", ids_i, base)
        write_features(tmp_path / "tb.feat", ids_t, base[::-1])
        same = np.tile(l2_normalize_rows(rng.standard_normal((1, 4))), (2, 1))
        write_features(tmp_path / "it.feat", ids_i, same)
        write_features(tmp_path / "tt.feat", ids_t,
                       l2_normalize_rows(rng.standard_normal((2, 4))))
        (tmp_path / "pairs.tsv").write_text("i0\tt0\ni1\tt1\n", encoding="utf-8")
        code, report, _ = run(capsys, [
            "inspect",
            "--pairs", str(tmp_path / "pairs.tsv"),
            "--img-base", str(tmp_path / "ib.feat"),
            "--txt-base", str(tmp_path / "tb.feat"),
            "--img-teacher", str(tmp_path / "it.feat"),
            "--txt-teacher", str(tmp_path / "tt.feat"),
            "--batch", "0,1", "--d-e", "3", "--d-u", "2"])
        assert code == 0
        assert report["payload"]["p_i2i"] == [[0.5, 0.5], [0.5, 0.5]]

    def test_ckpt_embeddings_used(self, corpus, trained, capsys):
        code, fresh, _ = run(capsys, self.inspect_flags(corpus, ["--batch", "0,1"]))
        assert code == 0
        code, loaded, _ = run(capsys, self.inspect_flags(
            corpus, ["--batch", "0,1", "--ckpt", str(trained / "model.ckpt")]))
        assert code == 0
        assert fresh["payload"]["embeddings"] != loaded["payload"]["embeddings"]

    @pytest.mark.parametrize("flags", [
        ["--alpha", "nan"], ["--beta", "inf"], ["--teacher-inv-temp", "0"],
        ["--teacher-inv-temp", "inf"], ["--seed", "-1"], ["--d-e", "0"], ["--d-u", "0"],
        ["--d-e", "1000000000000"], ["--d-u", "1000000000000"],
    ], ids=" ".join)
    def test_bad_flags_rejected(self, corpus, capsys, flags):
        code, report, err = run(capsys, self.inspect_flags(corpus, ["--batch", "0,1", *flags]))
        assert code == 2 and report is None
        assert "error:" in err and "Traceback" not in err

    @pytest.fixture
    def partial_teacher(self, corpus, tmp_path):
        """An image teacher table without the row of the last pair's
        image, and that pair's index."""
        pairs = (corpus / "pairs.tsv").read_text(encoding="utf-8").splitlines()
        dropped = pairs[-1].split("\t")[0]
        table = read_features(corpus / "img_teacher.feat")
        keep = [k for k, i in enumerate(table.ids) if i != dropped]
        path = tmp_path / "partial.feat"
        write_features(path, [table.ids[k] for k in keep], table.features[keep])
        return path, len(pairs) - 1

    def test_teacher_rows_needed_only_for_the_batch(self, corpus, partial_teacher, capsys):
        path, _ = partial_teacher
        argv = self.inspect_flags(corpus, ["--batch", "0,1"])
        argv[argv.index("--img-teacher") + 1] = str(path)
        code, report, _ = run(capsys, argv)
        assert code == 0
        assert report["payload"]["batch"] == [0, 1]

    def test_teacher_missing_batch_pair(self, corpus, partial_teacher, capsys):
        path, missing = partial_teacher
        argv = self.inspect_flags(corpus, ["--batch", f"0,{missing}"])
        argv[argv.index("--img-teacher") + 1] = str(path)
        code, report, err = run(capsys, argv)
        assert code == 4 and report is None
        assert err.startswith("error:") and "Traceback" not in err

    def test_teacher_missing_batch_pair_names_the_teacher_table(self, corpus, partial_teacher,
                                                                 capsys):
        path, missing = partial_teacher
        argv = self.inspect_flags(corpus, ["--batch", f"0,{missing}"])
        argv[argv.index("--img-teacher") + 1] = str(path)
        code, _, err = run(capsys, argv)
        assert code == 4
        assert err.startswith("error: image teacher table: no feature row for id ")

    def test_bad_batch_values(self, corpus, capsys):
        code, _, _ = run(capsys, self.inspect_flags(corpus, ["--batch", "0,99"]))
        assert code == 2
        code, _, _ = run(capsys, self.inspect_flags(corpus, ["--batch", "0"]))
        assert code == 2
        code, _, _ = run(capsys, self.inspect_flags(corpus, ["--batch", "0,x"]))
        assert code == 2


# ---------------------------------------------------------------------------
# top-level parsing and numeric failures
# ---------------------------------------------------------------------------

class TestInvalidUtf8:
    """A byte that is not UTF-8 in a text input ends as MalformedLine
    (exit 3) naming its line, never as a traceback."""

    @staticmethod
    def corrupt_line_3(src, dst):
        lines = src.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
        dst.write_bytes(b"".join(lines))
        return str(dst)

    def check(self, capsys, argv):
        code, report, err = run(capsys, argv)
        assert code == 3
        assert report is None
        assert err.startswith("error: line 3: byte 0xff is not valid UTF-8")
        assert "Traceback" not in err

    @staticmethod
    def eval_cross(corpus, *flags):
        return ["eval", "--task", "cross", "--img-emb", str(corpus / "img_base.feat"),
                "--txt-emb", str(corpus / "txt_base.feat"), *flags]

    def test_eval_relevance(self, corpus, tmp_path, capsys):
        rel = self.corrupt_line_3(corpus / "relevance.tsv", tmp_path / "rel.tsv")
        self.check(capsys, self.eval_cross(corpus, "--relevance", rel))

    def test_eval_pairs(self, corpus, tmp_path, capsys):
        pairs = self.corrupt_line_3(corpus / "pairs.tsv", tmp_path / "pairs.tsv")
        self.check(capsys, self.eval_cross(corpus, "--pairs", pairs))

    def test_train_pairs(self, corpus, tmp_path, capsys):
        pairs = self.corrupt_line_3(corpus / "pairs.tsv", tmp_path / "pairs.tsv")
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--pairs") + 1] = pairs
        self.check(capsys, argv)


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_numeric_failure_exit_code(self, corpus, tmp_path, capsys):
        # a checkpoint whose image projection zeroes every embedding row
        from cusa.model import init_params
        params = init_params(0, 6, 6, 8, 4)
        params.w_img[:] = 0.0
        ckpt = tmp_path / "degenerate.ckpt"
        save_checkpoint(ckpt, params, {})
        code, _, err = run(capsys, ["eval", "--task", "cross",
                                    "--ckpt", str(ckpt),
                                    "--img-base", str(corpus / "img_base.feat"),
                                    "--txt-base", str(corpus / "txt_base.feat"),
                                    "--pairs", str(corpus / "pairs.tsv")])
        assert code == 5 and "error:" in err

    @pytest.mark.parametrize("error, exit_code", [
        (InvalidConfig("bad flag"), 2),
        (BadMagic("bad magic"), 3),
        (OSError("disk unreadable"), 3),
        (UnknownId("unknown id"), 4),
        (NotNormalized("row 0 has norm 2"), 5),
    ])
    def test_each_error_family_has_its_exit_code(self, capsys, monkeypatch, tmp_path,
                                                 error, exit_code):
        def failing(args):
            raise error

        monkeypatch.setattr(cusa.cli, "cmd_synth", failing)
        code, report, err = run(capsys, ["synth", "--out", str(tmp_path / "x")])
        assert code == exit_code and report is None
        assert err == f"error: {error}\n"

    def test_other_exceptions_propagate(self, monkeypatch, tmp_path):
        def failing(args):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cusa.cli, "cmd_synth", failing)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["synth", "--out", str(tmp_path / "x")])


# ---------------------------------------------------------------------------
# every command line
# ---------------------------------------------------------------------------

# argv templates: {corpus}, {trained} and {tmp} (a fresh directory per
# example, holding a regular file "file") are filled in at run time
INPUTS = st.sampled_from([*(f"{{corpus}}/{name}" for name in FILE_NAMES),
                          "{trained}/model.ckpt", "{trained}/train.log",
                          "{corpus}/missing.feat", "{corpus}"])
OUTPUTS = st.sampled_from(["{tmp}/out", "{tmp}/made/out", "{tmp}/file", "{tmp}"])
EDGE_FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308"])
SWITCH = (st.just(None), st.just(None))


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi):
    return st.floats(lo, hi).map(repr), EDGE_FLOATS


def sizes(lo, hi):
    return ints(lo, hi), ints(-1, lo - 1)


def files(*names):
    """An input flag per name: that bundle file, or any input."""
    return {f"--{name.split('.')[0].replace('_', '-')}": (st.just(f"{{corpus}}/{name}"), INPUTS)
            for name in names}


TRAIN_FILES = files("pairs.tsv", "img_base.feat", "txt_base.feat", "img_teacher.feat",
                    "txt_teacher.feat")
SHARED_TRAIN_FLAGS = {"--alpha": floats(0.0, 2.0), "--beta": floats(0.0, 2.0),
                      "--teacher-inv-temp": floats(0.5, 20.0), "--seed": sizes(0, 3),
                      "--d-e": sizes(1, 8), "--d-u": sizes(1, 8)}
CKPT = {"--ckpt": (st.just("{trained}/model.ckpt"), INPUTS)}
# each command line: (argv prefix, the flags it needs, its optional flags);
# a flag is (its good values, its faulty ones), and one whose good
# values are None appears only as a fault
COMMANDS = [
    (["synth"], {"--out": (st.sampled_from(["{tmp}/out", "{tmp}/made/out"]), OUTPUTS)},
     {"--clusters": sizes(2, 5), "--pairs-per-cluster": sizes(2, 5), "--seed": sizes(0, 3),
      "--noise": floats(0.0, 1.0), "--gap": floats(0.0, 1.0),
      **{f"--d-{side}": sizes(1, 8) for side in (
          "student-img", "student-txt", "teacher-img", "teacher-txt")}}),
    (["train"], {**TRAIN_FILES, "--out-ckpt": (st.just("{tmp}/out"), OUTPUTS),
                 "--log": (st.just("{tmp}/log"), OUTPUTS),
                 "--epochs": sizes(1, 2),
                 "--batch-size": (ints(2, 12), ints(-1, 1) | st.just("13"))},
     {**SHARED_TRAIN_FLAGS, "--lr": floats(1e-4, 0.1), "--weight-decay": floats(0.0, 0.1),
      "--separate-uni-temp": SWITCH}),
    (["eval", "--task=cross"], {**CKPT, **files("img_base.feat", "txt_base.feat",
                                                "relevance.tsv")},
     {"--usa-branch": SWITCH, "--pairs": (None, INPUTS), "--img-emb": (None, INPUTS)}),
    (["eval", "--task=cross"], {**files("pairs.tsv"),
                                "--img-emb": (st.just("{corpus}/img_base.feat"), INPUTS),
                                "--txt-emb": (st.just("{corpus}/txt_base.feat"), INPUTS)},
     {"--relevance": (None, INPUTS), "--usa-branch": (None, st.just(None))}),
    (["eval", "--task=img"], {**CKPT, **files("img_base.feat", "relevance.tsv")},
     {"--usa-branch": SWITCH, "--txt-base": (None, INPUTS), "--pairs": (None, INPUTS)}),
    (["eval", "--task=sts"], {"--txt-emb": (st.just("{corpus}/txt_base.feat"), INPUTS),
                              **files("pairs.tsv")},
     {"--relevance": (None, INPUTS), "--img-base": (None, INPUTS)}),
    (["gradcheck"], {"--trials": sizes(1, 2)},
     {"--seed": sizes(0, 3),
      "--dims": (st.lists(ints(1, 8), min_size=4, max_size=4).map(",".join),
                 st.lists(ints(-1, 8), min_size=0, max_size=5).map(",".join)
                 | st.sampled_from(["a,b,c,d", "1,,1,1"]))}),
    (["inspect"], {**TRAIN_FILES,
                   "--batch": (st.lists(ints(0, 11), min_size=2, max_size=5).map(",".join),
                               st.lists(ints(-1, 13), max_size=3).map(",".join)
                               | st.sampled_from(["0,x", "0,,1", "1.5,2"]))},
     {**SHARED_TRAIN_FLAGS, **CKPT}),
]


@st.composite
def command_lines(draw):
    """A command line from COMMANDS with good values for the flags it
    needs and for a draw of its optional ones; then, half the time,
    one of its flags takes a faulty value: a special float (nan, inf,
    0, -1, 1e308), a size below its range (or a batch larger than the
    bundle), or another bundle file, a missing file or a directory in
    place of an input."""
    prefix, needed, optional = draw(st.sampled_from(COMMANDS))
    flags = draw(st.fixed_dictionaries(
        {flag: good for flag, (good, _) in needed.items()},
        optional={flag: good for flag, (good, _) in optional.items() if good is not None}))
    if draw(st.booleans()):
        every = {**needed, **optional}
        flag = draw(st.sampled_from(sorted(every)))
        flags[flag] = draw(every[flag][1])
    return [*prefix, *(flag if value is None else f"{flag}={value}"
                       for flag, value in flags.items())]


@settings(deadline=None, max_examples=100)
@given(argv=command_lines())
def test_every_command_line_ends_in_an_exit_code(corpus, trained, argv):
    # files stay far below dataio.PART_BYTES, so no example forks
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("a regular file\n", encoding="utf-8")
        args = [arg.format(corpus=corpus, trained=trained, tmp=tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)  # anything but a return escapes here and fails
    assert code in (0, 2, 3, 4, 5, 6), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
