"""End-to-end CLI behavior: exit codes, report envelope, determinism.

Everything runs in-process through cli.main(argv) so coverage and
monkeypatching work; corpora are kept tiny (12 pairs) for speed.
"""

import argparse
import dataclasses
import errno
import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cusa.cli
import cusa.dataio
import cusa.losses
import cusa.synthetic
import cusa.trainer
from cusa.cli import main
from cusa.dataio import load_checkpoint, read_features, save_checkpoint, write_features
from cusa.errors import BadMagic, InvalidConfig, NotNormalized, UnknownId
from cusa.mathops import ZERO_ROW_TOL, l2_normalize_rows
from cusa.model import init_params, param_segments
from test_acceptance import _oracle_map_at_r, _oracle_order, _oracle_r_precision, _oracle_recall

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

    @pytest.mark.parametrize("previous", [True, False], ids=["previous", "none"])
    @pytest.mark.parametrize("failing", range(len(FILE_NAMES)))
    def test_a_failed_write_leaves_no_mixed_bundle(self, tmp_path, capsys, monkeypatch,
                                                   failing, previous):
        # the bundle's six files are written one after another; a full disk
        # at any of them must leave the bundle that was there, or none
        out = tmp_path / "bundle"
        if previous:
            assert run(capsys, ["synth", "--out", str(out), *SYNTH_FLAGS, "--seed", "2"])[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}
        real_open, opened = open, []

        def open_failing(file, mode="r", *args, **kwargs):
            if mode == "wb":
                opened.append(file)
                if len(opened) == failing + 1:
                    return _FullDisk(io.FileIO(file, "w"))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cusa.dataio, "open", open_failing, raising=False)
        monkeypatch.setattr(cusa.synthetic, "open", open_failing, raising=False)
        code, report, err = run(capsys, ["synth", "--out", str(out), *SYNTH_FLAGS])
        assert code == 3 and report is None and len(opened) == failing + 1
        assert "No space left on device" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

class _FullDisk(io.BufferedWriter):
    """A file that takes half of its first write, then fails as a full
    disk does."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


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

    def test_separate_uni_temperature_flag_is_gone(self, corpus, tmp_path, capsys):
        # the student has one learnable temperature
        code, report, err = run(capsys, train_flags(corpus, tmp_path, ["--separate-uni-temp"]))
        assert code == 2 and report is None
        assert "--separate-uni-temp" in err
        assert not (tmp_path / "model.ckpt").exists()

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

    @pytest.mark.parametrize("failing", ["model.ckpt", "train.log"])
    def test_a_failed_write_keeps_the_previous_file(self, corpus, tmp_path, capsys,
                                                    monkeypatch, failing):
        previous = {name: f"previous {name}\n".encode() for name in ("model.ckpt", "train.log")}
        for name, raw in previous.items():
            (tmp_path / name).write_bytes(raw)
        real_open, failed = open, []

        def open_failing(file, mode="r", *args, **kwargs):
            if mode == "wb" and Path(file).name.startswith(failing):
                failed.append(file)
                return _FullDisk(io.FileIO(file, "w"))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cusa.dataio, "open", open_failing, raising=False)
        code, report, err = run(capsys, train_flags(corpus, tmp_path))
        assert code == 3 and report is None and failed
        assert "No space left on device" in err
        assert (tmp_path / failing).read_bytes() == previous[failing]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "train.log"]

    def test_symlinked_outputs_stay_links_and_their_targets_are_rewritten(
            self, corpus, tmp_path, capsys):
        (tmp_path / "real").mkdir()
        for name in ("model.ckpt", "train.log"):
            target = tmp_path / "real" / name
            target.write_bytes(b"previous\n")
            target.chmod(0o640)
            (tmp_path / name).symlink_to(target)
        code, report, _ = run(capsys, train_flags(corpus, tmp_path))
        assert code == 0 and report is not None
        for name in ("model.ckpt", "train.log"):
            assert (tmp_path / name).is_symlink()
            target = tmp_path / "real" / name
            assert target.read_bytes() != b"previous\n"
            assert target.stat().st_mode & 0o777 == 0o640
        load_checkpoint(tmp_path / "model.ckpt")
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["model.ckpt", "train.log"]

    def test_a_log_to_the_null_device_is_written_in_place(self, corpus, tmp_path, capsys,
                                                          monkeypatch):
        real_replace = os.replace

        def replace_guarded(src, dst, *args, **kwargs):
            # a fault here must fail the test, not replace the device node
            assert os.path.realpath(dst) != os.devnull, f"{src} moved over {dst}"
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace_guarded)
        argv = train_flags(corpus, tmp_path)
        argv[argv.index("--log") + 1] = os.devnull
        code, report, _ = run(capsys, argv)
        assert code == 0 and report is not None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

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
                    "model.w_img", "model.w_txt", "model.u_img", "model.u_txt",
                    "model.log_inv_temp"}
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

    # each logit gradient the loss core returns: d_s_i2t, each matrix of the
    # uni-modal stack d_s_uni, and the log-temperature's
    @pytest.mark.parametrize("field", ["d_s_i2t", "d_s_i2i", "d_s_t2t", "d_log_inv_temp"])
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

    @pytest.mark.parametrize("segment", [name for name, *_ in param_segments((5, 4, 3, 2))])
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

    def test_a_dropped_uni_modal_temperature_gradient_is_detected(self, capsys, monkeypatch):
        # the uni-modal softmaxes share the one temperature, so the loss
        # core's derivative must collect their part as well
        real = cusa.losses._usa_directions

        def unsummed(*args):
            kl, d_s, _ = real(*args)
            return kl, d_s, 0.0

        monkeypatch.setattr(cusa.losses, "_usa_directions", unsummed)
        code, report, err = run(capsys, ["gradcheck", "--trials", "1",
                                         "--dims", "5,4,3,2"])
        assert code == 6
        failed = err.split("gradcheck failed: ")[1].splitlines()[0]
        assert failed == "loss.log_inv_temp, model.log_inv_temp"


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

    def test_an_overflowing_teacher_temperature_exits_5_without_a_warning(self, tmp_path,
                                                                           capsys):
        # anti-aligned image teacher rows: the shifted logits span 2e308
        ids_i, ids_t = ["i0", "i1"], ["t0", "t1"]
        write_features(tmp_path / "ib.feat", ids_i, np.eye(2))
        write_features(tmp_path / "tb.feat", ids_t, np.eye(2))
        write_features(tmp_path / "it.feat", ids_i, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        write_features(tmp_path / "tt.feat", ids_t, np.eye(2))
        (tmp_path / "pairs.tsv").write_text("i0\tt0\ni1\tt1\n", encoding="utf-8")
        argv = ["inspect", "--pairs", str(tmp_path / "pairs.tsv"),
                "--img-base", str(tmp_path / "ib.feat"), "--txt-base", str(tmp_path / "tb.feat"),
                "--img-teacher", str(tmp_path / "it.feat"),
                "--txt-teacher", str(tmp_path / "tt.feat"),
                "--batch", "0,1", "--d-e", "2", "--d-u", "2", "--teacher-inv-temp", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report, err = run(capsys, argv)
        assert code == 5 and report is None
        assert not caught and "Warning" not in err
        assert err.startswith("error: teacher_inv_temp 1e+308 overflows the teacher logits")

    def test_ckpt_embeddings_used(self, corpus, trained, capsys):
        code, fresh, _ = run(capsys, self.inspect_flags(corpus, ["--batch", "0,1"]))
        assert code == 0
        code, loaded, _ = run(capsys, self.inspect_flags(
            corpus, ["--batch", "0,1", "--ckpt", str(trained / "model.ckpt")]))
        assert code == 0
        assert fresh["payload"]["embeddings"] != loaded["payload"]["embeddings"]

    def test_a_two_temperature_checkpoint_is_refused(self, corpus, trained, tmp_path, capsys):
        # the layout of a separate uni-modal temperature: has_uni_temp 1
        # and a second log temperature after the first
        buf = (trained / "model.ckpt").read_bytes()
        header = 25  # magic and "<IIIIIB"; has_uni_temp is its last byte
        ckpt = tmp_path / "two.ckpt"
        ckpt.write_bytes(buf[:header - 1] + b"\x01" + buf[header:header + 8] + buf[header:])
        for argv in (["eval", "--task", "cross", "--ckpt", str(ckpt),
                      "--img-base", str(corpus / "img_base.feat"),
                      "--txt-base", str(corpus / "txt_base.feat"),
                      "--relevance", str(corpus / "relevance.tsv")],
                     self.inspect_flags(corpus, ["--batch", "0,1", "--ckpt", str(ckpt)])):
            code, report, err = run(capsys, argv)
            assert code == 3 and report is None, argv[0]
            assert "has_uni_temp is 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("value, inv_temp", [(1e3, 100.0), (1e308, 100.0), (-1e3, 1.0)])
    def test_a_checkpoint_temperature_beyond_exp_range_is_clamped(
            self, corpus, tmp_path, capsys, monkeypatch, value, inv_temp):
        params = init_params(0, 6, 6, 8, 4)
        params.log_inv_temp = value
        save_checkpoint(tmp_path / "m.ckpt", params, {})
        temps, real_loss = [], cusa.cli.loss_from_logits

        def loss(*args):  # records it
            temps.append(args[3])
            return real_loss(*args)

        monkeypatch.setattr(cusa.cli, "loss_from_logits", loss)
        code, report, err = run(capsys, self.inspect_flags(
            corpus, ["--batch", "0,1", "--ckpt", str(tmp_path / "m.ckpt")]))
        assert code == 0 and "Traceback" not in err
        json.dumps(report, allow_nan=False)  # raises on NaN or Infinity
        assert temps[0] == inv_temp

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

    @pytest.mark.parametrize("command, config", [("train", cusa.trainer.TrainConfig),
                                                 ("synth", cusa.synthetic.SynthConfig)])
    def test_every_config_field_is_a_flag(self, command, config):
        """Each field of the config that a command builds has a flag, and
        the flag's default is the field's."""
        [subparsers] = [a for a in cusa.cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        flags = {a.dest: a.default for a in subparsers.choices[command]._actions}
        fields = {f.name: f.default for f in dataclasses.fields(config)}
        assert {name: flags.get(name, "no flag") for name in fields} == fields

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
     {**SHARED_TRAIN_FLAGS, "--lr": floats(1e-4, 0.1), "--weight-decay": floats(0.0, 0.1)}),
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
    # no example ranks enough query blocks to fork
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("a regular file\n", encoding="utf-8")
        args = [arg.format(corpus=corpus, trained=trained, tmp=tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)  # anything but a return escapes here and fails
    assert code in (0, 2, 3, 4, 5, 6), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# hostile values in valid checkpoints
# ---------------------------------------------------------------------------

TINY, HUGE = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
HOSTILE_ENTRIES = [0.0, TINY, -TINY, 1e-300, -1e-300, 1e150, -1e150, 1e300, -1e300, HUGE, -HUGE]
_LOG_MIN, _LOG_MAX = 0.0, float(np.log(100.0))  # log of each clamp boundary of the temperature
HOSTILE_LOG_TEMPS = [_LOG_MIN, np.nextafter(_LOG_MIN, -np.inf), -1e3,
                     _LOG_MAX, np.nextafter(_LOG_MAX, np.inf), _LOG_MAX + 1.0, 1e3,
                     1e308, -1e308]


def _finite_json(text: str):
    def refuse(constant):
        raise AssertionError(f"non-finite number {constant} in stdout")
    return json.loads(text, parse_constant=refuse)


def _train_files(corpus) -> list:
    """The flags naming the five files of the bundle `corpus` that train
    and inspect read."""
    return [arg for role in FILE_NAMES[:5]
            for arg in (f"--{role.split('.')[0].replace('_', '-')}", str(corpus / role))]


def _checkpoint_runs(corpus, ckpt, batch="0,3,7") -> list:
    """eval --task cross --relevance, eval --task img and inspect of the
    pairs `batch`, each on the checkpoint `ckpt` and the bundle `corpus`."""
    bundle = {name: str(corpus / name) for name in FILE_NAMES}
    return [["eval", "--task", "cross", "--ckpt", ckpt, "--img-base", bundle["img_base.feat"],
             "--txt-base", bundle["txt_base.feat"], "--relevance", bundle["relevance.tsv"]],
            ["eval", "--task", "img", "--ckpt", ckpt, "--img-base", bundle["img_base.feat"],
             "--relevance", bundle["relevance.tsv"]],
            ["inspect", "--ckpt", ckpt, "--batch", batch, *_train_files(corpus)]]


def _run_hostile(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), a RuntimeWarning raising."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _ends_in_an_exit_code(argv):
    """The payload of main(argv) on exit 0, else None; any other end than
    an exit code in {0, 2, ..., 6} with no traceback, or finite JSON on
    exit 0, fails."""
    code, out, err = _run_hostile(argv)
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err)
    assert "Traceback" not in err
    return _finite_json(out)["payload"] if code == 0 else None


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_hostile_checkpoint_values_end_in_an_exit_code(corpus, data):
    """A valid checkpoint holding extreme parameters and temperatures
    runs eval and inspect to an exit code: 0 with finite JSON, or a
    typed error; never a traceback or a RuntimeWarning. Any number of
    matrix entries take a hostile value; the others keep their seeded
    init values."""
    d_e, d_u = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    params = init_params(0, 6, 6, d_e, d_u)
    size = params.flat.size
    hostile = data.draw(st.dictionaries(st.integers(1, size - 1),
                                        st.sampled_from(HOSTILE_ENTRIES), max_size=size - 1))
    for k, value in hostile.items():
        params.flat[k] = value
    params.log_inv_temp = data.draw(st.sampled_from(HOSTILE_LOG_TEMPS))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "hostile.ckpt")
        save_checkpoint(ckpt, params, {})
        for argv in _checkpoint_runs(corpus, ckpt):
            _ends_in_an_exit_code(argv)


def test_a_checkpoint_whose_projection_overflows_ends_as_a_numeric_error(corpus, tmp_path):
    # the property's first escape: base @ w_img overflowed with a
    # RuntimeWarning before unit_rows refused the row
    params = init_params(0, 6, 6, 1, 1)
    params.flat[1:] = 0.0
    params.flat[[1, 4]] = HUGE  # w_img[0, 0] and w_img[3, 0]
    params.log_inv_temp = 0.0
    save_checkpoint(tmp_path / "overflow.ckpt", params, {})
    for argv in _checkpoint_runs(corpus, str(tmp_path / "overflow.ckpt")):
        code, out, err = _run_hostile(argv)
        assert code == 5 and out == "", argv[:3]
        assert "norm that is not finite" in err


# ---------------------------------------------------------------------------
# hostile values in valid bundles
# ---------------------------------------------------------------------------

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
# the float32 values around ZERO_ROW_TOL: a row holding one of them alone
# has that norm, below the tolerance for the first two
AT_ZERO_ROW_TOL = [float(np.nextafter(np.float32(ZERO_ROW_TOL), np.float32(v)))
                   for v in (0.0, ZERO_ROW_TOL, 1.0)]
# a row of a bundle table is c e_k for one of these c, whose unit row is
# exact, or has any of HOSTILE_FEATURES in each column
ONE_HOT_SCALES = [1.0, -1.0, 3.0, F32_MAX, -F32_MAX, F32_TINY, *AT_ZERO_ROW_TOL]
HOSTILE_FEATURES = [0.0, 1.0, -1.0, 0.5, F32_MAX, -F32_MAX, F32_TINY, -F32_TINY,
                    *AT_ZERO_ROW_TOL]
BUNDLE_DIM = 3
CLAMP_LOG_TEMPS = [_LOG_MIN, np.nextafter(_LOG_MIN, -np.inf),
                   _LOG_MAX, np.nextafter(_LOG_MAX, np.inf)]


def _one_hot(k: int, c: float) -> list:
    row = [0.0] * BUNDLE_DIM
    row[k] = c
    return row


BUNDLE_ROWS = st.one_of(
    st.tuples(st.integers(0, BUNDLE_DIM - 1), st.sampled_from(ONE_HOT_SCALES)).map(
        lambda kc: _one_hot(*kc)),
    st.lists(st.sampled_from(HOSTILE_FEATURES), min_size=BUNDLE_DIM, max_size=BUNDLE_DIM))


def _write_bundle(out: Path, tables: dict, clusters: list) -> tuple:
    """Write the six bundle files of pairs (i<k>, t<k>) in `clusters`,
    whose feature rows are `tables` (file name -> rows); return the ids
    of each side and the relevance, which joins every id to the other
    ids of its cluster, both modalities."""
    n = len(clusters)
    img_ids, txt_ids = [f"i{k}" for k in range(n)], [f"t{k}" for k in range(n)]
    for name, rows in tables.items():
        write_features(out / name, img_ids if name.startswith("img") else txt_ids,
                       np.array(rows, dtype=np.float64))
    (out / "pairs.tsv").write_text("".join(f"i{k}\tt{k}\n" for k in range(n)),
                                   encoding="utf-8")
    rel = {ids[k]: {i for j in range(n) if clusters[j] == clusters[k]
                    for i in (img_ids[j], txt_ids[j])} - {ids[k]}
           for ids in (img_ids, txt_ids) for k in range(n)}
    (out / "relevance.tsv").write_text(
        "".join(f"{query}\t{','.join(sorted(ids))}\n" for query, ids in rel.items()),
        encoding="utf-8")
    return img_ids, txt_ids, rel


def _oracle_report(queries, gallery, query_ids, gallery_ids, rel, exclude_self=False) -> dict:
    """What eval reports for one direction, from criterion 3's brute-force
    oracles over the similarity matrix."""
    sims = queries @ gallery.T
    orders = [_oracle_order(sims[i], gallery_ids, skip=i if exclude_self else None)
              for i in range(len(query_ids))]
    recall = {f"r_at_{k}": 100.0 * _oracle_recall(orders, query_ids, rel, k)
              for k in (1, 5, 10)}
    if exclude_self:
        return {"r_at_1": recall["r_at_1"]}
    return {**recall, "r_precision": _oracle_r_precision(orders, query_ids, rel),
            "map_at_r": _oracle_map_at_r(orders, query_ids, rel)}


def _unit_features(path):
    return l2_normalize_rows(read_features(path).features)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_hostile_bundle_values_end_in_an_exit_code(data):
    """A valid bundle holding extreme features (float32 max, subnormals,
    rows at ZERO_ROW_TOL), exact duplicate rows and as few as one
    cluster runs train, eval and inspect to an exit code: 0 with finite
    JSON, or a typed error; never a traceback or a RuntimeWarning. eval
    on the bundle's features equals the brute-force oracles, ties and
    all, and eval and inspect also read a checkpoint whose temperature
    sits at or just beyond a clamp boundary."""
    n_clusters = data.draw(st.integers(1, 3))
    clusters = data.draw(st.lists(st.integers(0, n_clusters - 1), min_size=2, max_size=6))
    # duplicates come from drawing each table's rows out of a small pool
    pool = data.draw(st.lists(BUNDLE_ROWS, min_size=1, max_size=4))
    rows = st.lists(st.sampled_from(pool), min_size=len(clusters), max_size=len(clusters))
    tables = {name: data.draw(rows) for name in FILE_NAMES[:4]}
    teacher_inv_temp = data.draw(st.sampled_from(["1", "100", "1e4"]))
    batch_size = data.draw(st.integers(2, len(clusters)))
    log_temp = data.draw(st.sampled_from(CLAMP_LOG_TEMPS))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        img_ids, txt_ids, rel = _write_bundle(out, tables, clusters)
        bundle = {name: str(out / name) for name in FILE_NAMES}
        ckpt = str(out / "model.ckpt")
        if _ends_in_an_exit_code(["train", *_train_files(out), "--out-ckpt", ckpt,
                                  "--log", str(out / "train.log"), "--epochs", "1",
                                  "--batch-size", str(batch_size),
                                  "--teacher-inv-temp", teacher_inv_temp,
                                  "--d-e", "2", "--d-u", "2"]) is None:
            params = init_params(0, BUNDLE_DIM, BUNDLE_DIM, 2, 2)
        else:
            params, _ = load_checkpoint(ckpt)
        params.log_inv_temp = log_temp
        save_checkpoint(ckpt, params, {})

        cross = _ends_in_an_exit_code(["eval", "--task", "cross",
                                       "--img-emb", bundle["img_base.feat"],
                                       "--txt-emb", bundle["txt_base.feat"],
                                       "--relevance", bundle["relevance.tsv"]])
        if cross is not None:
            img, txt = (_unit_features(bundle[f"{side}_base.feat"]) for side in ("img", "txt"))
            for key, want in (("i2t", _oracle_report(img, txt, img_ids, txt_ids, rel)),
                              ("t2i", _oracle_report(txt, img, txt_ids, img_ids, rel))):
                assert {k: cross[key][k] for k in want} == want, key
        uni = _ends_in_an_exit_code(["eval", "--task", "img", "--img-emb", bundle["img_base.feat"],
                                     "--relevance", bundle["relevance.tsv"]])
        if uni is not None:
            img = _unit_features(bundle["img_base.feat"])
            assert uni == _oracle_report(img, img, img_ids, img_ids, rel, exclude_self=True)
        for argv in _checkpoint_runs(out, ckpt, ",".join(map(str, range(len(clusters))))):
            _ends_in_an_exit_code(argv)
