"""Binary and text format round-trips, plus positioned error reporting.

Byte offsets in the truncation tests are computed from the layout
documented in dataio.py; if the layout changes these must change too.
"""

import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cusa.cli import main
from cusa.dataio import (
    FeatureTable,
    load_checkpoint,
    read_features,
    read_pairs,
    read_relevance,
    read_scored_pairs,
    save_checkpoint,
    write_features,
)
from cusa.errors import (
    BadMagic,
    DuplicateId,
    FormatError,
    InvalidConfig,
    MalformedLine,
    MissingFeature,
    NonFiniteValue,
    TruncatedFile,
    UnknownId,
    VersionUnsupported,
)
from cusa.model import init_params

FEATURE_HEADER = 20   # magic + u32 version + u64 n + u32 d
CHECKPOINT_HEADER = 25  # magic + <IIIIIB


def small_file(tmp_path, name="feats.bin"):
    path = tmp_path / name
    feats = np.array([[1.0, -2.0, 0.25], [0.5, 4.0, -8.0]])
    write_features(path, ["a", "bb"], feats)
    return path, feats


# ---------------------------------------------------------------------------
# FeatureTable
# ---------------------------------------------------------------------------

class TestFeatureTable:
    def test_lookup(self):
        table = FeatureTable(["x", "y"], np.eye(2))
        assert "x" in table and "nope" not in table
        assert_array_equal(table.row("y"), [0.0, 1.0])
        assert table.n == 2 and table.d == 2

    def test_take_preserves_order_and_duplicates(self):
        table = FeatureTable(["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert_array_equal(table.take(["y", "x", "y"]),
                           [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            FeatureTable(["x", "x"], np.eye(2))

    def test_missing_row(self):
        table = FeatureTable(["x"], np.ones((1, 2)))
        with pytest.raises(MissingFeature):
            table.row("y")
        with pytest.raises(MissingFeature):
            table.take(["x", "y"])


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

class TestFeatureRoundTrip:
    def test_values_survive_exactly_when_f32(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((5, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.bin"
        write_features(path, [f"id{i}" for i in range(5)], feats)
        table = read_features(path)
        assert table.ids == [f"id{i}" for i in range(5)]
        assert table.features.dtype == np.float64
        assert_array_equal(table.features, feats)

    def test_f64_input_lands_on_nearest_f32(self, tmp_path):
        feats = np.array([[1.0 / 3.0, np.pi]])
        path = tmp_path / "f.bin"
        write_features(path, ["x"], feats)
        assert_array_equal(read_features(path).features,
                           feats.astype(np.float32).astype(np.float64))

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, feats = small_file(tmp_path, "a.bin")
        p2 = tmp_path / "b.bin"
        write_features(p2, ["a", "bb"], feats)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unicode_ids(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, ["naïve", "ąż"], np.eye(2))
        assert read_features(path).ids == ["naïve", "ąż"]


class TestFeatureWriteValidation:
    def test_empty_table(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_features(tmp_path / "f", [], np.empty((0, 3)))

    def test_not_two_dimensional(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_features(tmp_path / "f", ["a"], np.ones(3))

    def test_id_count_mismatch(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_features(tmp_path / "f", ["a"], np.eye(2))

    def test_duplicate_ids(self, tmp_path):
        with pytest.raises(DuplicateId):
            write_features(tmp_path / "f", ["a", "a"], np.eye(2))

    def test_empty_id(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_features(tmp_path / "f", ["a", ""], np.eye(2))

    def test_non_finite_values(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            write_features(tmp_path / "f", ["a"], [[1.0, np.inf]])


class TestFeatureReadErrors:
    def test_bad_magic(self, tmp_path):
        path, _ = small_file(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(b"XUSF" + buf[4:])
        with pytest.raises(BadMagic):
            read_features(path)

    def test_unsupported_version(self, tmp_path):
        path, _ = small_file(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[:4] + struct.pack("<I", 2) + buf[8:])
        with pytest.raises(VersionUnsupported):
            read_features(path)

    @pytest.mark.parametrize("cut,offset", [
        (10, 10),   # inside the header
        (21, 20),   # record 0: id length split
        (22, 22),   # record 0: id bytes missing
        (30, 23),   # record 0: float32 values short
        (36, 35),   # record 1: id length split
    ])
    def test_truncation_reports_offset(self, tmp_path, cut, offset):
        path, _ = small_file(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[:cut])
        with pytest.raises(TruncatedFile) as excinfo:
            read_features(path)
        assert excinfo.value.offset == offset

    def test_trailing_bytes(self, tmp_path):
        path, _ = small_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_features(path)

    def test_duplicate_ids_in_file(self, tmp_path):
        path = tmp_path / "f.bin"
        row = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, 2.0)
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 2, 2) + row + row)
        with pytest.raises(DuplicateId):
            read_features(path)

    def test_invalid_utf8_id(self, tmp_path):
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<2f", 1.0, 2.0)
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 1, 2) + rec)
        with pytest.raises(FormatError, match="UTF-8"):
            read_features(path)

    def test_non_finite_stored_value(self, tmp_path):
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, float("nan"))
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 1, 2) + rec)
        with pytest.raises(NonFiniteValue):
            read_features(path)

    def test_zero_rows_declared(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 0, 2))
        with pytest.raises(FormatError):
            read_features(path)

    @pytest.mark.parametrize("n,d", [(2 ** 24, 2 ** 10), (2 ** 40, 2 ** 20)])
    def test_header_larger_than_file(self, tmp_path, capsys, n, d):
        # 24 bytes whose header asks for a 128 GiB or an impossible array
        path = tmp_path / "f.bin"
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, n, d) + bytes(4))
        with pytest.raises(TruncatedFile) as excinfo:
            read_features(path)
        assert excinfo.value.offset == FEATURE_HEADER + 2
        rel = write_text(tmp_path, "rel.tsv", "a\tb\n")
        argv = ["eval", "--task", "img", "--img-emb", str(path), "--relevance", str(rel)]
        assert main(argv) == 3
        assert "values cut off" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadPairs:
    def test_basic(self, tmp_path):
        path = write_text(tmp_path, "p.tsv", "i1\tt1\ni2\tt2\n")
        assert read_pairs(path) == [("i1", "t1"), ("i2", "t2")]

    def test_duplicates_preserved(self, tmp_path):
        path = write_text(tmp_path, "p.tsv", "i\tt\ni\tt\ni\tt\n")
        assert read_pairs(path) == [("i", "t")] * 3

    def test_wrong_field_count(self, tmp_path):
        path = write_text(tmp_path, "p.tsv", "i1\tt1\ni2\tt2\textra\n")
        with pytest.raises(MalformedLine) as excinfo:
            read_pairs(path)
        assert excinfo.value.lineno == 2

    def test_unknown_ids(self, tmp_path):
        path = write_text(tmp_path, "p.tsv", "i1\tt1\n")
        with pytest.raises(UnknownId):
            read_pairs(path, img_ids={"other"}, txt_ids={"t1"})
        with pytest.raises(UnknownId):
            read_pairs(path, img_ids={"i1"}, txt_ids={"other"})

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path, "p.tsv", "")
        with pytest.raises(MalformedLine) as excinfo:
            read_pairs(path)
        assert excinfo.value.lineno == 0


class TestReadRelevance:
    def test_basic(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q1\ta,b\nq2\tc\n")
        assert read_relevance(path) == {"q1": {"a", "b"}, "q2": {"c"}}

    def test_repeated_query(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q\ta\nq\tb\n")
        with pytest.raises(DuplicateId):
            read_relevance(path)

    def test_empty_relevant_id(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q\ta,,b\n")
        with pytest.raises(MalformedLine):
            read_relevance(path)

    def test_unknown_ids_checked(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q\ta,b\n")
        assert read_relevance(path, known_ids={"q", "a", "b"})["q"] == {"a", "b"}
        with pytest.raises(UnknownId):
            read_relevance(path, known_ids={"q", "a"})
        with pytest.raises(UnknownId):
            read_relevance(path, known_ids={"a", "b"})

    def test_missing_set(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q\n")
        with pytest.raises(MalformedLine):
            read_relevance(path)


class TestReadScoredPairs:
    def test_basic(self, tmp_path):
        path = write_text(tmp_path, "s.tsv", "a\tb\t3.5\nc\td\t-0.25\n")
        assert read_scored_pairs(path) == [("a", "b", 3.5), ("c", "d", -0.25)]

    def test_bad_score(self, tmp_path):
        path = write_text(tmp_path, "s.tsv", "a\tb\thigh\n")
        with pytest.raises(MalformedLine) as excinfo:
            read_scored_pairs(path)
        assert excinfo.value.lineno == 1

    def test_non_finite_score(self, tmp_path):
        path = write_text(tmp_path, "s.tsv", "a\tb\tinf\n")
        with pytest.raises(MalformedLine):
            read_scored_pairs(path)
        path = write_text(tmp_path, "s2.tsv", "a\tb\tnan\n")
        with pytest.raises(MalformedLine):
            read_scored_pairs(path)

    def test_unknown_id(self, tmp_path):
        path = write_text(tmp_path, "s.tsv", "a\tb\t1.0\n")
        with pytest.raises(UnknownId):
            read_scored_pairs(path, ids={"a"})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("separate_uni", [False, True])
    def test_bit_exact(self, tmp_path, separate_uni):
        params = init_params(3, 6, 5, 4, 3, separate_uni_temp=separate_uni)
        config = {"alpha": 0.5, "beta": 0.25, "seed": 3, "note": "round trip"}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, config)
        loaded, cfg = load_checkpoint(path)
        for name in ("w_img", "w_txt", "u_img", "u_txt"):
            assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes()
        assert loaded.log_inv_temp == params.log_inv_temp
        assert loaded.log_inv_temp_uni == params.log_inv_temp_uni
        assert cfg == config

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_params(3, 6, 5, 4, 3)
        save_checkpoint(tmp_path / "a", params, {"k": 1})
        save_checkpoint(tmp_path / "b", params, {"k": 1})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_non_finite_params_rejected_on_save(self, tmp_path):
        params = init_params(3, 6, 5, 4, 3)
        params.w_txt[0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            save_checkpoint(tmp_path / "ckpt", params, {})


class TestCheckpointReadErrors:
    def make(self, tmp_path):
        params = init_params(0, 3, 2, 2, 2)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, {"seed": 0})
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self.make(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[:4] + struct.pack("<I", 9) + buf[8:])
        with pytest.raises(VersionUnsupported):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:CHECKPOINT_HEADER - 1])
        with pytest.raises(TruncatedFile) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.offset == CHECKPOINT_HEADER - 1

    def test_truncated_temperature(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:CHECKPOINT_HEADER + 4])
        with pytest.raises(TruncatedFile) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.offset == CHECKPOINT_HEADER

    def test_truncated_matrix(self, tmp_path):
        path = self.make(tmp_path)
        # stop inside w_img: header + log_inv_temp + a few floats
        path.write_bytes(path.read_bytes()[:CHECKPOINT_HEADER + 8 + 16])
        with pytest.raises(TruncatedFile) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.offset == CHECKPOINT_HEADER + 8

    def test_config_cut_off(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    def test_corrupt_config_json(self, tmp_path):
        path = self.make(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[-1] = ord("{")  # break the closing brace
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="JSON"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_non_finite_stored_matrix(self, tmp_path):
        path = self.make(tmp_path)
        buf = bytearray(path.read_bytes())
        start = CHECKPOINT_HEADER + 8  # first w_img float
        buf[start:start + 8] = struct.pack("<d", float("inf"))
        path.write_bytes(bytes(buf))
        with pytest.raises(NonFiniteValue):
            load_checkpoint(path)
