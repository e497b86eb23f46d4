"""Binary and text format round-trips, plus positioned error reporting.

Byte offsets in the truncation tests are computed from the layout
documented in dataio.py; if the layout changes these must change too.
"""

import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from cusa import dataio, parallel
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
    ShapeMismatch,
    TruncatedFile,
    UnknownId,
    VersionUnsupported,
)
from cusa.model import init_params, param_segments

FEATURE_HEADER = 20   # magic + u32 version + u64 n + u32 d
CHECKPOINT_HEADER = 25  # magic + <IIIIIB


def relevance_sets(rel):
    """Query id -> set of relevant ids, decoded from a Relevance."""
    name = {t: i for i, t in rel.index.items()}
    return {name[q]: {name[t] for t in rel.indices[lo:hi]}
            for q, lo, hi in zip(rel.queries, rel.indptr[:-1], rel.indptr[1:])}


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
        assert_array_equal(table.take(["y"]), [[0.0, 1.0]])
        assert table.take(["x", "y"]).shape == (2, 2)

    def test_take_preserves_order_and_duplicates(self):
        table = FeatureTable(["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert_array_equal(table.take(["y", "x", "y"]),
                           [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            FeatureTable(["x", "x"], np.eye(2))

    def test_fewer_rows_than_ids_rejected(self):
        with pytest.raises(ShapeMismatch):
            FeatureTable(["x", "y", "z"], np.ones((2, 2)))

    def test_more_rows_than_ids_rejected(self):
        with pytest.raises(ShapeMismatch):
            FeatureTable(["x", "y"], np.ones((3, 2)))

    def test_missing_row(self):
        table = FeatureTable(["x"], np.ones((1, 2)))
        with pytest.raises(MissingFeature):
            table.take(["y"])
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

    def test_bytes_follow_the_per_record_layout(self, tmp_path):
        # ids of 1-, 2- and 3-byte UTF-8 characters, and one of exactly
        # 0xFFFF bytes, the longest id a u16 length can frame
        ids = ["a", "é", "€", "ñandú", "日本語", "€" * 0x5555]
        assert len(ids[-1].encode("utf-8")) == 0xFFFF
        feats = np.random.default_rng(3).standard_normal((len(ids), 3))
        path = tmp_path / "f.bin"
        write_features(path, ids, feats)
        want = [b"CUSF", struct.pack("<IQI", 1, len(ids), 3)]
        for item_id, row in zip(ids, feats):
            raw = item_id.encode("utf-8")
            want += [struct.pack("<H", len(raw)), raw, row.astype("<f4").tobytes()]
        assert path.read_bytes() == b"".join(want)


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

    def test_ids_that_are_stored_alike_are_duplicates(self, tmp_path):
        # the file stores str(id), so 1 and "1" would read back as one id twice
        with pytest.raises(DuplicateId, match=r"'1' \(record 1\)"):
            write_features(tmp_path / "f", [1, "1"], np.eye(2))
        assert not (tmp_path / "f").exists()

    def test_empty_id(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_features(tmp_path / "f", ["a", ""], np.eye(2))

    def test_id_too_long(self, tmp_path):
        with pytest.raises(InvalidConfig, match=r"id too long \(65536 bytes\)"):
            write_features(tmp_path / "f", ["a" * 65536], np.eye(1))
        assert not (tmp_path / "f").exists()

    def test_non_finite_values(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            write_features(tmp_path / "f", ["a"], [[1.0, np.inf]])

    @pytest.mark.parametrize("big", [1e300, -1e300])
    def test_value_beyond_float32_range(self, tmp_path, big):
        # finite in float64 but inf once stored, which read_features refuses
        feats = np.zeros((3, 2))
        feats[1, 0] = big
        with pytest.raises(NonFiniteValue, match=r"record 1 \(id 'b'\) is not finite as float32"):
            write_features(tmp_path / "f", ["a", "b", "c"], feats)
        assert not (tmp_path / "f").exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        write_features(tmp_path / "f", ["a"], [[top, -top]])
        np.testing.assert_array_equal(read_features(tmp_path / "f").features, [[top, -top]])


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
        with pytest.raises(DuplicateId, match=r"'a' \(record 1\)"):
            read_features(path)

    def test_invalid_utf8_id(self, tmp_path):
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<2f", 1.0, 2.0)
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 1, 2) + rec)
        with pytest.raises(FormatError, match="UTF-8"):
            read_features(path)

    def test_empty_id(self, tmp_path, capsys):
        # a zero-length id after a valid record; write_features refuses one
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, 2.0)
        empty = struct.pack("<H", 0) + struct.pack("<2f", 3.0, 4.0)
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 2, 2) + rec + empty)
        with pytest.raises(FormatError, match="record 1: empty id"):
            read_features(path)
        rel = write_text(tmp_path, "rel.tsv", "a\ta\n")
        argv = ["eval", "--task", "img", "--img-emb", str(path), "--relevance", str(rel)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: record 1: empty id")
        assert "Traceback" not in captured.err

    def test_non_finite_stored_value(self, tmp_path):
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, float("nan"))
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 1, 2) + rec)
        with pytest.raises(NonFiniteValue):
            read_features(path)

    @pytest.mark.parametrize("fault", [
        struct.pack("<H", 1) + b"b" + struct.pack("<f", 3.0),
        struct.pack("<H", 1) + b"\xff" + struct.pack("<2f", 3.0, 4.0),
        struct.pack("<H", 0) + struct.pack("<2f", 3.0, 4.0),
    ], ids=["values-cut-off", "id-not-utf8", "empty-id"])
    def test_non_finite_record_reported_before_a_later_fault(self, tmp_path, fault):
        path = tmp_path / "f.bin"
        rec = struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, float("inf"))
        path.write_bytes(b"CUSF" + struct.pack("<IQI", 1, 2, 2) + rec + fault)
        with pytest.raises(NonFiniteValue, match=r"record 0 \(id 'a'\)"):
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
        assert relevance_sets(read_relevance(path)) == {"q1": {"a", "b"}, "q2": {"c"}}

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
        assert relevance_sets(read_relevance(path, known_ids={"q", "a", "b"}))["q"] == {"a", "b"}
        with pytest.raises(UnknownId):
            read_relevance(path, known_ids={"q", "a"})
        with pytest.raises(UnknownId):
            read_relevance(path, known_ids={"a", "b"})

    def test_missing_set(self, tmp_path):
        path = write_text(tmp_path, "r.tsv", "q\n")
        with pytest.raises(MalformedLine):
            read_relevance(path)


RELEVANCE_IDS = ["a", "b", "\u00e9", "q"]


def assert_names_its_line(outcome, raw, allowed=("MalformedLine", "UnknownId")):
    """An error outcome (class, line number, message) of a text reader on
    the bytes `raw` is one of `allowed`, and its message begins 'line N:'
    with N a line of the file (MalformedLine's lineno too). The one
    exception is MalformedLine with lineno 0, for an empty file."""
    name, lineno, message = outcome
    assert name in allowed, outcome
    if (name, lineno) == ("MalformedLine", 0):
        assert raw == b"" and message.endswith("file is empty"), outcome
        return
    match = re.match(r"line ([0-9]+): ", message)
    assert match and 1 <= int(match[1]) <= len(raw.splitlines()), outcome
    assert lineno in (None, int(match[1])), outcome


def relevance_outcome(path, known_ids=None):
    """(class, line number, message) of read_relevance's error, or the CSR
    and the id table order it reads."""
    try:
        rel = read_relevance(path, known_ids=known_ids)
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return type(e).__name__, getattr(e, "lineno", None), str(e)
    return list(rel.index), rel.queries.tolist(), rel.indptr.tolist(), rel.indices.tolist()


@st.composite
def relevance_files(draw):
    """A small relevance file: ids of RELEVANCE_IDS, an unknown id 'z' and
    empty ids, repeated queries, LF, CRLF and lone CR line ends, maybe no
    last line end and maybe a byte that is not UTF-8."""
    token = st.sampled_from(RELEVANCE_IDS * 3 + ["z", ""])
    lines = draw(st.lists(st.tuples(token, st.lists(token, min_size=1, max_size=4),
                                    st.sampled_from(["\n", "\r\n", "\r"])),
                          min_size=1, max_size=8))
    raw = bytearray("".join(f"{q}\t{','.join(rel)}{end}" for q, rel, end in lines),
                    "utf-8")
    if draw(st.booleans()):
        del raw[-1]
    if draw(st.booleans()):
        raw.insert(draw(st.integers(0, len(raw))), 0xFF)
    return bytes(raw)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=relevance_files())
@example(raw=b"a\tb\nb\ta\nq\ta\na\tq\n")  # a query repeated in a later part
@example(raw=b"a\tb\nb\ta\nq\tz\n")  # an unknown id in a later part
@example(raw=b"a\tb\nb\ta\nq\ta,,b\n")  # an empty id in a later part
@example(raw=b"a\tb\nb\ta\nq\t\xc3\n")  # bad UTF-8 in a later part
@example(raw=b"a\tb\rb\ta\r\nq\t\xc3\xa9\r\n\xc3\xa9\tq\n")  # CR and CRLF ends
@example(raw=b"a\tb,q\n")  # one line
@example(raw=b"a\tb\rb\ta\rq\ta")  # no b"\n" at all
def test_any_part_count_parses_like_one_part(tmp_path, forced_cpus, raw):
    path = tmp_path / "relevance.tsv"
    path.write_bytes(raw)
    for known_ids in (RELEVANCE_IDS, None):
        with forced_cpus(1):
            whole = relevance_outcome(path, known_ids)
        if len(whole) == 3:  # an error, not the four lists of a Relevance
            assert_names_its_line(whole, raw, ("MalformedLine", "UnknownId", "DuplicateId"))
        for parts in (2, 3, 4):
            with forced_cpus(parts):
                assert relevance_outcome(path, known_ids) == whole, (parts, known_ids)


def write_relevance_of_size(path, size):
    """A valid relevance file of exactly `size` bytes (at least 1024), in
    lines of 1 KiB, each query with one relevant id."""
    lines = [f"q{i:07d}\t" + "r" * 1014 + "\n" for i in range(size // 1024)]
    lines[-1] = lines[-1][:-1] + "r" * (size % 1024) + "\n"
    path.write_text("".join(lines), encoding="ascii")
    assert path.stat().st_size == size
    return path


class TestRelevanceParts:
    """How read_relevance splits a file and runs its parts."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_cuts_sit_after_line_feeds(self, tmp_path, forced_cpus):
        path = write_text(tmp_path, "r.tsv", "a\tb\r\nb\ta\r\nq\ta\n")
        with forced_cpus(3):
            assert dataio._part_cuts(path) == [0, 5, 10, None]
        path.write_bytes(b"a\tb\nq\ta\n")  # the middle byte starts a line
        with forced_cpus(2):
            assert dataio._part_cuts(path) == [0, 4, None]
        path.write_bytes(b"a\tb\rb\ta\rq\ta\r")
        with forced_cpus(3):
            assert dataio._part_cuts(path) == [0, None]

    @pytest.mark.parametrize("cpus, size", [(1, 2 * dataio.PART_BYTES + 5),
                                            (4, dataio.PART_BYTES - 1)])
    def test_one_cpu_or_a_file_under_a_part_forks_nothing(self, tmp_path, monkeypatch, forks,
                                                         cpus, size):
        path = write_relevance_of_size(tmp_path / "r.tsv", size)
        self.cpus(monkeypatch, cpus)
        rel = read_relevance(path)
        assert forks == [] and len(rel.queries) == size // 1024

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_a_platform_without_fork_or_affinity_parses_in_one_process(
            self, tmp_path, monkeypatch, missing):
        path = write_relevance_of_size(tmp_path / "r.tsv", 2 * dataio.PART_BYTES)
        whole = relevance_outcome(path)
        monkeypatch.delattr(os, missing)
        assert dataio._part_cuts(path) == [0, None]
        assert relevance_outcome(path) == whole

    def test_two_cpus_and_two_parts_fork_one_child(self, tmp_path, monkeypatch, forks):
        path = write_relevance_of_size(tmp_path / "r.tsv", 2 * dataio.PART_BYTES)
        self.cpus(monkeypatch, 1)
        whole = relevance_outcome(path)
        self.cpus(monkeypatch, 2)
        assert dataio._part_cuts(path) == [0, dataio.PART_BYTES, None]
        assert relevance_outcome(path) == whole
        assert forks == [1]

    @pytest.mark.parametrize("bad_line", [1, 2000], ids=["part-0", "part-1"])
    def test_a_fault_in_any_part_leaves_no_child(self, tmp_path, monkeypatch, bad_line):
        path = write_relevance_of_size(tmp_path / "r.tsv", 2 * dataio.PART_BYTES)
        lines = path.read_text(encoding="ascii").splitlines(keepends=True)
        lines[bad_line - 1] = lines[bad_line - 1].replace("\t", " ")
        path.write_text("".join(lines), encoding="ascii")
        self.cpus(monkeypatch, 2)
        with pytest.raises(MalformedLine) as excinfo:
            read_relevance(path)
        assert excinfo.value.lineno == bad_line
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_cannot_start_or_dies_leaves_its_part_to_the_parent(
            self, tmp_path, monkeypatch, forced_cpus):
        path = write_text(tmp_path, "r.tsv", "a\tb\nb\ta,\u00e9\nq\ta\n\u00e9\tb,q\n")
        whole = [relevance_outcome(path, known) for known in (RELEVANCE_IDS, None)]
        real_fork = os.fork

        def dying_fork():
            pid = real_fork()
            if pid == 0:
                os._exit(0)
            return pid

        def failing_fork():
            raise OSError("no process to spare")

        for fork in (dying_fork, failing_fork):
            with forced_cpus(3):
                monkeypatch.setattr(os, "fork", fork)
                assert [relevance_outcome(path, known)
                        for known in (RELEVANCE_IDS, None)] == whole

    def test_a_child_stream_that_ends_early_is_parsed_again(self, tmp_path, monkeypatch,
                                                           forced_cpus):
        # the second part is the last line, its 5 ids sent in chunks of 2
        path = write_text(tmp_path, "r.tsv", "a\tb,q,a,b,q,a\nq\ta\nb\ta,\u00e9,q,b,a\n")
        whole = relevance_outcome(path)
        real_read, reads = parallel.read_exact, []

        def read_exact(fh, size):
            reads.append(size)  # head, new ids, queries, indptr, chunks
            if len(reads) == 6:
                raise EOFError("cut off")
            return real_read(fh, size)

        with forced_cpus(2):
            monkeypatch.setattr(dataio, "_CHUNK_INTS", 2)
            monkeypatch.setattr(parallel, "read_exact", read_exact)
            assert relevance_outcome(path) == whole
        assert reads[4:] == [8, 8]


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


class TestRecordLayout:
    """The layout checks the three text readers share."""

    READERS = {
        "pairs": (read_pairs, "i\tt"),
        "relevance": (read_relevance, "q\ta,b"),
        "scored_pairs": (read_scored_pairs, "a\tb\t0.5"),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("bad", ["field_count", "empty_first", "empty_second"])
    def test_malformed_line_is_positioned(self, tmp_path, reader, bad):
        read, good = self.READERS[reader]
        fields = good.split("\t")
        if bad == "field_count":
            fields.append("extra")
        else:
            fields[0 if bad == "empty_first" else 1] = ""
        line = "\t".join(fields)
        path = write_text(tmp_path, "f.tsv", f"{good}\n{line}\n")
        with pytest.raises(MalformedLine, match=r"^line 2: expected '") as excinfo:
            read(path)
        assert excinfo.value.lineno == 2
        assert str(excinfo.value).endswith(f", got {line!r}")

    @pytest.mark.parametrize("reader", READERS)
    def test_empty_file(self, tmp_path, reader):
        read, _ = self.READERS[reader]
        path = write_text(tmp_path, "f.tsv", "")
        with pytest.raises(MalformedLine, match="file is empty") as excinfo:
            read(path)
        assert excinfo.value.lineno == 0


TEXT_IDS = ["a", "b", "\u00e9"]
TEXT_READERS = {  # reader(path, known ids or None), fields per line
    "pairs": (lambda path, known: read_pairs(path, known, known), 2),
    "scored_pairs": (lambda path, known: read_scored_pairs(path, known), 3),
}


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(sorted(TEXT_READERS)),
       lines=st.lists(st.tuples(st.sampled_from(TEXT_IDS), st.sampled_from(TEXT_IDS),
                                st.sampled_from(["0.5", "-1", "2e3"])),
                      min_size=1, max_size=4),
       end=st.sampled_from(["\n", "\r\n"]), flip=st.integers(1, 255),
       appended=st.integers(0, 255))
def test_damaged_text_files_parse_or_name_their_line(tmp_path, reader, lines, end, flip,
                                                      appended):
    """Every truncation of a valid pairs or scored-pairs file, every one
    of its bytes xor-ed with `flip`, and the file with one more byte,
    either parse or raise MalformedLine or UnknownId naming their line,
    with and without known ids."""
    read, n_fields = TEXT_READERS[reader]
    raw = "".join("\t".join(line[:n_fields]) + end for line in lines).encode("utf-8")
    variants = [raw[:cut] for cut in range(len(raw))]
    variants += [raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:] for at in range(len(raw))]
    variants.append(raw + bytes([appended]))
    path = tmp_path / "damaged.tsv"
    for variant in variants:
        path.write_bytes(variant)
        for known in (None, set(TEXT_IDS)):
            try:
                read(path, known)
            except Exception as e:  # noqa: BLE001 - the class is what is checked
                assert_names_its_line((type(e).__name__, getattr(e, "lineno", None), str(e)),
                                      variant)


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

    @pytest.mark.parametrize("name", ["log_inv_temp", "log_inv_temp_uni"])
    def test_non_finite_temperature_rejected_on_save(self, tmp_path, name):
        params = init_params(3, 6, 5, 4, 3, separate_uni_temp=name == "log_inv_temp_uni")
        setattr(params, name, float("nan"))
        with pytest.raises(NonFiniteValue, match=f"checkpoint {name} contains"):
            save_checkpoint(tmp_path / "ckpt", params, {})
        assert not (tmp_path / "ckpt").exists()


class TestCheckpointReadErrors:
    def make(self, tmp_path, separate_uni=False):
        params = init_params(0, 3, 2, 2, 2, separate_uni_temp=separate_uni)
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

    @pytest.mark.parametrize("byte", [2, 255])
    def test_layout_byte_other_than_0_or_1(self, tmp_path, capsys, byte):
        path = self.make(tmp_path, separate_uni=True)
        buf = bytearray(path.read_bytes())
        buf[CHECKPOINT_HEADER - 1] = byte  # has_uni_temp, the header's last byte
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match=f"has_uni_temp is {byte}; it must be 0 or 1"):
            load_checkpoint(path)
        # eval reads the checkpoint before any other input
        code = main(["eval", "--task", "img", "--ckpt", str(path),
                     "--img-base", str(path), "--relevance", str(path)])
        assert code == 3
        assert "has_uni_temp" in capsys.readouterr().err

    @pytest.mark.parametrize("byte", [0, 1])
    def test_layout_byte_round_trips(self, tmp_path, byte):
        path = self.make(tmp_path, separate_uni=bool(byte))
        assert path.read_bytes()[CHECKPOINT_HEADER - 1] == byte
        params, config = load_checkpoint(path)
        assert params.n_scalars == 1 + byte
        save_checkpoint(tmp_path / "again.bin", params, config)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

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

    @pytest.mark.parametrize("name, start", [("log_inv_temp", CHECKPOINT_HEADER),
                                             ("log_inv_temp_uni", CHECKPOINT_HEADER + 8)])
    def test_non_finite_stored_temperature(self, tmp_path, name, start):
        path = self.make(tmp_path, separate_uni=True)
        buf = bytearray(path.read_bytes())
        buf[start:start + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(buf))
        with pytest.raises(NonFiniteValue, match=f"checkpoint {name} contains"):
            load_checkpoint(path)

    @pytest.mark.parametrize("separate_uni", [False, True])
    def test_every_prefix_reports_the_cut_segment(self, tmp_path, separate_uni):
        path = self.make(tmp_path, separate_uni)
        buf = path.read_bytes()
        # (name, size in bytes) of each part after the fixed header, for
        # d_bi=3, d_bt=2, d_e=2, d_u=2 and the config echo {"seed": 0}
        sizes = ([("log_inv_temp", 8)] + [("log_inv_temp_uni", 8)] * separate_uni
                 + [("w_img", 48), ("w_txt", 32), ("u_img", 32), ("u_txt", 32),
                    ("config length", 4), ("config", len('{"seed": 0}'))])
        parts, pos = [], CHECKPOINT_HEADER
        for name, size in sizes:
            parts.append((name, pos, pos + size))
            pos += size
        assert pos == len(buf)
        for cut in range(len(buf)):
            path.write_bytes(buf[:cut])
            if cut < CHECKPOINT_HEADER:
                name, start = "header", cut
            else:
                name, start = next((n, lo) for n, lo, hi in parts if cut < hi)
            with pytest.raises(TruncatedFile) as excinfo:
                load_checkpoint(path)
            assert excinfo.value.offset == start, cut
            assert str(excinfo.value).startswith(f"{name} "), cut

    @staticmethod
    def consistent_checkpoint(path, dims):
        """A checkpoint whose parameter block and config fit the header
        `dims`, with finite nonzero values."""
        stop = param_segments(dims, 1)[-1][2]
        flat = np.linspace(-1.0, 1.0, stop + 1)[1:]
        config = json.dumps({"seed": 0}).encode("utf-8")
        path.write_bytes(b"CUSC" + struct.pack("<IIIIIB", 1, *dims, 0)
                         + flat.astype("<f8").tobytes()
                         + struct.pack("<I", len(config)) + config)
        return path

    @pytest.mark.parametrize("zero", range(4), ids=["d_bi", "d_bt", "d_e", "d_u"])
    def test_zero_dimension(self, tmp_path, zero):
        dims = [3, 2, 2, 2]
        dims[zero] = 0
        path = self.consistent_checkpoint(tmp_path / "ckpt.bin", dims)
        with pytest.raises(FormatError, match="each must be >= 1"):
            load_checkpoint(path)

    def test_zero_projector_width_rejected_by_eval(self, tmp_path, capsys):
        # d_u = 0 leaves the retrieval embeddings usable, so only the
        # header check stops eval from reporting on an empty projector head
        path = self.consistent_checkpoint(tmp_path / "ckpt.bin", [3, 2, 2, 0])
        rng = np.random.default_rng(0)
        write_features(tmp_path / "img.feat", ["i0", "i1"], rng.standard_normal((2, 3)))
        write_features(tmp_path / "txt.feat", ["t0", "t1"], rng.standard_normal((2, 2)))
        pairs = write_text(tmp_path, "pairs.tsv", "i0\tt0\ni1\tt1\n")
        code = main(["eval", "--task", "cross", "--ckpt", str(path),
                     "--img-base", str(tmp_path / "img.feat"),
                     "--txt-base", str(tmp_path / "txt.feat"), "--pairs", str(pairs)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: header declares") and "Traceback" not in captured.err

    @pytest.mark.parametrize("dim", [2**32 - 1, 2**11])
    def test_header_larger_than_file(self, tmp_path, dim):
        # 49 bytes: header, log_inv_temp and 16 bytes of w_img, which the
        # header declares as dim x dim
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"CUSC" + struct.pack("<IIIIIB", 1, dim, dim, dim, dim, 0)
                         + bytes(24))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile) as excinfo:
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.offset == CHECKPOINT_HEADER + 8
        assert peak < 2**20


# ---------------------------------------------------------------------------
# damaged binary files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_binaries(tmp_path_factory):
    """The bytes of a small feature file with a non-ASCII id and of a
    checkpoint with two temperatures, by reader."""
    out = tmp_path_factory.mktemp("binaries")
    write_features(out / "f.feat", ["a", "\u00e9t\u00e9", "z"],
                   np.array([[1.0, -2.0], [0.5, 4.0], [0.0, 3.0]]))
    save_checkpoint(out / "c.ckpt", init_params(1, 2, 3, 2, 1, separate_uni_temp=True),
                    {"seed": 1})
    return {read_features: (out / "f.feat").read_bytes(),
            load_checkpoint: (out / "c.ckpt").read_bytes()}


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from([read_features, load_checkpoint]), data=st.data())
def test_damaged_binaries_load_or_raise_format_errors(valid_binaries, tmp_path, reader, data):
    """Truncation, appended bytes and byte flips of a valid file either
    load or raise a FormatError; a truncation offset lies inside the file,
    and a feature file that loads writes back to the same bytes."""
    raw = bytearray(valid_binaries[reader])
    del raw[data.draw(st.integers(0, len(raw)), label="cut"):]
    raw += data.draw(st.binary(max_size=8), label="appended")
    for _ in range(data.draw(st.integers(0, 3), label="flips") if raw else 0):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "damaged.bin"
    path.write_bytes(bytes(raw))
    try:
        loaded = reader(path)
    except TruncatedFile as e:
        assert 0 <= e.offset <= len(raw)
        return
    except FormatError:
        return
    if reader is read_features:
        write_features(tmp_path / "rewritten.bin", loaded.ids, loaded.features)
        assert (tmp_path / "rewritten.bin").read_bytes() == bytes(raw)
