"""File formats: features, pairs, relevance, scored pairs, checkpoints.

All formats are bit-exact and little-endian. Readers reject malformed
input with positioned errors; nothing is repaired silently.

Feature file ("CUSF"):
    magic 4 bytes "CUSF" | version u32 = 1 | n u64 | d u32
    then n records: id_len u16 | id UTF-8 bytes | d float32 values
    ids non-empty and unique, n >= 1, d >= 1, all values finite.
    Stored 32-bit, computed 64-bit: read_features upconverts.

Pairs file: UTF-8 text, one "image_id<TAB>text_id" per line. Duplicate
lines are kept; multiplicity matters for batching.

Relevance file: one "query_id<TAB>id1,id2,..." per line, non-empty
relevant sets, one line per query. Read into a CSR (metrics.Relevance)
that holds each id string once, in one pass in the calling process. Its
relevant ids are table positions at 2 bytes each (uint16) while the
table holds at most 65,536 ids, at 4 (int32) above that; on eval-2k
that keeps the CSR at 8.0 MB, not 16.0 MB, and the command's peak RSS
at 45.1 MB, not 52.8 MB. A long line copies the ids it shares at each
end with the line before from that line's row (see read_relevance).

Scored pairs file: "id_a<TAB>id_b<TAB>score" per line (the similarity-
with-gold-score evaluation input).

Checkpoint ("CUSC"):
    magic "CUSC" | version u32 = 1 | d_bi u32 | d_bt u32 | d_e u32 |
    d_u u32 | has_uni_temp u8 | parameters | config_len u32 |
    config JSON UTF-8
    Every dim is >= 1 and has_uni_temp is 0: the student has one
    temperature, and a file whose byte is anything else is refused. The
    parameter block is the bytes of StudentParams.flat (f64), laid out
    by model.param_segments: log_inv_temp | w_img | w_txt | u_img |
    u_txt (row-major). Every value, the temperature included, must be
    finite on save and on load.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
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
from .metrics import Relevance, _interning_index, extend_positions, id_table, position_array
from .model import StudentParams, param_segments

FEATURE_MAGIC = b"CUSF"
CHECKPOINT_MAGIC = b"CUSC"
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 1
# id lists of fewer characters are looked up whole: one-id edits of 10-byte ids
# broke even near 700 (one process, 2 vCPUs); lines of 1-5 ids took 2-3x as long ungated
SHARED_ENDS_MIN = 1 << 10


def _read_header(path, magic: bytes, version: int, fmt: str, kind: str):
    """(bytes, header fields after the version, offset past the header) of a
    `kind` file headed by `magic` and struct `fmt`; length, magic and version checked."""
    with open(path, "rb") as fh:
        buf = fh.read()
    header = 4 + struct.calcsize(fmt)
    if len(buf) < header:
        raise TruncatedFile(len(buf), f"header needs {header} bytes, file has {len(buf)}")
    if buf[:4] != magic:
        raise BadMagic(f"expected magic {magic!r}, found {buf[:4]!r}")
    found, *fields = struct.unpack_from(fmt, buf, 4)
    if found != version:
        raise VersionUnsupported(f"{kind} version {found}, supported: {version}")
    return buf, fields, header


def _field_end(buf: bytes, offset: int, size: int, what: str) -> int:
    """The offset past a `size`-byte field `what` that starts at `offset`."""
    if offset + size > len(buf):
        raise TruncatedFile(offset, f"{what} cut off at byte {offset}")
    return offset + size


def _no_trailing_bytes(buf: bytes, offset: int, last: str) -> None:
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after {last}")


@dataclass
class FeatureTable:
    """In-memory id-indexed feature matrix (float64)."""

    ids: list
    features: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or len(self.features) != len(self.ids):
            raise ShapeMismatch(f"{len(self.ids)} ids for features of shape {self.features.shape}")
        self._index = id_table(self.ids)
        if len(self._index) != len(self.ids):
            i = next(i for i, item_id in enumerate(self.ids) if self._index[item_id] < i)
            raise DuplicateId(f"duplicate id {self.ids[i]!r} (record {i})")

    def __contains__(self, item_id) -> bool:
        return item_id in self._index

    def take(self, wanted_ids) -> np.ndarray:
        """Rows for the given ids, in order; duplicates allowed."""
        try:
            rows = [self._index[i] for i in wanted_ids]
        except KeyError as e:
            raise MissingFeature(f"no feature row for id {e.args[0]!r}") from None
        return self.features[rows]


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def write_features(path, ids, features) -> None:
    """Write a feature table; values are stored as float32."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InvalidConfig(f"features must be 2-D, got shape {feats.shape}")
    n, d = feats.shape
    if n < 1 or d < 1:
        raise InvalidConfig(f"feature table must be at least 1x1, got {n}x{d}")
    if len(ids) != n:
        raise InvalidConfig(f"{len(ids)} ids for {n} feature rows")
    # checked as stored: a finite float64 beyond float32's range becomes inf
    with np.errstate(over="ignore"):
        f32 = feats.astype("<f4")
    bad = ~np.isfinite(f32).all(axis=1)
    if bad.any():
        rec = int(bad.argmax())
        raise NonFiniteValue(f"record {rec} (id {str(ids[rec])!r}) is not finite as float32")
    FeatureTable(list(map(str, ids)), feats)  # rejects duplicates of the stored ids
    encoded = []
    for item_id in ids:
        raw = str(item_id).encode("utf-8")
        if not raw:
            raise InvalidConfig("empty id")
        if len(raw) > 0xFFFF:
            raise InvalidConfig(f"id too long ({len(raw)} bytes): {item_id!r}")
        encoded.append(raw)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FEATURE_VERSION, n, d))
        fh.write(b"".join(field for raw, row in zip(encoded, f32)
                          for field in (struct.pack("<H", len(raw)), raw, row.tobytes())))


def read_features(path) -> FeatureTable:
    """Read a feature file back into a float64 FeatureTable."""
    buf, (n, d), offset = _read_header(path, FEATURE_MAGIC, FEATURE_VERSION, "<IQI",
                                       "feature file")
    if n < 1 or d < 1:
        raise FormatError(f"header declares {n} rows x {d} dims; both must be >= 1")
    ids, starts = [], []
    row_bytes = 4 * d
    # a header that declares more rows than the file holds fails in this
    # loop, at the offset where the records stop, before any allocation
    try:
        for rec in range(n):
            id_at = _field_end(buf, offset, 2, f"record {rec}: id length")
            (id_len,) = struct.unpack_from("<H", buf, offset)
            values_at = _field_end(buf, id_at, id_len, f"record {rec}: id")
            try:
                item_id = buf[id_at:values_at].decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"record {rec}: id is not valid UTF-8 ({e})") from None
            offset = _field_end(buf, values_at, row_bytes, f"record {rec}: values")
            if not id_len:
                raise FormatError(f"record {rec}: empty id")
            ids.append(item_id)
            starts.append(values_at)
    finally:
        # one gather of the complete records' values, also on a fault, so
        # that a record with NaN or Inf is reported before a later fault
        if starts:
            rows = sliding_window_view(np.frombuffer(buf, dtype=np.uint8),
                                       row_bytes)[starts].view("<f4")
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:
                raise NonFiniteValue(f"record {bad[0]} (id {ids[bad[0]]!r}) contains NaN or Inf")
    _no_trailing_bytes(buf, offset, f"record {n - 1}")
    del buf  # the file's bytes need not sit beside the float64 copy
    return FeatureTable(ids=ids, features=rows)  # float64; rejects duplicate ids


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _lines(path):
    """(line number, line) of a UTF-8 text file, the newline stripped,
    numbered from 1. Bytes that are not UTF-8 end as MalformedLine naming
    their line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as text:
        for lineno, line in enumerate(text, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    # surrogateescape decodes a bad byte b to U+DC00 + b
                    bad = ord(line[e.start]) - 0xDC00
                    raise MalformedLine(
                        lineno, f"line {lineno}: byte 0x{bad:02x} is not valid UTF-8") from None
            yield lineno, line.rstrip("\n")


def _records(path, kind: str, form: str):
    """(line number, fields) of each line of a tab-separated text file
    laid out as `form`, e.g. 'image_id<TAB>text_id': as many fields as
    `form` names, the first two non-empty. The line is split only at its
    fields' tabs, so a tab left in the last field is one field too many.
    A file without lines is MalformedLine too, named by `kind`."""
    n_fields = form.count("<TAB>") + 1
    lineno = 0
    for lineno, line in _lines(path):
        fields = line.split("\t", n_fields - 1)
        if (len(fields) != n_fields or not fields[0] or not fields[1]
                or "\t" in fields[-1]):
            raise MalformedLine(lineno, f"line {lineno}: expected {form!r}, got {line!r}")
        yield lineno, fields
    if not lineno:
        raise MalformedLine(0, f"{kind} file is empty")


def read_pairs(path, img_ids=None, txt_ids=None) -> list:
    """Ordered (image_id, text_id) list; duplicates preserved.

    When id universes are supplied, unknown references raise UnknownId.
    """
    pairs = []
    for lineno, (img, txt) in _records(path, "pairs", "image_id<TAB>text_id"):
        if img_ids is not None and img not in img_ids:
            raise UnknownId(f"line {lineno}: unknown image id {img!r}")
        if txt_ids is not None and txt not in txt_ids:
            raise UnknownId(f"line {lineno}: unknown text id {txt!r}")
        pairs.append((img, txt))
    return pairs


def read_relevance(path, known_ids=None) -> Relevance:
    """Relevant ids of each query, one line per query, as a Relevance
    (a CSR over an id table).

    With known_ids the table is known_ids, each id once in its first
    position, and any other query or relevant id raises UnknownId.
    Without, the table holds every id the file names, in first-seen
    order. An id list of SHARED_ENDS_MIN or more characters whose first
    or last id the line before shares copies their shared ends from its
    row and looks up only the ids between, where any empty or unknown id
    must lie; every other check reads the whole line. Errors come in
    line order and, within a line: repeated query, empty id, unknown
    query, unknown relevant id.

    The relevant ids are held as uint16 table positions while the table
    holds at most metrics.NARROW_IDS (65,536) ids, and as int32 above
    that (metrics.position_array): known_ids decides up front, and a
    table that grows as the file is read widens to int32 on the line
    that takes it past 65,536 ids. On eval-2k that halves the CSR to
    8.0 MB, and the command's peak RSS fell from 52.8 to 45.1 MB.
    """
    index = _interning_index() if known_ids is None else id_table(known_ids)
    queries, indptr, indices = array("i"), array("i", [0]), position_array(len(index))
    seen, prev, gate, lookup = set(), "", SHARED_ENDS_MIN, index.__getitem__
    for lineno, (query, id_blob) in _records(path, "relevance", "query_id<TAB>id,id,..."):
        if query in seen:
            raise DuplicateId(f"line {lineno}: repeated query id {query!r}")
        seen.add(query)
        between = None
        if len(id_blob) < gate:
            prev = ""
        else:
            i = id_blob.find(",")
            if i > 0 and (prev.startswith(id_blob[:i + 1])
                          or prev.endswith(id_blob[id_blob.rfind(","):])):
                head, between, tail = _shared_ends(prev, id_blob, indptr[-1] - indptr[-2])
            prev = id_blob
        if between is None:
            empty = id_blob.startswith(",") or id_blob.endswith(",") or ",," in id_blob
        else:  # the shared ends are the line before's, which has no empty id
            empty = ",," in between
        if empty:
            raise MalformedLine(lineno, f"line {lineno}: empty id in relevant list")
        try:
            queries.append(index[query])
        except KeyError:
            raise UnknownId(f"line {lineno}: unknown query id {query!r}") from None
        try:
            if between is None:
                indices = extend_positions(indices, list(map(lookup, id_blob.split(","))))
            else:
                indices.extend(indices[indptr[-2]:indptr[-2] + head])
                if len(between) > 1:
                    indices = extend_positions(indices,
                                               list(map(lookup, between[1:-1].split(","))))
                indices.extend(indices[indptr[-1] - tail:indptr[-1]])
        except KeyError as e:
            raise UnknownId(f"line {lineno}: unknown relevant id {e.args[0]!r}") from None
        indptr.append(len(indices))
    return Relevance(index, queries, indptr, indices)


def _shared_ends(prev: str, id_blob: str, n_prev: int):
    """(head, between, tail): id list `id_blob` is the first `head` of the
    n_prev ids of `prev`, the ids of the text `between` without its first
    and last character, then prev's last `tail`. `between` is that text
    with the comma on each side (one comma when it is empty), so an empty
    id of id_blob that prev does not hold is a ",," in it. Shared are the
    whole ids of the lists' common UTF-8 prefix and (from its last comma
    on) suffix, one numpy comparison each; commas are counted only in the
    shorter shared end and in prev's middle."""
    a, b = f",{prev},".encode("utf-8"), f",{id_blob},".encode("utf-8")
    x, y = np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)
    n = min(len(a), len(b))  # both end in commas, so argmin 0 means all equal
    cut = b.rindex(b",", 0, int((x[:n] == y[:n]).argmin()) or n)
    n -= cut
    first = b.index(b",", len(b) - (int((x[-n:] == y[-n:])[::-1].argmin()) or n))
    dropped = a.count(b",", cut, first + len(a) - len(b))
    head = (b.count(b",", 0, cut) if cut < len(b) - first
            else n_prev - dropped - b.count(b",", first + 1))
    return head, b[cut:first + 1].decode("utf-8"), n_prev - dropped - head


def read_scored_pairs(path, ids=None) -> list:
    """Ordered (id_a, id_b, score) triples for similarity scoring."""
    triples = []
    for lineno, (a, b, raw_score) in _records(path, "scored-pairs", "id_a<TAB>id_b<TAB>score"):
        try:
            score = float(raw_score)
        except ValueError:
            raise MalformedLine(lineno, f"line {lineno}: bad score {raw_score!r}") from None
        if not np.isfinite(score):
            raise MalformedLine(lineno, f"line {lineno}: non-finite score {raw_score!r}")
        if ids is not None:
            for item in (a, b):
                if item not in ids:
                    raise UnknownId(f"line {lineno}: unknown id {item!r}")
        triples.append((a, b, score))
    return triples


@contextlib.contextmanager
def replacing(paths):
    """Yield the files to write in place of `paths`, each path followed
    through a symlink to its target. A target that is absent or a
    regular file gets a temporary file in its directory; once the
    with-block has written them all, each takes its target's permission
    bits and is moved over it, and on a failure they are removed, so a
    failed write leaves every previous file (or none). Any other target
    (a device such as /dev/null, a pipe) is written in place."""
    real = [os.path.realpath(p) for p in paths]
    modes = [os.stat(p).st_mode if os.path.exists(p) else None for p in real]
    files = [p if m is not None and not stat.S_ISREG(m) else f"{p}.{os.getpid()}.tmp"
             for p, m in zip(real, modes)]
    temps = [(tmp, path, mode) for tmp, path, mode in zip(files, real, modes) if tmp != path]
    try:
        yield files
        for tmp, path, mode in temps:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, path)
    except BaseException:
        for tmp, _, _ in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def write_replacing(path, chunks) -> None:
    """Write the byte strings `chunks` to path through `replacing`: a
    failed write leaves the previous bytes (or no file)."""
    with replacing([path]) as (file,), open(file, "wb") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _check_finite(params: StudentParams) -> None:
    bad = np.flatnonzero(~np.isfinite(params.flat))
    if bad.size:
        name = next(name for name, _, stop, _ in params.segments if bad[0] < stop)
        raise NonFiniteValue(f"checkpoint {name} contains NaN or Inf")


def save_checkpoint(path, params: StudentParams, config: dict) -> None:
    """Serialize params + config echo; round-trips bit-exactly. A failed
    write leaves the file at path as it was (see write_replacing)."""
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    _check_finite(params)
    write_replacing(path, (CHECKPOINT_MAGIC,
                           struct.pack("<IIIIIB", CHECKPOINT_VERSION, *params.dims, 0),
                           np.ascontiguousarray(params.flat, dtype="<f8").tobytes(),
                           struct.pack("<I", len(cfg_bytes)),
                           cfg_bytes))


def load_checkpoint(path):
    """Read a checkpoint, returning (StudentParams, config dict)."""
    buf, (*dims, has_uni), fixed = _read_header(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                                "<IIIIIB", "checkpoint")
    if 0 in dims:
        raise FormatError(f"header declares d_bi, d_bt, d_e, d_u = {dims}; each must be >= 1")
    if has_uni != 0:
        raise FormatError(f"header byte has_uni_temp is {has_uni}; it must be 0 "
                          "(the student has one temperature)")
    # sizes come from the header alone, so a header declaring more
    # parameters than the file holds fails here before any allocation
    for name, start, stop, _ in param_segments(dims):
        offset = _field_end(buf, fixed + 8 * start, 8 * (stop - start), name)
    flat = np.frombuffer(buf, dtype="<f8", count=stop, offset=fixed).copy()
    config_at = _field_end(buf, offset, 4, "config length")
    (cfg_len,) = struct.unpack_from("<I", buf, offset)
    offset = _field_end(buf, config_at, cfg_len, "config")
    try:
        config = json.loads(buf[config_at:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"config echo is not valid JSON: {e}") from None
    _no_trailing_bytes(buf, offset, "config")
    params = StudentParams(flat, dims)
    _check_finite(params)
    return params, config
