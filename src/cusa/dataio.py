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
relevant sets, one line per query. Read into an int32 CSR
(metrics.Relevance) that holds each id string once. The parse uses up
to one process per usable CPU, in parts of at least PART_BYTES (1 MiB)
that end on line boundaries: the calling process parses the first, a
forked child each other, and the parent merges them in order. A part
after the first that fails, or repeats an earlier part's query, makes
the parent parse the whole file in one pass, so outputs and errors
(class, message, line number) do not depend on the part count. The
children are started, killed and reaped by parallel.forked, as the
ranker's are; none outlives the call. Where parallel.usable_cpus is 1
(also where the os module lacks fork or sched_getaffinity), the file is
parsed in one process.

Scored pairs file: "id_a<TAB>id_b<TAB>score" per line (the similarity-
with-gold-score evaluation input).

Checkpoint ("CUSC"):
    magic "CUSC" | version u32 = 1 | d_bi u32 | d_bt u32 | d_e u32 |
    d_u u32 | has_uni_temp u8 | parameters | config_len u32 |
    config JSON UTF-8
    Every dim is >= 1 and has_uni_temp is 0 or 1 (1: a separate
    uni-modal temperature). The parameter block is the bytes of
    StudentParams.flat (f64), laid out by model.param_segments:
    log_inv_temp | [log_inv_temp_uni] | w_img | w_txt | u_img | u_txt
    (row-major). Every value, the temperatures included, must be finite
    on save and on load.
"""

from __future__ import annotations

import io
import itertools
import json
import os
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
from . import parallel
from .metrics import Relevance, _interning_index, id_table
from .model import StudentParams, param_segments

FEATURE_MAGIC = b"CUSF"
CHECKPOINT_MAGIC = b"CUSC"
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 1
PART_BYTES = 1 << 20  # the fewest bytes of a relevance file parsed in a process
# int32 positions merged at a time (64 KiB): with 1 MiB chunks the
# eval-2k command peaked 0.45 MB higher
_CHUNK_INTS = 1 << 14
# a parsed part as a child sends it: the length of its new ids' text
# and its query and index counts
_PART_HEAD = struct.Struct("<qqq")


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

class _Window(io.RawIOBase):
    """The next `size` bytes of a raw binary file, as a raw stream."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n


def _lines(path, start=0, stop=None):
    """(line number, line) of a UTF-8 text file, the newline stripped.

    Only bytes start..stop are read (stop None: to the end), numbered
    from 1. Bytes that are not UTF-8 end as MalformedLine naming their
    line.
    """
    with open(path, "rb", buffering=0) as raw:
        if start:
            raw.seek(start)
        if stop is not None:
            raw = _Window(raw, stop - start)
        text = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                                errors="surrogateescape")
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


def _records(path, kind: str, form: str, start=0, stop=None):
    """(line number, fields) of each line of a tab-separated text file
    laid out as `form`, e.g. 'image_id<TAB>text_id': as many fields as
    `form` names, the first two non-empty. start and stop are _lines'.
    A file without lines is MalformedLine too, named by `kind`."""
    n_fields = form.count("<TAB>") + 1
    lineno = 0
    for lineno, line in _lines(path, start, stop):
        fields = line.split("\t")
        if len(fields) != n_fields or not fields[0] or not fields[1]:
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
    (int32 CSR over an id table).

    With known_ids the table is known_ids, each id once in its first
    position, and any other query or relevant id raises UnknownId.
    Without, the table holds every id the file names, in first-seen
    order. The file is parsed in parts at once (see _part_cuts), and in
    one pass when that fails, so the result and any error are those of
    one pass over the whole file.
    """
    return (_read_parts(path, known_ids, _part_cuts(path))
            or _read_parts(path, known_ids, [0, None]))


def _read_parts(path, known_ids, cuts):
    """read_relevance of the parts between `cuts` (as _part_cuts gives
    them): the first parsed here, so its errors propagate as one pass
    raises them, each other in a forked child, merged in order. None
    when a child's part does not merge (the child failed, or its stream
    ended early) or repeats an earlier part's query: positions are
    unique per id string, so such a query repeats in the merged queries."""
    index = _interning_index() if known_ids is None else id_table(known_ids)
    parts = list(zip(cuts[:-1], cuts[1:]))
    # every child forks before part 0 is parsed, so it starts from
    # known_ids or from an empty index: _merge_child relies on it
    with parallel.forked(lambda part, out: _send_part(path, index, *part, out),
                         parts[1:]) as streams:
        queries, indptr, indices = array("i"), array("i", [0]), array("i")
        _relevance_part(path, index, *parts[0], queries, indptr, indices)
        merged = all(_merge_child(fh, index, queries, indptr, indices) for fh in streams)
    if merged and len(set(queries)) == len(queries):
        return Relevance(index, queries, indptr, indices)
    return None


def _relevance_part(path, index, start, stop, queries, indptr, indices) -> None:
    """Parse bytes start..stop of a relevance file onto the CSR queries,
    indptr and indices, the positions looked up in `index`; line numbers
    count from the part's first line."""
    seen = set()
    for lineno, (query, id_blob) in _records(path, "relevance", "query_id<TAB>id,id,...",
                                             start, stop):
        if query in seen:
            raise DuplicateId(f"line {lineno}: repeated query id {query!r}")
        seen.add(query)
        if id_blob.startswith(",") or id_blob.endswith(",") or ",," in id_blob:
            raise MalformedLine(lineno, f"line {lineno}: empty id in relevant list")
        try:
            queries.append(index[query])
        except KeyError:
            raise UnknownId(f"line {lineno}: unknown query id {query!r}") from None
        try:
            indices.fromlist(list(map(index.__getitem__, id_blob.split(","))))
        except KeyError as e:
            raise UnknownId(f"line {lineno}: unknown relevant id {e.args[0]!r}") from None
        indptr.append(len(indices))


def _part_cuts(path) -> list:
    """[0, c1, ..., None]: where each part of a text file starts, then
    None for its end. There is one part per usable CPU (see
    parallel.usable_cpus), each of at least PART_BYTES. Each cut sits
    just after a b"\\n", so a CRLF pair never straddles one and every
    part holds whole lines."""
    size = os.stat(path).st_size
    k = max(1, min(parallel.usable_cpus(), size // PART_BYTES))
    cuts = [0]
    if k > 1:
        with open(path, "rb") as fh:
            for j in range(1, k):
                fh.seek(max(cuts[-1], size * j // k - 1))
                fh.readline()  # to just past the next b"\n", or to the end
                if fh.tell() < size:
                    cuts.append(fh.tell())
    return cuts + [None]


def _send_part(path, index, start, stop, out) -> None:
    """Parse bytes start..stop of a relevance file in a child and send
    the part through `out`: _PART_HEAD, the text of its new ids, then
    its queries, indptr and indices. A part that does not parse sends
    nothing."""
    n_known = len(index)
    queries, indptr, indices = array("i"), array("i", [0]), array("i")
    _relevance_part(path, index, start, stop, queries, indptr, indices)
    new_ids = "".join(f"{i}\n" for i in itertools.islice(index, n_known, None))
    new_ids = new_ids.encode("utf-8")
    out.write(_PART_HEAD.pack(len(new_ids), len(queries), len(indices)))
    for block in (new_ids, queries, indptr, indices):
        out.write(block)


def _merge_child(fh, index, queries, indptr, indices) -> bool:
    """Append the part a child sent through fh to the CSR queries, indptr
    and indices, its positions moved to `index`'s. The child forked from
    known_ids or from an empty index: with known ids it adds none and its
    positions are `index`'s; without, they index the new ids it sends,
    and looking those up in `index` gives them their first-seen positions.
    False when the stream ends early (a child that failed sends nothing)."""
    read = parallel.read_exact
    try:
        n_text, n_queries, n_indices = _PART_HEAD.unpack(read(fh, _PART_HEAD.size))
        new_ids = read(fh, n_text).decode("utf-8").split("\n")[:-1]
        part_queries = read(fh, 4 * n_queries)
        part_indptr = array("i", read(fh, 4 * n_queries + 4))
        remap = np.array([index[i] for i in new_ids], dtype=np.int32)

        def moved(positions: bytes) -> bytes:
            return remap[np.frombuffer(positions, np.int32)].tobytes() if new_ids else positions

        base = len(indices)
        for left in range(n_indices, 0, -_CHUNK_INTS):
            indices.frombytes(moved(read(fh, 4 * min(left, _CHUNK_INTS))))
    except EOFError:
        return False
    queries.frombytes(moved(part_queries))
    indptr.extend(base + p for p in part_indptr[1:])
    return True


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


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _check_finite(params: StudentParams) -> None:
    bad = np.flatnonzero(~np.isfinite(params.flat))
    if bad.size:
        name = next(name for name, _, stop, _ in params.segments if bad[0] < stop)
        raise NonFiniteValue(f"checkpoint {name} contains NaN or Inf")


def save_checkpoint(path, params: StudentParams, config: dict) -> None:
    """Serialize params + config echo; round-trips bit-exactly."""
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    _check_finite(params)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIIIB", CHECKPOINT_VERSION, *params.dims,
                             params.n_scalars - 1))
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)


def load_checkpoint(path):
    """Read a checkpoint, returning (StudentParams, config dict)."""
    buf, (*dims, has_uni), fixed = _read_header(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                                "<IIIIIB", "checkpoint")
    if 0 in dims:
        raise FormatError(f"header declares d_bi, d_bt, d_e, d_u = {dims}; each must be >= 1")
    if has_uni not in (0, 1):
        raise FormatError(f"header byte has_uni_temp is {has_uni}; it must be 0 or 1")
    n_scalars = 1 + has_uni
    # sizes come from the header alone, so a header declaring more
    # parameters than the file holds fails here before any allocation
    for name, start, stop, _ in param_segments(dims, n_scalars):
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
    params = StudentParams(flat, dims, n_scalars)
    _check_finite(params)
    return params, config
