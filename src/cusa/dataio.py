"""File formats: features, pairs, relevance, scored pairs, checkpoints.

All formats are bit-exact and little-endian. Readers reject malformed
input with positioned errors; nothing is repaired silently.

Feature file ("CUSF"):
    magic 4 bytes "CUSF" | version u32 = 1 | n u64 | d u32
    then n records: id_len u16 | id UTF-8 bytes | d float32 values
    ids unique, n >= 1, d >= 1, all values finite. Stored 32-bit,
    computed 64-bit: read_features upconverts.

Pairs file: UTF-8 text, one "image_id<TAB>text_id" per line. Duplicate
lines are kept; multiplicity matters for batching.

Relevance file: one "query_id<TAB>id1,id2,..." per line, non-empty
relevant sets, one line per query.

Scored pairs file: "id_a<TAB>id_b<TAB>score" per line (the similarity-
with-gold-score evaluation input).

Checkpoint ("CUSC"):
    magic "CUSC" | version u32 = 1 | d_bi u32 | d_bt u32 | d_e u32 |
    d_u u32 | has_uni_temp u8 | log_inv_temp f64 | [log_inv_temp_uni
    f64] | w_img | w_txt | u_img | u_txt (row-major f64) |
    config_len u32 | config JSON UTF-8
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
from .model import StudentParams

FEATURE_MAGIC = b"CUSF"
CHECKPOINT_MAGIC = b"CUSC"
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 1


@dataclass
class FeatureTable:
    """In-memory id-indexed feature matrix (float64)."""

    ids: list
    features: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self._index = {}
        for i, item_id in enumerate(self.ids):
            if item_id in self._index:
                raise DuplicateId(f"duplicate id {item_id!r}")
            self._index[item_id] = i

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    def __contains__(self, item_id) -> bool:
        return item_id in self._index

    def row(self, item_id) -> np.ndarray:
        try:
            return self.features[self._index[item_id]]
        except KeyError:
            raise MissingFeature(f"no feature row for id {item_id!r}") from None

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
    if not np.all(np.isfinite(feats)):
        raise NonFiniteValue("features contain NaN or Inf")
    seen = set()
    encoded = []
    for item_id in ids:
        if item_id in seen:
            raise DuplicateId(f"duplicate id {item_id!r}")
        seen.add(item_id)
        raw = str(item_id).encode("utf-8")
        if not raw:
            raise InvalidConfig("empty id")
        if len(raw) > 0xFFFF:
            raise InvalidConfig(f"id too long ({len(raw)} bytes): {item_id!r}")
        encoded.append(raw)
    f32 = feats.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FEATURE_VERSION, n, d))
        for raw, row in zip(encoded, f32):
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.tobytes())


def read_features(path) -> FeatureTable:
    """Read a feature file back into a float64 FeatureTable."""
    with open(path, "rb") as fh:
        buf = fh.read()
    header = struct.calcsize("<IQI") + 4
    if len(buf) < header:
        raise TruncatedFile(len(buf), f"header needs {header} bytes, file has {len(buf)}")
    if buf[:4] != FEATURE_MAGIC:
        raise BadMagic(f"expected magic {FEATURE_MAGIC!r}, found {buf[:4]!r}")
    version, n, d = struct.unpack_from("<IQI", buf, 4)
    if version != FEATURE_VERSION:
        raise VersionUnsupported(f"feature file version {version}, supported: 1")
    if n < 1 or d < 1:
        raise FormatError(f"header declares {n} rows x {d} dims; both must be >= 1")
    offset = header
    ids = []
    seen = set()
    row_bytes = 4 * d
    # Every record takes at least 2 + row_bytes bytes, so a header that
    # declares more rows than the file can hold fails in the loop below
    # with the offset where the records stop; never allocate beyond that.
    rows = np.empty((min(n, (len(buf) - header) // (2 + row_bytes)), d), dtype=np.float64)
    for rec in range(n):
        if offset + 2 > len(buf):
            raise TruncatedFile(offset, f"record {rec}: id length cut off at byte {offset}")
        (id_len,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        if offset + id_len > len(buf):
            raise TruncatedFile(offset, f"record {rec}: id cut off at byte {offset}")
        try:
            item_id = buf[offset:offset + id_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"record {rec}: id is not valid UTF-8 ({e})") from None
        offset += id_len
        if item_id in seen:
            raise DuplicateId(f"duplicate id {item_id!r} (record {rec})")
        seen.add(item_id)
        if offset + row_bytes > len(buf):
            raise TruncatedFile(offset, f"record {rec}: values cut off at byte {offset}")
        values = np.frombuffer(buf, dtype="<f4", count=d, offset=offset)
        offset += row_bytes
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue(f"record {rec} (id {item_id!r}) contains NaN or Inf")
        ids.append(item_id)
        rows[rec] = values
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after record {n - 1}")
    return FeatureTable(ids=ids, features=rows)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            yield lineno, line.rstrip("\n")


def read_pairs(path, img_ids=None, txt_ids=None) -> list:
    """Ordered (image_id, text_id) list; duplicates preserved.

    When id universes are supplied, unknown references raise UnknownId.
    """
    pairs = []
    for lineno, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLine(lineno, f"line {lineno}: expected 'image_id<TAB>text_id', got {line!r}")
        img, txt = fields
        if img_ids is not None and img not in img_ids:
            raise UnknownId(f"line {lineno}: unknown image id {img!r}")
        if txt_ids is not None and txt not in txt_ids:
            raise UnknownId(f"line {lineno}: unknown text id {txt!r}")
        pairs.append((img, txt))
    if not pairs:
        raise MalformedLine(0, "pairs file is empty")
    return pairs


def read_relevance(path, known_ids=None) -> dict:
    """Query id -> set of relevant ids. One line per query."""
    rel = {}
    for lineno, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLine(lineno, f"line {lineno}: expected 'query_id<TAB>id,id,...', got {line!r}")
        query, id_blob = fields
        if query in rel:
            raise DuplicateId(f"line {lineno}: repeated query id {query!r}")
        items = id_blob.split(",")
        if any(not item for item in items):
            raise MalformedLine(lineno, f"line {lineno}: empty id in relevant list")
        if known_ids is not None:
            if query not in known_ids:
                raise UnknownId(f"line {lineno}: unknown query id {query!r}")
            for item in items:
                if item not in known_ids:
                    raise UnknownId(f"line {lineno}: unknown relevant id {item!r}")
        rel[query] = set(items)
    if not rel:
        raise MalformedLine(0, "relevance file is empty")
    return rel


def read_scored_pairs(path, ids=None) -> list:
    """Ordered (id_a, id_b, score) triples for similarity scoring."""
    triples = []
    for lineno, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0] or not fields[1]:
            raise MalformedLine(lineno, f"line {lineno}: expected 'id_a<TAB>id_b<TAB>score', got {line!r}")
        a, b, raw_score = fields
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
    if not triples:
        raise MalformedLine(0, "scored-pairs file is empty")
    return triples


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: StudentParams, config: dict) -> None:
    """Serialize params + config echo; round-trips bit-exactly."""
    d_bi, d_bt, d_e, d_u = params.dims
    has_uni = params.log_inv_temp_uni is not None
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    for name, m in (("w_img", params.w_img), ("w_txt", params.w_txt),
                    ("u_img", params.u_img), ("u_txt", params.u_txt)):
        if not np.all(np.isfinite(m)):
            raise NonFiniteValue(f"checkpoint {name} contains NaN or Inf")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIIIB", CHECKPOINT_VERSION, d_bi, d_bt, d_e, d_u,
                             1 if has_uni else 0))
        fh.write(struct.pack("<d", params.log_inv_temp))
        if has_uni:
            fh.write(struct.pack("<d", params.log_inv_temp_uni))
        for m in (params.w_img, params.w_txt, params.u_img, params.u_txt):
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)


def load_checkpoint(path):
    """Read a checkpoint, returning (StudentParams, config dict)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    fixed = 4 + struct.calcsize("<IIIIIB")
    if len(buf) < fixed:
        raise TruncatedFile(len(buf), f"header needs {fixed} bytes, file has {len(buf)}")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"expected magic {CHECKPOINT_MAGIC!r}, found {buf[:4]!r}")
    version, d_bi, d_bt, d_e, d_u, has_uni = struct.unpack_from("<IIIIIB", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionUnsupported(f"checkpoint version {version}, supported: 1")
    offset = fixed

    def take_floats(count, what):
        nonlocal offset
        need = 8 * count
        if offset + need > len(buf):
            raise TruncatedFile(offset, f"{what} cut off at byte {offset}")
        out = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).copy()
        offset += need
        return out

    log_it = float(take_floats(1, "log_inv_temp")[0])
    log_it_uni = float(take_floats(1, "log_inv_temp_uni")[0]) if has_uni else None
    w_img = take_floats(d_bi * d_e, "w_img").reshape(d_bi, d_e)
    w_txt = take_floats(d_bt * d_e, "w_txt").reshape(d_bt, d_e)
    u_img = take_floats(d_e * d_u, "u_img").reshape(d_e, d_u)
    u_txt = take_floats(d_e * d_u, "u_txt").reshape(d_e, d_u)
    if offset + 4 > len(buf):
        raise TruncatedFile(offset, f"config length cut off at byte {offset}")
    (cfg_len,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if offset + cfg_len > len(buf):
        raise TruncatedFile(offset, f"config cut off at byte {offset}")
    try:
        config = json.loads(buf[offset:offset + cfg_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"config echo is not valid JSON: {e}") from None
    offset += cfg_len
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after config")
    for name, m in (("w_img", w_img), ("w_txt", w_txt), ("u_img", u_img), ("u_txt", u_txt)):
        if not np.all(np.isfinite(m)):
            raise NonFiniteValue(f"checkpoint {name} contains NaN or Inf")
    params = StudentParams(w_img, w_txt, u_img, u_txt, log_it, log_it_uni)
    return params, config
