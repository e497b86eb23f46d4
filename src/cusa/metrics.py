"""Retrieval and similarity metrics over multi-positive relevance.

Rankings are deterministic: descending similarity with ties broken by
ascending gallery index. A query's ranking is the ascending 0-based
ranks of its relevant gallery items, which is all R@K, R-Precision and
mAP@R need. Relevance is a Relevance (a CSR over one id table);
relevant ids outside the active gallery are ignored, so one relevance
structure can serve cross-modal and uni-modal tasks at once. Its
relevant ids are table positions held as uint16 (2 bytes each) while
the table has at most NARROW_IDS (65,536) ids, as int32 above that
(position_array): on eval-2k's 3,996,000 positions that is 8.0 MB, not
16.0 MB, and the command's peak RSS read 45.1 MB, not 52.8 MB.

Evaluation ranks query rows block by block and reduces each query's
ranks to its metric terms (TERMS) at once. Each direction's blocks are
cut into one contiguous range per usable CPU, each of at least one
block and RANGE_ROWS query rows: the calling process ranks the first, a
forked child each other and sends back its queries' terms, and the
caller sums every query's terms in query order. Each process
holds the CSR and about three BLOCK_ROWS x gallery score blocks, never
a score matrix or every query's ranks. Inputs are checked before any
fork, and a range whose child fails or sends less than its terms is
ranked in the calling process; block edges do not depend on the ranges,
so reports and errors do not depend on the CPU count. No child outlives
the call, and where parallel.usable_cpus is 1 nothing forks.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyGallery,
    NonFiniteValue,
    OutOfRange,
    ShapeMismatch,
    UnknownId,
)
from . import parallel
from .mathops import _as_matrix, unit_pair

# Query rows scored and sorted at once, in BLOCK_ROWS x gallery arrays.
BLOCK_ROWS = 128
# The fewest query rows ranked in a process of their own: starting and
# reaping a child takes a few milliseconds, about what 128 rows take to rank.
RANGE_ROWS = 128
# A query's metric terms: its first rank (-1 without a relevant item),
# the relevant items found in its top R, R (its relevant items in the
# gallery) and the sum of its precisions at those found, R times AP@R.
TERMS = np.dtype([("first", "<i8"), ("found", "<i8"), ("n_rel", "<i8"), ("ap", "<f8")])
# The most ids a table may hold for its positions to be held as uint16.
NARROW_IDS = 1 << 16


def id_table(ids) -> dict:
    """id -> table position of every distinct id, in first-seen order."""
    return dict(zip(dict.fromkeys(ids), itertools.count()))


def _interning_index() -> dict:
    """An id -> table position dict that gives an unseen id the next
    position on lookup."""
    index = defaultdict()
    index.default_factory = index.__len__
    return index


def position_array(n_ids: int) -> array:
    """An empty array for the positions of a table of n_ids ids: uint16
    up to NARROW_IDS ids, else int32. A table that grows as it is read
    starts at 0 ids, and extend_positions widens the array when it must."""
    return array("H" if n_ids <= NARROW_IDS else "i")


def extend_positions(positions: array, more: list) -> array:
    """positions with the table positions `more` appended: positions
    itself, or an int32 copy once a position does not fit in uint16."""
    try:
        positions.fromlist(more)
    except OverflowError:  # fromlist leaves positions as they were
        positions = array("i", positions)
        positions.fromlist(more)
    return positions


class Relevance:
    """Relevant ids of each query as a CSR over one id table.

    `index` maps every id string to its table position (0 to
    len(index) - 1); each string is held there once. Row r belongs to
    the query at table position queries[r] and lists its relevant ids as
    the table positions indices[indptr[r]:indptr[r + 1]]. A row may
    repeat an id or be empty. indices held as uint16 (as position_array
    makes them, or a uint16 ndarray) stay uint16 and are not copied,
    which halves the CSR of any table of up to NARROW_IDS ids (eval-2k's
    peak RSS: 52.8 -> 45.1 MB); any other indices, like queries and
    indptr, are int32. A position outside the table, a query listed in
    two rows or an indptr that does not cut indices into one row per
    query raises ShapeMismatch.
    """

    def __init__(self, index: dict, queries, indptr, indices):
        self.index = dict(index)
        self.queries = np.asarray(queries, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        held = np.asarray(indices)
        self.indices = held if held.dtype == np.uint16 else np.asarray(indices, dtype=np.int32)
        n = len(self.index)
        for what, pos in (("query", self.queries), ("relevant", self.indices)):
            if pos.size and (pos.min() < 0 or pos.max() >= n):
                bad = pos[(pos < 0) | (pos >= n)][0]
                raise ShapeMismatch(f"{what} position {bad} is outside the table of {n} ids")
        ordered = np.sort(self.queries)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ShapeMismatch(f"query position {repeated[0]} is listed in more than one row")
        ptr = self.indptr
        if (len(ptr) != len(self.queries) + 1 or ptr[0] != 0
                or ptr[-1] != len(self.indices) or np.any(ptr[1:] < ptr[:-1])):
            raise ShapeMismatch(f"indptr of {len(ptr)} offsets from {ptr[:1].tolist()} to "
                                f"{ptr[-1:].tolist()} does not rise from 0 to {len(self.indices)} "
                                f"in one row for each of {len(self.queries)} queries")

    @classmethod
    def from_mapping(cls, rel) -> "Relevance":
        """From a mapping of query id -> iterable of relevant ids."""
        index = _interning_index()
        queries = array("i", map(index.__getitem__, rel))
        indptr, indices = array("i", [0]), position_array(0)
        for items in rel.values():
            indices = extend_positions(indices, list(map(index.__getitem__, items)))
            indptr.append(len(indices))
        return cls(index, queries, indptr, indices)


def _table_positions(index: dict, ids) -> np.ndarray:
    return np.fromiter((index.get(i, -1) for i in ids), dtype=np.intp, count=len(ids))


def rank_by_similarity(scores, query_ids, gallery_ids, rel, exclude_self: bool = False) -> list:
    """Ranks of every query's relevant gallery items, best match first.

    Returns one ascending int64 array of 0-based ranks per query row.
    The rank of item j is #{k: s_k > s_j} + #{k < j: s_k = s_j}.
    `rel` is a Relevance; relevant ids outside the gallery are ignored.
    With exclude_self=True (uni-modal retrieval over one table) the
    matrix must be square and entry (i, i) is dropped from query i's
    ranking.
    """
    s = _as_matrix(scores, "scores")
    blocks, ranks = _ranker(lambda lo, hi: s[lo:hi], s.shape, query_ids, gallery_ids, rel,
                            exclude_self)
    return list(ranks(blocks))


def _ranker(block_scores, shape, query_ids, gallery_ids, rel, exclude_self):
    """rank_by_similarity over the score rows block_scores(lo, hi), its
    inputs checked at once: (blocks, ranks), the (lo, hi) query row
    blocks and a generator function that yields the ranks of each query
    row of the blocks it is given, one row at a time."""
    nq, ng = shape
    if len(query_ids) != nq or len(gallery_ids) != ng:
        raise ShapeMismatch(
            f"scores {shape} vs {len(query_ids)} queries / {len(gallery_ids)} gallery ids"
        )
    if exclude_self:
        if nq != ng:
            raise ShapeMismatch("self-exclusion needs a square score matrix")
        if ng < 2:
            raise EmptyGallery("gallery is empty after self-exclusion")

    # table position -> gallery column; ids outside the gallery go to the
    # extra column ng, which no ranking reads
    column = np.full(len(rel.index), ng, dtype=np.intp)
    in_table = _table_positions(rel.index, gallery_ids)
    column[in_table[in_table >= 0]] = np.flatnonzero(in_table >= 0)
    # table position -> CSR row; a query id outside the table looks up
    # position -1, the last entry, which no row claims
    row_of = np.full(len(rel.index) + 1, -1, dtype=np.intp)
    row_of[rel.queries] = np.arange(rel.queries.size)
    rows = row_of[_table_positions(rel.index, query_ids)]
    if np.any(rows < 0):
        missing = query_ids[int(np.argmax(rows < 0))]
        raise UnknownId(f"no relevance entry for query {missing!r}")
    starts = rel.indptr[rows].tolist()
    stops = rel.indptr[rows + 1].tolist()

    def ranks(blocks):
        for lo, hi in blocks:
            block = np.arange(hi - lo)
            neg = np.negative(block_scores(lo, hi), order="C")
            if exclude_self:
                # the query's own score sorts after every gallery item
                neg[block, lo + block] = np.inf
            ranked = np.sort(neg, axis=1)
            # a row that holds equal scores takes its stable argsort's
            # positions as scores, so that ties keep ascending gallery order
            tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
            neg[tied[:, None], np.argsort(neg[tied], axis=1, kind="stable")] = np.arange(ng)
            ranked[tied] = np.arange(ng)

            for q in range(lo, hi):
                relevant = np.zeros(ng + 1, dtype=bool)
                # take gathers a 999-id uint16 row in about 1.5 us, a fancy index in 3.8 us
                relevant[column.take(rel.indices[starts[q]:stops[q]])] = True
                if exclude_self:
                    # a query may list itself as relevant
                    relevant[q] = False
                # an item's rank is the number of scores below its own in neg
                yield ranked[q - lo].searchsorted(np.sort(neg[q - lo].compress(relevant[:ng])))
            del neg, ranked  # the next block's scores take their place

    # no 1-row tail block: a 1-row product can differ in bits from a GEMM row
    edges = [*range(0, max(nq - 1, 1), BLOCK_ROWS), nq]
    return list(zip(edges, edges[1:])), ranks


def _query_terms(ranks) -> np.ndarray:
    """The TERMS of each query, in order, from its ascending ranks."""
    rows = []
    for r in ranks:
        found = int(r.searchsorted(r.size))
        # precision terms are added in rank order (cumsum, not pairwise sum),
        # so AP is bit-identical to a left-to-right loop
        ap = (np.arange(1, found + 1) / (r[:found] + 1)).cumsum()[-1] if found else 0.0
        rows.append((r[0] if r.size else -1, found, r.size, ap))
    return np.array(rows, dtype=TERMS)


def _metric_sums(terms, ks=(), need_relevant=True) -> tuple:
    """(hits at each k, R-Precision sum, AP@R sum, query count) of every
    query's TERMS, each sum added in query order.

    A query without a relevant item in the gallery raises
    DegenerateInput, or, with need_relevant=False, misses at every k and
    adds nothing to either sum.
    """
    if not terms.size:
        raise DegenerateInput("no query to evaluate")
    missing = np.flatnonzero(terms["n_rel"] == 0)
    if need_relevant and missing.size:
        raise DegenerateInput(f"query row {missing[0]} has no relevant item in the gallery")
    t = np.delete(terms, missing)
    hits = [int(np.count_nonzero(t["first"] < k)) for k in ks]
    # cumsum adds in query order, as a left-to-right loop does
    sums = [float(np.cumsum(t[name] / t["n_rel"])[-1]) if t.size else 0.0
            for name in ("found", "ap")]
    return hits, *sums, terms.size


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries with at least one relevant item in the top k."""
    if k < 1:
        raise OutOfRange(f"k must be >= 1, got {k}")
    hits, _, _, n = _metric_sums(_query_terms(ranks), (k,), need_relevant=False)
    return hits[0] / n


def r_precision(ranks) -> float:
    """Mean over queries of (relevant found in top-R) / R, R = number of
    relevant items present in the gallery."""
    _, rp_sum, _, n = _metric_sums(_query_terms(ranks))
    return rp_sum / n


def map_at_r(ranks) -> float:
    """Mean average precision restricted to the top-R ranks."""
    _, _, ap_sum, n = _metric_sums(_query_terms(ranks))
    return ap_sum / n


def rsum(recalls) -> float:
    """Sum of the six recall percentages (R@1/5/10, both directions)."""
    values = [float(v) for v in recalls]
    if len(values) != 6:
        raise ShapeMismatch(f"rsum expects 6 recall values, got {len(values)}")
    for v in values:
        if not (0.0 <= v <= 100.0):
            raise OutOfRange(f"recall {v} outside [0, 100]")
    return float(sum(values))


def spearman(pred, gold) -> float:
    """Rank correlation: Pearson on fractional (average-tie) ranks."""
    x = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(gold, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeMismatch(f"lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue("pred or gold contains NaN or Inf")
    if x.shape[0] < 2:
        raise DegenerateInput("need at least 2 observations")
    rx = _fractional_ranks(x)
    ry = _fractional_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        raise DegenerateInput("constant input has no rank correlation")
    return float(np.clip((dx * dy).sum() / denom, -1.0, 1.0))


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    starts = np.r_[True, ranked[1:] != ranked[:-1]]
    first = np.flatnonzero(starts)
    last = np.r_[first[1:], x.shape[0]] - 1
    ranks = np.empty(x.shape[0], dtype=np.float64)
    # each sorted position takes the mean position of its run of equal values
    ranks[order] = ((first + last) / 2.0 + 1.0)[np.cumsum(starts) - 1]
    return ranks


def _direction_report(terms) -> dict:
    hits, rp_sum, ap_sum, n = _metric_sums(terms, (1, 5, 10))
    rp = rp_sum / n
    ap = ap_sum / n
    return {
        "r_at_1": 100.0 * (hits[0] / n),
        "r_at_5": 100.0 * (hits[1] / n),
        "r_at_10": 100.0 * (hits[2] / n),
        "r_precision": rp,
        "r_precision_pct": 100.0 * rp,
        "map_at_r": ap,
        "map_at_r_pct": 100.0 * ap,
    }


def _direction_terms(queries, gallery, query_ids, gallery_ids, rel, exclude_self=False):
    """TERMS of every query ranked by cosine similarity, from C-ordered
    row blocks of queries @ gallery.T. The blocks are cut into one
    contiguous range per usable CPU, each of at least one block and
    RANGE_ROWS rows: this process ranks the first, a forked child each
    other, and a range whose child sends less than its terms is ranked
    here."""
    blocks, ranks = _ranker(lambda lo, hi: queries[lo:hi] @ gallery.T,
                            (len(queries), len(gallery)), query_ids, gallery_ids, rel,
                            exclude_self)
    k = max(1, min(parallel.usable_cpus(), len(blocks), len(queries) // RANGE_ROWS))
    ranges = [blocks[len(blocks) * j // k:len(blocks) * (j + 1) // k] for j in range(k)]

    def terms(part):
        return _query_terms(ranks(part))

    with parallel.forked(lambda part, out: out.write(terms(part)), ranges[1:]) as streams:
        got = [terms(ranges[0])]
        for part, fh in zip(ranges[1:], streams):
            size = TERMS.itemsize * (part[-1][1] - part[0][0])
            data = fh.read(size)
            got.append(np.frombuffer(data, dtype=TERMS) if len(data) == size else terms(part))
    return np.concatenate(got)


def evaluate_cross_modal(img_emb, txt_emb, img_ids, txt_ids, rel_i2t, rel_t2i) -> dict:
    """Both retrieval directions.

    Args:
        img_emb, txt_emb: normalized embedding matrices.
        img_ids, txt_ids: row ids, aligned with the matrices.
        rel_i2t: Relevance of the image queries (intersected with the
            text gallery); rel_t2i analogous. The same co-membership
            relevance may be passed for both.

    Returns:
        {"i2t": {...}, "t2i": {...}, "rsum": float} with recalls in
        percent and R-P / mAP@R in both raw and percent form.
    """
    img, txt = unit_pair(img_emb, txt_emb)
    i2t = _direction_report(_direction_terms(img, txt, img_ids, txt_ids, rel_i2t))
    t2i = _direction_report(_direction_terms(txt, img, txt_ids, img_ids, rel_t2i))
    total = rsum([i2t["r_at_1"], i2t["r_at_5"], i2t["r_at_10"],
                  t2i["r_at_1"], t2i["r_at_5"], t2i["r_at_10"]])
    return {"i2t": i2t, "t2i": t2i, "rsum": total}


def evaluate_uni_modal(emb, ids, rel) -> dict:
    """R@1 within one modality, the query itself excluded."""
    terms = _direction_terms(*unit_pair(emb, emb), ids, ids, rel, exclude_self=True)
    hits, _, _, n = _metric_sums(terms, (1,), need_relevant=False)
    return {"r_at_1": 100.0 * (hits[0] / n)}
