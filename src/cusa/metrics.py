"""Retrieval and similarity metrics over multi-positive relevance.

Rankings are deterministic: descending similarity with ties broken by
ascending gallery index (stable sort). A ranking is kept as the
ascending 0-based ranks of each query's relevant gallery items, which is
all R@K, R-Precision and mAP@R need. Relevance sets are intersected with
the active gallery, so one relevance map can serve cross-modal and
uni-modal tasks at once.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyGallery,
    OutOfRange,
    ShapeMismatch,
    UnknownId,
)
from .mathops import _as_matrix, check_normalized

# Query rows argsorted at once; the sort scratch is BLOCK_ROWS x gallery
# int64 entries.
BLOCK_ROWS = 128


def _rel_for(rel, qid):
    try:
        return rel[qid]
    except KeyError:
        raise UnknownId(f"no relevance entry for query {qid!r}") from None


def rank_by_similarity(scores, query_ids, gallery_ids, rel, exclude_self: bool = False) -> list:
    """Ranks of every query's relevant gallery items, best match first.

    Returns one ascending int64 array of 0-based ranks per query row.
    The rank of item j is #{k: s_k > s_j} + #{k < j: s_k = s_j}.
    Relevant ids outside the gallery are ignored. With exclude_self=True
    (uni-modal retrieval over one table) the matrix must be square and
    entry (i, i) is dropped from query i's ranking.
    """
    s = _as_matrix(scores, "scores")
    nq, ng = s.shape
    if len(query_ids) != nq or len(gallery_ids) != ng:
        raise ShapeMismatch(
            f"scores {s.shape} vs {len(query_ids)} queries / {len(gallery_ids)} gallery ids"
        )
    if exclude_self:
        if nq != ng:
            raise ShapeMismatch("self-exclusion needs a square score matrix")
        if ng < 2:
            raise EmptyGallery("gallery is empty after self-exclusion")
    elif ng < 1:
        raise EmptyGallery("gallery is empty")

    column = {g: j for j, g in enumerate(gallery_ids)}
    is_relevant = np.zeros(ng, dtype=bool)
    ranks = []
    for lo in range(0, nq, BLOCK_ROWS):
        order = np.argsort(np.negative(s[lo:lo + BLOCK_ROWS], order="C"), axis=1, kind="stable")
        for i, ranked in zip(range(lo, nq), order):
            rset = _rel_for(rel, query_ids[i])
            cols = np.fromiter((column[g] for g in rset if g in column), dtype=np.int64)
            if exclude_self:
                ranked = ranked[ranked != i]
            is_relevant[cols] = True
            ranks.append(np.flatnonzero(is_relevant[ranked]))
            is_relevant[cols] = False
    return ranks


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries with at least one relevant item in the top k."""
    if k < 1:
        raise OutOfRange(f"k must be >= 1, got {k}")
    hits = sum(1 for r in ranks if r.size and r[0] < k)
    return hits / len(ranks)


def _relevant_count(r, i) -> int:
    if r.size == 0:
        raise DegenerateInput(f"query row {i} has no relevant item in the gallery")
    return r.size


def r_precision(ranks) -> float:
    """Mean over queries of (relevant found in top-R) / R, R = number of
    relevant items present in the gallery."""
    total = 0.0
    for i, r in enumerate(ranks):
        n_rel = _relevant_count(r, i)
        total += int(np.searchsorted(r, n_rel)) / n_rel
    return total / len(ranks)


def map_at_r(ranks) -> float:
    """Mean average precision restricted to the top-R ranks.

    Precision terms are added in rank order (cumsum, not pairwise sum),
    so the result is bit-identical to a left-to-right loop.
    """
    total = 0.0
    for i, r in enumerate(ranks):
        n_rel = _relevant_count(r, i)
        top = r[:np.searchsorted(r, n_rel)]
        ap = np.cumsum(np.arange(1, top.size + 1) / (top + 1))[-1] if top.size else 0.0
        total += float(ap) / n_rel
    return total / len(ranks)


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
    ranks = np.empty(x.shape[0], dtype=np.float64)
    i = 0
    n = x.shape[0]
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _direction_report(ranks) -> dict:
    rp = r_precision(ranks)
    ap = map_at_r(ranks)
    return {
        "r_at_1": 100.0 * recall_at_k(ranks, 1),
        "r_at_5": 100.0 * recall_at_k(ranks, 5),
        "r_at_10": 100.0 * recall_at_k(ranks, 10),
        "r_precision": rp,
        "r_precision_pct": 100.0 * rp,
        "map_at_r": ap,
        "map_at_r_pct": 100.0 * ap,
    }


def evaluate_cross_modal(img_emb, txt_emb, img_ids, txt_ids, rel_i2t, rel_t2i) -> dict:
    """Both retrieval directions over one similarity matrix.

    Args:
        img_emb, txt_emb: normalized embedding matrices.
        img_ids, txt_ids: row ids, aligned with the matrices.
        rel_i2t: image query id -> relevant ids (intersected with the
            text gallery); rel_t2i analogous. The same co-membership
            map may be passed for both.

    Returns:
        {"i2t": {...}, "t2i": {...}, "rsum": float} with recalls in
        percent and R-P / mAP@R in both raw and percent form.
    """
    ie = _as_matrix(img_emb, "img_emb")
    te = _as_matrix(txt_emb, "txt_emb")
    check_normalized(ie, "img_emb")
    check_normalized(te, "txt_emb")
    sims = ie @ te.T
    i2t = _direction_report(rank_by_similarity(sims, img_ids, txt_ids, rel_i2t))
    t2i = _direction_report(rank_by_similarity(sims.T, txt_ids, img_ids, rel_t2i))
    total = rsum([i2t["r_at_1"], i2t["r_at_5"], i2t["r_at_10"],
                  t2i["r_at_1"], t2i["r_at_5"], t2i["r_at_10"]])
    return {"i2t": i2t, "t2i": t2i, "rsum": total}


def evaluate_uni_modal(emb, ids, rel) -> dict:
    """R@1 within one modality, the query itself excluded."""
    e = _as_matrix(emb, "emb")
    check_normalized(e, "emb")
    ranks = rank_by_similarity(e @ e.T, ids, ids, rel, exclude_self=True)
    return {"r_at_1": 100.0 * recall_at_k(ranks, 1)}
