"""Brute-force references that the tests compare the library against.

The list metrics re-rank with sorted() and count by hand, and are
asserted exactly (==): ranking depends only on order, and each mean adds
its per-query values left to right with +=, in query order, as the
library does. Builtin sum() of floats is compensated from Python 3.12
on, so it could differ from that order in the last bit.
"""

import numpy as np


def order(row, skip=None):
    """Positions of row by descending score, ties by ascending position,
    with position `skip` left out."""
    return [j for j in sorted(range(len(row)), key=lambda j: (-row[j], j)) if j != skip]


def rankings(scores, query_ids, gallery_ids, exclude_self=False):
    """(query id, its gallery ids in ranked order) for each row of scores;
    under exclude_self, row i leaves out gallery position i."""
    return [(q, [gallery_ids[j] for j in order(scores[i], i if exclude_self else None)])
            for i, q in enumerate(query_ids)]


def recall(ranked, rel, k):
    """Fraction of queries with at least one relevant id in their top k."""
    return sum(1 for q, ids in ranked if any(g in rel[q] for g in ids[:k])) / len(ranked)


def r_precision(ranked, rel):
    """Mean over queries of (relevant ids in the top R) / R, where R counts
    the relevant ids in the ranking."""
    total = 0.0
    for q, ids in ranked:
        r = sum(1 for g in ids if g in rel[q])
        total += sum(1 for g in ids[:r] if g in rel[q]) / r
    return total / len(ranked)


def map_at_r(ranked, rel):
    """Mean over queries of the average precision of the top R."""
    total = 0.0
    for q, ids in ranked:
        r = sum(1 for g in ids if g in rel[q])
        hits, ap = 0, 0.0
        for rank, g in enumerate(ids[:r], start=1):
            if g in rel[q]:
                hits += 1
                ap += hits / rank
        total += ap / r
    return total / len(ranked)


def report(ranked, rel):
    """One direction of eval's report: recalls in percent, R-Precision
    and mAP@R as fractions."""
    return {**{f"r_at_{k}": 100.0 * recall(ranked, rel, k) for k in (1, 5, 10)},
            "r_precision": r_precision(ranked, rel), "map_at_r": map_at_r(ranked, rel)}


def central_diff(f, m, h=1e-6):
    """Central differences of f() with respect to each entry of m, which is
    set to keep + h and keep - h in place and then restored."""
    g = np.zeros_like(m)
    for idx in np.ndindex(*m.shape):
        keep = m[idx]
        m[idx] = keep + h
        hi = f()
        m[idx] = keep - h
        lo = f()
        m[idx] = keep
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def masked_kl(p, log_q):
    """The per-row KL(p || q) as a boolean-mask gather over p > 0."""
    pos = p > 0.0
    terms = np.zeros_like(p)
    terms[pos] = p[pos] * (np.log(p[pos]) - log_q[pos])
    return terms.sum(axis=1)
