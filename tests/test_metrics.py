"""Metric suite vs. exhaustive pure-Python oracles.

The oracles below re-rank with sorted() and count by hand; agreement is
asserted exactly (==) for the ranking metrics, matching the contract
that ranking only depends on order, never on float arithmetic.
"""

import numpy as np
import pytest
import scipy.stats

from cusa import metrics
from cusa.errors import (
    DegenerateInput,
    EmptyGallery,
    OutOfRange,
    ShapeMismatch,
    UnknownId,
)
from cusa.mathops import l2_normalize_rows
from cusa.metrics import (
    evaluate_cross_modal,
    evaluate_uni_modal,
    map_at_r,
    r_precision,
    rank_by_similarity,
    recall_at_k,
    rsum,
    spearman,
)

SPEARMAN_TIE_CASE = 0.9486832980505138  # x=(1,2,2,3) vs y=(1,2,3,4)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_order(row, exclude=None):
    idx = sorted(range(len(row)), key=lambda j: (-row[j], j))
    return [j for j in idx if j != exclude]


def oracle_recall(ranked_ids, rel, k):
    hits = sum(1 for qid, ids in ranked_ids if len(set(ids[:k]) & rel[qid]) > 0)
    return hits / len(ranked_ids)


def oracle_r_precision(ranked_ids, rel):
    vals = []
    for qid, ids in ranked_ids:
        r = len([g for g in ids if g in rel[qid]])
        vals.append(len([g for g in ids[:r] if g in rel[qid]]) / r)
    return sum(vals) / len(vals)


def oracle_map_at_r(ranked_ids, rel):
    vals = []
    for qid, ids in ranked_ids:
        r = len([g for g in ids if g in rel[qid]])
        hits, ap = 0, 0.0
        for rank, g in enumerate(ids[:r], start=1):
            if g in rel[qid]:
                hits += 1
                ap += hits / rank
        vals.append(ap / r)
    return sum(vals) / len(vals)


def ranked_ids(scores, query_ids, gallery_ids, exclude_self=False):
    """Each query's full ranking, read back from single-item relevance."""
    out = [[None] * (len(gallery_ids) - exclude_self) for _ in query_ids]
    for g in gallery_ids:
        ranks = rank_by_similarity(scores, query_ids, gallery_ids,
                                   {q: {g} for q in query_ids}, exclude_self)
        for row, r in zip(out, ranks):
            for pos in r:
                row[pos] = g
    return out


def ranks_of(query_ids, ranked_lists, rel):
    """Rank arrays of hand-written rankings, via scores that reproduce them.

    Ids absent from a query's list score below every listed one."""
    gallery = list(dict.fromkeys(g for ids in ranked_lists for g in ids))
    scores = np.zeros((len(query_ids), len(gallery)))
    for i, ids in enumerate(ranked_lists):
        for pos, g in enumerate(ids):
            scores[i, gallery.index(g)] = len(ids) - pos
    return rank_by_similarity(scores, query_ids, gallery, rel)


def random_instance(rng, with_ties=False):
    nq = int(rng.integers(2, 9))
    ng = int(rng.integers(3, 21))
    sims = rng.standard_normal((nq, ng))
    if with_ties:
        sims = np.round(sims, 1)
    query_ids = [f"q{i}" for i in range(nq)]
    gallery_ids = [f"g{j}" for j in range(ng)]
    rel = {}
    for qid in query_ids:
        n_rel = int(rng.integers(1, min(ng, 6) + 1))
        chosen = rng.choice(ng, size=n_rel, replace=False)
        rel[qid] = {gallery_ids[int(j)] for j in chosen}
        if rng.random() < 0.3:
            rel[qid].add("outside-the-gallery")  # must be ignored
    return sims, query_ids, gallery_ids, rel


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

class TestRankBySimilarity:
    def test_orders_descending(self):
        assert ranked_ids([[0.1, 0.9, 0.5]], ["q"], ["a", "b", "c"])[0] == ["b", "c", "a"]
        ranks = rank_by_similarity([[0.1, 0.9, 0.5]], ["q"], ["a", "b", "c"], {"q": {"a", "c"}})
        assert ranks[0].tolist() == [1, 2]

    def test_ties_break_by_gallery_index(self):
        assert ranked_ids([[0.5, 0.7, 0.5, 0.7]], ["q"], list("abcd"))[0] == ["b", "d", "a", "c"]

    def test_self_exclusion(self):
        sims = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert ranked_ids(sims, ["a", "b"], ["a", "b"], exclude_self=True) == [["b"], ["a"]]
        ranks = rank_by_similarity(sims, ["a", "b"], ["a", "b"], {"a": {"a", "b"}, "b": {"b"}},
                                   exclude_self=True)
        assert [r.tolist() for r in ranks] == [[0], []]

    def test_empty_gallery_rejected(self):
        with pytest.raises(EmptyGallery):
            rank_by_similarity([[1.0]], ["a"], ["a"], {"a": {"a"}}, exclude_self=True)

    def test_id_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rank_by_similarity([[1.0, 0.0]], ["a"], ["x"], {"a": {"x"}})

    def test_monotone_transform_leaves_ranking(self):
        rng = np.random.default_rng(12)
        sims = rng.standard_normal((4, 9))
        ids = [f"g{j}" for j in range(9)]
        base = ranked_ids(sims, list("abcd"), ids)
        warped = ranked_ids(np.exp(2.0 * sims) + 3.0, list("abcd"), ids)
        assert base == warped


class TestRecallAtK:
    def test_rank_boundaries(self):
        ranks = ranks_of(["q"], [["x", "y", "z"]], {"q": {"y"}})
        assert recall_at_k(ranks, 1) == 0.0
        assert recall_at_k(ranks, 2) == 1.0

    def test_perfect_retrieval(self):
        ranks = ranks_of(["a", "b"], [["r1", "x"], ["r2", "x"]], {"a": {"r1"}, "b": {"r2"}})
        assert recall_at_k(ranks, 1) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(44)
        sims, qids, gids, rel = random_instance(rng)
        ranks = rank_by_similarity(sims, qids, gids, rel)
        values = [recall_at_k(ranks, k) for k in range(1, len(gids) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bad_k(self):
        with pytest.raises(OutOfRange):
            recall_at_k(ranks_of(["q"], [["x"]], {"q": {"x"}}), 0)

    def test_unknown_query(self):
        with pytest.raises(UnknownId):
            ranks_of(["q"], [["x"]], {"other": {"x"}})


class TestRPrecisionAndMapAtR:
    def test_half_found(self):
        ranks = ranks_of(["q"], [["rel1", "non", "rel2"]], {"q": {"rel1", "rel2"}})
        assert r_precision(ranks) == 0.5

    def test_perfect_prefix(self):
        ranks = ranks_of(["q"], [["a", "b", "x", "y"]], {"q": {"a", "b"}})
        assert r_precision(ranks) == 1.0
        assert map_at_r(ranks) == 1.0

    def test_map_spec_example(self):
        # R=2, relevant at ranks 1 and 3: the rank-3 hit is outside top-R
        ranks = ranks_of(["q"], [["rel1", "non", "rel2"]], {"q": {"rel1", "rel2"}})
        assert map_at_r(ranks) == 0.5

    def test_no_relevant_in_gallery(self):
        ranks = ranks_of(["q"], [["a", "b"]], {"q": {"elsewhere"}})
        with pytest.raises(DegenerateInput):
            r_precision(ranks)
        with pytest.raises(DegenerateInput):
            map_at_r(ranks)

    def test_map_bounded_by_r_precision(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            sims, qids, gids, rel = random_instance(rng)
            ranks = rank_by_similarity(sims, qids, gids, rel)
            assert map_at_r(ranks) <= r_precision(ranks) + 1e-15


def test_ranking_metrics_match_oracles_exactly():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        sims, qids, gids, rel = random_instance(rng, with_ties=(trial % 2 == 0))
        ranks = rank_by_similarity(sims, qids, gids, rel)
        oracle_ranked = [(qid, [gids[j] for j in oracle_order(sims[i])])
                         for i, qid in enumerate(qids)]
        assert ranked_ids(sims, qids, gids) == [ids for _, ids in oracle_ranked]
        for k in (1, 5, 10):
            assert recall_at_k(ranks, k) == oracle_recall(oracle_ranked, rel, k)
        assert r_precision(ranks) == oracle_r_precision(oracle_ranked, rel)
        assert map_at_r(ranks) == oracle_map_at_r(oracle_ranked, rel)


def test_uni_modal_self_exclusion_matches_oracle():
    rng = np.random.default_rng(81)
    for _ in range(40):
        n = int(rng.integers(3, 12))
        emb = l2_normalize_rows(rng.standard_normal((n, 5)))
        ids = [f"v{i}" for i in range(n)]
        rel = {ids[i]: {ids[int(j)] for j in rng.choice(n, size=2, replace=False)
                        if int(j) != i} or {ids[(i + 1) % n]}
               for i in range(n)}
        sims = emb @ emb.T
        got = evaluate_uni_modal(emb, ids, rel)
        oracle_ranked = [(ids[i], [ids[j] for j in oracle_order(sims[i], exclude=i)])
                         for i in range(n)]
        assert got["r_at_1"] == 100.0 * oracle_recall(oracle_ranked, rel, 1)


# ---------------------------------------------------------------------------
# rsum / spearman
# ---------------------------------------------------------------------------

class TestRsum:
    def test_published_rows(self):
        assert abs(rsum((57.3, 83.1, 90.3, 44.2, 72.7, 82.1)) - 429.7) < 1e-9
        assert abs(rsum((83.5, 96.3, 98.5, 66.2, 87.1, 92.2)) - 523.8) < 1e-9

    def test_zeros(self):
        assert rsum([0.0] * 6) == 0.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            rsum([57.3, 83.1, 90.3, 44.2, 72.7, 182.1])

    def test_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            rsum([1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone(self):
        assert spearman((1, 2, 3), (10, 20, 30)) == 1.0
        assert spearman((1, 2, 3), (3, 2, 1)) == -1.0

    def test_tie_case_frozen(self):
        got = spearman((1, 2, 2, 3), (1, 2, 3, 4))
        assert abs(got - SPEARMAN_TIE_CASE) < 1e-12
        assert abs(got - 0.948683) < 1e-6

    def test_matches_scipy_with_and_without_ties(self):
        rng = np.random.default_rng(99)
        for trial in range(50):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if trial % 3 == 0:
                x = np.round(x, 1)
                y = np.round(y, 1)
                if np.all(x == x[0]) or np.all(y == y[0]):
                    continue
            want = scipy.stats.spearmanr(x, y).statistic
            assert abs(spearman(x, y) - want) < 1e-9

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert abs(spearman(np.exp(x), y) - spearman(x, y)) < 1e-12

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(32)
        x = rng.permutation(15).astype(float)  # no ties
        y = rng.standard_normal(15)
        assert abs(spearman(-x, y) + spearman(x, y)) < 1e-12

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            spearman((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            spearman((1.0, 2.0), (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# report-level evaluation
# ---------------------------------------------------------------------------

class TestEvaluateCrossModal:
    def test_self_retrieval(self):
        rng = np.random.default_rng(70)
        emb = l2_normalize_rows(rng.standard_normal((6, 5)))
        ids = [f"p{i}" for i in range(6)]
        rel = {i: {i} for i in ids}
        report = evaluate_cross_modal(emb, emb, ids, ids, rel, rel)
        for direction in ("i2t", "t2i"):
            assert report[direction]["r_at_1"] == 100.0
            assert report[direction]["map_at_r"] == 1.0
            assert report[direction]["r_precision"] == 1.0
        assert report["rsum"] == 600.0

    def test_single_pair(self):
        emb = np.array([[1.0, 0.0]])
        report = evaluate_cross_modal(emb, emb, ["i"], ["t"], {"i": {"t"}}, {"t": {"i"}})
        assert report["rsum"] == 600.0
        assert report["i2t"]["map_at_r"] == 1.0

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(71)
        img = l2_normalize_rows(rng.standard_normal((20, 8)))
        txt = l2_normalize_rows(rng.standard_normal((20, 8)))
        img_ids = [f"i{k}" for k in range(20)]
        txt_ids = [f"t{k}" for k in range(20)]
        rel_i2t = {iid: {txt_ids[int(j)] for j in rng.choice(20, 3, replace=False)}
                   for iid in img_ids}
        rel_t2i = {tid: {img_ids[int(j)] for j in rng.choice(20, 3, replace=False)}
                   for tid in txt_ids}
        report = evaluate_cross_modal(img, txt, img_ids, txt_ids, rel_i2t, rel_t2i)
        sims = img @ txt.T
        fwd = [(img_ids[i], [txt_ids[j] for j in oracle_order(sims[i])])
               for i in range(20)]
        bwd = [(txt_ids[i], [img_ids[j] for j in oracle_order(sims.T[i])])
               for i in range(20)]
        assert report["i2t"]["r_at_1"] == 100.0 * oracle_recall(fwd, rel_i2t, 1)
        assert report["i2t"]["r_at_5"] == 100.0 * oracle_recall(fwd, rel_i2t, 5)
        assert report["t2i"]["r_at_10"] == 100.0 * oracle_recall(bwd, rel_t2i, 10)
        assert report["i2t"]["map_at_r"] == oracle_map_at_r(fwd, rel_i2t)
        assert report["t2i"]["r_precision"] == oracle_r_precision(bwd, rel_t2i)
        assert report["i2t"]["map_at_r_pct"] == 100.0 * report["i2t"]["map_at_r"]
        six = [report[d][f"r_at_{k}"] for d in ("i2t", "t2i") for k in (1, 5, 10)]
        assert report["rsum"] == rsum(six)


class TestEvaluateUniModal:
    def test_identical_embeddings_mutually_relevant(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        got = evaluate_uni_modal(emb, ["a", "b"], {"a": {"b"}, "b": {"a"}})
        assert got["r_at_1"] == 100.0

    def test_irrelevant_nearest_neighbor_scores_zero(self):
        emb = np.array([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)], [-1.0, 0.0]])
        rel = {"a": {"c"}, "b": {"a"}, "c": {"a"}}
        got = evaluate_uni_modal(emb, ["a", "b", "c"], rel)
        # a's nearest is b (irrelevant), b's nearest is a (relevant),
        # c's nearest is b (irrelevant)
        assert got["r_at_1"] == pytest.approx(100.0 / 3.0)


class TestBlockBoundaries:
    """Queries are argsorted BLOCK_ROWS rows at a time; a block size of 3
    splits every instance below into several blocks and a remainder."""

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_small_blocks_match_oracles(self, monkeypatch, exclude_self):
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 3)
        rng = np.random.default_rng(83 + exclude_self)
        for _ in range(30):
            ng = int(rng.integers(4, 15))
            nq = ng if exclude_self else int(rng.integers(4, 17))
            sims = np.round(rng.standard_normal((nq, ng)), 1)
            qids = [f"q{i}" for i in range(nq)]
            gids = qids if exclude_self else [f"g{j}" for j in range(ng)]
            rel = {}
            for i, qid in enumerate(qids):
                others = [g for g in gids if g != qid]
                n_rel = int(rng.integers(1, min(len(others), 4) + 1))
                rel[qid] = set(rng.choice(others, size=n_rel, replace=False))
                if rng.random() < 0.5:
                    rel[qid].add(qid)  # excluded under self-exclusion
            skip = range(nq) if exclude_self else [None] * nq
            oracle_ranked = [(qid, [gids[j] for j in oracle_order(sims[i], exclude=x)])
                             for i, (qid, x) in enumerate(zip(qids, skip))]
            assert ranked_ids(sims, qids, gids, exclude_self) == [ids for _, ids in oracle_ranked]
            ranks = rank_by_similarity(sims, qids, gids, rel, exclude_self)
            for k in (1, 5, 10):
                assert recall_at_k(ranks, k) == oracle_recall(oracle_ranked, rel, k)
            assert r_precision(ranks) == oracle_r_precision(oracle_ranked, rel)
            assert map_at_r(ranks) == oracle_map_at_r(oracle_ranked, rel)
