"""Metric suite vs. exhaustive pure-Python oracles.

The oracles below re-rank with sorted() and count by hand; agreement is
asserted exactly (==) for the ranking metrics, matching the contract
that ranking only depends on order, never on float arithmetic.
"""

import io
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cusa import metrics, parallel
from cusa.cli import main
from cusa.dataio import read_relevance, write_features
from cusa.errors import (
    DegenerateInput,
    EmptyGallery,
    OutOfRange,
    ShapeMismatch,
    UnknownId,
)
from cusa.mathops import l2_normalize_rows
from cusa.metrics import (
    Relevance,
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
                                   Relevance.from_mapping({q: {g} for q in query_ids}),
                                   exclude_self)
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
    return rank_by_similarity(scores, query_ids, gallery, Relevance.from_mapping(rel))


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
        ranks = rank_by_similarity([[0.1, 0.9, 0.5]], ["q"], ["a", "b", "c"],
                                   Relevance.from_mapping({"q": {"a", "c"}}))
        assert ranks[0].tolist() == [1, 2]

    def test_ties_break_by_gallery_index(self):
        assert ranked_ids([[0.5, 0.7, 0.5, 0.7]], ["q"], list("abcd"))[0] == ["b", "d", "a", "c"]

    def test_self_exclusion(self):
        sims = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert ranked_ids(sims, ["a", "b"], ["a", "b"], exclude_self=True) == [["b"], ["a"]]
        ranks = rank_by_similarity(sims, ["a", "b"], ["a", "b"],
                                   Relevance.from_mapping({"a": {"a", "b"}, "b": {"b"}}),
                                   exclude_self=True)
        assert [r.tolist() for r in ranks] == [[0], []]

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_scores_are_left_bit_identical(self, exclude_self):
        # a float64 matrix reaches the ranker as the caller's own array
        sims = np.round(np.random.default_rng(5).standard_normal((6, 6)), 1)
        before = sims.copy()
        ids = list("abcdef")
        rank_by_similarity(sims, ids, ids, Relevance.from_mapping({i: set(ids) for i in ids}),
                           exclude_self=exclude_self)
        assert sims.tobytes() == before.tobytes()

    def test_empty_gallery_rejected(self):
        with pytest.raises(EmptyGallery):
            rank_by_similarity([[1.0]], ["a"], ["a"], Relevance.from_mapping({"a": {"a"}}),
                               exclude_self=True)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: rank_by_similarity([[1.0, 0.0]], ["a"], ["a", "b"],
                                    Relevance.from_mapping({"a": {"b"}}), exclude_self=True),
         ShapeMismatch, "square"),
        # an empty gallery stops at the matrix check of either ranking feeder
        (lambda: rank_by_similarity(np.empty((1, 0)), ["a"], [],
                                    Relevance.from_mapping({"a": {"b"}})),
         ShapeMismatch, "non-empty"),
        (lambda: evaluate_cross_modal(np.eye(2), np.empty((0, 2)), ["a", "b"], [],
                                      Relevance.from_mapping({"a": {"b"}}),
                                      Relevance.from_mapping({"b": {"a"}})),
         ShapeMismatch, "non-empty"),
        (lambda: spearman([1.0], [2.0]), DegenerateInput, "at least 2"),
    ], ids=["self-exclusion-not-square", "empty-gallery", "empty-text-gallery",
            "spearman-one-observation"])
    def test_bad_input_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_id_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rank_by_similarity([[1.0, 0.0]], ["a"], ["x"], Relevance.from_mapping({"a": {"x"}}))

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
        ranks = rank_by_similarity(sims, qids, gids, Relevance.from_mapping(rel))
        values = [recall_at_k(ranks, k) for k in range(1, len(gids) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_query_without_relevant_items_is_a_miss(self):
        assert recall_at_k([np.array([], dtype=np.int64), np.array([0])], 1) == 0.5

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

    def test_empty_rank_list_rejected(self):
        for metric in (lambda r: recall_at_k(r, 1), r_precision, map_at_r):
            with pytest.raises(DegenerateInput):
                metric([])

    def test_map_bounded_by_r_precision(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            sims, qids, gids, rel = random_instance(rng)
            ranks = rank_by_similarity(sims, qids, gids, Relevance.from_mapping(rel))
            assert map_at_r(ranks) <= r_precision(ranks) + 1e-15


def test_ranking_metrics_match_oracles_exactly():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        sims, qids, gids, rel = random_instance(rng, with_ties=(trial % 2 == 0))
        ranks = rank_by_similarity(sims, qids, gids, Relevance.from_mapping(rel))
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
        got = evaluate_uni_modal(emb, ids, Relevance.from_mapping(rel))
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
        report = evaluate_cross_modal(emb, emb, ids, ids, Relevance.from_mapping(rel),
                                      Relevance.from_mapping(rel))
        for direction in ("i2t", "t2i"):
            assert report[direction]["r_at_1"] == 100.0
            assert report[direction]["map_at_r"] == 1.0
            assert report[direction]["r_precision"] == 1.0
        assert report["rsum"] == 600.0

    def test_single_pair(self):
        emb = np.array([[1.0, 0.0]])
        report = evaluate_cross_modal(emb, emb, ["i"], ["t"], Relevance.from_mapping({"i": {"t"}}),
                                      Relevance.from_mapping({"t": {"i"}}))
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
        report = evaluate_cross_modal(img, txt, img_ids, txt_ids, Relevance.from_mapping(rel_i2t),
                                      Relevance.from_mapping(rel_t2i))
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
        got = evaluate_uni_modal(emb, ["a", "b"], Relevance.from_mapping({"a": {"b"}, "b": {"a"}}))
        assert got["r_at_1"] == 100.0

    def test_irrelevant_nearest_neighbor_scores_zero(self):
        emb = np.array([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)], [-1.0, 0.0]])
        rel = {"a": {"c"}, "b": {"a"}, "c": {"a"}}
        got = evaluate_uni_modal(emb, ["a", "b", "c"], Relevance.from_mapping(rel))
        # a's nearest is b (irrelevant), b's nearest is a (relevant),
        # c's nearest is b (irrelevant)
        assert got["r_at_1"] == pytest.approx(100.0 / 3.0)


    def test_query_relevant_only_to_itself_is_a_miss(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        rel = Relevance.from_mapping({"a": {"a"}, "b": {"a"}})
        assert evaluate_uni_modal(emb, ["a", "b"], rel)["r_at_1"] == 50.0


class TestBlockBoundaries:
    """Queries are sorted BLOCK_ROWS rows at a time; a block size of 3
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
            ranks = rank_by_similarity(sims, qids, gids, Relevance.from_mapping(rel), exclude_self)
            for k in (1, 5, 10):
                assert recall_at_k(ranks, k) == oracle_recall(oracle_ranked, rel, k)
            assert r_precision(ranks) == oracle_r_precision(oracle_ranked, rel)
            assert map_at_r(ranks) == oracle_map_at_r(oracle_ranked, rel)


    @staticmethod
    def dyadic_unit_rows(rng, n, dup):
        """n unit rows of d = 16 whose dot products are exact multiples of
        1/16 in any summation order; the last `dup` rows repeat earlier
        ones, so their scores tie exactly."""
        rows = np.zeros((n, 16))
        for row in rows:
            k = int(rng.choice([1, 4, 16]))  # entries +-1, +-1/2 or +-1/4
            row[rng.choice(16, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k)
            row /= np.sqrt(k)
        rows[n - dup:] = rows[rng.integers(0, n - dup, size=dup)]
        return rows[rng.permutation(n)]

    @staticmethod
    def relevance(rng, qids, gids):
        return {q: set(rng.choice(gids, size=int(rng.integers(1, 5)), replace=False))
                | ({"outside-the-gallery"} if rng.random() < 0.3 else set()) for q in qids}

    @pytest.mark.parametrize("block_rows, n", [(3, 4), (3, 7), (3, 11), (3, 12), (128, 127),
                                               (128, 128), (128, 129), (128, 257)])
    def test_streamed_eval_matches_oracles(self, monkeypatch, block_rows, n):
        monkeypatch.setattr(metrics, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(n + block_rows)
        img = self.dyadic_unit_rows(rng, n, dup=n // 3)
        txt = self.dyadic_unit_rows(rng, n, dup=n // 3)
        img_ids = [f"i{k}" for k in range(n)]
        txt_ids = [f"t{k}" for k in range(n)]
        rel_i2t = self.relevance(rng, img_ids, txt_ids)
        rel_t2i = self.relevance(rng, txt_ids, img_ids)
        report = evaluate_cross_modal(img, txt, img_ids, txt_ids,
                                      Relevance.from_mapping(rel_i2t),
                                      Relevance.from_mapping(rel_t2i))
        sims = img @ txt.T
        for direction, s, qids, gids, rel in (("i2t", sims, img_ids, txt_ids, rel_i2t),
                                              ("t2i", sims.T, txt_ids, img_ids, rel_t2i)):
            oracle_ranked = [(q, [gids[j] for j in oracle_order(s[i])])
                             for i, q in enumerate(qids)]
            got = report[direction]
            for k in (1, 5, 10):
                assert got[f"r_at_{k}"] == 100.0 * oracle_recall(oracle_ranked, rel, k)
            assert got["r_precision"] == oracle_r_precision(oracle_ranked, rel)
            assert got["map_at_r"] == oracle_map_at_r(oracle_ranked, rel)

        rel = {q: (ids - {q}) | {img_ids[(i + 1) % n]} for i, (q, ids)
               in enumerate(self.relevance(rng, img_ids, img_ids).items())}
        rel[img_ids[0]].add(img_ids[0])  # the query itself is never ranked
        got = evaluate_uni_modal(img, img_ids, Relevance.from_mapping(rel))
        sims = img @ img.T
        oracle_ranked = [(q, [img_ids[j] for j in oracle_order(sims[i], exclude=i)])
                         for i, q in enumerate(img_ids)]
        assert got["r_at_1"] == 100.0 * oracle_recall(oracle_ranked, rel, 1)


def test_eval_holds_no_score_matrix():
    """Peak traced memory of both evaluations stays below half of one
    n x n float64 matrix, and below three BLOCK_ROWS x n float64 blocks:
    a block's scores, their sorted copy and the next block's product
    must not all be alive at once. Under the two-cluster relevance every
    query has n / 2 relevant items, whose ranks must not be kept for
    every query."""
    n = 1500
    rng = np.random.default_rng(15)
    img = l2_normalize_rows(rng.standard_normal((n, 8)))
    txt = l2_normalize_rows(rng.standard_normal((n, 8)))
    img_ids = [f"i{k}" for k in range(n)]
    txt_ids = [f"t{k}" for k in range(n)]
    one_pair = ({i: [t] for i, t in zip(img_ids, txt_ids)},
                {t: [i] for i, t in zip(img_ids, txt_ids)},
                {img_ids[k]: [img_ids[(k + 1) % n]] for k in range(n)})
    two_clusters = ({img_ids[k]: txt_ids[k % 2::2] for k in range(n)},
                    {txt_ids[k]: img_ids[k % 2::2] for k in range(n)},
                    {img_ids[k]: img_ids[k % 2::2] for k in range(n)})
    for rel_i2t, rel_t2i, rel_img in (map(Relevance.from_mapping, rels)
                                      for rels in (one_pair, two_clusters)):
        for evaluate in (
                lambda: evaluate_cross_modal(img, txt, img_ids, txt_ids, rel_i2t, rel_t2i),
                lambda: evaluate_uni_modal(img, img_ids, rel_img)):
            tracemalloc.start()
            try:
                evaluate()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8 / 2
            assert peak < 3 * metrics.BLOCK_ROWS * n * 8


class TestForkedRanking:
    """At 2 forced CPUs each direction's query blocks are cut into two
    ranges; this process ranks the first and a forked child the second.
    With BLOCK_ROWS = 8 the 36 queries below make 5 blocks: rows 0-15
    are ranked here and rows 16-35 in the child."""

    N = 36

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 8)

    def inputs(self, degenerate=()):
        """Unit embeddings of N images and N texts in 3 clusters, and the
        co-membership Relevance of each direction; each image row in
        `degenerate` lists only image ids, so it has no relevant text."""
        rng = np.random.default_rng(29)
        centers = rng.standard_normal((3, 6))
        img = l2_normalize_rows(centers[np.arange(self.N) % 3]
                                + rng.standard_normal((self.N, 6)))
        txt = l2_normalize_rows(centers[np.arange(self.N) % 3]
                                + rng.standard_normal((self.N, 6)))
        img_ids = [f"i{k}" for k in range(self.N)]
        txt_ids = [f"t{k}" for k in range(self.N)]
        i2t = {img_ids[k]: (img_ids[k % 3::3] if k in degenerate else txt_ids[k % 3::3])
               for k in range(self.N)}
        t2i = {txt_ids[k]: img_ids[k % 3::3] for k in range(self.N)}
        return img, txt, img_ids, txt_ids, *map(Relevance.from_mapping, (i2t, t2i))

    def reports(self, *inputs):
        img, txt, img_ids, _, rel_i2t, _ = inputs
        return repr((evaluate_cross_modal(*inputs),
                     evaluate_uni_modal(img, img_ids, rel_i2t)))

    def test_a_query_without_a_relevant_item_in_the_child_range_fails_as_in_one_process(
            self, tmp_path, monkeypatch, forced_cpus, forks):
        img, txt, img_ids, txt_ids, rel_i2t, _ = self.inputs(degenerate=(30, 20))
        monkeypatch.chdir(tmp_path)
        write_features("img.feat", img_ids, img)
        write_features("txt.feat", txt_ids, txt)
        id_of = list(rel_i2t.index)  # table position -> id
        with open("rel.tsv", "w", encoding="utf-8") as fh:
            for r, query in enumerate(rel_i2t.queries):
                ids = rel_i2t.indices[rel_i2t.indptr[r]:rel_i2t.indptr[r + 1]]
                fh.write(f"{id_of[query]}\t{','.join(id_of[i] for i in ids)}\n")
        argv = ["eval", "--task", "cross", "--img-emb", "img.feat", "--txt-emb", "txt.feat",
                "--relevance", "rel.tsv"]
        outcomes = []
        for cpus in (1, 2):
            err = io.StringIO()
            with forced_cpus(cpus), redirect_stdout(io.StringIO()), redirect_stderr(err):
                outcomes.append((main(argv), err.getvalue()))
        assert outcomes[0] == (4, "error: query row 20 has no relevant item in the gallery\n")
        assert outcomes[1] == outcomes[0]
        assert forks  # the second range was ranked in a child

    def test_a_missing_query_fails_before_any_fork(self, forced_cpus, forks):
        img, txt, img_ids, txt_ids, rel_i2t, rel_t2i = self.inputs()
        rel_i2t = Relevance.from_mapping({q: ["t0"] for q in img_ids[:-1]})
        with forced_cpus(2), pytest.raises(UnknownId, match="'i35'"):
            evaluate_cross_modal(img, txt, img_ids, txt_ids, rel_i2t, rel_t2i)
        with forced_cpus(2), pytest.raises(UnknownId, match="'i35'"):
            evaluate_uni_modal(img, img_ids, rel_i2t)
        assert forks == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_child_that_cannot_start_or_dies_leaves_its_range_to_the_parent(
            self, monkeypatch, forced_cpus, cpus):
        inputs = self.inputs()
        with forced_cpus(1):
            whole = self.reports(*inputs)
        real_fork = os.fork

        def dying_fork():
            pid = real_fork()
            if pid == 0:
                os._exit(0)
            return pid

        def failing_fork():
            raise OSError("no process to spare")

        for fork in (dying_fork, failing_fork):
            with forced_cpus(cpus):
                monkeypatch.setattr(os, "fork", fork)
                assert self.reports(*inputs) == whole

    def test_a_child_stream_that_ends_early_is_ranked_again(self, monkeypatch, forced_cpus):
        inputs = self.inputs()
        with forced_cpus(1):
            whole = self.reports(*inputs)
        real_read = parallel.read_exact

        def read_exact(fh, size):
            real_read(fh, size // 2)
            raise EOFError("cut off")

        with forced_cpus(2):
            monkeypatch.setattr(parallel, "read_exact", read_exact)
            assert self.reports(*inputs) == whole

    @pytest.mark.parametrize("range_rows, n_forks", [(metrics.RANGE_ROWS, 0), (19, 0), (18, 2)])
    def test_a_range_holds_at_least_range_rows(self, monkeypatch, forks, range_rows, n_forks):
        # 36 queries make two ranges of 18 rows or one range
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(metrics, "RANGE_ROWS", range_rows)
        evaluate_cross_modal(*self.inputs())
        assert len(forks) == n_forks

    def test_without_fork_everything_runs_in_one_process(self, monkeypatch, forced_cpus):
        inputs = self.inputs()
        with forced_cpus(1):
            whole = self.reports(*inputs)
        with forced_cpus(2):
            monkeypatch.delattr(os, "fork")
            assert parallel.usable_cpus() == 1
            assert self.reports(*inputs) == whole


# ---------------------------------------------------------------------------
# property: ranking and metrics vs the oracles on tie-heavy and mixed inputs
# ---------------------------------------------------------------------------

def relevance_lines(draw, qids, gids, exclude_self):
    """One relevant item in the gallery per query (not the query itself
    under self-exclusion), then any ids, repeats and ids outside the
    gallery allowed."""
    pool = gids + ["out-a", "out-b"]  # ids outside the gallery are ignored
    lines = {}
    for i, qid in enumerate(qids):
        first = draw(st.sampled_from([g for j, g in enumerate(gids)
                                      if not (exclude_self and j == i)]))
        lines[qid] = [first] + draw(st.lists(st.sampled_from(pool), max_size=6))
    return lines


@st.composite
def tie_heavy_instances(draw, exclude_self):
    ng = draw(st.integers(2, 12))
    nq = ng if exclude_self else draw(st.integers(1, 12))
    scale = 10 ** draw(st.sampled_from([1, 2]))  # one or two decimals
    sims = draw(arrays(np.int64, (nq, ng), elements=st.integers(-scale, scale))) / scale
    gids = [f"v{j}" for j in range(ng)]
    qids = gids if exclude_self else [f"q{i}" for i in range(nq)]
    return sims, qids, gids, relevance_lines(draw, qids, gids, exclude_self)


@st.composite
def mixed_tie_instances(draw, exclude_self):
    """Rows of distinct scores beside rows that hold equal scores (-0.0
    and 0.0 among them), so one block ranks rows both ways."""
    ng = draw(st.integers(2, 12))
    nq = ng if exclude_self else draw(st.integers(1, 12))
    distinct = st.lists(st.floats(-1e3, 1e3), min_size=ng, max_size=ng, unique=True)
    tied = st.lists(st.sampled_from([-0.5, -0.0, 0.0, 0.5]), min_size=ng, max_size=ng)
    sims = np.array([draw(st.one_of(distinct, tied)) for _ in range(nq)])
    gids = [f"v{j}" for j in range(ng)]
    qids = gids if exclude_self else [f"q{i}" for i in range(nq)]
    return sims, qids, gids, relevance_lines(draw, qids, gids, exclude_self)


def check_against_oracles(instances, exclude_self, path):
    """Ranks and metrics of every drawn instance, its relevance read from
    a file, equal the oracles' exactly."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instances)
    def check(instance):
        sims, qids, gids, lines = instance
        path.write_text("".join(f"{q}\t{','.join(ids)}\n" for q, ids in lines.items()),
                        encoding="utf-8")
        ranks = rank_by_similarity(sims, qids, gids, read_relevance(path), exclude_self)
        rel = {q: set(ids) for q, ids in lines.items()}
        oracle_ranked = [(qid, [gids[j] for j in oracle_order(sims[i], i if exclude_self
                                                               else None)])
                         for i, qid in enumerate(qids)]
        assert [r.tolist() for r in ranks] == [
            [pos for pos, g in enumerate(ids) if g in rel[q]] for q, ids in oracle_ranked]
        for k in (1, 5, 10):
            assert recall_at_k(ranks, k) == oracle_recall(oracle_ranked, rel, k)
        assert r_precision(ranks) == oracle_r_precision(oracle_ranked, rel)
        assert map_at_r(ranks) == oracle_map_at_r(oracle_ranked, rel)

    check()


@pytest.mark.parametrize("block_rows", [1, 3, 128])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_ranking_and_metrics_match_oracles_on_ties(block_rows, exclude_self, monkeypatch,
                                                    tmp_path):
    monkeypatch.setattr(metrics, "BLOCK_ROWS", block_rows)
    check_against_oracles(tie_heavy_instances(exclude_self), exclude_self, tmp_path / "rel.tsv")


@pytest.mark.parametrize("block_rows", [3, 128])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_ranking_and_metrics_match_oracles_on_mixed_rows(block_rows, exclude_self,
                                                         monkeypatch, tmp_path):
    monkeypatch.setattr(metrics, "BLOCK_ROWS", block_rows)
    check_against_oracles(mixed_tie_instances(exclude_self), exclude_self, tmp_path / "rel.tsv")


# ---------------------------------------------------------------------------
# property: the streamed reports vs the metrics over rank_by_similarity's lists
# ---------------------------------------------------------------------------

def exact_embeddings(sims, exclude_self):
    """Unit rows whose products are exact in any summation order, so the
    evaluation's blocked products equal the full one bit for bit.

    Cross-modal: one-hot image rows, text rows carrying the columns of
    `sims` scaled by a power of two; their product is that scaled `sims`.
    Uni-modal: rows of `sims` rounded to sixteenths and scaled by a power
    of two, each padded to unit norm in a column of its own, so that only
    the excluded diagonal holds an inexact term."""
    nq, ng = sims.shape
    if exclude_self:
        rows = np.round(sims * 16)
        rows /= 2.0 ** np.ceil(np.log2(max(np.linalg.norm(rows, axis=1).max(), 1.0)) + 1)
        return np.hstack([rows, np.diag(np.sqrt(1.0 - (rows * rows).sum(axis=1)))]), None
    cols = sims.T / 2.0 ** np.ceil(np.log2(max(np.linalg.norm(sims, axis=0).max(), 1.0)) + 1)
    pad = np.sqrt(1.0 - (cols * cols).sum(axis=1))
    return np.eye(nq, nq + 1), np.hstack([cols, pad[:, None]])


def list_report(scores, qids, gids, rel):
    """One direction's report from recall_at_k, r_precision and map_at_r
    over rank_by_similarity's lists."""
    ranks = rank_by_similarity(scores, qids, gids, rel)
    rp, ap = r_precision(ranks), map_at_r(ranks)
    return {"r_at_1": 100.0 * recall_at_k(ranks, 1), "r_at_5": 100.0 * recall_at_k(ranks, 5),
            "r_at_10": 100.0 * recall_at_k(ranks, 10), "r_precision": rp,
            "r_precision_pct": 100.0 * rp, "map_at_r": ap, "map_at_r_pct": 100.0 * ap}


def outcome(compute):
    """compute()'s value, or the message of the DegenerateInput it raises."""
    try:
        return compute()
    except DegenerateInput as exc:
        return ("DegenerateInput", str(exc))


def check_reports_against_lists(instances, exclude_self, path):
    """Each report value of the streamed evaluations equals the list
    metrics' bit for bit, and a query without a relevant item raises
    the same DegenerateInput in both."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instances)
    def check(instance):
        sims, qids, gids, lines = instance
        path.write_text("".join(f"{q}\t{','.join(ids)}\n" for q, ids in lines.items()),
                        encoding="utf-8")
        rel = read_relevance(path)
        img, txt = exact_embeddings(sims, exclude_self)
        if exclude_self:
            ranks = rank_by_similarity(img @ img.T, qids, qids, rel, exclude_self=True)
            assert evaluate_uni_modal(img, qids, rel) == {"r_at_1": 100.0 * recall_at_k(ranks, 1)}
            return
        scores = img @ txt.T
        # a text query is relevant to the image queries that list it; one
        # listed by none has no relevant item, unless it is given the first
        inverse = {g: [q for q, ids in lines.items() if g in ids] for g in gids}
        for t2i in (inverse, {g: found or qids[:1] for g, found in inverse.items()}):
            rel_t2i = Relevance.from_mapping(t2i)
            want = outcome(lambda: {"i2t": list_report(scores, qids, gids, rel),
                                    "t2i": list_report(scores.T, gids, qids, rel_t2i)})
            got = outcome(lambda: evaluate_cross_modal(img, txt, qids, gids, rel, rel_t2i))
            if isinstance(got, dict):
                del got["rsum"]
                assert {type(v) for report in got.values() for v in report.values()} == {float}
            assert repr(got) == repr(want)

    check()


@pytest.mark.parametrize("block_rows", [3, 128])
@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("strategy", [tie_heavy_instances, mixed_tie_instances])
def test_streamed_reports_equal_list_metrics(strategy, exclude_self, block_rows, monkeypatch,
                                             tmp_path):
    monkeypatch.setattr(metrics, "BLOCK_ROWS", block_rows)
    check_reports_against_lists(strategy(exclude_self), exclude_self, tmp_path / "rel.tsv")
