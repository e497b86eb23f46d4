"""Generator invariants: determinism, planted cluster structure, file bundle."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cusa import synthetic
from cusa.dataio import read_features, read_pairs, read_relevance
from cusa.errors import InvalidConfig
from cusa.softlabels import TeacherBatch, build_batch_targets
from cusa.synthetic import SynthConfig, generate, synth_generate

SMALL = dict(n_clusters=3, pairs_per_cluster=5, d_student_img=8, d_student_txt=8,
             d_teacher_img=12, d_teacher_txt=12)


def relevance_sets(rel):
    """Query id -> set of relevant ids, decoded from a Relevance."""
    name = {t: i for i, t in rel.index.items()}
    return {name[q]: {name[t] for t in rel.indices[lo:hi]}
            for q, lo, hi in zip(rel.queries, rel.indptr[:-1], rel.indptr[1:])}


class TestSynthConfig:
    @pytest.mark.parametrize("overrides", [
        {"n_clusters": 1},
        {"pairs_per_cluster": 1},
        {"d_student_img": 0},
        {"intra_noise": -0.1},
        {"cross_modal_gap": 1.5},
        {"cross_modal_gap": -0.1},
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(InvalidConfig):
            SynthConfig(**{**SMALL, **overrides})


class TestGenerate:
    def test_deterministic(self):
        a = generate(SynthConfig(**SMALL, seed=5))
        b = generate(SynthConfig(**SMALL, seed=5))
        assert a.img_ids == b.img_ids and a.txt_ids == b.txt_ids
        for name in ("img_base", "txt_base", "img_teacher", "txt_teacher"):
            assert_array_equal(getattr(a, name), getattr(b, name))
        assert_array_equal(a.clusters, b.clusters)

    def test_seed_changes_output(self):
        a = generate(SynthConfig(**SMALL, seed=5))
        b = generate(SynthConfig(**SMALL, seed=6))
        assert not np.array_equal(a.img_base, b.img_base)

    def test_shapes_ids_and_normalization(self):
        data = generate(SynthConfig(**SMALL))
        n = SMALL["n_clusters"] * SMALL["pairs_per_cluster"]
        assert data.img_base.shape == (n, 8)
        assert data.txt_teacher.shape == (n, 12)
        assert len(set(data.img_ids)) == n and len(set(data.txt_ids)) == n
        assert data.img_ids[0] == "img-c000-p0000"
        assert data.txt_ids[-1] == "txt-c002-p0004"
        assert_array_equal(data.clusters, np.repeat(np.arange(3), 5))
        for name in ("img_base", "txt_base", "img_teacher", "txt_teacher"):
            norms = np.linalg.norm(getattr(data, name), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_noise_collapses_clusters(self):
        data = generate(SynthConfig(**SMALL, intra_noise=0.0))
        ppc = SMALL["pairs_per_cluster"]
        for table in (data.img_base, data.img_teacher):
            for cl in range(SMALL["n_clusters"]):
                block = table[cl * ppc:(cl + 1) * ppc]
                assert_array_equal(block, np.broadcast_to(block[0], block.shape))

    def test_zero_noise_teacher_targets_uniform_within_cluster(self):
        data = generate(SynthConfig(**SMALL, intra_noise=0.0))
        ppc = SMALL["pairs_per_cluster"]
        feats = data.img_teacher[:ppc]
        p = build_batch_targets(TeacherBatch(feats, feats), 1.0).p_i2i
        np.testing.assert_allclose(p, 1.0 / ppc, atol=1e-12)

    def test_clusters_separate_in_every_space(self):
        config = SynthConfig(n_clusters=4, pairs_per_cluster=30,
                             d_student_img=16, d_student_txt=16,
                             d_teacher_img=16, d_teacher_txt=16,
                             intra_noise=0.1, seed=11)
        data = generate(config)
        same = data.clusters[:, None] == data.clusters[None, :]
        off_diag = ~np.eye(len(data.clusters), dtype=bool)
        for name in ("img_base", "txt_base", "img_teacher", "txt_teacher"):
            table = getattr(data, name)
            sims = table @ table.T
            within = sims[same & off_diag]
            between = sims[~same]
            assert np.quantile(within, 0.01) > np.quantile(between, 0.99)

    def test_gap_only_touches_student_tables(self):
        shut = generate(SynthConfig(**SMALL, cross_modal_gap=0.0, intra_noise=0.5))
        open_ = generate(SynthConfig(**SMALL, cross_modal_gap=1.0, intra_noise=0.5))
        assert_array_equal(shut.img_teacher, open_.img_teacher)
        assert_array_equal(shut.txt_teacher, open_.txt_teacher)
        assert not np.array_equal(shut.img_base, open_.img_base)
        assert not np.array_equal(shut.txt_base, open_.txt_base)

    def test_gap_zero_couples_modal_deviations(self):
        # with a shared pair latent, img-img and txt-txt similarities
        # co-vary across same-cluster pairs; independent noise kills that
        def pairwise_corr(gap):
            config = SynthConfig(n_clusters=2, pairs_per_cluster=60,
                                 d_student_img=16, d_student_txt=16,
                                 d_teacher_img=16, d_teacher_txt=16,
                                 intra_noise=2.0, cross_modal_gap=gap, seed=21)
            data = generate(config)
            sims_i = data.img_base @ data.img_base.T
            sims_t = data.txt_base @ data.txt_base.T
            same = data.clusters[:, None] == data.clusters[None, :]
            mask = np.triu(same, k=1)
            return float(np.corrcoef(sims_i[mask], sims_t[mask])[0, 1])

        assert pairwise_corr(0.0) > pairwise_corr(1.0) + 0.1
        assert abs(pairwise_corr(1.0)) < 0.1

    def test_peak_holds_less_than_the_tables_and_every_draw(self):
        # at 4 x 500 (dims 32, 32, 64, 64; latent 64) the four returned
        # tables are 3.07 MB, w 1.02 MB and the four eps draws, of the
        # tables' shapes, 3.07 MB more: 7.17 MB (6.84 MiB) in all. Each
        # draw is released after its last use and each table is built in
        # place, so the peak stays below them (5.0 MB; 10.1 MB if all
        # were held)
        config = SynthConfig(n_clusters=4, pairs_per_cluster=500)
        tracemalloc.start()
        try:
            data = generate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = [data.img_base, data.txt_base, data.img_teacher, data.txt_teacher]
        n, latent = len(data.img_ids), max(t.shape[1] for t in tables)
        held = sum(t.nbytes for t in tables)
        w, eps = n * latent * 8, held
        assert peak < held + w + eps


class TestSynthGenerate:
    def test_bundle_round_trips(self, tmp_path):
        config = SynthConfig(**SMALL, seed=2)
        paths = synth_generate(config, tmp_path / "out")
        assert sorted(paths) == ["img_base", "img_teacher", "pairs",
                                 "relevance", "txt_base", "txt_teacher"]
        data = generate(config)
        table = read_features(paths["img_base"])
        assert table.ids == data.img_ids
        assert_array_equal(table.features,
                           data.img_base.astype(np.float32).astype(np.float64))
        pairs = read_pairs(paths["pairs"])
        assert pairs == list(zip(data.img_ids, data.txt_ids))

    def test_rerun_is_byte_identical(self, tmp_path):
        config = SynthConfig(**SMALL, seed=9)
        first = synth_generate(config, tmp_path / "a")
        second = synth_generate(config, tmp_path / "b")
        for name in first:
            with open(first[name], "rb") as fa, open(second[name], "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_relevance_is_symmetric_co_membership(self, tmp_path):
        paths = synth_generate(SynthConfig(**SMALL, seed=3), tmp_path / "out")
        rel = relevance_sets(read_relevance(paths["relevance"]))
        data = generate(SynthConfig(**SMALL, seed=3))
        ppc = SMALL["pairs_per_cluster"]
        assert set(rel) == set(data.img_ids) | set(data.txt_ids)
        for qid, members in rel.items():
            assert qid not in members
            assert len(members) == 2 * ppc - 1
            for m in members:
                assert qid in rel[m]
        # a query's paired counterpart is always relevant
        for img, txt in zip(data.img_ids, data.txt_ids):
            assert txt in rel[img] and img in rel[txt]

    @pytest.mark.parametrize("n_clusters, pairs_per_cluster", [(2, 2), (3, 5), (5, 3)])
    def test_relevance_follows_the_per_line_rule(self, tmp_path, n_clusters, pairs_per_cluster):
        # every image query, then every text query, each followed by the other
        # members of its cluster (images, then texts) in order; the first and
        # last member of each cluster included
        config = SynthConfig(**{**SMALL, "n_clusters": n_clusters,
                                "pairs_per_cluster": pairs_per_cluster})
        paths = synth_generate(config, tmp_path / "out")
        data = generate(config)
        clusters = [data.img_ids[lo:lo + pairs_per_cluster] + data.txt_ids[lo:lo + pairs_per_cluster]
                    for lo in range(0, len(data.img_ids), pairs_per_cluster)]
        want = "".join(f"{members[j]}\t{','.join(members[:j] + members[j + 1:])}\n"
                       for first in (0, pairs_per_cluster) for members in clusters
                       for j in range(first, first + pairs_per_cluster))
        with open(paths["relevance"], "rb") as fh:
            assert fh.read() == want.encode("utf-8")

    def test_relevance_writer_holds_no_cluster_of_lines(self, tmp_path):
        # at 4 x 500 one cluster's 500 lines are 7.5 MB; the writer holds one
        # line and one cluster's joined ids and offsets (about 120 KB at its peak)
        data = generate(SynthConfig(n_clusters=4, pairs_per_cluster=500))
        tracemalloc.start()
        try:
            synthetic._write_relevance(tmp_path / "relevance.tsv", data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
