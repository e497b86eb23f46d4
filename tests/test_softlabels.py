import numpy as np
import pytest

from cusa.errors import DegenerateInput, NonPositiveTemperature, NotNormalized, ShapeMismatch
from cusa.mathops import l2_normalize_rows, row_softmax
from cusa.softlabels import TeacherBatch, build_batch_targets, teacher_distribution

SOFTMAX_1_0 = (0.73105857863000488, 0.26894142136999512)


def test_identical_rows_give_uniform():
    feats = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = teacher_distribution(feats)
    np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)


def test_orthogonal_rows():
    # r = [[1, 0], [0, 1]], so each row is softmax([1, 0]) up to ordering
    p = teacher_distribution(np.eye(2))
    want = np.array([SOFTMAX_1_0, SOFTMAX_1_0[::-1]])
    np.testing.assert_allclose(p, want, rtol=0, atol=1e-15)


def test_rows_stochastic_and_diagonal_argmax():
    rng = np.random.default_rng(31)
    feats = l2_normalize_rows(rng.standard_normal((5, 16)))
    p = teacher_distribution(feats)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # self-similarity is 1 and everything else is < 1
    assert list(np.argmax(p, axis=1)) == list(range(5))


def test_matches_softmax_of_self_similarity():
    rng = np.random.default_rng(8)
    feats = l2_normalize_rows(rng.standard_normal((6, 10)))
    for temp in (1.0, 4.0):
        want = row_softmax(feats @ feats.T, temp)
        np.testing.assert_allclose(teacher_distribution(feats, temp), want, rtol=0, atol=1e-15)


def test_permutation_equivariance():
    rng = np.random.default_rng(19)
    feats = l2_normalize_rows(rng.standard_normal((6, 8)))
    perm = rng.permutation(6)
    p = teacher_distribution(feats)
    p_perm = teacher_distribution(feats[perm])
    np.testing.assert_allclose(p_perm, p[np.ix_(perm, perm)], rtol=0, atol=1e-12)


def test_large_inv_temp_approaches_one_hot():
    rng = np.random.default_rng(2)
    feats = l2_normalize_rows(rng.standard_normal((4, 12)))
    p = teacher_distribution(feats, teacher_inv_temp=1e3)
    np.testing.assert_allclose(np.diagonal(p), 1.0, rtol=0, atol=1e-6)


def test_singleton_batch_rejected():
    with pytest.raises(DegenerateInput):
        teacher_distribution(np.array([[1.0, 0.0]]))


def test_denormalized_features_rejected():
    with pytest.raises(NotNormalized):
        teacher_distribution(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_bad_temperature_rejected():
    with pytest.raises(NonPositiveTemperature):
        teacher_distribution(np.eye(2), teacher_inv_temp=0.0)


class TestBuildBatchTargets:
    def test_composed_cases(self):
        img = np.array([[1.0, 0.0], [1.0, 0.0]])
        txt = np.eye(2)
        targets = build_batch_targets(TeacherBatch(img, txt))
        np.testing.assert_allclose(targets.p_i2i, 0.5, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            targets.p_t2t, [SOFTMAX_1_0, SOFTMAX_1_0[::-1]], rtol=0, atol=1e-15
        )

    def test_duplicate_pairs_share_rows(self):
        rng = np.random.default_rng(4)
        base = l2_normalize_rows(rng.standard_normal((3, 6)))
        img = np.vstack([base, base[:1]])  # row 3 duplicates row 0
        targets = build_batch_targets(TeacherBatch(img, img))
        np.testing.assert_allclose(targets.p_i2i[0], targets.p_i2i[3], rtol=0, atol=1e-12)

    def test_row_count_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        img = l2_normalize_rows(rng.standard_normal((3, 4)))
        txt = l2_normalize_rows(rng.standard_normal((4, 4)))
        with pytest.raises(ShapeMismatch):
            TeacherBatch(img, txt)

    def test_rows_of_a_validated_teacher_match_a_batch_teacher(self):
        # one TeacherBatch over all pairs, gathered per batch, gives the
        # same bits as a TeacherBatch built for that batch alone
        rng = np.random.default_rng(10)
        img = l2_normalize_rows(rng.standard_normal((12, 5)))
        txt = l2_normalize_rows(rng.standard_normal((12, 7)))
        full = TeacherBatch(img, txt)
        for rows in (np.array([3, 0, 11, 7]), rng.permutation(12)[:6]):
            got = build_batch_targets(full, 8.0, rows)
            want = build_batch_targets(TeacherBatch(img[rows], txt[rows]), 8.0)
            assert np.array_equal(got.p_i2i, want.p_i2i)
            assert np.array_equal(got.p_t2t, want.p_t2t)
            assert np.array_equal(got.p_i2i, teacher_distribution(img[rows], 8.0))

    def test_batch_checks_still_apply(self):
        rng = np.random.default_rng(11)
        feats = l2_normalize_rows(rng.standard_normal((4, 3)))
        full = TeacherBatch(feats, feats)
        with pytest.raises(DegenerateInput):
            build_batch_targets(full, 1.0, np.array([2]))
        with pytest.raises(NonPositiveTemperature):
            build_batch_targets(full, 0.0, np.array([0, 1]))
