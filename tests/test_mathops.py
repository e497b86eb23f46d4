"""Numeric kernel tests against closed-form and high-precision oracles.

Frozen constants were computed independently with 50-digit arithmetic.
"""

import numpy as np
import pytest

from cusa.errors import (
    DimensionMismatch,
    InvalidDistribution,
    NonFiniteValue,
    NonPositiveTemperature,
    NotNormalized,
    ShapeMismatch,
    ZeroRow,
)
from cusa.mathops import (
    cosine_similarity,
    kl_divergence_rows,
    kl_rows_raw,
    l2_normalize_rows,
    log_prob,
    row_softmax,
    row_softmax_with_log,
)
from cusa.softlabels import teacher_distribution

# softmax([1, 0]) at inv_temp 1, 50-digit oracle
SOFTMAX_1_0 = (0.73105857863000488, 0.26894142136999512)
LOG_2 = 0.69314718055994531
# KL([0.5, 0.5] || [0.75, 0.25])
KL_HALF_VS_3Q = 0.14384103622589046


class TestL2NormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_axis_vectors(self):
        out = l2_normalize_rows([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            out = l2_normalize_rows(rng.standard_normal((4, 8)))
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow):
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            l2_normalize_rows([[np.nan, 1.0]])


class TestCosineSimilarity:
    def test_orthonormal_basis(self):
        e = np.eye(2)
        np.testing.assert_array_equal(cosine_similarity(e, e), e)

    def test_antipodal(self):
        out = cosine_similarity([[1.0, 0.0]], [[-1.0, 0.0]])
        np.testing.assert_array_equal(out, [[-1.0]])

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(3)
        a = l2_normalize_rows(rng.standard_normal((3, 5)))
        b = l2_normalize_rows(rng.standard_normal((4, 5)))
        got = cosine_similarity(a, b)
        for i in range(3):
            for j in range(4):
                want = sum(a[i][k] * b[j][k] for k in range(5))
                assert abs(got[i, j] - want) < 1e-12

    def test_self_similarity_diagonal_and_symmetry(self):
        rng = np.random.default_rng(7)
        a = l2_normalize_rows(rng.standard_normal((6, 9)))
        s = cosine_similarity(a, a)
        np.testing.assert_allclose(np.diagonal(s), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-12)

    def test_t2i_is_transpose_of_i2t(self):
        rng = np.random.default_rng(13)
        img = l2_normalize_rows(rng.standard_normal((5, 4)))
        txt = l2_normalize_rows(rng.standard_normal((5, 4)))
        np.testing.assert_array_equal(cosine_similarity(txt, img), cosine_similarity(img, txt).T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_denormalized_rejected(self):
        with pytest.raises(NotNormalized):
            cosine_similarity([[3.0, 4.0]], [[1.0, 0.0]])


class TestRowSoftmax:
    def test_equal_logits_uniform(self):
        for inv_temp in (0.5, 1.0, 37.0):
            out = row_softmax([[2.2, 2.2, 2.2]], inv_temp)
            np.testing.assert_allclose(out, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_one_zero_row(self):
        out = row_softmax([[1.0, 0.0]], 1.0)
        np.testing.assert_allclose(out, [SOFTMAX_1_0], rtol=0, atol=1e-15)
        # the coarser published rounding as a sanity anchor
        np.testing.assert_allclose(out, [[0.731059, 0.268941]], rtol=0, atol=1e-6)

    def test_shift_invariance(self):
        np.testing.assert_allclose(
            row_softmax([[5.0, 4.0]], 1.0), row_softmax([[1.0, 0.0]], 1.0),
            rtol=1e-12, atol=0,
        )

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(29)
        s = rng.standard_normal((4, 6))
        base = row_softmax(s, 3.0)
        shifted = row_softmax(s + 17.5, 3.0)
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=0)

    def test_rows_sum_to_one_across_temperatures(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, size=(8, 8))
        for inv_temp in (1e-3, 1.0, 50.0, 1e3):
            q = row_softmax(s, inv_temp)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            assert np.all(q >= 0)
            if inv_temp <= 100.0:  # far tails underflow to exact 0 beyond this
                assert np.all(q > 0)

    def test_non_positive_temperature(self):
        for bad in (0.0, -1.0):
            with pytest.raises(NonPositiveTemperature):
                row_softmax([[1.0, 0.0]], bad)


class TestKlDivergenceRows:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(41)
        p = row_softmax(rng.standard_normal((5, 7)), 1.0)
        per_row, mean = kl_divergence_rows(p, p)
        np.testing.assert_allclose(per_row, 0.0, rtol=0, atol=1e-12)
        assert abs(mean) < 1e-12

    def test_one_hot_vs_uniform_is_log_two(self):
        per_row, mean = kl_divergence_rows([[1.0, 0.0]], [[0.5, 0.5]])
        assert abs(per_row[0] - LOG_2) < 1e-15
        assert abs(mean - LOG_2) < 1e-15

    def test_two_term_oracle(self):
        _, mean = kl_divergence_rows([[0.5, 0.5]], [[0.75, 0.25]])
        assert abs(mean - KL_HALF_VS_3Q) < 1e-15

    def test_nonnegative_and_positive_when_different(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = row_softmax(rng.standard_normal((3, 4)), 1.0)
            q = row_softmax(rng.standard_normal((3, 4)), 1.0)
            per_row, _ = kl_divergence_rows(p, q)
            assert np.all(per_row >= 0.0)
        p = row_softmax(rng.standard_normal((2, 3)), 1.0)
        bumped = p + np.array([[0.01, -0.01, 0.0], [0.0, 0.01, -0.01]])
        _, mean = kl_divergence_rows(p, bumped)
        assert mean > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kl_divergence_rows([[1.0, 0.0]], [[0.5, 0.25, 0.25]])

    def test_q_with_zero_entry_rejected(self):
        with pytest.raises(InvalidDistribution):
            kl_divergence_rows([[0.5, 0.5]], [[1.0, 0.0]])

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(InvalidDistribution):
            kl_divergence_rows([[0.7, 0.7]], [[0.5, 0.5]])


def masked_kl(p, log_q):
    """The per-row KL as a boolean-mask gather over p > 0."""
    pos = p > 0.0
    terms = np.zeros_like(p)
    terms[pos] = p[pos] * (np.log(p[pos]) - log_q[pos])
    return terms.sum(axis=1)


class TestInPlaceKernels:
    """The fast kernels write only buffers they allocate themselves."""

    def test_softmax_leaves_input_and_transposed_view_untouched(self):
        rng = np.random.default_rng(61)
        s = rng.uniform(-1.0, 1.0, size=(7, 7))
        keep = s.copy()
        for view in (s, s.T):
            q, log_q = row_softmax_with_log(view, 9.0)
            assert np.array_equal(s, keep)
            # outputs keep the layout of the input, so a transposed
            # view's rows sum in the same order as before
            assert q.flags.f_contiguous == view.flags.f_contiguous
            assert log_q.flags.f_contiguous == view.flags.f_contiguous
            np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_kl_leaves_inputs_untouched(self):
        rng = np.random.default_rng(62)
        p = row_softmax(rng.standard_normal((5, 5)), 1.0)
        _, log_q = row_softmax_with_log(rng.standard_normal((5, 5)), 2.0)
        log_p = log_prob(p)
        keep = [m.copy() for m in (p, log_q, log_p)]
        for view in (log_q, log_q.T):
            kl_rows_raw(p, view, log_p)
            for now, before in zip((p, log_q, log_p), keep):
                assert np.array_equal(now, before)

    def test_kl_with_exact_zero_teacher_entries_matches_masked_formula(self):
        # orthogonal rows at a large inverse temperature underflow to
        # exact zeros; rows at 45 degrees keep small positive mass
        feats = l2_normalize_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0],
                                   [0, 0, 1], [0, 1, 1], [1, 0, 0.2]])
        p = teacher_distribution(feats, teacher_inv_temp=1e3)
        assert np.any(p == 0.0) and np.any((p > 0.0) & (p < 1e-100))
        rng = np.random.default_rng(63)
        s = rng.uniform(-1.0, 1.0, size=p.shape)
        for view in (s, s.T):
            _, log_q = row_softmax_with_log(view, 14.0)
            want = masked_kl(p, log_q)
            assert np.array_equal(kl_rows_raw(p, log_q, log_prob(p)), want)

    def test_log_prob_zero_convention(self):
        p = np.array([[0.25, 0.0, 0.75]])
        got = log_prob(p)
        assert got[0, 1] == 0.0
        assert got[0, 0] == np.log(0.25) and got[0, 2] == np.log(0.75)
