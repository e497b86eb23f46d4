"""Numeric kernel tests against closed-form and high-precision oracles.

Frozen constants were computed independently with 50-digit arithmetic.
"""

import warnings

import numpy as np
import pytest

from cusa.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveTemperature,
    NotNormalized,
    NumericError,
    ShapeMismatch,
    ZeroRow,
)
from cusa.mathops import (
    LSE_FLOOR,
    cosine_similarity,
    l2_normalize_rows,
    neg_entropy_rows,
    row_softmax,
    row_softmax_with_log,
)
from cusa.losses import _mean_kl, loss_from_logits
from cusa.softlabels import TeacherBatch, TeacherTargets, build_batch_targets

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

    def test_a_norm_beyond_float64_is_rejected_naming_its_row(self):
        # finite entries whose squares overflow: not a zero row and a warning
        with pytest.raises(NumericError, match="^row 1 has a norm that is not finite$"):
            l2_normalize_rows([[1.0, 2.0], [1e200, 1.0]])

    def test_finite_norms_keep_their_bits(self):
        m = np.random.default_rng(12).standard_normal((5, 7)) * [[1.0], [1e-6], [1e150],
                                                                 [3.0], [1e-5]]
        want = m / np.sqrt(np.add.reduce(m * m, axis=1))[:, None]
        assert l2_normalize_rows(m).tobytes() == want.tobytes()


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

    def test_rows_far_below_the_maximum_keep_their_distribution(self):
        # a shift by the matrix maximum alone would underflow row 1
        s = np.array([[1000.0, 999.0], [-1000.0, -1001.0]])
        q, z, lse = row_softmax_with_log(s, 1.0)
        np.testing.assert_allclose(q, [SOFTMAX_1_0] * 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(z - lse, np.log([SOFTMAX_1_0] * 2), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("axis", [-1, -2], ids=["rows", "columns"])
    @pytest.mark.parametrize("shifted", [(), (0,), (1,), (0, 1)],
                             ids=["neither", "first", "second", "both"])
    def test_each_matrix_of_a_stack_gets_the_bits_it_gets_alone(self, shifted, axis):
        # a matrix whose second row (or column) sits 2000 below its maximum
        # takes the per-row shift; the others keep the one shift of their
        # matrix, whatever their neighbour in the stack does
        rng = np.random.default_rng(7)
        s = rng.uniform(-1.0, 1.0, size=(2, 4, 4))
        for k in shifted:
            s[k, 1] -= 2000.0
            if axis == -2:
                s[k] = s[k].T.copy()
        stack = s.copy()
        q, z, lse = row_softmax_with_log(stack, 1.0, axis=axis)
        np.testing.assert_array_equal(stack, s)  # the logits are not modified
        for k in range(2):
            alone = row_softmax_with_log(s[k].copy(), 1.0, axis=axis)
            sums = np.exp(s[k] - s[k].max()).sum(axis=axis)
            assert (sums.min() < LSE_FLOOR) == (k in shifted)
            for got, want in zip((q[k], z[k], lse[k]), alone):
                assert got.tobytes() == want.tobytes()

    def test_non_positive_temperature(self):
        for bad in (0.0, -1.0):
            with pytest.raises(NonPositiveTemperature):
                row_softmax([[1.0, 0.0]], bad)

    @pytest.mark.parametrize("s, inv_temp", [
        ([[1e308, -1e308]], 10.0),  # the scaling overflows
        ([[1e308, -1e308]], 1.0),   # the shift by the maximum overflows
        ([[1e308, 1e308]], 10.0),   # no spread, but the scaled logits are infinite
    ])
    def test_a_scaled_spread_beyond_float64_is_a_numeric_error(self, s, inv_temp):
        # finite logits and temperature; a warning would be an error here
        with pytest.raises(NumericError, match="not finite"):
            row_softmax(s, inv_temp)

    def test_the_widest_finite_scaled_spread_is_accepted(self):
        np.testing.assert_array_equal(row_softmax([[1e308, -1e308]], 0.5), [[1.0, 0.0]])

    def test_teacher_targets_take_the_per_row_shift(self):
        # the self-similarities of unit rows differ by an ulp, which a huge
        # teacher inverse temperature turns into a gap of ~1000 between rows
        f = l2_normalize_rows(np.random.default_rng(0).standard_normal((6, 5)))
        gram = f @ f.T
        inv_temp = 1e19
        z = gram * inv_temp
        z -= z.max()
        # so one shift by the matrix maximum would leave five rows summing to
        # 0, and only the per-row fallback gives them a distribution
        assert np.sum(np.exp(z).sum(axis=1) < LSE_FLOOR) == 5
        targets = build_batch_targets(TeacherBatch(f, f), inv_temp)
        for i in range(6):
            assert np.array_equal(targets.p_i2i[i], row_softmax(gram[i:i + 1], inv_temp)[0])
        p = targets.p_i2i
        np.testing.assert_allclose(targets.h_i2i, masked_kl(p, np.zeros_like(p)),
                                   rtol=0, atol=1e-15)


def masked_kl(p, log_q):
    """The per-row KL as a boolean-mask gather over p > 0."""
    pos = p > 0.0
    terms = np.zeros_like(p)
    terms[pos] = p[pos] * (np.log(p[pos]) - log_q[pos])
    return terms.sum(axis=1)


def training_kl(p, s, inv_temp=1.0):
    """Mean over rows of KL(p || softmax(s * inv_temp)) as training forms
    every KL: losses._mean_kl of the shifted logits and log-sum-exp of
    row_softmax_with_log and the p log p row sums of neg_entropy_rows."""
    p = np.asarray(p, dtype=np.float64)
    _, z, lse = row_softmax_with_log(np.asarray(s, dtype=np.float64), inv_temp)
    return _mean_kl(neg_entropy_rows(p), p, z, lse)


class TestKlDivergenceRows:
    """The training KL against the explicit formula of masked_kl."""

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(41)
        s = rng.standard_normal((5, 7))
        p = row_softmax(s, 1.0)
        np.testing.assert_allclose(masked_kl(p, np.log(p)), 0.0, rtol=0, atol=1e-12)
        for row in range(5):
            assert abs(training_kl(p[row:row + 1], s[row:row + 1])) < 1e-12
        assert abs(training_kl(p, s)) < 1e-12

    def test_one_hot_vs_uniform_is_log_two(self):
        p, s = np.array([[1.0, 0.0]]), np.zeros((1, 2))
        assert abs(masked_kl(p, np.log([[0.5, 0.5]]))[0] - LOG_2) < 1e-15
        assert abs(training_kl(p, s) - LOG_2) < 1e-15

    def test_two_term_oracle(self):
        p, q = np.array([[0.5, 0.5]]), np.array([[0.75, 0.25]])
        assert abs(masked_kl(p, np.log(q))[0] - KL_HALF_VS_3Q) < 1e-15
        assert abs(training_kl(p, np.log(q)) - KL_HALF_VS_3Q) < 1e-15

    def test_nonnegative_and_positive_when_different(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = row_softmax(rng.standard_normal((3, 4)), 1.0)
            s = rng.standard_normal((3, 4))
            per_row = masked_kl(p, np.log(row_softmax(s, 1.0)))
            assert np.all(per_row >= 0.0)
            for row in range(3):
                got = training_kl(p[row:row + 1], s[row:row + 1])
                assert got >= 0.0 and abs(got - per_row[row]) <= 1e-12
        p = row_softmax(rng.standard_normal((2, 3)), 1.0)
        bumped = p + np.array([[0.01, -0.01, 0.0], [0.0, 0.01, -0.01]])
        assert training_kl(p, np.log(bumped)) > 0.0
        assert masked_kl(p, np.log(bumped)).mean() > 0.0


class TestNegEntropyRows:
    def test_zero_log_zero_is_zero(self):
        p = np.array([[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]])
        keep = p.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = neg_entropy_rows(p)
        assert got.shape == (2,)
        assert abs(got[0] - (0.25 * np.log(0.25) + 0.75 * np.log(0.75))) <= 1e-16
        assert got[1] == 0.0
        assert np.array_equal(p, keep)


class TestInPlaceKernels:
    """The fast kernels write only buffers they allocate themselves."""

    def test_softmax_leaves_input_and_transposed_view_untouched(self):
        rng = np.random.default_rng(61)
        s = rng.uniform(-1.0, 1.0, size=(7, 7))
        keep = s.copy()
        for view in (s, s.T):
            q, z, lse = row_softmax_with_log(view, 9.0)
            log_q = z - lse
            assert np.array_equal(s, keep)
            # outputs keep the layout of the input, so a transposed
            # view's rows sum in the same order as before
            assert q.flags.f_contiguous == view.flags.f_contiguous
            assert log_q.flags.f_contiguous == view.flags.f_contiguous
            np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_kl_leaves_inputs_untouched(self):
        rng = np.random.default_rng(62)
        p = row_softmax(rng.standard_normal((5, 5)), 1.0)
        s = rng.standard_normal((5, 5))
        # a transposed view gives column-major logits, as the t2i
        # direction's are
        for view in (s, s.T):
            keep = (p.copy(), s.copy())
            training_kl(p, view, 2.0)
            assert np.array_equal(p, keep[0]) and np.array_equal(s, keep[1])

    def test_kl_with_exact_zero_teacher_entries_matches_masked_formula(self):
        # orthogonal rows at a large inverse temperature underflow to
        # exact zeros; rows at 45 degrees keep small positive mass
        feats = l2_normalize_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0],
                                   [0, 0, 1], [0, 1, 1], [1, 0, 0.2]])
        p = build_batch_targets(TeacherBatch(feats, feats), 1e3).p_i2i
        assert np.any(p == 0.0) and np.any((p > 0.0) & (p < 1e-100))
        rng = np.random.default_rng(63)
        s = rng.uniform(-1.0, 1.0, size=p.shape)
        for view in (s, s.T):
            per_row = masked_kl(p, np.log(row_softmax(view, 14.0)))
            for row in range(len(p)):
                got = training_kl(p[row:row + 1], view[row:row + 1], 14.0)
                assert np.isfinite(got) and abs(got - per_row[row]) <= 1e-12
            mean = training_kl(p, view, 14.0)
            assert np.isfinite(mean) and abs(mean - per_row.mean()) <= 1e-12


class TestLogSumExpKl:
    """The loss core takes each KL as sum(p log p) - sum(p z) + lse."""

    def test_exact_zero_teacher_entries_match_masked_formula(self):
        # as in TestInPlaceKernels: a large teacher inverse temperature
        # underflows the targets of orthogonal rows to exact zeros
        img = l2_normalize_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0],
                                 [0, 0, 1], [0, 1, 1], [1, 0, 0.2]])
        txt = l2_normalize_rows([[0, 0, 1], [1, 0, 0], [1, 0, 1],
                                 [0, 1, 0], [1, 1, 0], [0.2, 1, 0]])
        p_i, p_t = (build_batch_targets(TeacherBatch(f, f), 1e3).p_i2i for f in (img, txt))
        for p in (p_i, p_t):
            assert np.any(p == 0.0)
        rng = np.random.default_rng(64)
        s_i2t, s_i2i, s_t2t = (rng.uniform(-1.0, 1.0, size=p_i.shape) for _ in range(3))
        s_uni = np.stack([s_i2i, s_t2t])
        it = 14.0

        def oracle(p, s, inv_temp):
            return masked_kl(p, np.log(row_softmax(s, inv_temp))).mean()

        want = {"i2t": oracle(p_i, s_i2t, it), "t2i": oracle(p_t, s_i2t.T, it),
                "i2i": oracle(p_i, s_i2i, it), "t2t": oracle(p_t, s_t2t, it)}
        # row sums of p log p from neg_entropy_rows, and from the teacher's own
        # log-softmax as training computes them
        built = build_batch_targets(TeacherBatch(img, txt), 1e3)
        assert np.array_equal(built.p_i2i, p_i) and np.array_equal(built.p_t2t, p_t)
        for targets in (TeacherTargets(np.stack([p_i, p_t])), built):
            report, _ = loss_from_logits(s_i2t, s_uni, targets, it, 0.5, 0.5)
            for key, value in report.per_direction.items():
                assert np.isfinite(value)
                assert abs(value - want[key]) <= 1e-12, key


@pytest.mark.parametrize("call, error, message", [
    (lambda: l2_normalize_rows(np.ones(3)), ShapeMismatch, "must be 2-D"),
    (lambda: l2_normalize_rows(np.empty((0, 3))), ShapeMismatch, "must be non-empty"),
], ids=["matrix-1d", "matrix-empty"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
