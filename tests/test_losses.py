"""Loss kernels: closed forms, reductions, gradients, and composition.

Finite differences here are written from scratch so the bundled
gradient checker is never its own oracle.
"""

import numpy as np
import pytest

from cusa.errors import NegativeWeight
from cusa.losses import (
    batch_loss_and_grads,
    csa_loss,
    cusa_total,
    infonce_loss,
    usa_loss,
)
from cusa.mathops import l2_normalize_rows, row_softmax
from cusa.model import StudentOutputs, forward, init_params
from cusa.softlabels import TeacherTargets

# log(1 + e^-1): symmetric 2x2 InfoNCE with unit logits on the diagonal
INFONCE_2X2 = 0.31326168751822283
# mean KL of softmax([1,0]) rows against uniform rows
USA_2X2_UNIFORM_Q = 0.11094407167172735

SOFTMAX_1_0 = (0.73105857863000488, 0.26894142136999512)


def central_diff(f, m, h=1e-6):
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


def random_targets(rng, n):
    return (row_softmax(rng.standard_normal((n, n)), 1.0),
            row_softmax(rng.standard_normal((n, n)), 1.0))


class TestInfonce:
    def test_singleton_batch_is_zero(self):
        value, grads = infonce_loss([[0.37]], 5.0)
        assert value == 0.0
        assert grads.d_s_i2t[0, 0] == 0.0

    def test_symmetric_two_pair_closed_form(self):
        value, _ = infonce_loss(np.eye(2), 1.0)
        assert abs(value - INFONCE_2X2) < 1e-15
        np.testing.assert_allclose(value, 0.313262, rtol=0, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        for n in (2, 4):
            s = rng.uniform(-1, 1, size=(n, n))
            it = float(np.exp(rng.uniform(np.log(2), np.log(50))))
            _, grads = infonce_loss(s, it)
            fd = central_diff(lambda: infonce_loss(s, it)[0], s)
            np.testing.assert_allclose(grads.d_s_i2t, fd, rtol=1e-5, atol=1e-8)

    def test_temperature_gradient(self):
        rng = np.random.default_rng(55)
        s = rng.uniform(-1, 1, size=(3, 3))
        u = 1.7
        _, grads = infonce_loss(s, float(np.exp(u)))
        h = 1e-6
        hi = infonce_loss(s, float(np.exp(u + h)))[0]
        lo = infonce_loss(s, float(np.exp(u - h)))[0]
        assert abs(grads.d_log_inv_temp - (hi - lo) / (2 * h)) < 1e-7

    def test_perfect_separation_drives_loss_down(self):
        hard = 50.0 * np.eye(4) - 25.0
        easy_value, _ = infonce_loss(hard, 1.0)
        uniform_value, _ = infonce_loss(np.zeros((4, 4)), 1.0)
        assert easy_value < uniform_value


class TestCsa:
    def test_matched_distributions_zero(self):
        rng = np.random.default_rng(3)
        p_i, p_t = random_targets(rng, 4)
        value, _ = csa_loss(p_i, p_t, p_i, p_t)
        assert abs(value) < 1e-12

    def test_one_hot_targets_reduce_to_infonce(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 5):
            s = rng.uniform(-1, 1, size=(n, n))
            it = 7.0
            q_i2t = row_softmax(s, it)
            q_t2i = row_softmax(s.T, it)
            eye = np.eye(n)
            value, _ = csa_loss(eye, eye, q_i2t, q_t2i, it)
            want_ce = 0.5 * (-np.log(np.diagonal(q_i2t)).mean()
                             - np.log(np.diagonal(q_t2i)).mean())
            assert abs(value - want_ce) < 1e-9
            assert abs(value - infonce_loss(s, it)[0]) < 1e-9

    def test_value_matches_double_sum_oracle(self):
        rng = np.random.default_rng(13)
        n = 3
        p_i, p_t = random_targets(rng, n)
        q_i = row_softmax(rng.uniform(-1, 1, size=(n, n)), 2.0)
        q_t = row_softmax(rng.uniform(-1, 1, size=(n, n)), 2.0)
        value, _ = csa_loss(p_i, p_t, q_i, q_t)
        per_direction = []
        for p, q in ((p_i, q_i), (p_t, q_t)):
            rows = []
            for i in range(n):
                rows.append(sum(p[i][j] * (np.log(p[i][j]) - np.log(q[i][j]))
                                for j in range(n)))
            per_direction.append(sum(rows) / n)
        assert abs(value - 0.5 * sum(per_direction)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        n = 4
        p_i, p_t = random_targets(rng, n)
        s = rng.uniform(-1, 1, size=(n, n))
        it = 11.0

        def value():
            return csa_loss(p_i, p_t, row_softmax(s, it), row_softmax(s.T, it), it)[0]

        _, d_s = csa_loss(p_i, p_t, row_softmax(s, it), row_softmax(s.T, it), it)
        np.testing.assert_allclose(d_s, central_diff(value, s), rtol=1e-5, atol=1e-8)


class TestUsa:
    def test_matched_distributions_zero(self):
        rng = np.random.default_rng(6)
        p_i, p_t = random_targets(rng, 5)
        value, _, _ = usa_loss(p_i, p_t, p_i, p_t)
        assert abs(value) < 1e-9

    def test_two_by_two_uniform_q(self):
        p = np.array([SOFTMAX_1_0, SOFTMAX_1_0[::-1]])
        q = np.full((2, 2), 0.5)
        value, _, _ = usa_loss(p, p, q, q)
        assert abs(value - USA_2X2_UNIFORM_Q) < 1e-15
        # same quantity out of the two-term closed form
        a, b = SOFTMAX_1_0
        hand = a * np.log(a / 0.5) + b * np.log(b / 0.5)
        assert abs(value - hand) < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(35)
        n = 5
        p_i, p_t = random_targets(rng, n)
        s_i = rng.uniform(-1, 1, size=(n, n))
        s_t = rng.uniform(-1, 1, size=(n, n))
        it = 9.0

        def value():
            return usa_loss(p_i, p_t, row_softmax(s_i, it), row_softmax(s_t, it), it)[0]

        _, d_i, d_t = usa_loss(p_i, p_t, row_softmax(s_i, it), row_softmax(s_t, it), it)
        np.testing.assert_allclose(d_i, central_diff(value, s_i), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(d_t, central_diff(value, s_t), rtol=1e-5, atol=1e-8)


class TestCusaTotal:
    def test_zero_weights_recover_original(self):
        assert cusa_total(0.8125, 3.0, 9.0, 0.0, 0.0) == 0.8125

    def test_arithmetic(self):
        assert abs(cusa_total(1.0, 0.5, 0.2, 0.5, 0.5) - 1.35) < 1e-15

    def test_linearity_in_alpha(self):
        base = cusa_total(1.0, 0.3, 0.1, 0.5, 0.0)
        doubled = cusa_total(1.0, 0.3, 0.1, 1.0, 0.0)
        assert abs((doubled - base) - 0.5 * 0.3) < 1e-15

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            cusa_total(1.0, 0.1, 0.1, -0.5, 0.5)


def make_outputs(rng, n, d_e=6, d_u=4, inv_temp=10.0, inv_temp_uni=None):
    return StudentOutputs(
        img_emb=l2_normalize_rows(rng.standard_normal((n, d_e))),
        txt_emb=l2_normalize_rows(rng.standard_normal((n, d_e))),
        img_usa=l2_normalize_rows(rng.standard_normal((n, d_u))),
        txt_usa=l2_normalize_rows(rng.standard_normal((n, d_u))),
        inv_temp=inv_temp,
        inv_temp_uni=inv_temp if inv_temp_uni is None else inv_temp_uni,
    )


class TestBatchLossAndGrads:
    def test_total_identity_holds(self):
        rng = np.random.default_rng(71)
        for alpha, beta in ((0.0, 0.0), (0.5, 0.5), (0.3, 0.9), (1.0, 0.0)):
            outputs = make_outputs(rng, 4)
            targets = TeacherTargets(*random_targets(rng, 4))
            report, _ = batch_loss_and_grads(outputs, targets, alpha, beta)
            want = report.l_original + alpha * report.l_csa + beta * report.l_usa
            assert abs(report.l_total - want) < 1e-12
            assert all(v >= 0.0 for v in report.per_direction.values())

    def test_zero_weights_match_infonce_exactly(self):
        rng = np.random.default_rng(42)
        outputs = make_outputs(rng, 5)
        targets = TeacherTargets(*random_targets(rng, 5))
        report, grads = batch_loss_and_grads(outputs, targets, 0.0, 0.0)
        s = outputs.img_emb @ outputs.txt_emb.T
        want_value, want_grads = infonce_loss(s, outputs.inv_temp)
        assert report.l_total == want_value
        np.testing.assert_array_equal(grads.d_s_i2t, want_grads.d_s_i2t)
        np.testing.assert_array_equal(grads.d_s_i2i, 0.0)
        np.testing.assert_array_equal(grads.d_s_t2t, 0.0)
        assert grads.d_log_inv_temp == want_grads.d_log_inv_temp
        # loss values for the skipped components still reported
        assert report.l_csa > 0.0 and report.l_usa > 0.0

    def test_permutation_leaves_scalars_unchanged(self):
        rng = np.random.default_rng(15)
        n = 6
        outputs = make_outputs(rng, n)
        p_i, p_t = random_targets(rng, n)
        report, _ = batch_loss_and_grads(outputs, TeacherTargets(p_i, p_t), 0.5, 0.5)
        perm = rng.permutation(n)
        permuted = StudentOutputs(
            img_emb=outputs.img_emb[perm], txt_emb=outputs.txt_emb[perm],
            img_usa=outputs.img_usa[perm], txt_usa=outputs.txt_usa[perm],
            inv_temp=outputs.inv_temp, inv_temp_uni=outputs.inv_temp_uni,
        )
        targets_p = TeacherTargets(p_i[np.ix_(perm, perm)], p_t[np.ix_(perm, perm)])
        report_p, _ = batch_loss_and_grads(permuted, targets_p, 0.5, 0.5)
        for field in ("l_original", "l_csa", "l_usa", "l_total"):
            assert abs(getattr(report, field) - getattr(report_p, field)) < 1e-12

    def test_modality_swap_preserves_csa_and_usa(self):
        rng = np.random.default_rng(26)
        n = 4
        outputs = make_outputs(rng, n)
        p_i, p_t = random_targets(rng, n)
        report, _ = batch_loss_and_grads(outputs, TeacherTargets(p_i, p_t), 0.5, 0.5)
        swapped = StudentOutputs(
            img_emb=outputs.txt_emb, txt_emb=outputs.img_emb,
            img_usa=outputs.txt_usa, txt_usa=outputs.img_usa,
            inv_temp=outputs.inv_temp, inv_temp_uni=outputs.inv_temp_uni,
        )
        report_s, _ = batch_loss_and_grads(swapped, TeacherTargets(p_t, p_i), 0.5, 0.5)
        assert abs(report.l_csa - report_s.l_csa) < 1e-12
        assert abs(report.l_usa - report_s.l_usa) < 1e-12

    def test_duplicate_pair_softens_false_negative_push(self):
        # rows 0 and 1 are the same item twice; the teacher splits its
        # mass between them, the one-hot label does not
        rng = np.random.default_rng(50)
        emb = l2_normalize_rows(rng.standard_normal((3, 8)))
        emb[1] = emb[0]
        teacher = row_softmax(emb @ emb.T, 1.0)
        outputs = StudentOutputs(
            img_emb=emb, txt_emb=l2_normalize_rows(rng.standard_normal((3, 8))),
            img_usa=l2_normalize_rows(rng.standard_normal((3, 4))),
            txt_usa=l2_normalize_rows(rng.standard_normal((3, 4))),
            inv_temp=5.0, inv_temp_uni=5.0,
        )
        q = row_softmax(outputs.img_emb @ outputs.txt_emb.T, 5.0)
        hard_push = q[0, 1] - 0.0
        soft_push = q[0, 1] - teacher[0, 1]
        assert soft_push < hard_push

    def test_separate_uni_temperature_splits_gradient(self):
        rng = np.random.default_rng(63)
        outputs = make_outputs(rng, 4, inv_temp=8.0, inv_temp_uni=3.0)
        outputs.separate_uni_temp = True
        targets = TeacherTargets(*random_targets(rng, 4))
        _, grads = batch_loss_and_grads(outputs, targets, 0.5, 0.5)
        assert grads.d_log_inv_temp_uni != 0.0
        shared = make_outputs(rng, 4, inv_temp=8.0)
        _, shared_grads = batch_loss_and_grads(shared, targets, 0.5, 0.5)
        assert shared_grads.d_log_inv_temp_uni == 0.0

    def test_inputs_left_untouched(self):
        # the loss forms its gradients in buffers it allocates; the
        # outputs (tape included) and the teacher targets stay as given
        rng = np.random.default_rng(64)
        n = 6
        outputs = forward(rng.standard_normal((n, 5)), rng.standard_normal((n, 7)),
                          init_params(3, 5, 7, 4, 3, separate_uni_temp=True))
        targets = TeacherTargets(*random_targets(rng, n))
        arrays = [outputs.img_emb, outputs.txt_emb, outputs.img_usa, outputs.txt_usa,
                  *vars(outputs.tape).values(), targets.p_i2i, targets.p_t2t]
        keep = [a.copy() for a in arrays]
        for alpha, beta in ((0.5, 0.5), (0.0, 0.0), (0.8, 0.0), (0.0, 0.3)):
            batch_loss_and_grads(outputs, targets, alpha, beta)
            for now, before in zip(arrays, keep):
                assert np.array_equal(now, before)
