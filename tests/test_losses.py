"""Loss kernels: closed forms, reductions, gradients, and composition.

Finite differences here are written from scratch so the bundled
gradient checker is never its own oracle.
"""

import numpy as np
import pytest

from cusa.errors import NegativeWeight, NumericError, ShapeMismatch
from cusa.losses import batch_loss_and_grads, cusa_total, loss_from_logits
from cusa.mathops import Workspace, l2_normalize_rows, row_softmax
from cusa.model import StudentOutputs, _clamp_gate, backward, forward, init_params
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


def infonce(s, it):
    """Pure InfoNCE through the loss core: zero weights, one-hot targets
    and zero uni-modal logits. Returns (value, LossGradients)."""
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    report, grads = loss_from_logits(s, zero, zero, TeacherTargets(eye, eye),
                                     it, 1.0, 0.0, 0.0)
    return report.l_total, grads


def csa(s, p_i, p_t, it):
    """(l_csa, its gradient w.r.t. s): the core's i2t gradient at alpha = 1
    less the one at alpha = 0, both directions from the one matrix s."""
    zero = np.zeros(s.shape)
    targets = TeacherTargets(p_i, p_t)
    report, with_csa = loss_from_logits(s, zero, zero, targets, it, 1.0, 1.0, 0.0)
    _, without = loss_from_logits(s, zero, zero, targets, it, 1.0, 0.0, 0.0)
    return report.l_csa, with_csa.d_s_i2t - without.d_s_i2t


def usa(p_i, p_t, s_i, s_t, it_u):
    """(l_usa, d_s_i2i, d_s_t2t) from the core at beta = 1; a distribution
    q enters as the logits log q at it_u = 1."""
    zero = np.zeros(s_i.shape)
    report, grads = loss_from_logits(zero, s_i, s_t, TeacherTargets(p_i, p_t),
                                     1.0, it_u, 0.0, 1.0)
    return report.l_usa, grads.d_s_i2i, grads.d_s_t2t


class TestInfonce:
    def test_singleton_batch_is_zero(self):
        value, grads = infonce([[0.37]], 5.0)
        assert value == 0.0
        assert grads.d_s_i2t[0, 0] == 0.0

    def test_symmetric_two_pair_closed_form(self):
        value, _ = infonce(np.eye(2), 1.0)
        assert abs(value - INFONCE_2X2) < 1e-15
        np.testing.assert_allclose(value, 0.313262, rtol=0, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        for n in (2, 4):
            s = rng.uniform(-1, 1, size=(n, n))
            it = float(np.exp(rng.uniform(np.log(2), np.log(50))))
            _, grads = infonce(s, it)
            fd = central_diff(lambda: infonce(s, it)[0], s)
            np.testing.assert_allclose(grads.d_s_i2t, fd, rtol=1e-5, atol=1e-8)

    def test_temperature_gradient(self):
        rng = np.random.default_rng(55)
        s = rng.uniform(-1, 1, size=(3, 3))
        u = 1.7
        _, grads = infonce(s, float(np.exp(u)))
        h = 1e-6
        hi = infonce(s, float(np.exp(u + h)))[0]
        lo = infonce(s, float(np.exp(u - h)))[0]
        assert abs(grads.d_log_inv_temp - (hi - lo) / (2 * h)) < 1e-7

    def test_perfect_separation_drives_loss_down(self):
        hard = 50.0 * np.eye(4) - 25.0
        easy_value, _ = infonce(hard, 1.0)
        uniform_value, _ = infonce(np.zeros((4, 4)), 1.0)
        assert easy_value < uniform_value


class TestCsa:
    def test_matched_distributions_zero(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((4, 4))
        value, _ = csa(s, row_softmax(s, 1.0), row_softmax(s.T, 1.0), 1.0)
        assert abs(value) < 1e-12

    def test_one_hot_targets_reduce_to_infonce(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 5):
            s = rng.uniform(-1, 1, size=(n, n))
            it = 7.0
            q_i2t = row_softmax(s, it)
            q_t2i = row_softmax(s.T, it)
            eye = np.eye(n)
            value, _ = csa(s, eye, eye, it)
            want_ce = 0.5 * (-np.log(np.diagonal(q_i2t)).mean()
                             - np.log(np.diagonal(q_t2i)).mean())
            assert abs(value - want_ce) < 1e-9
            assert abs(value - infonce(s, it)[0]) < 1e-9

    def test_value_matches_double_sum_oracle(self):
        rng = np.random.default_rng(13)
        n = 3
        p_i, p_t = random_targets(rng, n)
        s = rng.uniform(-1, 1, size=(n, n))
        q_i = row_softmax(s, 2.0)
        q_t = row_softmax(s.T, 2.0)
        value, _ = csa(s, p_i, p_t, 2.0)
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
            return csa(s, p_i, p_t, it)[0]

        _, d_s = csa(s, p_i, p_t, it)
        np.testing.assert_allclose(d_s, central_diff(value, s), rtol=1e-5, atol=1e-8)


class TestUsa:
    def test_matched_distributions_zero(self):
        rng = np.random.default_rng(6)
        p_i, p_t = random_targets(rng, 5)
        value, _, _ = usa(p_i, p_t, np.log(p_i), np.log(p_t), 1.0)
        assert abs(value) < 1e-9

    def test_two_by_two_uniform_q(self):
        p = np.array([SOFTMAX_1_0, SOFTMAX_1_0[::-1]])
        q = np.full((2, 2), 0.5)
        value, _, _ = usa(p, p, np.log(q), np.log(q), 1.0)
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
            return usa(p_i, p_t, s_i, s_t, it)[0]

        _, d_i, d_t = usa(p_i, p_t, s_i, s_t, it)
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

    @pytest.mark.parametrize("alpha, beta", [(-0.5, 0.5), (float("nan"), 0.5),
                                             (0.5, float("inf"))])
    def test_bad_weights_rejected_by_total_and_core(self, alpha, beta):
        with pytest.raises(NegativeWeight):
            cusa_total(1.0, 0.1, 0.1, alpha, beta)
        zero, eye = np.zeros((2, 2)), np.eye(2)
        with pytest.raises(NegativeWeight):
            loss_from_logits(zero, zero, zero, TeacherTargets(eye, eye), 1.0, 1.0, alpha, beta)


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
        want_value, want_grads = infonce(s, outputs.inv_temp)
        assert report.l_total == want_value
        np.testing.assert_array_equal(grads.d_s_i2t, want_grads.d_s_i2t)
        np.testing.assert_array_equal(grads.d_s_i2i, 0.0)
        np.testing.assert_array_equal(grads.d_s_t2t, 0.0)
        assert grads.d_log_inv_temp == want_grads.d_log_inv_temp
        # loss values of the zero-weighted components are still reported
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
        # the loss returns both log-temperature derivatives apart in
        # either layout; model.backward owns the fold into a shared one
        rng = np.random.default_rng(63)
        n = 4
        base_img, base_txt = rng.standard_normal((n, 5)), rng.standard_normal((n, 7))
        targets = TeacherTargets(*random_targets(rng, n))
        for separate in (False, True):
            params = init_params(3, 5, 7, 4, 3, separate_uni_temp=separate)
            params.log_inv_temp = float(np.log(8.0))
            if separate:
                params.log_inv_temp_uni = float(np.log(3.0))
            outputs = forward(base_img, base_txt, params)
            _, lg = batch_loss_and_grads(outputs, targets, 0.5, 0.5)
            assert lg.d_log_inv_temp != 0.0 and lg.d_log_inv_temp_uni != 0.0
            grads = backward(outputs, params, lg)
            gate = _clamp_gate(params.log_inv_temp)
            assert gate == 1.0
            if separate:
                assert grads.log_inv_temp == lg.d_log_inv_temp * gate
                assert grads.log_inv_temp_uni == (lg.d_log_inv_temp_uni
                                                  * _clamp_gate(params.log_inv_temp_uni))
            else:
                assert grads.n_scalars == 1
                assert grads.log_inv_temp == (lg.d_log_inv_temp + lg.d_log_inv_temp_uni) * gate

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


class TestLossFromLogits:
    def test_logits_left_untouched(self):
        # gradcheck perturbs the logit matrices in place between calls
        rng = np.random.default_rng(66)
        n = 4
        logits = [rng.uniform(-1, 1, size=(n, n)) for _ in range(3)]
        targets = TeacherTargets(*random_targets(rng, n))
        keep = [m.copy() for m in logits]
        for alpha, beta in ((0.5, 0.5), (0.0, 0.0)):
            loss_from_logits(*logits, targets, 4.0, 2.0, alpha, beta)
            for now, before in zip(logits, keep):
                assert np.array_equal(now, before)

    def test_workspace_leaves_inputs_untouched_and_matches_a_fresh_one(self):
        # the gradients alias the workspace; the logits and targets do not
        rng = np.random.default_rng(68)
        n = 5
        logits = [rng.uniform(-1, 1, size=(n, n)) for _ in range(3)]
        targets = TeacherTargets(*random_targets(rng, n))
        inputs = [*logits, targets.p_i2i, targets.p_t2t, targets.h_i2i, targets.h_t2t]
        keep = [m.copy() for m in inputs]
        ws = Workspace()
        for alpha, beta in ((0.5, 0.5), (0.0, 0.0), (0.8, 0.0), (0.0, 0.3)):
            report, grads = loss_from_logits(*logits, targets, 4.0, 2.0, alpha, beta, ws=ws)
            for now, before in zip(inputs, keep):
                assert np.array_equal(now, before)
            fresh_report, fresh_grads = loss_from_logits(*logits, targets, 4.0, 2.0,
                                                         alpha, beta)
            assert report == fresh_report
            for name in ("d_s_i2t", "d_s_i2i", "d_s_t2t"):
                np.testing.assert_array_equal(getattr(grads, name), getattr(fresh_grads, name))

    def test_non_finite_loss_rejected(self):
        # alpha * l_csa overflows: the core raises instead of returning inf
        rng = np.random.default_rng(69)
        logits = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(3)]
        targets = TeacherTargets(*random_targets(rng, 3))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            loss_from_logits(*logits, targets, 40.0, 2.0, 1.7e308, 0.5)

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(67)
        targets = TeacherTargets(*random_targets(rng, 3))
        square = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            loss_from_logits(square, np.zeros((3, 2)), square, targets, 1.0, 1.0, 0.5, 0.5)
        with pytest.raises(ShapeMismatch):
            loss_from_logits(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), targets,
                             1.0, 1.0, 0.5, 0.5)
