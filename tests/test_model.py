import math

import numpy as np
import pytest

from cusa.errors import DimensionMismatch, InvalidDimension, ShapeMismatch, ZeroRow
from cusa.losses import LossGradients, batch_loss_and_grads
from cusa.mathops import l2_normalize_rows
from cusa.model import (
    INV_TEMP_MAX,
    INV_TEMP_MIN,
    StudentParams,
    _clamp_gate,
    backward,
    clamped_inv_temp,
    embed_images,
    embed_texts,
    forward,
    init_params,
)
from cusa.softlabels import TeacherTargets
from cusa.mathops import row_softmax

LOG_INV_TEMP_INIT = 2.6592600369327781  # log(1/0.07)
INV_TEMP_INIT = 14.285714285714286


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(9, 6, 7, 4, 3)
        b = init_params(9, 6, 7, 4, 3)
        for name in ("w_img", "w_txt", "u_img", "u_txt"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.log_inv_temp == b.log_inv_temp

    def test_fan_in_bound(self):
        p = init_params(0, 16, 9, 16, 4)
        assert np.all(np.abs(p.w_img) <= 1.0 / 4.0)
        assert np.all(np.abs(p.w_txt) <= 1.0 / 3.0)
        assert np.all(np.abs(p.u_img) <= 1.0 / 4.0)

    def test_temperature_init(self):
        p = init_params(0, 4, 4, 4, 2)
        assert abs(p.log_inv_temp - LOG_INV_TEMP_INIT) < 1e-15
        assert abs(clamped_inv_temp(p.log_inv_temp) - INV_TEMP_INIT) < 1e-12
        # one temperature, leading the layout
        assert [name for name, *_ in p.segments] == ["log_inv_temp", "w_img", "w_txt",
                                                     "u_img", "u_txt"]
        assert p.flat[0] == p.log_inv_temp

    def test_bad_dimension_rejected(self):
        with pytest.raises(InvalidDimension):
            init_params(0, 6, 0, 4, 3)


class TestStudentParams:
    def test_binds_the_vector_without_a_copy(self):
        flat = np.arange(1.0, 24.0)
        p = StudentParams(flat, (2, 3, 2, 3))
        assert p.log_inv_temp == 1.0
        np.testing.assert_array_equal(p.w_img, [[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(p.u_txt, flat[-6:].reshape(2, 3))
        p.w_txt = np.zeros((3, 2))
        assert not flat[5:11].any()

    def test_a_name_outside_the_layout_is_refused(self):
        # a typo or a removed parameter raises instead of being lost
        p = init_params(0, 3, 3, 2, 2)
        keep = p.flat.copy()
        with pytest.raises(AttributeError):
            p.w_imgg = 0
        with pytest.raises(AttributeError):
            p.log_inv_temp_uni = 1.0
        np.testing.assert_array_equal(p.flat, keep)

    @pytest.mark.parametrize("call, message", [
        (lambda p: setattr(p, "w_img", np.zeros((4, 3))), r"w_img: shape \(4, 3\)"),
        (lambda p: StudentParams(p.flat[1:], p.dims), "do not fit dims"),
    ], ids=["wrong-shaped-matrix", "flat-too-short"])
    def test_layout_mismatch_raises(self, call, message):
        with pytest.raises(ShapeMismatch, match=message):
            call(init_params(0, 4, 4, 4, 2))


class TestForward:
    def test_identity_projection_passes_rows_through(self):
        rng = np.random.default_rng(1)
        base = l2_normalize_rows(rng.standard_normal((4, 5)))
        p = init_params(0, 5, 5, 5, 3)
        p.w_img = np.eye(5)
        out = embed_images(base, p)
        np.testing.assert_allclose(out, base, rtol=0, atol=1e-12)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((3, 6))
        p = init_params(4, 6, 6, 4, 3)
        ref = embed_images(base, p)
        for scale in (0.1, 0.5, 5.0, 10.0):
            scaled = base.copy()
            scaled[1] *= scale
            out = embed_images(scaled, p)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(3)
        out = forward(rng.standard_normal((7, 6)), rng.standard_normal((7, 9)),
                      init_params(5, 6, 9, 4, 3))
        for m in (out.img_emb, out.txt_emb, out.img_usa, out.txt_usa):
            np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, rtol=0, atol=1e-9)
        assert abs(out.inv_temp - INV_TEMP_INIT) < 1e-12

    def test_usa_branch_differs_from_main(self):
        rng = np.random.default_rng(6)
        out = forward(rng.standard_normal((5, 8)), rng.standard_normal((5, 8)),
                      init_params(11, 8, 8, 6, 6))
        main_sims = out.img_emb @ out.img_emb.T
        usa_sims = out.img_usa @ out.img_usa.T
        assert np.max(np.abs(main_sims - usa_sims)) > 0.0

    def test_embed_helpers_match_forward(self):
        rng = np.random.default_rng(7)
        base_img = rng.standard_normal((4, 6))
        base_txt = rng.standard_normal((4, 5))
        p = init_params(2, 6, 5, 4, 3)
        out = forward(base_img, base_txt, p)
        np.testing.assert_array_equal(embed_images(base_img, p), out.img_emb)
        np.testing.assert_array_equal(embed_texts(base_txt, p), out.txt_emb)
        np.testing.assert_array_equal(embed_images(base_img, p, usa_branch=True), out.img_usa)
        np.testing.assert_array_equal(embed_texts(base_txt, p, usa_branch=True), out.txt_usa)

    def test_unequal_batch_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ShapeMismatch):
            forward(rng.standard_normal((3, 6)), rng.standard_normal((4, 6)),
                    init_params(0, 6, 6, 4, 2))

    def test_wrong_base_width_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DimensionMismatch):
            embed_images(rng.standard_normal((3, 7)), init_params(0, 6, 6, 4, 2))

    def test_collapsed_projection_rejected(self):
        p = init_params(0, 2, 2, 2, 2)
        p.w_img = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroRow):
            embed_images(np.array([[1.0, 0.0], [0.0, 1.0]]), p)


def fd_param_grad(f, m, h=1e-6):
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


class TestBackward:
    def _setup(self, seed, n=5, d_bi=6, d_bt=6, d_e=4, d_u=3):
        rng = np.random.default_rng(seed)
        base_img = rng.standard_normal((n, d_bi))
        base_txt = rng.standard_normal((n, d_bt))
        params = init_params(seed, d_bi, d_bt, d_e, d_u)
        params.log_inv_temp = float(rng.uniform(np.log(2), np.log(50)))
        targets = TeacherTargets(np.stack([
            row_softmax(rng.standard_normal((n, n)), 1.0),
            row_softmax(rng.standard_normal((n, n)), 1.0),
        ]))
        return base_img, base_txt, params, targets

    def test_zero_upstream_gives_zero_gradients(self):
        base_img, base_txt, params, _ = self._setup(20)
        zeros = np.zeros((5, 5))
        upstream = LossGradients(zeros, np.zeros((2, 5, 5)), 0.0)
        grads = backward(forward(base_img, base_txt, params), params, upstream)
        for name in ("w_img", "w_txt", "u_img", "u_txt"):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)
        assert grads.log_inv_temp == 0.0

    def test_full_model_matches_finite_differences(self):
        for seed in (30, 31, 32):
            base_img, base_txt, params, targets = self._setup(seed)

            def total():
                out = forward(base_img, base_txt, params)
                report, _ = batch_loss_and_grads(out, targets, 0.6, 0.3)
                return report.l_total

            out = forward(base_img, base_txt, params)
            _, lgrads = batch_loss_and_grads(out, targets, 0.6, 0.3)
            grads = backward(out, params, lgrads)
            for name in ("w_img", "w_txt", "u_img", "u_txt"):
                fd = fd_param_grad(total, getattr(params, name))
                np.testing.assert_allclose(getattr(grads, name), fd,
                                           rtol=2e-5, atol=1e-8)

            h = 1e-6
            keep = params.log_inv_temp
            params.log_inv_temp = keep + h
            hi = total()
            params.log_inv_temp = keep - h
            lo = total()
            params.log_inv_temp = keep
            assert abs(grads.log_inv_temp - (hi - lo) / (2 * h)) < 1e-6

    def test_clamped_temperature_blocks_gradient(self):
        base_img, base_txt, params, targets = self._setup(40)
        params.log_inv_temp = float(np.log(INV_TEMP_MAX)) + 0.1
        out = forward(base_img, base_txt, params)
        assert out.inv_temp == INV_TEMP_MAX
        assert clamped_inv_temp(np.log(500.0)) == INV_TEMP_MAX
        assert clamped_inv_temp(-3.0) == 1.0
        _, lgrads = batch_loss_and_grads(out, targets, 0.5, 0.5)
        assert lgrads.d_log_inv_temp != 0.0
        grads = backward(out, params, lgrads)
        assert grads.log_inv_temp == 0.0

    def test_temperature_on_the_lower_clamp_boundary_gets_no_gradient(self):
        base_img, base_txt, params, targets = self._setup(41)
        params.log_inv_temp = 0.0  # exp(0.0) == INV_TEMP_MIN exactly
        out = forward(base_img, base_txt, params)
        assert out.inv_temp == INV_TEMP_MIN
        _, lgrads = batch_loss_and_grads(out, targets, 0.5, 0.5)
        _, cross_only = batch_loss_and_grads(out, targets, 0.5, 0.0)
        # the gate closes on a derivative whose cross-modal and uni-modal
        # parts are both nonzero
        assert cross_only.d_log_inv_temp != 0.0
        assert lgrads.d_log_inv_temp != cross_only.d_log_inv_temp
        grads = backward(out, params, lgrads)
        assert grads.log_inv_temp == 0.0

    def test_no_float64_temperature_sits_on_the_upper_clamp_boundary(self):
        below = math.log(INV_TEMP_MAX)
        while math.exp(below) >= INV_TEMP_MAX:
            below = math.nextafter(below, -math.inf)
        while math.exp(math.nextafter(below, math.inf)) < INV_TEMP_MAX:
            below = math.nextafter(below, math.inf)
        above = math.nextafter(below, math.inf)
        assert math.exp(below) < INV_TEMP_MAX < math.exp(above)
        assert (_clamp_gate(below), _clamp_gate(above)) == (1.0, 0.0)

    @pytest.mark.parametrize("log_inv_temp, inv_temp", [
        (1e3, INV_TEMP_MAX), (1e308, INV_TEMP_MAX), (-1e3, INV_TEMP_MIN), (-1e308, INV_TEMP_MIN),
    ])
    def test_a_log_temperature_beyond_exp_range_is_clamped(self, log_inv_temp, inv_temp):
        # math.exp(1e3) overflows: the clamp acts before the exp
        assert clamped_inv_temp(log_inv_temp) == inv_temp
        assert _clamp_gate(log_inv_temp) == 0.0

    def test_backward_leaves_outputs_and_tape_untouched(self):
        base_img, base_txt, params, targets = self._setup(42)
        out = forward(base_img, base_txt, params)
        _, lgrads = batch_loss_and_grads(out, targets, 0.5, 0.5)
        arrays = [out.img_emb, out.txt_emb, out.img_usa, out.txt_usa,
                  *vars(out.tape).values()]
        keep = [a.copy() for a in arrays]
        backward(out, params, lgrads)
        for now, before in zip(arrays, keep):
            assert np.array_equal(now, before)

    def test_tape_holds_base_rows_and_projection_norms(self):
        base_img, base_txt, params, _ = self._setup(43)
        tape = forward(base_img, base_txt, params).tape
        np.testing.assert_array_equal(tape.base_img, base_img)
        np.testing.assert_array_equal(tape.base_txt, base_txt)
        np.testing.assert_array_equal(tape.norms[0], np.linalg.norm(base_img @ params.w_img, axis=1))
        np.testing.assert_array_equal(tape.norms[1], np.linalg.norm(base_txt @ params.w_txt, axis=1))

    def test_outputs_without_tape_rejected(self):
        base_img, base_txt, params, targets = self._setup(44)
        out = forward(base_img, base_txt, params)
        _, lgrads = batch_loss_and_grads(out, targets, 0.5, 0.5)
        out.tape = None
        with pytest.raises(ShapeMismatch):
            backward(out, params, lgrads)

    def test_usa_gradients_reach_main_projection(self):
        # beta-only loss still moves w_img: the projector sits on top of
        # the retrieval embedding
        base_img, base_txt, params, targets = self._setup(41)
        out = forward(base_img, base_txt, params)
        _, lgrads = batch_loss_and_grads(out, targets, 0.0, 1.0)
        grads = backward(out, params, lgrads)
        assert np.max(np.abs(grads.w_img)) > 0.0
        assert np.max(np.abs(grads.u_img)) > 0.0


def test_forward_deterministic():
    rng = np.random.default_rng(77)
    base_img = rng.standard_normal((6, 10))
    base_txt = rng.standard_normal((6, 11))
    p = init_params(3, 10, 11, 5, 4)
    a = forward(base_img, base_txt, p)
    b = forward(base_img, base_txt, p)
    np.testing.assert_array_equal(a.img_emb, b.img_emb)
    np.testing.assert_array_equal(a.txt_usa, b.txt_usa)


def test_backward_rejects_upstream_of_another_batch_size():
    rng = np.random.default_rng(4)
    p = init_params(0, 6, 6, 4, 3)
    out = forward(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)), p)
    upstream = LossGradients(np.zeros((4, 4)), np.zeros((2, 3, 3)), 0.0)
    with pytest.raises(ShapeMismatch, match=r"d_s_i2t shape \(4, 4\) != batch 3"):
        backward(out, p, upstream)
