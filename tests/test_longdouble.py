"""Long-double oracle for the teacher targets, the loss core and the
rest of the training step: forward, backward and one Adam update.

Each reference below is the textbook formula evaluated in np.longdouble
(a 64-bit mantissa on x86-64, eps 1.08e-19), written from the math and
not from the code's buffer order: log-softmax rows, KL as
sum p (log p - log q), the logit gradients as the differences of
softmaxes, and the log-temperature derivative as a sum of differences of
expected logits; row normalization and its Jacobian (I - y y^T) / |x|
as explicit matrices per row; Adam as its bias-corrected moments. The
float64 code must agree with it on seeded batches of 2 to 200 rows: to
RTOL for the targets and the loss core, to STEP_RTOL for the rest of
the step.
"""

import math

import numpy as np
import pytest

from cusa.losses import batch_loss_and_grads, loss_from_logits
from cusa.mathops import l2_normalize_rows
from cusa.model import INV_TEMP_MAX, INV_TEMP_MIN, backward, forward, init_params
from cusa.softlabels import TeacherBatch, build_batch_targets
from cusa.trainer import AdamState, TrainConfig, adam_step

LD = np.longdouble

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps == np.finfo(np.float64).eps,
    reason="np.longdouble is float64 on this platform, so the reference is no oracle")

# worst relative error measured over the cases below: 1.0e-15 for the
# targets and 3.2e-14 for the loss core (l_usa of 5.5e-15 at it = 100 and
# n = 2; 2.6e-14 for d_s_i2i at it = 100, where q - p cancels); the bound
# leaves a margin of about 30x
RTOL = 1e-12
# worst relative error measured over MODEL_CASES and ADAM_CASES: 6.1e-16
# for forward, 9.6e-16 for backward, 1.3e-16 for Adam's moments and 1.9e-15
# for its update past one ulp of p'; the bound leaves a margin of at least
# 5x and sits below the 1e-13 relative nudges a mutation of the step makes
STEP_RTOL = 1e-14

# (n, teacher inverse temperature, it, a second it, alpha, beta): the loss
# core runs at each of the two inverse temperatures, which differ in every
# case; each weight is 0 somewhere. The ids name the second one "itu", as
# when it was the uni-modal temperature, so that they stay stable
CASES = [
    (2, 1.0, 14.3, 3.0, 0.0, 0.0),
    (2, 50.0, 100.0, 1.0, 0.6, 0.0),
    (3, 10.0, 1.0, 100.0, 0.0, 0.8),
    (5, 2.0, 50.0, 25.0, 0.0, 1.0),
    (8, 5.0, 30.0, 7.5, 1.3, 0.4),
    (17, 1.0, 5.0, 14.3, 0.9, 0.9),
    (33, 20.0, 14.3, 60.0, 0.2, 2.0),
    (64, 1.0, 75.0, 14.3, 0.0, 0.5),
    (120, 3.0, 40.0, 90.0, 0.0, 0.0),
    (200, 10.0, 14.3, 20.0, 0.7, 0.0),
    (200, 40.0, 99.0, 2.0, 0.3, 1.1),
]


def rel_err(got, want, scale=None) -> float:
    """max |got - want| / scale (default max |want|); with a zero scale, 0
    only if got equals want."""
    got, want = np.asarray(got, dtype=LD), np.asarray(want, dtype=LD)
    err = np.abs(got - want).max()
    scale = np.abs(want).max() if scale is None else LD(scale)
    if not scale:
        return 0.0 if not err else float("inf")
    return float(err / scale)


def log_softmax(z):
    """Row-wise log softmax of a long-double matrix."""
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def targets_reference(feats, teacher_inv_temp):
    """(P, per-row sum P log P) of softmax(t F F^T) in long double."""
    f = feats.astype(LD)
    log_p = log_softmax(LD(teacher_inv_temp) * (f @ f.T))
    p = np.exp(log_p)
    return p, (p * log_p).sum(axis=1)


def loss_reference(s_i2t, s_i2i, s_t2t, p_i, p_t, it, alpha, beta):
    """(total, (l_original, l_csa, l_usa), (d_s_i2t, d_s_i2i, d_s_t2t),
    d/dlog(it)) of the objective in long double; `it` scales all four
    softmaxes."""
    s_i2t, s_i2i, s_t2t, p_i, p_t = (m.astype(LD) for m in (s_i2t, s_i2i, s_t2t, p_i, p_t))
    it, alpha, beta = LD(it), LD(alpha), LD(beta)
    n = s_i2t.shape[0]
    eye = np.eye(n, dtype=LD)
    # direction -> (logits, target); t2i takes the rows of s_i2t^T
    terms = {"i2t": (s_i2t, p_i), "t2i": (s_i2t.T, p_t), "i2i": (s_i2i, p_i), "t2t": (s_t2t, p_t)}
    log_q = {k: log_softmax(it * s) for k, (s, _) in terms.items()}
    q = {k: np.exp(v) for k, v in log_q.items()}
    kl = {k: (p * (np.log(p) - log_q[k])).sum(axis=1).mean() for k, (_, p) in terms.items()}
    # sum over rows of E_q[s] - E_p[s]: d KL(p || softmax(t s)) / d log t, times n / t
    shift = {k: ((q[k] - p) * s).sum() for k, (s, p) in terms.items()}

    l_original = -(np.trace(log_q["i2t"]) + np.trace(log_q["t2i"])) / (2 * n)
    l_csa = (kl["i2t"] + kl["t2i"]) / 2
    l_usa = (kl["i2i"] + kl["t2t"]) / 2
    total = l_original + alpha * l_csa + beta * l_usa
    d_s_i2t = it / (2 * n) * ((q["i2t"] - eye) + (q["t2i"] - eye).T
                              + alpha * ((q["i2t"] - p_i) + (q["t2i"] - p_t).T))
    d_s_i2i = beta * it / (2 * n) * (q["i2i"] - p_i)
    d_s_t2t = beta * it / (2 * n) * (q["t2t"] - p_t)
    # d(-log q_ii)/d log t = -t (s_ii - E_q[s_i.])
    d_original = -it / (2 * n) * sum((np.trace(terms[k][0]) - (q[k] * terms[k][0]).sum())
                                     for k in ("i2t", "t2i"))
    d_log_it = (d_original + alpha * it / (2 * n) * (shift["i2t"] + shift["t2i"])
                + beta * it / (2 * n) * (shift["i2i"] + shift["t2t"]))
    return total, (l_original, l_csa, l_usa), (d_s_i2t, d_s_i2i, d_s_t2t), d_log_it


def unit(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


@pytest.fixture(params=CASES, ids=lambda case: "n{}-t{}-it{}-itu{}-a{}-b{}".format(*case))
def batch(request):
    """(case, teacher batch, the three logit matrices) of a seeded batch."""
    n = request.param[0]
    rng = np.random.default_rng(1000 + request.param_index)
    teacher = TeacherBatch(unit(rng, n, 8), unit(rng, n, 8))
    img, txt, img_u, txt_u = unit(rng, n, 6), unit(rng, n, 6), unit(rng, n, 4), unit(rng, n, 4)
    return request.param, teacher, (img @ txt.T, img_u @ img_u.T, txt_u @ txt_u.T)


def test_teacher_targets_match_the_long_double_softmax(batch):
    (n, teacher_inv_temp, *_), teacher, _ = batch
    targets = build_batch_targets(teacher, teacher_inv_temp)
    for feats, p, h in ((teacher.image_features, targets.p_i2i, targets.h_i2i),
                        (teacher.text_features, targets.p_t2t, targets.h_t2t)):
        p_ref, h_ref = targets_reference(feats, teacher_inv_temp)
        assert rel_err(p, p_ref) < RTOL
        # h lies in [-log n, 0] and is measured on that scale: a nearly
        # one-hot row has h near 0, where float64's log-sum-exp rounds
        # log(1 + e^-100) to 0 (measured: 2.6e-2 of h, 5.6e-16 of log n)
        assert rel_err(h, h_ref, np.log(n)) < RTOL


def test_loss_core_matches_the_long_double_objective(batch):
    (_, teacher_inv_temp, *its, alpha, beta), teacher, logits = batch
    targets = build_batch_targets(teacher, teacher_inv_temp)
    for it in its:
        report, grads = loss_from_logits(logits[0], np.stack(logits[1:]), targets, it, alpha, beta)
        total, terms, d_s, d_log_it = loss_reference(
            *logits, targets.p_i2i, targets.p_t2t, it, alpha, beta)
        assert rel_err(report.l_total, total) < RTOL
        for got, want in zip((report.l_original, report.l_csa, report.l_usa), terms):
            assert rel_err(got, want) < RTOL
        for got, want in zip((grads.d_s_i2t, grads.d_s_i2i, grads.d_s_t2t), d_s):
            assert rel_err(got, want) < RTOL
        assert rel_err(grads.d_log_inv_temp, d_log_it) < RTOL


# (n, log_inv_temp, alpha, beta) of a student batch: the temperature inside
# the clamp window, on its lower boundary and above its upper one (both
# gates closed), and each weight 0 somewhere
MODEL_CASES = [
    (2, math.log(1 / 0.07), 0.0, 0.0),
    (3, 0.0, 0.5, 0.5),
    (5, 1.2, 0.7, 0.0),
    (17, 3.9, 0.0, 0.8),
    (64, 4.6, 1.0, 1.0),
    (200, 2.0, 0.3, 1.1),
    (200, 5.0, 0.6, 0.4),
]
DIMS = (6, 5, 4, 3)  # d_bi, d_bt, d_e, d_u


def normalize_reference(x):
    """(rows of x over their norms, the norms) in long double."""
    norms = np.sqrt((x * x).sum(axis=1))
    return x / norms[:, None], norms


def normalize_backward_reference(g, y, norms):
    """g through each row's normalization Jacobian (I - y y^T) / |x|."""
    eye = np.eye(y.shape[1], dtype=LD)
    jac = (eye - y[:, :, None] * y[:, None, :]) / norms[:, None, None]
    return np.einsum("rij,rj->ri", jac, g)


def forward_reference(base_img, base_txt, params):
    """(img_emb, txt_emb, img_usa, txt_usa, inverse temperature) in long
    double; the embeddings are normalize(base @ w) and normalize(emb @ u)."""
    img = normalize_reference(base_img.astype(LD) @ params.w_img.astype(LD))[0]
    txt = normalize_reference(base_txt.astype(LD) @ params.w_txt.astype(LD))[0]
    img_u = normalize_reference(img @ params.u_img.astype(LD))[0]
    txt_u = normalize_reference(txt @ params.u_txt.astype(LD))[0]
    it = np.clip(np.exp(LD(params.log_inv_temp)), LD(INV_TEMP_MIN), LD(INV_TEMP_MAX))
    return img, txt, img_u, txt_u, it


def backward_reference(base_img, base_txt, params, upstream):
    """dL/d(w_img, w_txt, u_img, u_txt, log_inv_temp) in long double, by the
    chain rule through s_i2t = e_i e_t^T, s_i2i = f_i f_i^T, s_t2t = f_t f_t^T,
    f = normalize(e u) and e = normalize(base w). The temperature's
    derivative is the loss core's, and 0 where the clamp is active."""
    g_it = upstream.d_s_i2t.astype(LD)
    grads = {}
    sides = {"img": (base_img, params.w_img, params.u_img, upstream.d_s_i2i, g_it),
             "txt": (base_txt, params.w_txt, params.u_txt, upstream.d_s_t2t, g_it.T)}
    emb = {}
    for side, (base, w, u, _, _) in sides.items():
        z = base.astype(LD) @ w.astype(LD)
        e, z_norms = normalize_reference(z)
        a = e @ u.astype(LD)
        f, a_norms = normalize_reference(a)
        emb[side] = (base.astype(LD), e, z_norms, f, a_norms, u.astype(LD))
    for side, other in (("img", "txt"), ("txt", "img")):
        base, e, z_norms, f, a_norms, u = emb[side]
        d_uni, d_cross = sides[side][3].astype(LD), sides[side][4]
        g_f = (d_uni + d_uni.T) @ f
        g_a = normalize_backward_reference(g_f, f, a_norms)
        grads["u_" + side] = e.T @ g_a
        g_e = d_cross @ emb[other][1] + g_a @ u.T
        grads["w_" + side] = base.T @ normalize_backward_reference(g_e, e, z_norms)
    it = np.exp(LD(params.log_inv_temp))
    open_gate = LD(INV_TEMP_MIN) < it < LD(INV_TEMP_MAX)
    grads["log_inv_temp"] = LD(upstream.d_log_inv_temp) if open_gate else LD(0)
    return grads


@pytest.fixture(params=MODEL_CASES, ids=lambda case: "n{}-lit{:.3g}-a{}-b{}".format(*case))
def student_batch(request):
    """(case, base_img, base_txt, params, teacher targets) of a seeded batch."""
    n, log_it, _, _ = request.param
    rng = np.random.default_rng(2000 + request.param_index)
    base_img = rng.standard_normal((n, DIMS[0]))
    base_txt = rng.standard_normal((n, DIMS[1]))
    params = init_params(request.param_index, *DIMS)
    params.log_inv_temp = log_it
    targets = build_batch_targets(TeacherBatch(unit(rng, n, 8), unit(rng, n, 8)), 5.0)
    return request.param, base_img, base_txt, params, targets


def test_forward_matches_the_long_double_embeddings(student_batch):
    _, base_img, base_txt, params, _ = student_batch
    out = forward(base_img, base_txt, params)
    *embs, it = forward_reference(base_img, base_txt, params)
    for got, want in zip((out.img_emb, out.txt_emb, out.img_usa, out.txt_usa), embs):
        assert rel_err(got, want) < STEP_RTOL
    assert rel_err(out.inv_temp, it) < STEP_RTOL


def test_backward_matches_the_long_double_chain_rule(student_batch):
    (_, _, alpha, beta), base_img, base_txt, params, targets = student_batch
    out = forward(base_img, base_txt, params)
    _, upstream = batch_loss_and_grads(out, targets, alpha, beta)
    grads = backward(out, params, upstream)
    want = backward_reference(base_img, base_txt, params, upstream)
    for name in ("w_img", "w_txt", "u_img", "u_txt"):
        assert rel_err(getattr(grads, name), want[name]) < STEP_RTOL, name
    if want["log_inv_temp"] == 0:
        assert grads.log_inv_temp == 0.0  # the gate is closed, not merely small
    else:
        assert rel_err(grads.log_inv_temp, want["log_inv_temp"]) < STEP_RTOL


# (learning rate, weight decay, steps already taken) of one Adam update
ADAM_CASES = [(1e-3, 0.01, 0), (1e-2, 0.1, 7), (1e-4, 0.5, 300)]


def adam_reference(p, g, m, v, t, lr, wd, b1, b2, eps):
    """(p', m', v') of update t in long double: the bias-corrected moment
    step, with decoupled weight decay on every entry but the temperature
    (entry 0)."""
    p, g, m, v = (x.astype(LD) for x in (p, g, m, v))
    lr, wd, b1, b2, eps = (LD(x) for x in (lr, wd, b1, b2, eps))
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat, v_hat = m / (1 - b1 ** t), v / (1 - b2 ** t)
    decay = np.full(p.shape, lr * wd, dtype=LD)
    decay[0] = 0
    return p - decay * p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@pytest.mark.parametrize("lr, wd, step", ADAM_CASES)
def test_adam_step_matches_the_long_double_update(lr, wd, step):
    rng = np.random.default_rng(3000 + step)
    params = init_params(step, *DIMS)
    grads = init_params(step + 1, *DIMS)
    grads.flat[:] = rng.standard_normal(grads.flat.size)
    state = AdamState(step=step, m=0.1 * rng.standard_normal(params.flat.size),
                      v=0.01 * rng.random(params.flat.size))
    cfg = TrainConfig(learning_rate=lr, weight_decay=wd)
    new, new_state = adam_step(params, grads, state, cfg)
    p_ref, m_ref, v_ref = adam_reference(params.flat, grads.flat, state.m, state.v, step + 1,
                                         lr, wd, 0.9, 0.999, 1e-8)
    assert new_state.step == step + 1
    assert rel_err(new_state.m, m_ref) < STEP_RTOL
    assert rel_err(new_state.v, v_ref) < STEP_RTOL
    assert rel_err(new.flat, p_ref) < STEP_RTOL
    # the update itself, on its own scale, past one ulp of p': p is stored
    # in float64 after the decay and after the step, which alone moves the
    # update by up to 3.4e-13 of itself at lr 1e-4
    step_err = np.abs(new.flat.astype(LD) - p_ref) - np.abs(np.spacing(new.flat)).astype(LD)
    assert rel_err(step_err.clip(min=0), 0, np.abs(p_ref - params.flat).max()) < STEP_RTOL
