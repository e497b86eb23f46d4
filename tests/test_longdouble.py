"""Long-double oracle for the teacher targets and the loss core.

Each reference below is the textbook formula evaluated in np.longdouble
(a 64-bit mantissa on x86-64, eps 1.08e-19), written from the math and
not from the code's buffer order: log-softmax rows, KL as
sum p (log p - log q), the logit gradients as the differences of
softmaxes, and the log-temperature derivatives as differences of
expected logits. The float64 code must agree with it to RTOL on seeded
batches of 2 to 200 rows.
"""

import numpy as np
import pytest

from cusa.losses import loss_from_logits
from cusa.mathops import l2_normalize_rows
from cusa.softlabels import TeacherBatch, build_batch_targets

LD = np.longdouble

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps == np.finfo(np.float64).eps,
    reason="np.longdouble is float64 on this platform, so the reference is no oracle")

# worst relative error measured over the cases below: 1.0e-15 for the
# targets and 2.6e-14 for the loss core (d_s_i2i at it_u = 100, where
# q - p cancels); the bound leaves a margin of about 40x
RTOL = 1e-12

# (n, teacher inverse temperature, it, it_u, alpha, beta); it differs from
# it_u everywhere, and each weight is 0 somewhere
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


def loss_reference(s_i2t, s_i2i, s_t2t, p_i, p_t, it, it_u, alpha, beta):
    """(total, (l_original, l_csa, l_usa), (d_s_i2t, d_s_i2i, d_s_t2t),
    d/dlog(it), d/dlog(it_u)) of the objective in long double."""
    s_i2t, s_i2i, s_t2t, p_i, p_t = (m.astype(LD) for m in (s_i2t, s_i2i, s_t2t, p_i, p_t))
    it, it_u, alpha, beta = LD(it), LD(it_u), LD(alpha), LD(beta)
    n = s_i2t.shape[0]
    eye = np.eye(n, dtype=LD)
    # direction -> (logits, inverse temperature, target); t2i takes the rows of s_i2t^T
    terms = {"i2t": (s_i2t, it, p_i), "t2i": (s_i2t.T, it, p_t),
             "i2i": (s_i2i, it_u, p_i), "t2t": (s_t2t, it_u, p_t)}
    log_q = {k: log_softmax(t * s) for k, (s, t, _) in terms.items()}
    q = {k: np.exp(v) for k, v in log_q.items()}
    kl = {k: (p * (np.log(p) - log_q[k])).sum(axis=1).mean() for k, (_, _, p) in terms.items()}
    # sum over rows of E_q[s] - E_p[s]: d KL(p || softmax(t s)) / d log t, times n / t
    shift = {k: ((q[k] - p) * s).sum() for k, (s, _, p) in terms.items()}

    l_original = -(np.trace(log_q["i2t"]) + np.trace(log_q["t2i"])) / (2 * n)
    l_csa = (kl["i2t"] + kl["t2i"]) / 2
    l_usa = (kl["i2i"] + kl["t2t"]) / 2
    total = l_original + alpha * l_csa + beta * l_usa
    d_s_i2t = it / (2 * n) * ((q["i2t"] - eye) + (q["t2i"] - eye).T
                              + alpha * ((q["i2t"] - p_i) + (q["t2i"] - p_t).T))
    d_s_i2i = beta * it_u / (2 * n) * (q["i2i"] - p_i)
    d_s_t2t = beta * it_u / (2 * n) * (q["t2t"] - p_t)
    # d(-log q_ii)/d log t = -t (s_ii - E_q[s_i.])
    d_original = -it / (2 * n) * sum((np.trace(terms[k][0]) - (q[k] * terms[k][0]).sum())
                                     for k in ("i2t", "t2i"))
    d_log_it = d_original + alpha * it / (2 * n) * (shift["i2t"] + shift["t2i"])
    d_log_it_u = beta * it_u / (2 * n) * (shift["i2i"] + shift["t2t"])
    return (total, (l_original, l_csa, l_usa), (d_s_i2t, d_s_i2i, d_s_t2t),
            d_log_it, d_log_it_u)


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
    (_, teacher_inv_temp, it, it_u, alpha, beta), teacher, logits = batch
    targets = build_batch_targets(teacher, teacher_inv_temp)
    report, grads = loss_from_logits(*logits, targets, it, it_u, alpha, beta)
    total, terms, d_s, d_log_it, d_log_it_u = loss_reference(
        *logits, targets.p_i2i, targets.p_t2t, it, it_u, alpha, beta)
    assert rel_err(report.l_total, total) < RTOL
    for got, want in zip((report.l_original, report.l_csa, report.l_usa), terms):
        assert rel_err(got, want) < RTOL
    for got, want in zip((grads.d_s_i2t, grads.d_s_i2i, grads.d_s_t2t), d_s):
        assert rel_err(got, want) < RTOL
    assert rel_err(grads.d_log_inv_temp, d_log_it) < RTOL
    assert rel_err(grads.d_log_inv_temp_uni, d_log_it_u) < RTOL
