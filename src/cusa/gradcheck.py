"""Finite-difference verification of every analytic gradient.

Central differences with step 1e-5 against the closed-form gradients,
at loss level (logit and temperature derivatives) and at model level
(full backward pass through projection, normalization, and the
projector head). Temperatures are drawn strictly inside the clamp
window so the gate stays open.

Functions under test are looked up through their modules at call time,
which keeps the checker honest: patching cusa.losses.infonce_loss is
enough to make it fail.
"""

from __future__ import annotations

import numpy as np

from . import losses, model
from .errors import InvalidConfig
from .mathops import row_softmax
from .softlabels import TeacherTargets

H = 1e-5
TOLERANCE = 1e-4
_ABS_FLOOR = 1e-7

DEFAULT_BATCH_SIZES = (2, 3, 5, 8)
DEFAULT_DIMS = (6, 6, 4, 3)
_ALPHA, _BETA = 0.7, 0.4


def _err(analytic: float, fd: float) -> float:
    # absolute near zero, relative otherwise
    diff = abs(analytic - fd)
    if diff < _ABS_FLOOR:
        return 0.0
    return diff / max(abs(analytic), abs(fd))


def _fd_matrix(f, m: np.ndarray) -> np.ndarray:
    """Central differences of scalar f over every entry of m, in place."""
    g = np.empty_like(m)
    it = np.nditer(m, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = m[idx]
        m[idx] = keep + H
        hi = f()
        m[idx] = keep - H
        lo = f()
        m[idx] = keep
        g[idx] = (hi - lo) / (2.0 * H)
    return g


def _max_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    worst = 0.0
    for a, b in zip(np.ravel(analytic), np.ravel(fd)):
        worst = max(worst, _err(float(a), float(b)))
    return worst


def _random_targets(rng, n: int) -> tuple:
    p_i = row_softmax(rng.standard_normal((n, n)), 1.0)
    p_t = row_softmax(rng.standard_normal((n, n)), 1.0)
    return p_i, p_t


def check_losses(seed: int, batch_sizes=DEFAULT_BATCH_SIZES) -> dict:
    """Max per-entry error for each loss-level gradient component."""
    rng = np.random.default_rng(seed)
    worst = {"infonce.logits": 0.0, "infonce.log_inv_temp": 0.0,
             "csa.logits": 0.0, "usa.logits": 0.0}
    for n in batch_sizes:
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        u = float(rng.uniform(np.log(2.0), np.log(50.0)))
        it = float(np.exp(u))

        value, lg = losses.infonce_loss(s, it)
        fd = _fd_matrix(lambda: losses.infonce_loss(s, it)[0], s)
        worst["infonce.logits"] = max(worst["infonce.logits"], _max_err(lg.d_s_i2t, fd))
        hi = losses.infonce_loss(s, float(np.exp(u + H)))[0]
        lo = losses.infonce_loss(s, float(np.exp(u - H)))[0]
        worst["infonce.log_inv_temp"] = max(
            worst["infonce.log_inv_temp"],
            _err(lg.d_log_inv_temp, (hi - lo) / (2.0 * H)),
        )

        p_i, p_t = _random_targets(rng, n)

        def csa_value():
            return losses.csa_loss(
                p_i, p_t, row_softmax(s, it), row_softmax(s.T, it), it
            )[0]

        _, d_s = losses.csa_loss(p_i, p_t, row_softmax(s, it), row_softmax(s.T, it), it)
        worst["csa.logits"] = max(worst["csa.logits"], _max_err(d_s, _fd_matrix(csa_value, s)))

        s_i = rng.uniform(-1.0, 1.0, size=(n, n))
        s_t = rng.uniform(-1.0, 1.0, size=(n, n))

        def usa_value():
            return losses.usa_loss(
                p_i, p_t, row_softmax(s_i, it), row_softmax(s_t, it), it
            )[0]

        _, d_i, d_t = losses.usa_loss(
            p_i, p_t, row_softmax(s_i, it), row_softmax(s_t, it), it
        )
        worst["usa.logits"] = max(
            worst["usa.logits"],
            _max_err(d_i, _fd_matrix(usa_value, s_i)),
            _max_err(d_t, _fd_matrix(usa_value, s_t)),
        )
    return worst


def check_model(seed: int, dims=DEFAULT_DIMS, batch_sizes=DEFAULT_BATCH_SIZES) -> dict:
    """Max per-entry error for the full backward pass, per parameter.

    Differentiates the composition trainer.train runs each step: forward,
    batch_loss_and_grads on its outputs, then backward over the same
    outputs and their forward tape.
    """
    d_bi, d_bt, d_e, d_u = dims
    rng = np.random.default_rng(seed)
    worst = {f"model.{name}": 0.0
             for name in ("w_img", "w_txt", "u_img", "u_txt", "log_inv_temp")}
    for n in batch_sizes:
        base_img = rng.standard_normal((n, d_bi))
        base_txt = rng.standard_normal((n, d_bt))
        params = model.init_params(seed, d_bi, d_bt, d_e, d_u)
        params.log_inv_temp = float(rng.uniform(np.log(2.0), np.log(50.0)))
        p_i, p_t = _random_targets(rng, n)
        targets = TeacherTargets(p_i2i=p_i, p_t2t=p_t)

        def total():
            out = model.forward(base_img, base_txt, params)
            report, _ = losses.batch_loss_and_grads(out, targets, _ALPHA, _BETA)
            return report.l_total

        out = model.forward(base_img, base_txt, params)
        _, lg = losses.batch_loss_and_grads(out, targets, _ALPHA, _BETA)
        grads = model.backward(out, params, lg)

        for name in ("w_img", "w_txt", "u_img", "u_txt"):
            fd = _fd_matrix(total, getattr(params, name))
            key = f"model.{name}"
            worst[key] = max(worst[key], _max_err(getattr(grads, name), fd))

        keep = params.log_inv_temp
        params.log_inv_temp = keep + H
        hi = total()
        params.log_inv_temp = keep - H
        lo = total()
        params.log_inv_temp = keep
        worst["model.log_inv_temp"] = max(
            worst["model.log_inv_temp"],
            _err(grads.log_inv_temp, (hi - lo) / (2.0 * H)),
        )
    return worst


def run(trials: int = 20, base_seed: int = 0, dims=DEFAULT_DIMS,
        batch_sizes=DEFAULT_BATCH_SIZES) -> dict:
    """Worst error per component over `trials` seeded repetitions."""
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    worst: dict = {}
    for t in range(trials):
        seed = base_seed + t
        for part in (check_losses(seed, batch_sizes), check_model(seed, dims, batch_sizes)):
            for key, val in part.items():
                worst[key] = max(worst.get(key, 0.0), val)
    return worst


def failed_components(errors: dict, tolerance: float = TOLERANCE) -> list:
    return sorted(key for key, val in errors.items() if val >= tolerance)
