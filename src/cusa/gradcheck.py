"""Finite-difference verification of every analytic gradient.

Central differences with step 1e-5 against the closed-form gradients,
at loss level (logit and temperature derivatives) and at model level
(full backward pass through projection, normalization, and the
projector head). Temperatures are drawn strictly inside the clamp
window so the gate stays open.

Functions under test are looked up through their modules at call time,
which keeps the checker honest: patching cusa.losses.loss_from_logits
is enough to make it fail.
"""

from __future__ import annotations

import numpy as np

from . import losses, model
from .errors import InvalidConfig, InvalidDimension, too_large_to_allocate
from .mathops import row_softmax
from .softlabels import TeacherTargets

H = 1e-5
TOLERANCE = 1e-4
_ABS_FLOOR = 1e-7

BATCH_SIZES = (2, 3, 5, 8)
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


def check_losses(seed: int) -> dict:
    """Max per-entry error of loss_from_logits, the code training runs,
    per logit matrix and per log-temperature, with both teacher terms
    weighted."""
    rng = np.random.default_rng(seed)
    names = ("s_i2t", "s_i2i", "s_t2t")
    worst = {f"loss.{name}": 0.0 for name in (*names, "log_inv_temp", "log_inv_temp_uni")}
    for n in BATCH_SIZES:
        logits = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in names]
        log_its = rng.uniform(np.log(2.0), np.log(50.0), size=2)
        targets = TeacherTargets(*_random_targets(rng, n))

        def core():
            return losses.loss_from_logits(
                *logits, targets, float(np.exp(log_its[0])), float(np.exp(log_its[1])),
                _ALPHA, _BETA,
            )

        def total():
            return core()[0].l_total

        _, lg, _ = core()
        for name, s in zip(names, logits):
            key = f"loss.{name}"
            worst[key] = max(worst[key], _max_err(getattr(lg, "d_" + name), _fd_matrix(total, s)))
        fd = _fd_matrix(total, log_its)
        for key, analytic, numeric in (("loss.log_inv_temp", lg.d_log_inv_temp, fd[0]),
                                       ("loss.log_inv_temp_uni", lg.d_log_inv_temp_uni, fd[1])):
            worst[key] = max(worst[key], _err(analytic, float(numeric)))
    return worst


def check_model(seed: int, dims=DEFAULT_DIMS) -> dict:
    """Max per-entry error for the full backward pass, per parameter.

    Differentiates the composition trainer.train runs each step: forward,
    batch_loss_and_grads on its outputs, then backward over the same
    outputs and their forward tape. The batch sizes alternate between
    the shared and the separate uni-modal temperature layouts, starting
    from a different one on odd and even seeds.
    """
    rng = np.random.default_rng(seed)
    worst = {f"model.{name}": 0.0 for name, *_ in model.param_segments(dims, 2)}
    for i, n in enumerate(BATCH_SIZES):
        with too_large_to_allocate(InvalidDimension, f"d_base_img={dims[0]} and "
                                   f"d_base_txt={dims[1]} give base features"):
            base_img = rng.standard_normal((n, dims[0]))
            base_txt = rng.standard_normal((n, dims[1]))
        params = model.init_params(seed, *dims, separate_uni_temp=(seed + i) % 2 == 1)
        # the temperatures lead the layout
        params.flat[:params.n_scalars] = rng.uniform(np.log(2.0), np.log(50.0),
                                                     size=params.n_scalars)
        p_i, p_t = _random_targets(rng, n)
        targets = TeacherTargets(p_i2i=p_i, p_t2t=p_t)

        def total():
            out = model.forward(base_img, base_txt, params)
            report, _ = losses.batch_loss_and_grads(out, targets, _ALPHA, _BETA)
            return report.l_total

        out = model.forward(base_img, base_txt, params)
        _, lg = losses.batch_loss_and_grads(out, targets, _ALPHA, _BETA)
        grads = model.backward(out, params, lg)

        fd = _fd_matrix(total, params.flat)
        for name, start, stop, _ in params.segments:
            key = f"model.{name}"
            worst[key] = max(worst[key], _max_err(grads.flat[start:stop], fd[start:stop]))
    return worst


def run(trials: int = 20, base_seed: int = 0, dims=DEFAULT_DIMS) -> dict:
    """Worst error per component over `trials` seeded repetitions."""
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if base_seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {base_seed}")
    worst: dict = {}
    for t in range(trials):
        seed = base_seed + t
        for part in (check_losses(seed), check_model(seed, dims)):
            for key, val in part.items():
                worst[key] = max(worst.get(key, 0.0), val)
    return worst


def failed_components(errors: dict, tolerance: float = TOLERANCE) -> list:
    return sorted(key for key, val in errors.items() if val >= tolerance)
