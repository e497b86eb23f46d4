"""Finite-difference verification of every analytic gradient.

Central differences with step 1e-5 against the closed-form gradients,
at loss level (logit and temperature derivatives of the loss core) and
at model level (the parameter gradients of trainer.step_gradients, the
forward, teacher targets, loss and backward that every training step
runs). Temperatures are drawn strictly inside the clamp window so the
gate stays open, and the teacher targets come from build_batch_targets
on seeded teacher features.

Functions under test are looked up through their modules at call time,
which keeps the checker honest: patching cusa.losses.loss_from_logits
or cusa.trainer.backward is enough to make it fail.
"""

from __future__ import annotations

import numpy as np

from . import losses, model, trainer
from .errors import InvalidConfig, InvalidDimension, too_large_to_allocate
from .mathops import Workspace, l2_normalize_rows
from .softlabels import TeacherBatch, build_batch_targets

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


def _teacher(rng, n: int, d_img: int, d_txt: int) -> tuple:
    """A TeacherBatch of n seeded unit rows per modality, and a teacher
    inverse temperature."""
    feats = [l2_normalize_rows(rng.standard_normal((n, d))) for d in (d_img, d_txt)]
    return TeacherBatch(*feats), float(rng.uniform(1.0, 10.0))


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
        targets = build_batch_targets(*_teacher(rng, n, n, n))

        def core():
            return losses.loss_from_logits(
                *logits, targets, float(np.exp(log_its[0])), float(np.exp(log_its[1])),
                _ALPHA, _BETA,
            )

        def total():
            return core()[0].l_total

        _, lg = core()
        for name, s in zip(names, logits):
            key = f"loss.{name}"
            worst[key] = max(worst[key], _max_err(getattr(lg, "d_" + name), _fd_matrix(total, s)))
        fd = _fd_matrix(total, log_its)
        for key, analytic, numeric in (("loss.log_inv_temp", lg.d_log_inv_temp, fd[0]),
                                       ("loss.log_inv_temp_uni", lg.d_log_inv_temp_uni, fd[1])):
            worst[key] = max(worst[key], _err(analytic, float(numeric)))
    return worst


def check_model(seed: int, dims=DEFAULT_DIMS) -> dict:
    """Max per-entry error of trainer.step_gradients, per parameter.

    Each batch is a seeded permutation of its pairs, with a seeded
    teacher, and the step reuses one workspace: the checked gradients
    come from its second call, as in every training step after the
    first. The batch sizes alternate between the shared and the
    separate uni-modal temperature layouts, starting from a different
    one on odd and even seeds.
    """
    rng = np.random.default_rng(seed)
    worst = {f"model.{name}": 0.0 for name, *_ in model.param_segments(dims, 2)}
    for i, n in enumerate(BATCH_SIZES):
        with too_large_to_allocate(InvalidDimension, f"d_base_img={dims[0]} and "
                                   f"d_base_txt={dims[1]} give base features"):
            base_img = rng.standard_normal((n, dims[0]))
            base_txt = rng.standard_normal((n, dims[1]))
            teacher, teacher_inv_temp = _teacher(rng, n, dims[0], dims[1])
        params = model.init_params(seed, *dims, separate_uni_temp=(seed + i) % 2 == 1)
        # the temperatures lead the layout
        params.flat[:params.n_scalars] = rng.uniform(np.log(2.0), np.log(50.0),
                                                     size=params.n_scalars)
        config = trainer.TrainConfig(alpha=_ALPHA, beta=_BETA, teacher_inv_temp=teacher_inv_temp)
        rows = rng.permutation(n)
        ws = Workspace()

        def step():
            return trainer.step_gradients(params, base_img, base_txt, teacher, rows, config, ws)

        step()
        # copied before the finite differences reuse the workspace
        grads = step()[2].flat.copy()
        fd = _fd_matrix(lambda: step()[1].l_total, params.flat)
        for name, start, stop, _ in params.segments:
            key = f"model.{name}"
            worst[key] = max(worst[key], _max_err(grads[start:stop], fd[start:stop]))
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
