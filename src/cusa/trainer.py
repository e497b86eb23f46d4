"""Seeded mini-batch training loop over precomputed features."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataio import FeatureTable
from .errors import BatchTooLarge, InvalidConfig, MissingFeature, NumericError, TrainAbort
from .losses import batch_loss_and_grads
from .mathops import Workspace, l2_normalize_rows
from .model import StudentParams, backward, forward, init_params
from .softlabels import TeacherBatch, build_batch_targets


@dataclass
class TrainConfig:
    alpha: float = 0.5
    beta: float = 0.5
    batch_size: int = 32
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    teacher_inv_temp: float = 1.0
    separate_uni_temp: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    d_e: int = 32
    d_u: int = 16

    def __post_init__(self):
        for name in ("alpha", "beta", "learning_rate", "teacher_inv_temp",
                     "weight_decay", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise InvalidConfig(f"alpha and beta must be >= 0, got {self.alpha}, {self.beta}")
        if self.batch_size < 2:
            raise InvalidConfig(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if not (self.learning_rate > 0.0):
            raise InvalidConfig(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if not (self.teacher_inv_temp > 0.0):
            raise InvalidConfig(f"teacher_inv_temp must be > 0, got {self.teacher_inv_temp}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise InvalidConfig(f"{name} must be in [0, 1), got {b}")
        if not (self.epsilon > 0.0):
            raise InvalidConfig(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0.0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.d_e < 1 or self.d_u < 1:
            raise InvalidConfig(f"d_e and d_u must be >= 1, got {self.d_e}, {self.d_u}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainData:
    """Aligned handles for one training run."""

    pairs: list
    img_base: FeatureTable
    txt_base: FeatureTable
    img_teacher: FeatureTable
    txt_teacher: FeatureTable

    def aligned(self, pairs) -> tuple:
        """(base_img, base_txt, TeacherBatch) for `pairs`, row i from pair
        i; the teacher rows are normalized and validated here, once."""
        img_ids = [img for img, _ in pairs]
        txt_ids = [txt for _, txt in pairs]
        try:
            teacher = TeacherBatch(l2_normalize_rows(self.img_teacher.take(img_ids)),
                                   l2_normalize_rows(self.txt_teacher.take(txt_ids)))
        except MissingFeature as e:
            side = "text" if all(i in self.img_teacher for i in img_ids) else "image"
            raise MissingFeature(f"{side} teacher table: {e}") from None
        return self.img_base.take(img_ids), self.txt_base.take(txt_ids), teacher


@dataclass
class TrainLog:
    header: dict
    records: list = field(default_factory=list)

    def write(self, path) -> None:
        """Line-delimited JSON: header first, then one record per step."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.header, sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def make_batches(n_pairs: int, batch_size: int, seed: int, epoch: int) -> list:
    """Seeded permutation of range(n_pairs) chunked into full batches.

    The trailing partial chunk is dropped. Distinct epochs draw distinct
    permutations from the same seed.
    """
    if batch_size < 1:
        raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > n_pairs:
        raise BatchTooLarge(f"batch_size {batch_size} exceeds {n_pairs} pairs")
    perm = np.random.default_rng([seed, epoch]).permutation(n_pairs)
    n_batches = n_pairs // batch_size
    return [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)]


@dataclass
class AdamState:
    step: int
    m: np.ndarray  # the moments are laid out like StudentParams.flat
    v: np.ndarray


def init_adam_state(params: StudentParams) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: StudentParams, grads: StudentParams, state: AdamState,
              config: TrainConfig):
    """One bias-corrected adaptive-moment update over the flat parameters.

    Weight decay is decoupled (applied directly to the parameter, not
    mixed into the gradient) and touches the projection matrices only,
    which follow the temperatures in the layout. Returns fresh (params,
    state); inputs are not mutated.
    """
    t = state.step + 1
    b1, b2, eps, lr = config.beta1, config.beta2, config.epsilon, config.learning_rate
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    g = grads.flat
    m = state.m * b1 + (1.0 - b1) * g
    v = state.v * b2 + (1.0 - b2) * (g * g)
    update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
    p = params.flat.copy()
    if config.weight_decay != 0.0:
        p[params.n_scalars:] -= lr * config.weight_decay * p[params.n_scalars:]
    p -= update
    return StudentParams(p, params.dims, params.n_scalars), AdamState(step=t, m=m, v=v)


def step_gradients(params: StudentParams, base_img: np.ndarray, base_txt: np.ndarray,
                   teacher: TeacherBatch, rows: np.ndarray, config: TrainConfig,
                   ws: Workspace | None = None):
    """The gradients of one step on the pairs `rows` of the aligned
    training arrays: forward -> teacher targets for the batch -> loss
    and logit gradients -> backward over the forward tape.

    The targets and logit gradients live in `ws` and are dead once the
    call returns, so a loop passes one workspace to every call; the
    parameter gradients are arrays of their own. Returns (StudentOutputs,
    LossReport, parameter gradients as StudentParams).
    """
    outputs = forward(base_img[rows], base_txt[rows], params)
    targets = build_batch_targets(teacher, config.teacher_inv_temp, rows, ws=ws)
    report, lgrads = batch_loss_and_grads(outputs, targets, config.alpha, config.beta, ws=ws)
    return outputs, report, backward(outputs, params, lgrads)


def train(data: TrainData, config: TrainConfig):
    """Run the full loop; returns (final StudentParams, TrainLog).

    Each step is step_gradients, then adam_step, and all steps share
    one Workspace, so the n x n arrays of the step are allocated once.
    The pairs become aligned arrays once up front; each step gathers
    its rows. Numeric failures abort with (epoch, step) context.
    """
    base_img, base_txt, teacher = data.aligned(data.pairs)

    params = init_params(config.seed, base_img.shape[1], base_txt.shape[1],
                         config.d_e, config.d_u, config.separate_uni_temp)
    state = init_adam_state(params)
    log = TrainLog(header={
        "log_format": 2,
        "n_pairs": len(data.pairs),
        "config": config.to_dict(),
    })
    n_pairs = len(data.pairs)
    ws = Workspace()
    with np.errstate(all="ignore"):  # a non-finite loss ends the run as TrainAbort
        for epoch in range(config.epochs):
            batches = make_batches(n_pairs, config.batch_size, config.seed, epoch)
            for step, idx in enumerate(batches):
                try:
                    outputs, report, pgrads = step_gradients(
                        params, base_img, base_txt, teacher, idx, config, ws)
                    params, state = adam_step(params, pgrads, state, config)
                except NumericError as err:
                    raise TrainAbort(epoch, step, err) from err
                log.records.append({
                    "epoch": epoch,
                    "step": step,
                    "l_original": report.l_original,
                    "l_csa": report.l_csa,
                    "l_usa": report.l_usa,
                    "l_total": report.l_total,
                    "inv_temp": outputs.inv_temp,
                })
                del outputs, pgrads  # not kept alive beside the next step's arrays
    return params, log
