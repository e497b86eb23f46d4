"""Batching, the optimizer, and the training loop.

The two-step optimizer oracle is a hand-rolled scalar recurrence; the
zero-weight trajectory check rebuilds the loop from primitives so the
composed trainer has an independent reference.
"""

import tracemalloc

import numpy as np
import pytest

from cusa import gradcheck, trainer
from cusa.dataio import FeatureTable, save_checkpoint
from cusa.errors import BatchTooLarge, InvalidConfig, TrainAbort, ZeroRow
from cusa.losses import loss_from_logits
from cusa.mathops import Workspace, l2_normalize_rows
from cusa.model import backward, forward, init_params
from cusa.softlabels import TeacherBatch, TeacherTargets
from cusa.synthetic import SynthConfig, generate
from cusa.trainer import (
    TrainConfig,
    TrainData,
    adam_step,
    init_adam_state,
    make_batches,
    step_gradients,
    train,
)

# first update for a fresh moment state with g=1, lr=1e-3:
# lr * g / (|g| + eps) after bias correction
ADAM_FIRST_STEP = 0.0009999999900000001


def tiny_params(value=0.0):
    params = trainer.StudentParams(np.full(5, value), (1, 1, 1, 1), 1)
    params.log_inv_temp = 0.0
    return params


def make_dataset(rng, n_pairs, d_b=10, d_t=12):
    img_ids = [f"i{k}" for k in range(n_pairs)]
    txt_ids = [f"t{k}" for k in range(n_pairs)]
    return TrainData(
        pairs=list(zip(img_ids, txt_ids)),
        img_base=FeatureTable(img_ids, rng.standard_normal((n_pairs, d_b))),
        txt_base=FeatureTable(txt_ids, rng.standard_normal((n_pairs, d_b))),
        img_teacher=FeatureTable(img_ids, rng.standard_normal((n_pairs, d_t))),
        txt_teacher=FeatureTable(txt_ids, rng.standard_normal((n_pairs, d_t))),
    )


class TestTrainConfig:
    def test_batch_size_one_rejected(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(alpha=-0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "learning_rate", "teacher_inv_temp",
                                       "weight_decay", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("beta1", 1.0), ("beta2", -0.1), ("epsilon", 0.0),
        ("weight_decay", -0.5),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            TrainConfig(**{field: value})

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(alpha=0.25, epochs=3)
        assert TrainConfig(**cfg.to_dict()) == cfg


class TestMakeBatches:
    def test_drop_last(self):
        batches = make_batches(10, 4, seed=0, epoch=0)
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)
        flat = sorted(int(i) for b in batches for i in b)
        assert len(set(flat)) == 8
        assert all(0 <= i < 10 for i in flat)

    def test_deterministic_per_epoch(self):
        a = make_batches(50, 8, seed=3, epoch=2)
        b = make_batches(50, 8, seed=3, epoch=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_draw_different_permutations(self):
        a = np.concatenate(make_batches(64, 8, seed=3, epoch=0))
        b = np.concatenate(make_batches(64, 8, seed=3, epoch=1))
        assert not np.array_equal(a, b)

    def test_batch_too_large(self):
        with pytest.raises(BatchTooLarge):
            make_batches(4, 5, seed=0, epoch=0)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(InvalidConfig, match="batch_size must be >= 1"):
            make_batches(4, 0, seed=0, epoch=0)


class TestAdamStep:
    def test_zero_gradients_keep_params(self):
        params = tiny_params(0.7)
        grads = tiny_params(0.0)
        out, state = adam_step(params, grads, init_adam_state(params), TrainConfig())
        assert state.step == 1
        np.testing.assert_array_equal(out.w_img, params.w_img)
        assert out.log_inv_temp == params.log_inv_temp

    def test_first_step_magnitude(self):
        params = tiny_params(0.0)
        grads = tiny_params(1.0)
        grads.log_inv_temp = 1.0
        out, _ = adam_step(params, grads, init_adam_state(params), TrainConfig())
        assert abs(out.w_img[0, 0] + ADAM_FIRST_STEP) < 1e-16
        assert abs(out.log_inv_temp + ADAM_FIRST_STEP) < 1e-16

    def test_two_steps_match_manual_recurrence(self):
        cfg = TrainConfig(learning_rate=0.01)
        params = tiny_params(0.5)
        state = init_adam_state(params)
        gs = (0.3, -1.2)
        for g in gs:
            grads = tiny_params(g)
            grads.log_inv_temp = g
            params, state = adam_step(params, grads, state, cfg)

        p, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            p -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert abs(params.w_img[0, 0] - p) < 1e-12
        # same updates, but tiny_params starts the temperature at 0, not 0.5
        assert abs(params.log_inv_temp - (p - 0.5)) < 1e-12

    def test_weight_decay_skips_temperature(self):
        cfg = TrainConfig(weight_decay=0.1)
        params = tiny_params(2.0)
        params.log_inv_temp = 2.0
        out, _ = adam_step(params, tiny_params(0.0), init_adam_state(params), cfg)
        # matrices shrink by lr * wd * p, the temperature does not
        assert abs(out.w_img[0, 0] - (2.0 - 0.001 * 0.1 * 2.0)) < 1e-15
        assert out.log_inv_temp == 2.0


class TestTrain:
    def test_deterministic_across_runs(self):
        data = make_dataset(np.random.default_rng(90), 24)
        cfg = TrainConfig(batch_size=8, epochs=2, d_e=6, d_u=4, seed=1)
        params_a, log_a = train(data, cfg)
        params_b, log_b = train(data, cfg)
        np.testing.assert_array_equal(params_a.w_img, params_b.w_img)
        np.testing.assert_array_equal(params_a.u_txt, params_b.u_txt)
        assert params_a.log_inv_temp == params_b.log_inv_temp
        assert log_a.records == log_b.records

    def test_log_identity_every_step(self):
        data = make_dataset(np.random.default_rng(91), 20)
        cfg = TrainConfig(alpha=0.4, beta=0.7, batch_size=5, epochs=2, d_e=6, d_u=4)
        _, log = train(data, cfg)
        assert len(log.records) == 8
        for rec in log.records:
            want = rec["l_original"] + 0.4 * rec["l_csa"] + 0.7 * rec["l_usa"]
            assert abs(rec["l_total"] - want) < 1e-9

    def test_zero_weights_reported_but_excluded(self):
        data = make_dataset(np.random.default_rng(92), 12)
        cfg = TrainConfig(alpha=0.0, beta=0.0, batch_size=6, epochs=1, d_e=6, d_u=4)
        _, log = train(data, cfg)
        for rec in log.records:
            assert rec["l_csa"] > 0.0
            assert rec["l_usa"] > 0.0
            assert rec["l_total"] == rec["l_original"]

    def test_zero_weight_trajectory_is_pure_infonce(self):
        """alpha=beta=0 must leave parameters on the plain InfoNCE path."""
        data = make_dataset(np.random.default_rng(93), 30)
        cfg = TrainConfig(alpha=0.0, beta=0.0, batch_size=10, epochs=3,
                          d_e=8, d_u=4, seed=7)
        got, _ = train(data, cfg)

        img_ids = [p[0] for p in data.pairs]
        txt_ids = [p[1] for p in data.pairs]
        base_img = data.img_base.take(img_ids)
        base_txt = data.txt_base.take(txt_ids)
        params = init_params(cfg.seed, base_img.shape[1], base_txt.shape[1],
                             cfg.d_e, cfg.d_u)
        state = init_adam_state(params)
        for epoch in range(cfg.epochs):
            for idx in make_batches(30, cfg.batch_size, cfg.seed, epoch):
                outputs = forward(base_img[idx], base_txt[idx], params)
                # zero weights, one-hot targets, zero uni-modal logits
                eye, zero = np.eye(len(idx)), np.zeros((len(idx), len(idx)))
                _, lgrads = loss_from_logits(outputs.img_emb @ outputs.txt_emb.T, zero, zero,
                                             TeacherTargets(eye, eye), outputs.inv_temp,
                                             1.0, 0.0, 0.0)
                pgrads = backward(outputs, params, lgrads)
                params, state = adam_step(params, pgrads, state, cfg)

        np.testing.assert_allclose(got.w_img, params.w_img, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.w_txt, params.w_txt, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.u_img, params.u_img, rtol=0, atol=1e-12)
        assert abs(got.log_inv_temp - params.log_inv_temp) < 1e-12

    def test_numeric_failure_carries_step_context(self, monkeypatch):
        data = make_dataset(np.random.default_rng(94), 12)
        cfg = TrainConfig(batch_size=4, epochs=1, d_e=6, d_u=4)
        calls = {"n": 0}
        real = trainer.batch_loss_and_grads

        def exploding(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ZeroRow(0)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "batch_loss_and_grads", exploding)
        with pytest.raises(TrainAbort) as info:
            train(data, cfg)
        assert info.value.epoch == 0
        assert info.value.step == 2

    def test_log_write_round_trip(self, tmp_path):
        import json

        data = make_dataset(np.random.default_rng(95), 8)
        cfg = TrainConfig(batch_size=4, epochs=1, d_e=4, d_u=3)
        _, log = train(data, cfg)
        path = tmp_path / "steps.log"
        log.write(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["n_pairs"] == 8
        assert header["config"]["batch_size"] == 4
        assert [json.loads(x) for x in lines[1:]] == log.records


class NanWorkspace(Workspace):
    """A workspace whose buffers start as NaN, so that reading a buffer
    before writing it shows up in the results."""

    def __init__(self):
        super().__init__()
        self._poisoned = set()

    def buffer(self, name, shape):
        buf = super().buffer(name, shape)
        if name not in self._poisoned:
            self._poisoned.add(name)
            buf.fill(np.nan)
        return buf


def synth_train_data(config: SynthConfig) -> TrainData:
    data = generate(config)
    return TrainData(
        pairs=list(zip(data.img_ids, data.txt_ids)),
        img_base=FeatureTable(data.img_ids, data.img_base),
        txt_base=FeatureTable(data.txt_ids, data.txt_base),
        img_teacher=FeatureTable(data.img_ids, data.img_teacher),
        txt_teacher=FeatureTable(data.txt_ids, data.txt_teacher),
    )


def step_inputs(data: TrainData):
    """The aligned base arrays and the TeacherBatch that train builds."""
    img_ids = [p[0] for p in data.pairs]
    txt_ids = [p[1] for p in data.pairs]
    teacher = TeacherBatch(l2_normalize_rows(data.img_teacher.take(img_ids)),
                           l2_normalize_rows(data.txt_teacher.take(txt_ids)))
    return data.img_base.take(img_ids), data.txt_base.take(txt_ids), teacher


class TestWorkspace:
    def test_reused_workspace_gives_the_bits_of_a_fresh_one(self, tmp_path):
        # the settings of the golden run in test_golden.py
        data = synth_train_data(SynthConfig(n_clusters=3, pairs_per_cluster=10, seed=13,
                                            d_student_img=6, d_student_txt=7,
                                            d_teacher_img=8, d_teacher_txt=9))
        cfg = TrainConfig(alpha=0.6, beta=0.4, batch_size=10, epochs=4, learning_rate=1e-2,
                          seed=2, teacher_inv_temp=8.0, separate_uni_temp=True, d_e=5, d_u=3)
        reused, _ = train(data, cfg)

        base_img, base_txt, teacher = step_inputs(data)
        params = init_params(cfg.seed, base_img.shape[1], base_txt.shape[1], cfg.d_e, cfg.d_u,
                             cfg.separate_uni_temp)
        state = init_adam_state(params)
        for epoch in range(cfg.epochs):
            for idx in make_batches(len(data.pairs), cfg.batch_size, cfg.seed, epoch):
                *_, pgrads = step_gradients(params, base_img, base_txt, teacher, idx, cfg,
                                            NanWorkspace())
                params, state = adam_step(params, pgrads, state, cfg)
        save_checkpoint(tmp_path / "reused.ckpt", reused, cfg.to_dict())
        save_checkpoint(tmp_path / "fresh.ckpt", params, cfg.to_dict())
        assert (tmp_path / "reused.ckpt").read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()

    def test_warm_batch_200_step_allocates_no_n_by_n_arrays(self):
        # the train-b200 benchmark settings on the default corpus
        data = synth_train_data(SynthConfig())
        cfg = TrainConfig(batch_size=200, learning_rate=1e-2, teacher_inv_temp=8.0,
                          d_e=4, d_u=4)
        base_img, base_txt, teacher = step_inputs(data)
        params = init_params(cfg.seed, base_img.shape[1], base_txt.shape[1], cfg.d_e, cfg.d_u)
        state = init_adam_state(params)
        first, second = make_batches(len(data.pairs), cfg.batch_size, cfg.seed, 0)[:2]
        ws = Workspace()
        *_, pgrads = step_gradients(params, base_img, base_txt, teacher, first, cfg, ws)
        params, state = adam_step(params, pgrads, state, cfg)
        tracemalloc.start()
        try:
            *_, pgrads = step_gradients(params, base_img, base_txt, teacher, second, cfg, ws)
            adam_step(params, pgrads, state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 1.28 blocks of n x n float64 (the batch's gathered
        # feature rows and the n x d arrays of forward and backward);
        # allocating every n x n array afresh each step peaked at 11.6.
        block = 200 * 200 * 8
        assert peak < 2 * block, f"traced peak {peak / block:.2f} n x n blocks"


class TestStepGradients:
    @pytest.mark.parametrize("separate_uni_temp", [False, True], ids=["shared", "separate"])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.4), (0.7, 0.0), (0.0, 0.0)])
    def test_zero_weights_match_finite_differences(self, alpha, beta, separate_uni_temp):
        # gradcheck weights both teacher terms; training also runs either at 0
        rng = np.random.default_rng(0)
        n, dims = 5, gradcheck.DEFAULT_DIMS
        base_img, base_txt = rng.standard_normal((n, dims[0])), rng.standard_normal((n, dims[1]))
        teacher, teacher_inv_temp = gradcheck._teacher(rng, n, dims[0], dims[1])
        params = init_params(0, *dims, separate_uni_temp=separate_uni_temp)
        params.flat[:params.n_scalars] = rng.uniform(np.log(2.0), np.log(50.0),
                                                     size=params.n_scalars)
        cfg = TrainConfig(alpha=alpha, beta=beta, teacher_inv_temp=teacher_inv_temp)
        rows = rng.permutation(n)

        def step():
            return step_gradients(params, base_img, base_txt, teacher, rows, cfg)

        grads = step()[2]
        fd = gradcheck._fd_matrix(lambda: step()[1].l_total, params.flat)
        for name, start, stop, _ in params.segments:
            err = gradcheck._max_err(grads.flat[start:stop], fd[start:stop])
            assert err < gradcheck.TOLERANCE, name
