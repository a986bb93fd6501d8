import warnings
from dataclasses import replace

import numpy as np
import pytest

from _setup import make_setup
from talklora.adapters import (
    AdapterConfig,
    FrozenLinear,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
)
from talklora.autodiff import LossSpec, NumericalError, model_forward
from talklora import tasks
from talklora.linalg import RngState
from talklora.tasks import (
    ClusterDataset,
    ClusterTaskSpec,
    DivergenceError,
    TrainConfig,
    evaluate,
    generate_cluster_task,
    train,
)

MSE = LossSpec()


class TestGenerateClusterTask:
    def test_identity_map_noiseless(self):
        spec = ClusterTaskSpec(
            clusters=1, input_dim=4, output_dim=4, samples_per_cluster=50,
            noise_std=0.0, seed=0,
        )
        data = generate_cluster_task(spec)
        # W_c redrawn from the spec's maps stream: every target is x @ W_c.T
        w = RngState(0).split("maps").generator().normal(size=(1, 4, 4))[0] / 2.0
        assert np.array_equal(data.y_train, data.x_train @ w.T)
        assert np.array_equal(data.y_eval, data.x_eval @ w.T)

    def test_same_seed_is_bit_identical(self):
        spec = ClusterTaskSpec(
            clusters=3, input_dim=6, output_dim=5, samples_per_cluster=40,
            noise_std=0.2, seed=9,
        )
        d1 = generate_cluster_task(spec)
        d2 = generate_cluster_task(spec)
        assert np.array_equal(d1.x_train, d2.x_train)
        assert np.array_equal(d1.y_train, d2.y_train)
        assert np.array_equal(d1.x_eval, d2.x_eval)

    def test_cluster_means_concentrate_on_centers(self):
        spec = ClusterTaskSpec(
            clusters=4, input_dim=16, output_dim=8, samples_per_cluster=400,
            noise_std=0.5, seed=2,
        )
        data = generate_cluster_task(spec)
        centers = 2.0 * RngState(2).split("centers").generator().normal(size=(4, 16))
        x = np.concatenate([data.x_train, data.x_eval])
        cids = np.concatenate([data.cluster_train, data.cluster_eval])
        for c in range(4):
            sample = x[cids == c]
            dev = np.abs(sample.mean(axis=0) - centers[c])
            assert dev.max() < 3 * spec.noise_std / np.sqrt(len(sample))

    def test_non_finite_data_raise_without_warning(self):
        spec = ClusterTaskSpec(clusters=2, input_dim=4, output_dim=4, samples_per_cluster=10,
                               noise_std=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^noise_std 1e\\+308 makes the task data "
                                                 "non-finite$"):
                generate_cluster_task(spec)

    def test_split_is_90_10_by_stride(self):
        spec = ClusterTaskSpec(
            clusters=2, input_dim=3, output_dim=3, samples_per_cluster=100, seed=1
        )
        data = generate_cluster_task(spec)
        assert data.x_eval.shape[0] == 20
        assert data.x_train.shape[0] == 180


def _noiseless_setup(method="talklora", seed=7, epochs=100, lr=3e-3, dropout=0.0,
                     n=2, talking=True):
    spec = ClusterTaskSpec(
        clusters=1, input_dim=8, output_dim=8, samples_per_cluster=360,
        noise_std=0.0, seed=1,
    )
    data = generate_cluster_task(spec)
    rng = RngState(seed)
    frozen = build_frozen_stack(8, 8, 2, rng)
    cfg = AdapterConfig(
        total_rank=4, experts=n, lora_alpha=8.0, talking_enabled=talking
    )
    stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), rng)
    tc = TrainConfig(
        epochs=epochs, batch_size=32, lr=lr, warmup_steps=100, eval_every=100,
        seed=3, dropout=dropout,
    )
    return data, frozen, stack, tc


class TestTrain:
    def test_zero_lr_keeps_everything_constant(self):
        data, frozen, stack, _ = _noiseless_setup(epochs=3)
        # batch size divides the 324-sample train split: every batch sees the
        # same single repeated sample set, so the loss is bitwise constant
        tc = TrainConfig(epochs=3, batch_size=27, lr=0.0, warmup_steps=10,
                         eval_every=5, seed=3, dropout=0.0)
        before = {h: a.copy() for h, a in stack.named_parameters()}
        log = train(stack, frozen, data, tc, MSE)
        losses = {s.loss for s in log.steps}
        assert len(losses) == 1  # identical loss at every step
        for h, a in stack.named_parameters():
            assert np.array_equal(a, before[h])

    def test_noiseless_task_reaches_mse_threshold(self):
        data, frozen, stack, tc = _noiseless_setup()
        # the threshold is attainable by a plain linear map: least-squares oracle
        w, *_ = np.linalg.lstsq(data.x_train, data.y_train, rcond=None)
        oracle_mse = float(np.mean((data.x_train @ w - data.y_train) ** 2))
        assert oracle_mse < 1e-3
        log = train(stack, frozen, data, tc, MSE)
        assert log.steps[-1].step <= 2000
        assert evaluate(stack, frozen, data, MSE)[0] < 1e-3

    def test_identical_seeds_identical_logs(self):
        logs = []
        for _ in range(2):
            data, frozen, stack, tc = _noiseless_setup(epochs=4, dropout=0.05)
            logs.append(train(stack, frozen, data, tc, MSE))
        for s1, s2 in zip(logs[0].steps, logs[1].steps):
            assert (s1.step, s1.lr, s1.loss) == (s2.step, s2.lr, s2.loss)
        for r1, r2 in zip(logs[0].snapshots, logs[1].snapshots):
            assert r1.eval_loss == r2.eval_loss
            assert np.array_equal(r1.mean_gates, r2.mean_gates)

    def test_never_mutates_frozen_or_dataset(self):
        data, frozen, stack, tc = _noiseless_setup(epochs=3)
        w0s = [fl.w0.copy() for fl in frozen]
        x_before = data.x_train.copy()
        y_before = data.y_train.copy()
        train(stack, frozen, data, tc, MSE)
        for fl, w0 in zip(frozen, w0s):
            assert np.array_equal(fl.w0, w0)
        assert np.array_equal(data.x_train, x_before)
        assert np.array_equal(data.y_train, y_before)

    def test_smoothed_loss_monotone_on_noiseless_task(self):
        data, frozen, stack, tc = _noiseless_setup(epochs=50, dropout=0.0)
        log = train(stack, frozen, data, tc, MSE)
        losses = np.array([s.loss for s in log.steps])
        windows = losses[: len(losses) // 50 * 50].reshape(-1, 50).mean(axis=1)
        assert np.all(np.diff(windows) <= 1e-12)

    def test_one_evaluate_and_forward_per_snapshot(self, monkeypatch):
        data, frozen, stack, tc = _noiseless_setup(epochs=10)  # snapshots at 100, 110
        calls = {"model_forward": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # train snapshots through tasks.evaluate, the function a profiler times
        for name in calls:
            monkeypatch.setattr(tasks, name, counted(name, getattr(tasks, name)))
        log = train(stack, frozen, data, tc, MSE)
        assert [snap.step for snap in log.snapshots] == [100, 110]
        assert calls == {"model_forward": 2, "evaluate": 2}

    def test_divergence_aborts_with_step_index(self):
        data, frozen, stack, tc = _noiseless_setup(epochs=1)
        data.y_train[:] = np.inf
        with pytest.raises(DivergenceError) as exc:
            train(stack, frozen, data, tc, MSE)
        assert exc.value.step == 1
        # an exit-3 class, never read as a rejected input
        assert isinstance(exc.value, NumericalError) and not isinstance(exc.value, ValueError)

    def test_non_finite_eval_loss_aborts_with_step_index(self):
        # the train split is finite, so only the eval forward at the last step,
        # 11 (324 samples in batches of 32), meets a non-finite loss
        data, frozen, stack, tc = _noiseless_setup(epochs=1)
        data.y_eval[:] = np.inf
        with pytest.raises(DivergenceError) as exc:
            train(stack, frozen, data, tc, MSE)
        assert exc.value.step == 11
        assert str(exc.value) == "training diverged (non-finite eval loss) at step 11"

    # B starts at zero and the host's output is bounded, so the first loss is
    # about the targets' square, 1e300 and finite, while the scaling 1e170 times
    # that residual overflows B's first gradient: step 1 by magnitude, at lr and
    # lora_alpha x0.5 and x2, seeds 0-4
    OVERFLOWING = {"noise_std": 1e150, "lora_alpha": 4e170, "lr": 1e-3}

    @staticmethod
    def _overflow_setup(noise_std=0.3, lora_alpha=8.0, **train_fields):
        """The small talklora run of the CLI's diverged-run configs, at seed 0."""
        spec = ClusterTaskSpec(clusters=2, input_dim=8, output_dim=8,
                               samples_per_cluster=40, noise_std=noise_std)
        frozen = build_frozen_stack(8, 8, 2, RngState(0))
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=lora_alpha, spectral_clip_c=1.0)
        stack = build_stack_from_slots("talklora", cfg, frozen_stack_slots(frozen), RngState(0))
        tc = TrainConfig(epochs=5, batch_size=16, warmup_steps=1, eval_every=4, **train_fields)
        return generate_cluster_task(spec), frozen, stack, tc

    def test_overflowing_gradient_aborts_with_step_index(self):
        data, frozen, stack, tc = self._overflow_setup(**self.OVERFLOWING)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(stack, frozen, data, tc, MSE)
        assert exc.value.step == 1
        assert "non-finite parameters" in str(exc.value)

    def test_divergence_warns_nothing(self):
        # the step loop runs under one errstate; the checks name the step
        data, frozen, stack, tc = self._overflow_setup(**self.OVERFLOWING)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                train(stack, frozen, data, tc, MSE)
        assert exc.value.step == 1

    def test_overflowing_update_aborts_with_step_index(self):
        # lr * weight_decay overflows, so the first update is not finite
        data, frozen, stack, tc = self._overflow_setup(lr=1e300, weight_decay=1e10)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(stack, frozen, data, tc, MSE)
        assert exc.value.step == 1
        assert "non-finite parameters" in str(exc.value)

    def test_moelora_single_expert_matches_lora_trajectory(self):
        # family collapse under training, not just forward: bit-identical
        # losses and parameters given identical seeds
        runs = {}
        for method in ("lora", "moelora"):
            data, frozen, stack, tc = _noiseless_setup(
                method=method, epochs=5, dropout=0.05, n=1
            )
            log = train(stack, frozen, data, tc, MSE)
            runs[method] = (log, stack)
        log_l, stack_l = runs["lora"]
        log_m, stack_m = runs["moelora"]
        for s1, s2 in zip(log_l.steps, log_m.steps):
            assert s1.loss == s2.loss
        for slot in stack_l.slots:
            for role in ("A0", "B0"):
                assert np.array_equal(
                    stack_l.parameter(f"{slot.name}.{role}"),
                    stack_m.parameter(f"{slot.name}.{role}"),
                )


def _per_layer_dropout_draws(frozen_layers, batch, p, rng, step):
    """One (batch, d_in) draw per layer, in layer order: the draw pattern one draw replaced."""
    gen = rng.split(f"dropout.step{step}").generator()
    return [
        (gen.uniform(size=(batch, fl.d_in)) >= p) / (1.0 - p) for fl in frozen_layers
    ]


class TestDropoutScales:
    @pytest.mark.parametrize("p", [0.05, 0.5])
    def test_one_draw_equals_per_layer_draws_bitwise(self, p):
        frozen = [FrozenLinear(np.zeros((k, d))) for d, k in ((3, 5), (5, 2), (2, 7), (7, 4))]
        rng = RngState(31)
        for step in (1, 2, 57):
            for batch in (1, 6, 32):
                got = tasks._dropout_scales(frozen, batch, p, rng, step)
                want = _per_layer_dropout_draws(frozen, batch, p, rng, step)
                assert [g.shape for g in got] == [(batch, fl.d_in) for fl in frozen]
                for g, w in zip(got, want):
                    assert g.dtype == np.float64 and np.array_equal(g, w)

    def test_zero_p_returns_none(self):
        frozen = build_frozen_stack(4, 4, 3, RngState(32))
        assert tasks._dropout_scales(frozen, 8, 0.0, RngState(33), 1) is None


class TestEvaluate:
    def _zero_residual_data(self):
        frozen, stack, x, _ = make_setup("talklora", randomize_b=False, batch=30)
        z, _ = model_forward(frozen, stack, x)
        data = ClusterDataset(
            x_train=x[:20], y_train=z[:20], cluster_train=np.zeros(20),
            x_eval=x[20:], y_eval=z[20:], cluster_eval=np.zeros(10),
        )
        return frozen, stack, data

    def test_zero_init_stack_on_frozen_targets(self):
        frozen, stack, data = self._zero_residual_data()
        assert evaluate(stack, frozen, data, MSE)[0] == 0.0

    def test_evaluate_is_pure(self):
        frozen, stack, x, t = make_setup("moelora", batch=20)
        data = ClusterDataset(
            x_train=x[:10], y_train=t[:10], cluster_train=np.zeros(10),
            x_eval=x[10:], y_eval=t[10:], cluster_eval=np.zeros(10),
        )
        first, _ = evaluate(stack, frozen, data, MSE)
        second, _ = evaluate(stack, frozen, data, MSE)
        assert first == second

    @pytest.mark.parametrize("split, run, message", [
        ("train", lambda *args: train(*args, TrainConfig(epochs=1), MSE),
         "^training split is empty$"),
        ("eval", lambda *args: evaluate(*args, MSE), "^eval split is empty$"),
    ], ids=["train", "evaluate"])
    def test_empty_split_rejected(self, split, run, message):
        frozen, stack, data = self._zero_residual_data()
        empty = {f"{name}_{split}": getattr(data, f"{name}_{split}")[:0]
                 for name in ("x", "y", "cluster")}
        with pytest.raises(ValueError, match=message):
            run(stack, frozen, replace(data, **empty))

    def test_matches_hand_computed_mean_on_three_samples(self):
        frozen, stack, x, t = make_setup("talklora", batch=3)
        data = ClusterDataset(
            x_train=x, y_train=t, cluster_train=np.zeros(3),
            x_eval=x, y_eval=t, cluster_eval=np.zeros(3),
        )
        z, _ = model_forward(frozen, stack, x)
        acc = 0.0
        for i in range(3):
            acc += float(np.mean((z[i] - t[i]) ** 2))
        assert evaluate(stack, frozen, data, MSE)[0] == pytest.approx(acc / 3, rel=1e-14)

