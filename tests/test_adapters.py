import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import pins
from _setup import geometry_slots
from talklora import linalg
from talklora.adapters import (
    _c_mix,
    _expert_outputs,
    ADAPTER_FIELDS,
    AdapterConfig,
    AdapterLayer,
    FrozenLinear,
    LowRankError,
    METHODS,
    batch_forward,
    build_frozen_stack,
    build_stack_from_slots,
    forward_one,
    frozen_stack_slots,
    init_layer,
    layer_layout,
    LayerSlot,
    lora_merge,
    router_gates,
)
from talklora.analysis import count_params
from talklora.autodiff import LossSpec, backward
from talklora.geometry import bundled_geometry
from talklora.linalg import RngState, kaiming_init
from talklora.tasks import ClusterTaskSpec, TrainConfig, generate_cluster_task, train


def small_cfg(**kw):
    base = dict(total_rank=4, experts=2, lora_alpha=4.0)
    base.update(kw)
    return AdapterConfig(**base)


class TestAdapterConfig:
    def test_scaling(self):
        cfg = small_cfg(lora_alpha=16.0)
        assert cfg.scaling == 4.0

    def test_fields_are_the_adapter_section(self):
        # a run config's adapter section and a checkpoint header hold exactly these
        assert [f.name for f in fields(AdapterConfig)] == [name for name, _, _ in ADAPTER_FIELDS]

    def test_low_rank_regime_enforced(self):
        with pytest.raises(ValueError, match="low-rank"):
            init_layer("talklora", AdapterConfig(total_rank=16, experts=2), 8, 8, RngState(0))


class TestFrozenLinear:
    def test_weight_is_immutable(self):
        layer = FrozenLinear(np.eye(3))
        with pytest.raises(ValueError):
            layer.w0[0, 0] = 5.0

    def test_read_only_owned_array_is_adopted(self):
        w = np.eye(3)
        w.setflags(write=False)
        assert FrozenLinear(w).w0 is w

    def test_writable_array_is_copied(self):
        w = np.eye(3)
        layer = FrozenLinear(w)
        w[0, 0] = 5.0
        assert layer.w0[0, 0] == 1.0
        assert w.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda base: base[1:],
            lambda base: np.asfortranarray(base),
            lambda base: base.astype(np.float32),
        ],
        ids=["view", "fortran_order", "float32"],
    )
    def test_read_only_array_not_adoptable_is_copied(self, make):
        w = make(np.arange(12.0).reshape(4, 3))
        w.setflags(write=False)
        layer = FrozenLinear(w)
        assert layer.w0.flags.owndata and not layer.w0.flags.writeable
        assert not np.shares_memory(layer.w0, w)
        assert np.array_equal(layer.w0, w)

    def test_read_only_owned_non_finite_rejected(self):
        w = np.eye(3)
        w[1, 2] = np.nan
        w.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            FrozenLinear(w)

    def test_frozen_stack_holds_each_kaiming_draw(self):
        rng = RngState(7)
        layers = build_frozen_stack(6, 4, 3, rng)
        assert [layer.w0.shape for layer in layers] == [(6, 6), (6, 6), (4, 6)]
        for i, layer in enumerate(layers):
            assert layer.w0.flags.owndata and not layer.w0.flags.writeable
            draw = kaiming_init(*layer.w0.shape, rng.split(f"frozen.L{i:02d}"))
            assert layer.w0.tobytes() == draw.tobytes()

    def test_frozen_stack_is_not_copied_at_construction(self):
        # numpy reports its buffers to tracemalloc; a copy per layer would
        # hold a third host-sized matrix at the peak (about 1.5x the weights)
        tracemalloc.start()
        try:
            layers = build_frozen_stack(1024, 1024, 2, RngState(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = sum(layer.w0.nbytes for layer in layers)
        assert peak < 1.25 * weights


class TestLoRAForward:
    def test_fresh_init_preserves_output(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(np.eye(8))
        ad = init_layer("lora", cfg, 8, 8, RngState(0))
        assert np.array_equal(ad.b, np.zeros((1, 8, 4)))
        x = RngState(1).generator().normal(size=8)
        assert np.array_equal(forward_one(layer, ad, x, cfg)[0], x)

    def test_identity_chain(self):
        cfg = AdapterConfig(total_rank=2, experts=1, lora_alpha=2.0)  # alpha/r = 1
        layer = FrozenLinear(np.zeros((2, 2)))
        ad = AdapterLayer(a=np.eye(2)[None], b=np.eye(2)[None])
        assert np.array_equal(forward_one(layer, ad, [3.0, 4.0], cfg)[0], [3.0, 4.0])

    def test_against_dense_chain_oracle(self):
        cfg = AdapterConfig(total_rank=4, experts=1, lora_alpha=8.0)
        gen = RngState(2).generator()
        w0 = gen.normal(size=(4, 4))
        layer = FrozenLinear(w0)
        ad = AdapterLayer(a=gen.normal(size=(1, 4, 4)), b=gen.normal(size=(1, 4, 4)))
        x = gen.normal(size=4)
        oracle = w0 @ x + (cfg.lora_alpha / cfg.total_rank) * (ad.b[0] @ (ad.a[0] @ x))
        assert np.max(np.abs(forward_one(layer, ad, x, cfg)[0] - oracle)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(np.eye(8))
        ad = init_layer("lora", cfg, 8, 8, RngState(0))
        with pytest.raises(ValueError):
            forward_one(layer, ad, np.ones(5), cfg)

    def test_router_gates_rejects_a_routerless_layer(self):
        ad = init_layer("lora", small_cfg(experts=1), 8, 8, RngState(0))
        with pytest.raises(ValueError, match="router_gates needs a gated layer, "
                                             "one that holds router_wg"):
            router_gates(ad, np.ones((2, 8)))


class TestLoRAMerge:
    def test_zero_b_merge_is_w0(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(RngState(3).generator().normal(size=(8, 8)))
        ad = init_layer("lora", cfg, 8, 8, RngState(3))
        assert np.array_equal(lora_merge(layer, ad, cfg), layer.w0)

    def test_identity_chain_merge(self):
        cfg = AdapterConfig(total_rank=2, experts=1, lora_alpha=2.0)
        layer = FrozenLinear(np.diag([2.0, 3.0]))
        ad = AdapterLayer(a=np.eye(2)[None], b=np.eye(2)[None])
        assert np.array_equal(lora_merge(layer, ad, cfg), np.diag([3.0, 4.0]))

    def test_merged_matches_forward_on_50_inputs(self):
        cfg = AdapterConfig(total_rank=3, experts=1, lora_alpha=7.0)
        gen = RngState(4).generator()
        layer = FrozenLinear(gen.normal(size=(5, 6)))
        ad = AdapterLayer(a=gen.normal(size=(1, 3, 6)), b=gen.normal(size=(1, 5, 3)))
        merged = lora_merge(layer, ad, cfg)
        for _ in range(50):
            x = gen.normal(size=6)
            diff = merged @ x - forward_one(layer, ad, x, cfg)[0]
            assert np.max(np.abs(diff)) < 1e-10

    @pytest.mark.parametrize("method", ["moelora", "talklora"])
    def test_merge_refuses_a_gated_layer(self, method):
        cfg = small_cfg()
        with pytest.raises(ValueError, match=r"^lora_merge needs a LoRA layer, one that holds "
                                             r"no router_wg$"):
            lora_merge(FrozenLinear(np.eye(8)), init_layer(method, cfg, 8, 8, RngState(49)), cfg)


class TestMoELoRAForward:
    def test_zero_init_preserves_output(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(5).generator().normal(size=(8, 8)))
        ml = init_layer("moelora", cfg, 8, 8, RngState(5))
        gen = RngState(6).generator()
        for _ in range(20):
            x = gen.normal(size=8)
            y, trace = forward_one(layer, ml, x, cfg)
            assert np.array_equal(y, layer.w0 @ x)
            assert np.array_equal(trace.h_tilde, trace.h)

    def test_single_expert_collapses_to_lora(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(RngState(7).generator().normal(size=(8, 8)))
        rng = RngState(8)
        ml = init_layer("moelora", cfg, 8, 8, rng)
        ad = init_layer("lora", cfg, 8, 8, rng)  # same stream labels => same A draw
        assert np.array_equal(ml.a, ad.a)
        gen = RngState(9).generator()
        ml.b[0][:] = gen.normal(size=(8, 4))
        ad.b[:] = ml.b
        x = gen.normal(size=8)
        y_moe, trace = forward_one(layer, ml, x, cfg)
        assert trace.gates[0] == 1.0
        assert np.array_equal(y_moe, forward_one(layer, ad, x, cfg)[0])

    def test_hand_set_two_expert_oracle(self):
        cfg = AdapterConfig(total_rank=2, experts=2, lora_alpha=2.0)
        w0 = np.array([[0.5, -0.25], [1.0, 0.75]])
        layer = FrozenLinear(w0)
        ml = init_layer("moelora", cfg, 2, 2, RngState(10))
        ml.a[0][:] = [[1.0, 2.0]]
        ml.a[1][:] = [[-1.0, 0.5]]
        ml.b[0][:] = [[0.3], [-0.2]]
        ml.b[1][:] = [[0.1], [0.4]]
        ml.router_wg[:] = [[0.2, -0.1], [0.05, 0.3]]
        x = np.array([0.7, -1.2])
        logits = ml.router_wg @ x
        exps = np.exp(logits - logits.max())
        gates = exps / exps.sum()
        expected = w0 @ x + 1.0 * (
            gates[0] * ml.b[0] @ (ml.a[0] @ x) + gates[1] * ml.b[1] @ (ml.a[1] @ x)
        )
        y, trace = forward_one(layer, ml, x, cfg)
        assert np.max(np.abs(y - expected)) < 1e-12
        assert np.allclose(trace.gates, gates)


class TestTalkingMix:
    def test_identity_passthrough_is_bit_exact(self):
        gen = RngState(11).generator()
        h = gen.normal(size=(3, 5))
        assert np.array_equal(_c_mix(np.eye(3), h), h)

    def test_diagonal_scaling(self):
        gen = RngState(12).generator()
        h = gen.normal(size=(2, 4))
        out = _c_mix(2.0 * np.eye(2), h)
        assert np.array_equal(out, 2.0 * h)

    def test_against_kronecker_oracle(self):
        gen = RngState(13).generator()
        c = gen.normal(size=(3, 3))
        h = gen.normal(size=(3, 4))
        oracle = (np.kron(c, np.eye(4)) @ h.reshape(-1)).reshape(3, 4)
        assert np.max(np.abs(_c_mix(c, h) - oracle)) < 1e-12


class TestTalkLoRAForward:
    def test_fresh_init_preserves_output(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(14).generator().normal(size=(8, 8)))
        tl = init_layer("talklora", cfg, 8, 8, RngState(14))
        gen = RngState(15).generator()
        for _ in range(20):
            x = gen.normal(size=8)
            y, trace = forward_one(layer, tl, x, cfg)
            assert np.array_equal(y, layer.w0 @ x)
            assert (trace.gates > 0).all()
            assert abs(trace.gates.sum() - 1.0) <= 1e-12

    def test_saturated_router_keeps_gate_invariant(self):
        # float64 softmax underflows to exact zero gates on a large input
        cfg = small_cfg()
        layer = FrozenLinear(RngState(14).generator().normal(size=(8, 8)))
        tl = init_layer("talklora", cfg, 8, 8, RngState(14))
        _, trace = forward_one(layer, tl, 1e3 * np.ones(8), cfg)
        assert (trace.gates >= 0).all()
        assert (trace.gates == 0).any()
        assert abs(trace.gates.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("talking", [True, False])
    def test_router_gates_match_batch_forward_bitwise(self, talking):
        cfg = small_cfg(talking_enabled=talking)
        gen = RngState(26).generator()
        tl = init_layer("talklora", cfg, 8, 8, RngState(26))
        tl.b[:] = gen.normal(size=tl.b.shape)
        x = gen.normal(size=(16, 8))
        cache = batch_forward(gen.normal(size=(8, 8)), tl, x, cfg)
        assert np.array_equal(router_gates(tl, x, talking), cache.gates)

    def test_identity_c_equals_talking_disabled_bitwise(self):
        cfg_on = small_cfg(talking_enabled=True)
        cfg_off = small_cfg(talking_enabled=False)
        layer = FrozenLinear(RngState(16).generator().normal(size=(8, 8)))
        tl = init_layer("talklora", cfg_on, 8, 8, RngState(16))
        gen = RngState(17).generator()
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        tl.c[:] = np.eye(cfg_on.experts)
        for _ in range(20):
            x = gen.normal(size=8)
            y_on, tr_on = forward_one(layer, tl, x, cfg_on)
            y_off, tr_off = forward_one(layer, tl, x, cfg_off)
            assert np.array_equal(y_on, y_off)
            assert np.array_equal(tr_on.gates, tr_off.gates)
            assert np.array_equal(tr_on.h_tilde, tr_off.h_tilde)

    def test_hand_set_oracle(self):
        cfg = AdapterConfig(total_rank=2, experts=2, lora_alpha=2.0)
        w0 = np.array([[1.0, 0.0], [0.2, -0.5]])
        layer = FrozenLinear(w0)
        tl = init_layer("talklora", cfg, 2, 2, RngState(18))
        tl.a[0][:] = [[0.6, -0.3]]
        tl.a[1][:] = [[-0.2, 0.9]]
        tl.e[0][:] = [[1.5]]
        tl.e[1][:] = [[-0.7]]
        tl.b[0][:] = [[0.25], [0.5]]
        tl.b[1][:] = [[-0.4], [0.1]]
        tl.c[:] = [[0.8, 0.3], [-0.2, 1.1]]
        tl.router_wg[:] = [[0.5, -0.25], [0.15, 0.45]]
        x = np.array([1.3, -0.4])

        # direct evaluation, scalar by scalar
        h1 = 0.6 * 1.3 + (-0.3) * (-0.4)
        h2 = -0.2 * 1.3 + 0.9 * (-0.4)
        ht1 = 0.8 * h1 + 0.3 * h2
        ht2 = -0.2 * h1 + 1.1 * h2
        gate_logits = np.array(
            [0.5 * ht1 + (-0.25) * ht2, 0.15 * ht1 + 0.45 * ht2]
        )
        exps = np.exp(gate_logits - gate_logits.max())
        g = exps / exps.sum()
        y1 = np.array([0.25, 0.5]) * (1.5 * h1)
        y2 = np.array([-0.4, 0.1]) * (-0.7 * h2)
        expected = w0 @ x + 1.0 * (g[0] * y1 + g[1] * y2)

        y, trace = forward_one(layer, tl, x, cfg)
        assert np.max(np.abs(y - expected)) < 1e-12
        assert np.max(np.abs(trace.h_tilde.ravel() - [ht1, ht2])) < 1e-12

    def test_diagonal_c_expert_isolation(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(19).generator().normal(size=(8, 8)))
        tl = init_layer("talklora", cfg, 8, 8, RngState(19))
        gen = RngState(20).generator()
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        tl.c[:] = np.diag([0.7, -1.3])
        x = gen.normal(size=8)
        _, before = forward_one(layer, tl, x, cfg)
        tl.a[1][:] = tl.a[1] + gen.normal(size=tl.a[1].shape)
        _, after = forward_one(layer, tl, x, cfg)
        # expert 0 untouched: structural zeros keep its path bit-identical
        assert np.array_equal(before.h_tilde[0], after.h_tilde[0])
        assert np.array_equal(before.expert_outputs[0], after.expert_outputs[0])
        # only the gate vector may move (router sees the concatenated input)
        assert not np.array_equal(before.gates, after.gates)

    def test_scale_equivariance_of_delta(self):
        layer = FrozenLinear(RngState(21).generator().normal(size=(8, 8)))
        gen = RngState(22).generator()
        cfg1 = small_cfg(lora_alpha=3.7)
        cfg2 = small_cfg(lora_alpha=7.4)
        tl = init_layer("talklora", cfg1, 8, 8, RngState(21))
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        for _ in range(10):
            x = gen.normal(size=8)
            _, t1 = forward_one(layer, tl, x, cfg1)
            _, t2 = forward_one(layer, tl, x, cfg2)
            assert np.array_equal(t2.delta, 2.0 * t1.delta)
            assert np.array_equal(t1.gates, t2.gates)


class TestMoELoRAGeneralizesLoRA:
    """LoRA is MoELoRA with one expert.  Built from one seed, the two hold
    the same A0/B0 draws; a softmax over one logit is exactly 1, so the
    router neither changes the delta nor receives a gradient, and training
    both gives the same losses and the same A and B bytes."""

    def _trained(self, method):
        rng = RngState(11)
        frozen = build_frozen_stack(8, 8, 2, rng.split("host"))
        cfg = AdapterConfig(total_rank=4, experts=1, lora_alpha=8.0)
        stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), rng.split("init"))
        data = generate_cluster_task(ClusterTaskSpec(clusters=2, input_dim=8, output_dim=8,
                                                     samples_per_cluster=40, seed=12))
        tc = TrainConfig(epochs=4, batch_size=8, lr=1e-2, warmup_steps=5, eval_every=8,
                         dropout=0.05, weight_decay=0.01)
        return frozen, stack, data, train(stack, frozen, data, tc, LossSpec())

    def test_one_expert_moelora_trains_as_lora(self):
        _, lora, _, lora_log = self._trained("lora")
        frozen, moe, data, moe_log = self._trained("moelora")
        assert len(lora_log.steps) >= 24
        assert [s.loss for s in moe_log.steps] == [s.loss for s in lora_log.steps]
        assert all((snap.mean_gates == 1.0).all() for snap in moe_log.snapshots)
        moe_params = dict(moe.named_parameters())
        for handle, arr in lora.named_parameters():
            assert moe_params.pop(handle).tobytes() == arr.tobytes(), handle
        assert sorted(moe_params) == ["L00.8x8.Wg", "L01.8x8.Wg"]
        gen = RngState(13).generator()
        x, y = data.x_train[:16], data.y_train[:16]
        scales = [(gen.uniform(size=x.shape) >= 0.05) / 0.95 for _ in frozen]
        views = moe.views(backward(moe, frozen, (x, y), LossSpec(), scales)[1])
        assert not any(views[handle].any() for handle in moe_params)


class TestTalkLoRAGeneralizesMoELoRA:
    """TalkLoRA with C = I and E = I is MoELoRA with its router confined to
    rowspace(A_stack), where A_stack is the (r, d) stack of the A_i: the
    TalkLoRA router W_g acts on [h_1, ..., h_n] = A_stack x, so it is the
    MoELoRA router W_g A_stack.  A generic (n, d) MoELoRA router is not."""

    D, K, R, N = 16, 12, 8, 4
    EPS = np.finfo(np.float64).eps

    def _pair(self, seed):
        """A TalkLoRA layer with C = I, E = I and random B; the stacked A; a
        frozen weight; 200 inputs."""
        cfg = AdapterConfig(total_rank=self.R, experts=self.N)
        gen = RngState(seed).generator()
        tl = init_layer("talklora", cfg, self.D, self.K, RngState(seed))
        tl.b[:] = gen.normal(size=tl.b.shape)
        tl.c[:] = np.eye(self.N)
        tl.e[:] = np.eye(self.R // self.N)
        w0, x = gen.normal(size=(self.K, self.D)), gen.normal(size=(200, self.D))
        return cfg, tl, tl.a.reshape(self.R, self.D), w0, x, gen

    @staticmethod
    def _gap(tl_cache, ml_cache):
        """Largest relative difference of the adapter outputs and of the gates."""
        return max(np.abs(tl_cache.delta - ml_cache.delta).max() / np.abs(ml_cache.delta).max(),
                   np.abs(tl_cache.gates - ml_cache.gates).max())

    def test_identity_talklora_is_moelora_with_router_wg_a_stack(self):
        cfg, tl, a_stack, w0, x, _ = self._pair(seed=3)
        ml = AdapterLayer(a=tl.a, b=tl.b, router_wg=tl.router_wg @ a_stack)
        gap = self._gap(batch_forward(w0, tl, x, cfg), batch_forward(w0, ml, x, cfg))
        assert gap < 32 * self.EPS  # the two logit products associate differently

    def test_rowspace_moelora_is_talklora_with_router_wg_pinv(self):
        cfg, tl, a_stack, w0, x, gen = self._pair(seed=4)
        ml = AdapterLayer(a=tl.a, b=tl.b, router_wg=gen.normal(size=(self.N, self.R)) @ a_stack)
        tl.router_wg[:] = ml.router_wg @ np.linalg.pinv(a_stack)
        gap = self._gap(batch_forward(w0, tl, x, cfg), batch_forward(w0, ml, x, cfg))
        assert gap < 64 * np.linalg.cond(a_stack) * self.EPS

    def test_generic_router_leaves_a_residual_outside_the_rowspace(self):
        cfg, tl, a_stack, w0, x, gen = self._pair(seed=5)
        ml = AdapterLayer(a=tl.a, b=tl.b, router_wg=gen.normal(size=(self.N, self.D)))
        tl.router_wg[:] = ml.router_wg @ np.linalg.pinv(a_stack)  # its nearest TalkLoRA router
        residual = ml.router_wg - tl.router_wg @ a_stack
        assert np.linalg.norm(residual) / np.linalg.norm(ml.router_wg) > 0.1
        gap = self._gap(batch_forward(w0, tl, x, cfg), batch_forward(w0, ml, x, cfg))
        assert gap > 1e-3


class TestBuildAdapterStack:
    def test_shared_b_aliases_one_store_entry(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(1, "Q", 8, 8)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(23))
        first, second = stack.adapters
        assert first.b is second.b
        # one gradient update is visible everywhere
        first.b[0][0, 0] = 42.0
        assert second.b[0][0, 0] == 42.0

    @pytest.mark.parametrize(
        "method,share_b",
        [("lora", True), ("moelora", True), ("talklora", True), ("talklora", False)],
    )
    def test_every_parameter_is_a_view_of_the_buffer(self, method, share_b):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=share_b)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(0, "V", 8, 4), LayerSlot(1, "Q", 8, 8)]
        stack = build_stack_from_slots(method, cfg, slots, RngState(25))
        for handle, arr in stack.named_parameters():
            assert np.shares_memory(arr, stack.flat), handle
        for ad, ranges in zip(stack.adapters, stack.ranges):
            for name, span in ranges.items():
                assert np.shares_memory(getattr(ad, name), stack.flat[span]), name
        # handle order is buffer order
        params = np.concatenate([a.ravel() for _, a in stack.named_parameters()])
        assert params.tobytes() == stack.flat.tobytes()
        assert stack.flat.flags.c_contiguous and stack.flat.dtype == np.float64

    @pytest.mark.parametrize("build, message", [
        (lambda: build_stack_from_slots("lora", small_cfg(), [], RngState(0)),
         "^at least one slot is required$"),
        (lambda: build_frozen_stack(8, 8, 0, RngState(0)), "^depth must be positive, got 0$"),
    ], ids=["stack_without_slots", "host_of_depth_0"])
    def test_construction_input_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_shared_b_of_clashing_shapes_named_in_error(self):
        # one B per tag: a later slot of the tag may not imply another shape
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(1, "Q", 8, 6)]
        expected = (
            r"slot L01\.Q \(d_in 8, d_out 6\) implies shared\.Q\.B0 \(6, 2\), "
            r"which an earlier slot gave shape \(8, 2\)"
        )
        with pytest.raises(ValueError, match=expected):
            build_stack_from_slots("talklora", cfg, slots, RngState(26))

    def test_unshared_b_stays_private(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=False)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(1, "Q", 8, 8)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(24))
        first, second = stack.adapters
        first.b[0][0, 0] = 42.0
        assert second.b[0][0, 0] == 0.0

    def test_llama3_geometry_shape_audit(self):
        geom = bundled_geometry("llama3-8b")
        cfg = AdapterConfig(total_rank=8, experts=4, lora_alpha=16.0, share_b=True)
        stack = build_stack_from_slots(
            "talklora", cfg, geometry_slots(geom, {"Q", "K", "V", "Up", "Down"}), RngState(25)
        )
        assert len(stack.slots) == 32 * 5
        projections = {p.tag: p for p in geom.projections}
        for slot, ad in zip(stack.slots, stack.adapters):
            proj = projections[slot.tag]
            for a_i in ad.a:
                assert a_i.shape == (2, proj.d_in)
            for e_i in ad.e:
                assert e_i.shape == (2, 2)
            for b_i in ad.b:
                assert b_i.shape == (proj.d_out, 2)
            assert ad.c.shape == (4, 4)
            assert ad.router_wg.shape == (4, 8)

    def test_build_is_deterministic(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(1, "Q", 8, 8)]
        s1 = build_stack_from_slots("talklora", cfg, slots, RngState(26))
        s2 = build_stack_from_slots("talklora", cfg, slots, RngState(26))
        for (h1, p1), (h2, p2) in zip(s1.named_parameters(), s2.named_parameters()):
            assert h1 == h2
            assert np.array_equal(p1, p2)

    def test_shared_handles_appear_once(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
        slots = [LayerSlot(i, "Q", 8, 8) for i in range(3)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(27))
        handles = stack.handles
        assert len(handles) == len(set(handles))
        shared = [h for h in handles if h.startswith("shared.")]
        assert sorted(shared) == ["shared.Q.B0", "shared.Q.B1"]


class TestLayerShapeRule:
    """One rule on a layer's dims, and the single-sample API: one shape check
    of a layer under the family its arrays imply, then the batched forward."""

    @pytest.mark.parametrize("method", METHODS)
    def test_adapter_of_other_dims_rejected_naming_the_array(self, method):
        ad = init_layer(method, small_cfg(), 16, 16, RngState(40))
        shape, implied = ("(1, 4, 16)", "(1, 4, 8)") if method == "lora" else ("(2, 2, 16)",
                                                                              "(2, 2, 8)")
        expected = (rf"^{method} layer's a has shape {re.escape(shape)}, but w0 \(8, 8\) "
                    rf"at total_rank 4, experts 2 implies {re.escape(implied)}$")
        with pytest.raises(ValueError, match=expected):
            forward_one(FrozenLinear(np.eye(8)), ad, np.ones(8), small_cfg())

    @pytest.mark.parametrize("method", METHODS)
    def test_each_array_is_checked(self, method):
        cfg = small_cfg()
        for field in layer_layout(method, cfg, 8, 8):
            ad = init_layer(method, cfg, 8, 8, RngState(41))
            held = field.shape[:-1] + (field.shape[-1] + 1,)
            setattr(ad, field.name, np.zeros(held))
            expected = (rf"^{method} layer's {field.name} has shape {re.escape(str(held))}, "
                        rf"but .* implies {re.escape(str(field.shape))}$")
            with pytest.raises(ValueError, match=expected):
                forward_one(FrozenLinear(np.eye(8)), ad, np.ones(8), cfg)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_each_non_finite_array_is_rejected_naming_it(self, method, bad):
        cfg = small_cfg()
        for field in layer_layout(method, cfg, 8, 8):
            ad = init_layer(method, cfg, 8, 8, RngState(42))
            getattr(ad, field.name).flat[-1] = bad
            with pytest.raises(ValueError, match=rf"^{method} layer's {field.name} contains "
                                                 "non-finite entries$"):
                forward_one(FrozenLinear(np.eye(8)), ad, np.ones(8), cfg)

    @pytest.mark.parametrize("held, experts, name, array, message", [
        ("talklora", 2, "e", None, r"^talklora layer's e is None, but .* implies \(2, 4, 4\)$"),
        ("moelora", 2, "e", np.zeros((2, 4, 4)),
         r"^moelora layer's e has shape \(2, 4, 4\), but .* implies None$"),
        ("lora", 1, "c", np.zeros((1, 1)),
         r"^talklora layer's router_wg is None, but .* implies \(1, 8\)$"),
    ], ids=["talklora_without_e", "moelora_with_e", "lora_with_c"])
    def test_a_malformed_layer_is_named_by_the_family_its_arrays_imply(self, held, experts, name,
                                                                       array, message):
        # C makes a layer TalkLoRA, else a router makes it MoELoRA: a missing
        # or stray array is reported against that family's layout
        cfg = small_cfg(total_rank=8, experts=experts)
        ad = init_layer(held, cfg, 8, 8, RngState(47))
        setattr(ad, name, array)
        with pytest.raises(ValueError, match=message):
            forward_one(FrozenLinear(np.eye(8)), ad, np.ones(8), cfg)

    @pytest.mark.parametrize("talking", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_forward_one_is_row_0_of_batch_forward(self, method, talking):
        cfg = small_cfg(talking_enabled=talking)
        gen = RngState(48).generator()
        ad = init_layer(method, cfg, 8, 8, RngState(48))
        ad.b[:] = gen.normal(size=ad.b.shape)
        layer, x = FrozenLinear(gen.normal(size=(8, 8))), gen.normal(size=8)
        y, trace = forward_one(layer, ad, x, cfg)
        cache = batch_forward(layer.w0, ad, x[None, :], cfg)
        h_tilde = cache.h if method != "talklora" else cache.router_in.reshape(cache.h.shape)
        assert y.tobytes() == cache.z[0].tobytes()
        assert trace.h.tobytes() == cache.h[:, 0].tobytes()
        assert trace.h_tilde.tobytes() == h_tilde[:, 0].tobytes()
        assert trace.expert_outputs.tobytes() == (
            _expert_outputs(ad, cache.h, cache.p)[:, 0].tobytes())
        assert trace.delta.tobytes() == cache.delta[0].tobytes()
        # delta mixes the experts in rank space: scaling (U_g @ B_cat^T), with
        # U_g = [g_1 u_1 ... g_n u_n] and B_cat = [B_1 ... B_n], bit for bit
        if method == "lora":
            assert trace.gates is None
            gates = np.ones(1)
        else:
            assert trace.gates.tobytes() == cache.gates[0].tobytes()
            gates = trace.gates
        u = (cache.h if cache.p is None else cache.p)[:, 0]  # (n, r_e): what B_i multiplies
        ug = (gates[:, None] * u).reshape(1, -1)
        b_cat = np.concatenate(list(ad.b), axis=1)
        assert ((ug @ b_cat.T)[0] * cfg.scaling).tobytes() == trace.delta.tobytes()
        # and equals the gated sum of the trace's expert outputs to rounding:
        # each side sums the r products g_i u_ij B_i[:, j] in its own order
        mixed = (gates[:, None] * trace.expert_outputs).sum(axis=0) * cfg.scaling
        magnitude = cfg.scaling * (np.abs(ug) @ np.abs(b_cat).T)[0]
        bound = 2 * (ug.size + 1) * np.finfo(float).eps * magnitude
        assert (np.abs(mixed - trace.delta) <= bound).all()

    def test_merge_rejects_an_adapter_of_other_dims(self):
        ad = init_layer("lora", small_cfg(experts=1), 6, 6, RngState(42))
        with pytest.raises(ValueError, match=r"^lora layer's a has shape \(1, 4, 6\), but w0 "
                                             r"\(8, 8\) at total_rank 4, experts 1 implies "
                                             r"\(1, 4, 8\)$"):
            lora_merge(FrozenLinear(np.eye(8)), ad, small_cfg(experts=1))

    def test_experts_must_divide_rank(self):
        # the config takes it, since LoRA ignores experts; a gated layout rejects it
        cfg = AdapterConfig(total_rank=6, experts=4)
        assert [field.shape for field in layer_layout("lora", cfg, 8, 8)] == [(1, 6, 8), (1, 8, 6)]
        for method in ("moelora", "talklora"):
            with pytest.raises(LowRankError,
                               match=r"^experts \(4\) must divide total_rank \(6\) at the layer$"):
                layer_layout(method, cfg, 8, 8)

    def test_every_reader_of_the_layout_enforces_the_rank_rule(self):
        cfg = AdapterConfig(total_rank=8, experts=4)
        geom = bundled_geometry("llama3-8b")
        message = (r"^total_rank 8 exceeds min\(d_in, d_out\) = 4 at {} with d_in \d+, d_out \d+ "
                   r"\(low-rank regime\)$")
        with pytest.raises(LowRankError, match=message.format(r"slot L01\.Q")):
            build_stack_from_slots("talklora", cfg, [LayerSlot(0, "Q", 8, 8),
                                                     LayerSlot(1, "Q", 4, 8)], RngState(44))
        with pytest.raises(LowRankError, match=message.format(r"slot L00\.layer")):
            init_layer("talklora", AdapterConfig(total_rank=8, experts=4), 4, 4, RngState(44))
        with pytest.raises(LowRankError, match=message.format("the layer")):
            layer_layout("moelora", cfg, 8, 4)
        big = AdapterConfig(total_rank=2048, experts=4)
        with pytest.raises(LowRankError, match=r"at target K with d_in 4096, d_out 1024"):
            count_params(geom, "lora", big, ["Q", "K"])

    @pytest.mark.parametrize("dims", [(0, 8), (8, 0), (-1, -1)])
    def test_slot_dims_must_be_positive(self, dims):
        with pytest.raises(ValueError,
                           match=rf"^slot L00\.Q needs positive dims, got d_in {dims[0]}"):
            build_stack_from_slots("lora", AdapterConfig(total_rank=1), [LayerSlot(0, "Q", *dims)],
                                   RngState(45))

    def test_every_slot_reads_the_stack_config(self):
        cfg = AdapterConfig(total_rank=4, experts=2)
        slots = [LayerSlot(0, "Q", 8, 8), LayerSlot(0, "V", 8, 4)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(46))
        assert stack.slot_cfg(0) is stack.slot_cfg(1) is stack.cfg is cfg

    @pytest.mark.parametrize("method", METHODS)
    def test_each_stack_layer_runs_alone_under_the_stack_config(self, method):
        # w0 is a layer's one source of dims: the stack's own layer and config
        # pass the single-sample check at every slot, square or not
        cfg = small_cfg()
        frozen = build_frozen_stack(16, 6, 2, RngState(49))
        stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), RngState(50))
        x = RngState(51).generator().normal(size=16)
        for layer, ad in zip(frozen, stack.adapters):
            y, _ = forward_one(layer, ad, x, stack.cfg)
            assert y.tobytes() == batch_forward(layer.w0, ad, x[None, :], stack.cfg).z[0].tobytes()
            x = np.tanh(y)


class TestZeroInitContractAllFamilies:
    @pytest.mark.parametrize("method", METHODS)
    def test_output_equals_frozen_path(self, method):
        cfg = small_cfg()
        gen = RngState(28).generator()
        layer = FrozenLinear(gen.normal(size=(8, 8)))
        ad = init_layer(method, cfg, 8, 8, RngState(29))
        for _ in range(50):
            x = gen.normal(size=8)
            assert np.array_equal(forward_one(layer, ad, x, cfg)[0], layer.w0 @ x)


class TestInPlaceBuild:
    """Stacks are drawn straight into ``flat``, bit for bit as before.

    The pins ``flat/<method>-share_b-<on>`` and ``flat/balance-seed<seed>``
    of ``tests/pins.py`` hold the SHA-256 of ``flat`` for
    ``two_tag_stack(method, share_b)`` and ``balance_setup(seed)``, first
    recorded by the code that drew each layer's arrays on their own and
    concatenated them.
    """

    @pytest.mark.parametrize("key", list(pins.flat_pins()))
    def test_flat_matches_recorded_digest(self, key):
        pins.assert_pinned(key)

    @pytest.mark.parametrize("key", [key for key in pins.flat_pins() if "share_b" in key])
    def test_digest_holds_when_every_draw_is_cut_into_chunks(self, monkeypatch, key):
        monkeypatch.setattr(linalg, "_FILL_CHUNK", 4)
        monkeypatch.setattr(linalg, "_fill_threads", lambda: 3)
        pins.assert_pinned(key)

    def test_single_layers_draw_as_a_one_slot_stack(self):
        cfg, rng, slot = small_cfg(), RngState(31), LayerSlot(0, "Q", 8, 8)
        for method in METHODS:
            layer = init_layer(method, cfg, 8, 8, rng.split("init.L00.Q"))
            (built,) = build_stack_from_slots(method, cfg, [slot], rng).adapters
            for field in layer_layout(method, cfg, 8, 8):
                assert getattr(layer, field.name).tobytes() == getattr(built, field.name).tobytes()

    def test_build_allocates_only_flat(self):
        cfg = AdapterConfig(total_rank=16, experts=4, share_b=True)
        slots = [LayerSlot(i, "Q", 4096, 4096) for i in range(2)]
        build_stack_from_slots("talklora", cfg, slots, RngState(32))  # warm imports
        tracemalloc.start()
        try:
            stack = build_stack_from_slots("talklora", cfg, slots, RngState(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack.flat.nbytes + 64 * 1024

    def test_bad_later_slot_rejected_before_flat_is_allocated(self):
        cfg = AdapterConfig(total_rank=16, experts=4)
        slots = [LayerSlot(0, "Q", 4096, 4096), LayerSlot(0, "V", 8, 4096)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="total_rank 16 exceeds min"):
                build_stack_from_slots("talklora", cfg, slots, RngState(33))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_multi_chunk_draw_lands_in_flat(self):
        # one A of 2 * 2^20 + 3 doubles: cut across the CPUs this process may
        # run on, or drawn on the calling thread when pinned to one
        d_in = (2 << 20) + 3
        rng = RngState(34)
        stack = build_stack_from_slots(
            "lora", AdapterConfig(total_rank=1), [LayerSlot(0, "W", d_in, 1)], rng
        )
        seed = rng.split("init.L00.W").split("A0").seed
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        bound = np.sqrt(6.0 / d_in)
        assert stack.adapters[0].a.tobytes() == gen.uniform(-bound, bound, (1, d_in)).tobytes()
        assert not stack.adapters[0].b.any()

