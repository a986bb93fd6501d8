import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _setup import balance_setup, geometry_slots
from talklora import linalg
from talklora.adapters import (
    AdapterConfig,
    FrozenLinear,
    LoRAAdapter,
    LowRankError,
    METHODS,
    TalkLoRALayer,
    build_frozen_stack,
    build_stack_from_slots,
    init_lora,
    init_moelora,
    init_talklora,
    layer_layout,
    LayerSlot,
    lora_forward,
    lora_merge,
    moelora_forward,
    router_gates,
    talking_mix,
    talklora_batch_forward,
    talklora_forward,
)
from talklora.analysis import count_params
from talklora.geometry import bundled_geometry
from talklora.linalg import RngState, kaiming_init, softmax


def small_cfg(**kw):
    base = dict(total_rank=4, experts=2, input_dim=8, output_dim=8, lora_alpha=4.0)
    base.update(kw)
    return AdapterConfig(**base)


class TestAdapterConfig:
    def test_expert_rank_and_scaling(self):
        cfg = small_cfg(lora_alpha=16.0)
        assert cfg.expert_rank == 2
        assert cfg.scaling == 4.0

    def test_experts_must_divide_rank(self):
        with pytest.raises(ValueError, match="divide"):
            AdapterConfig(total_rank=4, experts=3, input_dim=8, output_dim=8)

    def test_low_rank_regime_enforced(self):
        with pytest.raises(ValueError, match="low-rank"):
            AdapterConfig(total_rank=16, experts=2, input_dim=8, output_dim=8)

    def test_dims_must_come_together(self):
        with pytest.raises(ValueError):
            AdapterConfig(total_rank=4, experts=2, input_dim=8)


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
        ad = init_lora(cfg, RngState(0))
        assert np.array_equal(ad.b, np.zeros((8, 4)))
        x = RngState(1).generator().normal(size=8)
        assert np.array_equal(lora_forward(layer, ad, x, cfg), x)

    def test_identity_chain(self):
        cfg = AdapterConfig(
            total_rank=2, experts=1, input_dim=2, output_dim=2, lora_alpha=2.0
        )  # alpha/r = 1
        layer = FrozenLinear(np.zeros((2, 2)))
        ad = LoRAAdapter(a=np.eye(2), b=np.eye(2))
        assert np.array_equal(lora_forward(layer, ad, [3.0, 4.0], cfg), [3.0, 4.0])

    def test_against_dense_chain_oracle(self):
        cfg = AdapterConfig(
            total_rank=4, experts=1, input_dim=4, output_dim=4, lora_alpha=8.0
        )
        gen = RngState(2).generator()
        w0 = gen.normal(size=(4, 4))
        layer = FrozenLinear(w0)
        ad = LoRAAdapter(a=gen.normal(size=(4, 4)), b=gen.normal(size=(4, 4)))
        x = gen.normal(size=4)
        oracle = w0 @ x + (cfg.lora_alpha / cfg.total_rank) * (ad.b @ (ad.a @ x))
        assert np.max(np.abs(lora_forward(layer, ad, x, cfg) - oracle)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(np.eye(8))
        ad = init_lora(cfg, RngState(0))
        with pytest.raises(ValueError):
            lora_forward(layer, ad, np.ones(5), cfg)


class TestLoRAMerge:
    def test_zero_b_merge_is_w0(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(RngState(3).generator().normal(size=(8, 8)))
        ad = init_lora(cfg, RngState(3))
        assert np.array_equal(lora_merge(layer, ad, cfg), layer.w0)

    def test_identity_chain_merge(self):
        cfg = AdapterConfig(
            total_rank=2, experts=1, input_dim=2, output_dim=2, lora_alpha=2.0
        )
        layer = FrozenLinear(np.diag([2.0, 3.0]))
        ad = LoRAAdapter(a=np.eye(2), b=np.eye(2))
        assert np.array_equal(lora_merge(layer, ad, cfg), np.diag([3.0, 4.0]))

    def test_merged_matches_forward_on_50_inputs(self):
        cfg = AdapterConfig(
            total_rank=3, experts=1, input_dim=6, output_dim=5, lora_alpha=7.0
        )
        gen = RngState(4).generator()
        layer = FrozenLinear(gen.normal(size=(5, 6)))
        ad = LoRAAdapter(a=gen.normal(size=(3, 6)), b=gen.normal(size=(5, 3)))
        merged = lora_merge(layer, ad, cfg)
        for _ in range(50):
            x = gen.normal(size=6)
            diff = merged @ x - lora_forward(layer, ad, x, cfg)
            assert np.max(np.abs(diff)) < 1e-10


class TestMoELoRAForward:
    def test_zero_init_preserves_output(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(5).generator().normal(size=(8, 8)))
        ml = init_moelora(cfg, RngState(5))
        gen = RngState(6).generator()
        for _ in range(20):
            x = gen.normal(size=8)
            y, trace = moelora_forward(layer, ml, x, cfg)
            assert np.array_equal(y, layer.w0 @ x)
            assert np.array_equal(trace.h_tilde, trace.h)

    def test_single_expert_collapses_to_lora(self):
        cfg = small_cfg(experts=1)
        layer = FrozenLinear(RngState(7).generator().normal(size=(8, 8)))
        rng = RngState(8)
        ml = init_moelora(cfg, rng)
        ad = init_lora(cfg, rng)  # same stream labels => same A draw
        assert np.array_equal(ml.a[0], ad.a)
        gen = RngState(9).generator()
        ml.b[0][:] = gen.normal(size=(8, 4))
        ad.b[:] = ml.b[0]
        x = gen.normal(size=8)
        y_moe, trace = moelora_forward(layer, ml, x, cfg)
        assert trace.gates[0] == 1.0
        assert np.array_equal(y_moe, lora_forward(layer, ad, x, cfg))

    def test_hand_set_two_expert_oracle(self):
        cfg = AdapterConfig(
            total_rank=2, experts=2, input_dim=2, output_dim=2, lora_alpha=2.0
        )
        w0 = np.array([[0.5, -0.25], [1.0, 0.75]])
        layer = FrozenLinear(w0)
        ml = init_moelora(cfg, RngState(10))
        ml.a[0][:] = [[1.0, 2.0]]
        ml.a[1][:] = [[-1.0, 0.5]]
        ml.b[0][:] = [[0.3], [-0.2]]
        ml.b[1][:] = [[0.1], [0.4]]
        ml.router_wg[:] = [[0.2, -0.1], [0.05, 0.3]]
        x = np.array([0.7, -1.2])
        gates = softmax(ml.router_wg @ x)
        expected = w0 @ x + 1.0 * (
            gates[0] * ml.b[0] @ (ml.a[0] @ x) + gates[1] * ml.b[1] @ (ml.a[1] @ x)
        )
        y, trace = moelora_forward(layer, ml, x, cfg)
        assert np.max(np.abs(y - expected)) < 1e-12
        assert np.allclose(trace.gates, gates)


class TestTalkingMix:
    def test_identity_passthrough_is_bit_exact(self):
        gen = RngState(11).generator()
        h = gen.normal(size=(3, 5))
        assert np.array_equal(talking_mix(np.eye(3), h), h)

    def test_diagonal_scaling(self):
        gen = RngState(12).generator()
        h = gen.normal(size=(2, 4))
        out = talking_mix(2.0 * np.eye(2), h)
        assert np.array_equal(out, 2.0 * h)

    def test_against_kronecker_oracle(self):
        gen = RngState(13).generator()
        c = gen.normal(size=(3, 3))
        h = gen.normal(size=(3, 4))
        oracle = (np.kron(c, np.eye(4)) @ h.reshape(-1)).reshape(3, 4)
        assert np.max(np.abs(talking_mix(c, h) - oracle)) < 1e-12

    def test_unstacked_h_rejected(self):
        with pytest.raises(ValueError, match="axis 0"):
            talking_mix(np.eye(2), np.ones(2))

    def test_wrong_c_shape_rejected(self):
        with pytest.raises(ValueError):
            talking_mix(np.eye(2), np.ones((3, 4)))


class TestTalkLoRAForward:
    def test_fresh_init_preserves_output(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(14).generator().normal(size=(8, 8)))
        tl = init_talklora(cfg, RngState(14))
        gen = RngState(15).generator()
        for _ in range(20):
            x = gen.normal(size=8)
            y, trace = talklora_forward(layer, tl, x, cfg)
            assert np.array_equal(y, layer.w0 @ x)
            assert (trace.gates > 0).all()
            assert abs(trace.gates.sum() - 1.0) <= 1e-12

    def test_saturated_router_keeps_gate_invariant(self):
        # float64 softmax underflows to exact zero gates on a large input
        cfg = small_cfg()
        layer = FrozenLinear(RngState(14).generator().normal(size=(8, 8)))
        tl = init_talklora(cfg, RngState(14))
        _, trace = talklora_forward(layer, tl, 1e3 * np.ones(8), cfg)
        assert (trace.gates >= 0).all()
        assert (trace.gates == 0).any()
        assert abs(trace.gates.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("talking", [True, False])
    def test_router_gates_match_batch_forward_bitwise(self, talking):
        cfg = small_cfg(talking_enabled=talking)
        gen = RngState(26).generator()
        tl = init_talklora(cfg, RngState(26))
        tl.b[:] = gen.normal(size=tl.b.shape)
        x = gen.normal(size=(16, 8))
        cache = talklora_batch_forward(gen.normal(size=(8, 8)), tl, x, cfg)
        assert np.array_equal(router_gates(tl, x, talking), cache.gates)

    def test_identity_c_equals_talking_disabled_bitwise(self):
        cfg_on = small_cfg(talking_enabled=True)
        cfg_off = small_cfg(talking_enabled=False)
        layer = FrozenLinear(RngState(16).generator().normal(size=(8, 8)))
        tl = init_talklora(cfg_on, RngState(16))
        gen = RngState(17).generator()
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        tl.c[:] = np.eye(cfg_on.experts)
        for _ in range(20):
            x = gen.normal(size=8)
            y_on, tr_on = talklora_forward(layer, tl, x, cfg_on)
            y_off, tr_off = talklora_forward(layer, tl, x, cfg_off)
            assert np.array_equal(y_on, y_off)
            assert np.array_equal(tr_on.gates, tr_off.gates)
            assert np.array_equal(tr_on.h_tilde, tr_off.h_tilde)

    def test_hand_set_oracle(self):
        cfg = AdapterConfig(
            total_rank=2, experts=2, input_dim=2, output_dim=2, lora_alpha=2.0
        )
        w0 = np.array([[1.0, 0.0], [0.2, -0.5]])
        layer = FrozenLinear(w0)
        tl = init_talklora(cfg, RngState(18))
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
        g = softmax(gate_logits)
        y1 = np.array([0.25, 0.5]) * (1.5 * h1)
        y2 = np.array([-0.4, 0.1]) * (-0.7 * h2)
        expected = w0 @ x + 1.0 * (g[0] * y1 + g[1] * y2)

        y, trace = talklora_forward(layer, tl, x, cfg)
        assert np.max(np.abs(y - expected)) < 1e-12
        assert np.max(np.abs(trace.h_tilde.ravel() - [ht1, ht2])) < 1e-12

    def test_diagonal_c_expert_isolation(self):
        cfg = small_cfg()
        layer = FrozenLinear(RngState(19).generator().normal(size=(8, 8)))
        tl = init_talklora(cfg, RngState(19))
        gen = RngState(20).generator()
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        tl.c[:] = np.diag([0.7, -1.3])
        x = gen.normal(size=8)
        _, before = talklora_forward(layer, tl, x, cfg)
        tl.a[1][:] = tl.a[1] + gen.normal(size=tl.a[1].shape)
        _, after = talklora_forward(layer, tl, x, cfg)
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
        tl = init_talklora(cfg1, RngState(21))
        for b_i in tl.b:
            b_i[:] = gen.normal(size=b_i.shape)
        for _ in range(10):
            x = gen.normal(size=8)
            _, t1 = talklora_forward(layer, tl, x, cfg1)
            _, t2 = talklora_forward(layer, tl, x, cfg2)
            assert np.array_equal(t2.delta, 2.0 * t1.delta)
            assert np.array_equal(t1.gates, t2.gates)


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
        for slot, ad in zip(stack.slots, stack.adapters):
            proj = geom.projection(slot.tag)
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


FORWARDS = {"lora": (init_lora, lora_forward), "moelora": (init_moelora, moelora_forward),
            "talklora": (init_talklora, talklora_forward)}


class TestLayerShapeRule:
    """One rule on a layer's dims, and one shape check of the single-sample API."""

    @pytest.mark.parametrize("method", METHODS)
    def test_adapter_of_other_dims_rejected_naming_the_array(self, method):
        init, forward = FORWARDS[method]
        ad = init(small_cfg(input_dim=16, output_dim=16), RngState(40))
        shape = "(4, 16)" if method == "lora" else "(2, 2, 16)"
        expected = (rf"^{type(ad).__name__}\.a has shape {re.escape(shape)}, but w0 \(8, 8\) "
                    r"at total_rank 4, experts 2 implies")
        with pytest.raises(ValueError, match=expected):
            forward(FrozenLinear(np.eye(8)), ad, np.ones(8), small_cfg(input_dim=None,
                                                                       output_dim=None))

    @pytest.mark.parametrize("method", METHODS)
    def test_each_array_is_checked(self, method):
        init, forward = FORWARDS[method]
        cfg = small_cfg()
        for field in layer_layout(method, cfg, 8, 8):
            ad = init(cfg, RngState(41))
            setattr(ad, field.name, np.zeros(field.shape[:-1] + (field.shape[-1] + 1,)))
            with pytest.raises(ValueError, match=rf"^{type(ad).__name__}\.{field.name} has shape"):
                forward(FrozenLinear(np.eye(8)), ad, np.ones(8), cfg)

    def test_merge_rejects_an_adapter_of_other_dims(self):
        ad = init_lora(small_cfg(experts=1, output_dim=6, input_dim=6), RngState(42))
        with pytest.raises(ValueError, match=r"^LoRAAdapter\.a has shape \(4, 6\)"):
            lora_merge(FrozenLinear(np.eye(8)), ad, small_cfg(experts=1, input_dim=None,
                                                                output_dim=None))

    def test_config_dims_must_match_w0(self):
        cfg = small_cfg(output_dim=6)
        with pytest.raises(ValueError,
                           match=r"config dims \(8, 6\) do not match w0's d_in 8, d_out 8"):
            lora_forward(FrozenLinear(np.eye(8)), init_lora(small_cfg(), RngState(43)),
                         np.ones(8), cfg)

    def test_every_reader_of_the_layout_enforces_the_rank_rule(self):
        cfg = AdapterConfig(total_rank=8, experts=4)
        geom = bundled_geometry("llama3-8b")
        message = (r"^total_rank 8 exceeds min\(d_in, d_out\) = 4 at {} with d_in \d+, d_out \d+ "
                   r"\(low-rank regime\)$")
        with pytest.raises(LowRankError, match=message.format(r"slot L01\.Q")):
            build_stack_from_slots("talklora", cfg, [LayerSlot(0, "Q", 8, 8),
                                                     LayerSlot(1, "Q", 4, 8)], RngState(44))
        with pytest.raises(LowRankError, match=message.format("the config")):
            AdapterConfig(total_rank=8, experts=4, input_dim=4, output_dim=4)
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


class TestZeroInitContractAllFamilies:
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_output_equals_frozen_path(self, method):
        cfg = small_cfg()
        gen = RngState(28).generator()
        layer = FrozenLinear(gen.normal(size=(8, 8)))
        rng = RngState(29)
        if method == "lora":
            ad = init_lora(cfg, rng)
            fwd = lambda x: lora_forward(layer, ad, x, cfg)
        elif method == "moelora":
            ml = init_moelora(cfg, rng)
            fwd = lambda x: moelora_forward(layer, ml, x, cfg)[0]
        else:
            tl = init_talklora(cfg, rng)
            fwd = lambda x: talklora_forward(layer, tl, x, cfg)[0]
        for _ in range(50):
            x = gen.normal(size=8)
            assert np.array_equal(fwd(x), layer.w0 @ x)


FLAT_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "stack-flat-sha256.json").read_text()
)
TWO_TAG_SLOTS = [LayerSlot(0, "Q", 8, 8), LayerSlot(0, "V", 8, 4),
                 LayerSlot(1, "Q", 8, 8), LayerSlot(1, "V", 8, 4)]
FAMILY_CASES = [(m, share_b) for m in ("lora", "moelora", "talklora") for share_b in (True, False)]


def _two_tag_stack(method, share_b):
    cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=share_b)
    return build_stack_from_slots(method, cfg, TWO_TAG_SLOTS, RngState(21))


def _sha256(stack):
    return hashlib.sha256(stack.flat.tobytes()).hexdigest()


class TestInPlaceBuild:
    """Stacks are drawn straight into ``flat``, bit for bit as before.

    ``tests/fixtures/stack-flat-sha256.json`` holds the SHA-256 of ``flat``
    for ``_two_tag_stack(method, share_b)`` (key ``<method>-share_b-<on>``)
    and ``balance_setup(seed)`` (key ``balance-seed<seed>``), written by the
    code that drew each layer's arrays on their own and concatenated them.
    """

    @pytest.mark.parametrize("method,share_b", FAMILY_CASES)
    def test_flat_matches_recorded_digest(self, method, share_b):
        key = f"{method}-share_b-{share_b}".lower()
        assert _sha256(_two_tag_stack(method, share_b)) == FLAT_DIGESTS[key]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_balance_flat_matches_recorded_digest(self, seed):
        assert _sha256(balance_setup(seed)[1]) == FLAT_DIGESTS[f"balance-seed{seed}"]

    @pytest.mark.parametrize("method,share_b", FAMILY_CASES)
    def test_digest_holds_when_every_draw_is_cut_into_chunks(self, monkeypatch, method, share_b):
        monkeypatch.setattr(linalg, "_FILL_CHUNK", 4)
        monkeypatch.setattr(linalg, "_fill_threads", lambda: 3)
        key = f"{method}-share_b-{share_b}".lower()
        assert _sha256(_two_tag_stack(method, share_b)) == FLAT_DIGESTS[key]

    def test_single_layers_draw_as_a_one_slot_stack(self):
        cfg, rng, slot = small_cfg(), RngState(31), LayerSlot(0, "Q", 8, 8)
        for init, method in ((init_lora, "lora"), (init_moelora, "moelora"),
                             (init_talklora, "talklora")):
            layer = init(cfg, rng.split("init.L00.Q"))
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

