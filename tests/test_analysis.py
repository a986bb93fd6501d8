import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _setup import geometry_slots, make_setup, near_degenerate_c
from talklora.adapters import (
    _c_mix,
    AdapterConfig,
    FrozenLinear,
    LayerSlot,
    build_stack_from_slots,
    init_layer,
    router_gates,
)
from talklora.analysis import (
    STABILITY_BLOCK,
    communication_heatmap,
    count_params,
    degeneracy_check,
    nonexpansive_audit,
    routing_load,
    shannon_entropy,
    stability_certificate,
)
from talklora.autodiff import apply_spectral_clip
from talklora.geometry import ModelGeometry, Projection, bundled_geometry
from talklora.linalg import RngState, spectral_norm

TOY_GEOM = ModelGeometry(
    name="toy", total_params=10_000, layers=2,
    projections=(Projection("X", 8, 8),),
)


def _handle_role(handle: str) -> str:
    token = handle.rsplit(".", 1)[-1]
    if token in ("C", "Wg"):
        return token
    return token[0]  # A3 -> A, B0 -> B, E1 -> E


class TestCountParams:
    def test_toy_talklora_budget_136(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
        budget = count_params(TOY_GEOM, "talklora", cfg, {"X"})
        # per layer 4*8 + 8 + 4 + 8 = 52; two layers + shared B 8*4 = 32
        assert budget.trainable == 136
        assert budget.breakdown == {"A": 64, "E": 16, "C": 8, "Wg": 16, "B": 32}
        assert budget.percent == pytest.approx(1.36)

    def test_budget_reconciles_with_allocation_walk_toy(self):
        for method in ("lora", "moelora", "talklora"):
            for share in (True, False):
                cfg = AdapterConfig(
                    total_rank=4, experts=2, lora_alpha=8.0, share_b=share
                )
                budget = count_params(TOY_GEOM, method, cfg, {"X"})
                stack = build_stack_from_slots(
                    method, cfg, geometry_slots(TOY_GEOM, {"X"}), RngState(0)
                )
                assert budget.trainable == stack.flat.size
                walked: dict = {}
                for handle, arr in stack.named_parameters():
                    role = _handle_role(handle)
                    walked[role] = walked.get(role, 0) + arr.size
                assert walked == budget.breakdown

    def test_budget_reconciles_with_allocation_walk_llama3(self):
        geom = bundled_geometry("llama3-8b")
        cfg = AdapterConfig(total_rank=16, experts=4, lora_alpha=16.0, share_b=True)
        budget = count_params(geom, "talklora", cfg, {"Q", "K", "V", "Up", "Down"})
        stack = build_stack_from_slots(
            "talklora", cfg, geometry_slots(geom, {"Q", "K", "V", "Up", "Down"}), RngState(1)
        )
        assert budget.trainable == stack.flat.size

    @pytest.mark.parametrize(
        "geometry,method,rank,experts,share,expected",
        [
            ("llama3-8b", "lora", 32, 1, True, 0.7),
            ("llama3-8b", "talklora", 32, 4, True, 0.4),
            ("llama3-8b", "talklora", 16, 4, True, 0.2),
            ("llama2-7b", "lora", 32, 1, True, 0.8),
            ("qwen2.5-7b", "talklora", 16, 4, True, 0.2),
        ],
    )
    def test_published_budget_column(self, geometry, method, rank, experts, share, expected):
        geom = bundled_geometry(geometry)
        cfg = AdapterConfig(
            total_rank=rank, experts=experts, lora_alpha=float(rank), share_b=share
        )
        budget = count_params(geom, method, cfg, {"Q", "K", "V", "Up", "Down"})
        assert abs(budget.percent - expected) <= 0.05

    def test_talklora_halves_lora_budget_at_equal_rank(self):
        geom = bundled_geometry("llama3-8b")
        targets = {"Q", "K", "V", "Up", "Down"}
        lora = count_params(
            geom, "lora", AdapterConfig(total_rank=32, experts=1), targets
        )
        talk = count_params(
            geom, "talklora", AdapterConfig(total_rank=32, experts=4), targets
        )
        assert talk.percent / lora.percent == pytest.approx(0.57, abs=0.02)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            count_params(TOY_GEOM, "adapterfusion", AdapterConfig(total_rank=4), {"X"})

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            count_params(TOY_GEOM, "lora", AdapterConfig(total_rank=4), {"Y"})

    @pytest.mark.parametrize("targets, message", [
        ([], r"^targets must be nonempty$"),
        (["X", "X"], r"^targets repeats 'X'$"),
        ("X", r"^targets must be a collection of tags, got 'X'$"),
    ], ids=["empty", "repeated", "string"])
    def test_empty_or_repeated_targets_rejected(self, targets, message):
        with pytest.raises(ValueError, match=message):
            count_params(TOY_GEOM, "lora", AdapterConfig(total_rank=4), targets)

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_rank_no_stack_could_hold_rejected(self, method):
        # K of llama3-8b maps 4096 -> 1024: a build or a load rejects rank 8192 there
        with pytest.raises(ValueError, match=r"total_rank 8192 exceeds min\(d_in, d_out\) = 1024 "
                                             r"at target K with d_in 4096, d_out 1024"):
            count_params(bundled_geometry("llama3-8b"), method,
                         AdapterConfig(total_rank=8192, experts=4), ["K"])


def _layer(seed=0, d=12, r=4, n=2, clip=None):
    cfg = AdapterConfig(total_rank=r, experts=n, lora_alpha=8.0, spectral_clip_c=clip)
    return init_layer("talklora", cfg, d, d, RngState(seed)), cfg


class TestBundledGeometry:
    @pytest.mark.parametrize("name", ["../fixtures/llama3-8b", "llama3-8b.json", "llama3",
                                      "../../../../probe/outside", ""])
    def test_any_other_string_raises_key_error(self, name):
        with pytest.raises(KeyError, match="no bundled geometry"):
            bundled_geometry(name)


class TestStabilityCertificate:
    def test_zero_perturbation_observes_zero(self):
        tl, _ = _layer()
        cert = stability_certificate(tl, trials=64, delta_scale=0.0, rng=RngState(1))
        assert cert.max_observed_ratio == 0.0
        assert cert.bound >= 0.0

    def test_zero_router_gives_constant_gates(self):
        tl, _ = _layer(seed=2)
        tl.router_wg[:] = 0.0
        cert = stability_certificate(tl, trials=128, delta_scale=0.5, rng=RngState(2))
        assert cert.beta == 0.0
        assert cert.max_observed_ratio == 0.0
        assert cert.verdict == (cert.c_norm <= 1.0 + 1e-9)

    def test_clipped_layer_never_violates_bound(self):
        tl, _ = _layer(seed=3)
        sigma = spectral_norm(tl.c)
        if sigma > 1.0:
            tl.c *= 1.0 / sigma
        cert = stability_certificate(tl, trials=1000, delta_scale=0.1, rng=RngState(3))
        assert cert.c_norm <= 1.0 + 1e-9
        assert cert.max_observed_ratio <= cert.bound * (1 + 1e-9)
        assert cert.verdict

    def test_inflated_c_invalidates_verdict(self):
        tl, _ = _layer(seed=4)
        tl.c *= 10.0
        cert = stability_certificate(tl, trials=16, delta_scale=0.1, rng=RngState(4))
        assert cert.c_norm > 1.0
        assert not cert.verdict

    @pytest.mark.parametrize("talking", [True, False], ids=["talking", "ablated"])
    @pytest.mark.parametrize(
        "trials", [1, STABILITY_BLOCK - 1, STABILITY_BLOCK, STABILITY_BLOCK + 1, 10_000]
    )
    def test_blocked_trials_equal_one_shot_evaluation(self, trials, talking):
        tl, _ = _layer(seed=8)
        tl.c[:] = 1.5 * RngState(9).generator().normal(size=tl.c.shape)
        tl.router_wg *= 3.0
        cert = stability_certificate(tl, trials, 0.1, RngState(10), talking)
        # every trial row through the router at once, from the same draws
        gen = RngState(10).generator()
        x = gen.normal(size=(trials, tl.a.shape[2]))
        dx = 0.1 * gen.normal(size=(trials, tl.a.shape[2]))
        g0 = router_gates(tl, x, talking)
        g1 = router_gates(tl, x + dx, talking)
        ratios = np.linalg.norm(g1 - g0, axis=1) / np.linalg.norm(dx, axis=1)
        assert cert.trials == trials
        assert cert.max_observed_ratio == float(ratios.max())
        assert cert.max_observed_ratio > 0.0

    @pytest.mark.parametrize(
        "trials, seed",
        [(STABILITY_BLOCK + 1, 2170), (STABILITY_BLOCK + 76, 124)],
        ids=["one_row_tail", "unaligned_split"],
    )
    def test_blocked_trials_equal_one_shot_at_expert_rank_one(self, trials, seed):
        # At r_e = 1 the C-mix is C times an (n, rows) matrix, and BLAS may
        # round a row differently when it is alone (matrix-vector path) or
        # sits at another offset from the kernel's unroll.  Each seed puts
        # the largest ratio on such a row: 2170 on the last of 1025 rows,
        # which a block of its own misses; 124 on a row that blocks split
        # at row 550 instead of 1024 would move.
        tl, _ = _layer(seed=seed, r=2, n=2)
        tl.c[:] = 1.5 * RngState(seed).split("c").generator().normal(size=tl.c.shape)
        tl.router_wg *= 3.0
        rng = RngState(seed).split("trials")
        cert = stability_certificate(tl, trials, 0.1, rng)
        gen = rng.generator()
        x = gen.normal(size=(trials, tl.a.shape[2]))
        dx = 0.1 * gen.normal(size=(trials, tl.a.shape[2]))
        g0, g1 = router_gates(tl, x), router_gates(tl, x + dx)
        ratios = np.linalg.norm(g1 - g0, axis=1) / np.linalg.norm(dx, axis=1)
        assert cert.max_observed_ratio == float(ratios.max())

    @pytest.mark.parametrize("seed", [6, 7])
    def test_bound_any_c_holds_on_unclipped_layer(self, seed):
        tl, _ = _layer(seed=seed)
        tl.c[:] = 2.5 * RngState(seed).generator().normal(size=tl.c.shape)
        tl.router_wg *= 5.0  # sharper gates probe the softmax Jacobian harder
        cert = stability_certificate(tl, trials=2000, delta_scale=0.05, rng=RngState(seed))
        assert cert.c_norm > 1.0
        assert not cert.verdict
        assert cert.bound_any_c == 0.5 * cert.alpha * cert.beta * cert.c_norm
        assert 0.0 < cert.max_observed_ratio <= cert.bound_any_c * (1 + 1e-9)

    def test_bound_any_c_with_talking_off(self):
        tl, _ = _layer(seed=8)
        tl.c *= 10.0  # ignored: without talking the operator is the identity
        tl.router_wg *= 5.0
        cert = stability_certificate(
            tl, trials=2000, delta_scale=0.05, rng=RngState(8), talking_enabled=False
        )
        assert cert.c_norm == 1.0
        assert cert.bound_any_c == 0.5 * cert.bound
        assert 0.0 < cert.max_observed_ratio <= cert.bound_any_c * (1 + 1e-9)

    @pytest.mark.parametrize("talking", [True, False])
    def test_moelora_layer_rejected(self, talking):
        # the proof needs g = softmax(W_g (C kron I) A x), and a MoELoRA router
        # reads x itself: with talking off the bound would not hold for it
        cfg = AdapterConfig(total_rank=8, experts=4)
        ml = init_layer("moelora", cfg, 16, 16, RngState(9))
        with pytest.raises(ValueError, match=r"^stability_certificate needs a TalkLoRA layer"):
            stability_certificate(ml, trials=16, delta_scale=0.1, rng=RngState(9),
                                  talking_enabled=talking)

    @pytest.mark.parametrize("trials, delta_scale, message", [
        (0, 0.1, r"^trials must be at least 1, got 0$"),
        (16, -0.5, r"^delta_scale must be nonnegative, got -0.5$"),
    ], ids=["zero_trials", "negative_delta_scale"])
    def test_probe_settings_rejected(self, trials, delta_scale, message):
        tl, _ = _layer(seed=10)
        with pytest.raises(ValueError, match=message):
            stability_certificate(tl, trials=trials, delta_scale=delta_scale, rng=RngState(10))

    def test_alpha_is_norm_of_stacked_projection(self):
        tl, _ = _layer(seed=5)
        cert = stability_certificate(tl, trials=1, delta_scale=0.1, rng=RngState(5))
        assert cert.alpha == pytest.approx(
            np.linalg.svd(np.vstack(tl.a), compute_uv=False)[0], abs=1e-9
        )


class TestNonexpansiveAudit:
    def _stack(self, seed=0):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0)
        slots = [LayerSlot(i, "8x8", 8, 8) for i in range(3)]
        return build_stack_from_slots("talklora", cfg, slots, RngState(seed))

    def test_identity_c_audit(self):
        stack = self._stack()
        for ad in stack.adapters:
            ad.c[:] = np.eye(2)
        audit = nonexpansive_audit(stack)
        assert all(sigma == pytest.approx(1.0, abs=1e-12) for _, _, sigma in audit.rows)
        assert audit.fraction_within == 1.0

    def test_scaled_c_is_flagged(self):
        stack = self._stack(seed=1)
        for ad in stack.adapters:
            ad.c[:] = np.eye(2)
        stack.adapters[1].c[:] = 3.0 * np.eye(2)
        audit = nonexpansive_audit(stack)
        assert audit.rows[1][2] == pytest.approx(3.0, abs=1e-9)
        assert audit.fraction_within == pytest.approx(2.0 / 3.0)

    def test_clip_guarantees_audit_passes(self):
        cfg = AdapterConfig(
            total_rank=4, experts=2, lora_alpha=8.0, spectral_clip_c=1.0
        )
        slots = [LayerSlot(i, "8x8", 8, 8) for i in range(4)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(2))
        apply_spectral_clip(stack)
        assert nonexpansive_audit(stack).fraction_within == 1.0

    def test_audit_matches_svd_after_clip_of_near_degenerate_c(self):
        cfg = AdapterConfig(total_rank=4, experts=4, lora_alpha=8.0, spectral_clip_c=1.0)
        stack = build_stack_from_slots(
            "talklora", cfg, [LayerSlot(0, "8x8", 8, 8)], RngState(3)
        )
        stack.adapters[0].c[:] = near_degenerate_c()
        apply_spectral_clip(stack)
        oracle = np.linalg.svd(stack.adapters[0].c, compute_uv=False)[0]
        assert abs(nonexpansive_audit(stack).rows[0][2] - oracle) <= 1e-12

    def test_lora_stack_rejected(self):
        cfg = AdapterConfig(total_rank=4, experts=1)
        stack = build_stack_from_slots(
            "lora", cfg, [LayerSlot(0, "8x8", 8, 8)], RngState(0)
        )
        with pytest.raises(ValueError):
            nonexpansive_audit(stack)


class TestRoutingLoad:
    def test_zero_router_is_uniform(self):
        frozen, stack, x, _ = make_setup("talklora", n=4, r=8, seed=30)
        for ad in stack.adapters:
            ad.router_wg[:] = 0.0
        report = routing_load(stack, frozen, x)
        n = 4
        assert np.allclose(report.mean_gates, 1.0 / n, atol=0)
        assert np.allclose(report.entropy, np.log(n), atol=1e-12)
        assert np.allclose(report.max_share, 1.0 / n, atol=0)
        assert report.load_cv == 0.0

    def test_one_hot_router(self):
        frozen, stack, x, _ = make_setup("talklora", n=4, r=8, seed=31, depth=1)
        x = np.abs(x) + 0.1  # positive inputs keep the h signs controlled
        for ad in stack.adapters:
            for a_i in ad.a:
                a_i[:] = 0.1
            ad.c[:] = np.eye(4)
            ad.router_wg[:] = 0.0
            ad.router_wg[0, :] = 1e6  # expert 0 wins by an astronomic margin
        report = routing_load(stack, frozen, x)
        assert np.allclose(report.max_share, 1.0)
        assert np.allclose(report.entropy, 0.0, atol=1e-12)

    def test_per_layer_collapse_is_unbalanced(self):
        # layer i sends every input to expert i: pooled over the layers every
        # expert carries a quarter of the load, yet each layer uses one expert
        frozen, stack, x, _ = make_setup("moelora", n=4, r=8, seed=35, depth=4,
                                         randomize_b=False)
        frozen = [FrozenLinear(np.abs(fl.w0)) for fl in frozen]  # positive at every layer
        x = np.abs(x) + 0.1
        for i, ad in enumerate(stack.adapters):
            ad.router_wg[:] = 0.0
            ad.router_wg[i, :] = 1e6
        report = routing_load(stack, frozen, x)
        assert np.array_equal(report.mean_gates, np.eye(4))
        assert report.load_cv == pytest.approx(np.sqrt(3), rel=1e-15)

    def test_entropy_bounds_hold(self):
        frozen, stack, x, _ = make_setup("moelora", n=4, r=8, seed=32)
        report = routing_load(stack, frozen, x)
        assert (report.entropy >= 0).all()
        assert (report.entropy <= np.log(4) + 1e-12).all()

    @pytest.mark.parametrize("method, rows, message", [
        ("lora", slice(None), r"^routing_load needs a gated layer, one that holds router_wg$"),
        ("moelora", 0, r"^x must be a nonempty \(N, d\) array$"),
        ("moelora", slice(0), r"^x must be a nonempty \(N, d\) array$"),
    ], ids=["lora", "one_dim_x", "empty_x"])
    def test_stack_or_input_rejected(self, method, rows, message):
        frozen, stack, x, _ = make_setup(method, seed=33)
        with pytest.raises(ValueError, match=message):
            routing_load(stack, frozen, x[rows])

    def test_entropy_helper(self):
        assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
        assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8), abs=1e-12)
        assert np.isnan(shannon_entropy(np.full(4, np.nan)))
        assert np.isnan(shannon_entropy(np.array([0.5, np.nan, 0.5, 0.0])))

    def test_nan_router_gives_nan_entropy(self):
        frozen, stack, x, _ = make_setup("moelora", n=4, r=8, seed=34)
        stack.adapters[-1].router_wg[:] = np.nan  # the last layer, so layer 0 stays finite
        report = routing_load(stack, frozen, x)
        assert np.isfinite(report.entropy[0])
        assert np.isnan(report.entropy[-1])


class TestDegeneracyCheck:
    def test_random_layer_passes_all_probes(self):
        tl, _ = _layer(seed=40, n=3, r=6)
        report = degeneracy_check(tl, trials=100, rng=RngState(40))
        assert report.identity_max_diff == 0.0
        assert report.isolation_max_diff == 0.0
        assert report.cross_influence_min > 0.0
        assert report.passed

    def test_diagonal_c_layer_still_witnesses_cross_influence(self):
        tl, _ = _layer(seed=41)
        tl.c[:] = np.diag(np.diag(tl.c))  # strictly diagonal: probe injects C_12
        report = degeneracy_check(tl, trials=50, rng=RngState(41))
        assert report.passed

    def test_single_expert_rejected(self):
        tl, _ = _layer(seed=42, n=1)
        with pytest.raises(ValueError):
            degeneracy_check(tl, trials=10, rng=RngState(42))

    def test_moelora_layer_rejected(self):
        cfg = AdapterConfig(total_rank=4, experts=2)
        ml = init_layer("moelora", cfg, 12, 12, RngState(43))
        with pytest.raises(ValueError, match=r"^degeneracy_check needs a TalkLoRA layer"):
            degeneracy_check(ml, trials=10, rng=RngState(43))

    def test_zero_trials_rejected(self):
        tl, _ = _layer(seed=44)
        with pytest.raises(ValueError, match=r"^trials must be at least 1, got 0$"):
            degeneracy_check(tl, trials=0, rng=RngState(44))


def _per_trial_degeneracy(tl, trials, rng):
    """The three probes one trial at a time through ``_c_mix``: the reference.
    Its inputs are the same four whole-array draws as ``degeneracy_check``'s."""
    n, r_e, d = tl.a.shape
    gen = rng.generator()
    xs = gen.normal(size=(trials, d))
    js = gen.integers(0, n, size=trials)
    noises = gen.normal(size=(trials, r_e, d))
    deltas = gen.normal(size=(trials, r_e, d))
    identity_max = 0.0
    isolation_max = 0.0
    cross_min = np.inf
    eye = np.eye(n)
    diagonal_c = np.diag(np.diag(tl.c))
    cross_c = tl.c.copy()
    if not np.any(cross_c - np.diag(np.diag(cross_c))):
        cross_c[0, 1] = 1.0
    for x, j, noise, delta_a2 in zip(xs, js, noises, deltas):
        h = tl.a @ x
        identity_max = max(identity_max, float(np.abs(_c_mix(eye, h) - h).max()))
        perturbed = tl.a.copy()
        perturbed[j] += noise
        before = _c_mix(diagonal_c, h)
        after = _c_mix(diagonal_c, perturbed @ x)
        others = [i for i in range(n) if i != j]
        isolation_max = max(
            isolation_max, float(np.abs(after[others] - before[others]).max())
        )
        h_cross = h.copy()
        h_cross[1] = (tl.a[1] + delta_a2) @ x
        change = np.abs(_c_mix(cross_c, h_cross)[0] - _c_mix(cross_c, h)[0])
        cross_min = min(cross_min, float(change.max()))
    return identity_max, isolation_max, float(cross_min)


class TestBatchedDegeneracyProbes:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        n=st.integers(2, 6),
        r_e=st.integers(1, 4),
        extra_d=st.integers(0, 8),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        diagonal=st.booleans(),
    )
    @example(n=2, r_e=1, extra_d=0, trials=1, seed=0, diagonal=False)
    @example(n=2, r_e=1, extra_d=0, trials=1, seed=0, diagonal=True)
    @example(n=4, r_e=4, extra_d=0, trials=100, seed=3, diagonal=False)
    def test_equals_per_trial_loop_bitwise(self, n, r_e, extra_d, trials, seed, diagonal):
        d = n * r_e + extra_d
        cfg = AdapterConfig(total_rank=n * r_e, experts=n, lora_alpha=8.0)
        tl = init_layer("talklora", cfg, d, d, RngState(seed))
        c = RngState(seed).split("c").generator().normal(size=(n, n))
        tl.c[:] = np.diag(np.diag(c)) if diagonal else c
        report = degeneracy_check(tl, trials, RngState(seed).split("probes"))
        got = (report.identity_max_diff, report.isolation_max_diff, report.cross_influence_min)
        expected = _per_trial_degeneracy(tl, trials, RngState(seed).split("probes"))
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert report.passed

    def test_non_finite_c_rejected(self):
        tl, _ = _layer(seed=43)
        tl.c[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            degeneracy_check(tl, trials=3, rng=RngState(43))


class TestCommunicationHeatmap:
    def _stack(self):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0)
        slots = [LayerSlot(i, "8x8", 8, 8) for i in range(3)]
        return build_stack_from_slots("talklora", cfg, slots, RngState(50))

    def test_scaled_identity_normalizes_to_identity(self):
        stack = self._stack()
        stack.adapters[0].c[:] = 2.0 * np.eye(2)
        _, _, c = communication_heatmap(stack)[0]
        assert np.array_equal(c, np.eye(2))

    def test_zero_matrix_passes_through(self):
        stack = self._stack()
        stack.adapters[1].c[:] = 0.0
        _, _, c = communication_heatmap(stack)[1]
        assert np.array_equal(c, np.zeros((2, 2)))

    def test_random_c_lands_in_unit_box_with_extreme_entry(self):
        stack = self._stack()
        for _, _, c in communication_heatmap(stack):
            assert np.abs(c).max() == 1.0
            assert (np.abs(c) <= 1.0).all()

    def test_idempotent(self):
        stack = self._stack()
        once = communication_heatmap(stack)
        for slot_ad, (_, _, c_once) in zip(stack.adapters, once):
            slot_ad.c[:] = c_once
        twice = communication_heatmap(stack)
        for (_, _, c1), (_, _, c2) in zip(once, twice):
            assert np.array_equal(c1, c2)
