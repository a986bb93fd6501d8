import itertools
import re
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import pins
from _setup import directional_errors, fixed_dropout_scales, make_setup, near_degenerate_c
from talklora import autodiff, tasks
from talklora.adapters import (
    AdapterConfig,
    FrozenLinear,
    LayerSlot,
    build_stack_from_slots,
)
from talklora.autodiff import (
    ADAMW_BETA1,
    ADAMW_BETA2,
    ADAMW_BLOCK,
    ADAMW_EPS,
    AdamWHyper,
    AdamWState,
    LossSpec,
    ORACLE_BLOCK,
    _reference_loss,
    NumericalError,
    adamw_step,
    apply_spectral_clip,
    backward,
    finite_difference_oracle,
    gradcheck,
    loss_and_grad,
    loss_value,
    model_forward,
    stack_adamw_step,
)
from talklora.linalg import RngState, spectral_norm

MSE = LossSpec("mean-squared-error")
CE = LossSpec("softmax-cross-entropy")


class TestLossSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("hinge")

    def test_non_finite_loss_reports_sample_index(self):
        frozen, stack, x, t = make_setup("talklora")
        t = t.copy()
        t[2, 0] = np.inf
        with pytest.raises(NumericalError) as exc:
            backward(stack, frozen, (x, t), MSE)
        # an exit-3 class, never read as a rejected input
        assert not isinstance(exc.value, ValueError)
        assert str(exc.value) == "non-finite loss at sample index 2"

    @pytest.mark.parametrize(
        "targets",
        [np.zeros((4, 8)), np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 1, 8, 2]),
         np.array([0, -1, 2, 3]), np.array([0, 1, 2])],
        ids=["2d", "float", "too_large", "negative", "wrong_rows"],
    )
    def test_cross_entropy_targets_must_be_class_indices(self, targets):
        z = RngState(3).generator().normal(size=(4, 8))
        with pytest.raises(ValueError, match=r"one integer class index in \[0, 8\) per row"):
            loss_value(z, targets, CE)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (8, 1), (8,)],
                             ids=["one_row", "row_vector", "column", "one_per_row"])
    def test_mean_squared_error_targets_must_have_the_output_shape(self, shape):
        # the first three would broadcast against the (8, 4) output into a
        # loss and gradient of nothing in particular
        z = RngState(3).generator().normal(size=(8, 4))
        message = f"mean-squared-error needs targets of the output's shape (8, 4), got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loss_and_grad(z, np.zeros(shape), MSE)
        frozen, stack, x, _ = make_setup("talklora", d=4, k=4, batch=8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            backward(stack, frozen, (x, np.zeros(shape)), MSE)


class TestBackwardStructure:
    def test_host_of_another_depth_rejected(self):
        frozen, stack, x, _ = make_setup("lora")
        with pytest.raises(ValueError,
                           match=r"^frozen stack has 1 layers but adapter stack has 2$"):
            model_forward(frozen[:1], stack, x)

    @pytest.mark.parametrize("rows", [slice(0), 0], ids=["empty", "one_dim"])
    def test_malformed_batch_rejected(self, rows):
        frozen, stack, x, t = make_setup("lora")
        with pytest.raises(ValueError,
                           match=r"^batch inputs must be a nonempty \(batch, d\) array$"):
            backward(stack, frozen, (x[rows], t[rows]), MSE)

    def test_zero_residual_gives_zero_gradients(self):
        frozen, stack, x, _ = make_setup("talklora", randomize_b=False)
        z, _ = model_forward(frozen, stack, x)
        loss, grad = backward(stack, frozen, (x, z), MSE)
        assert loss == 0.0
        for handle, g in stack.views(grad).items():
            assert np.array_equal(g, np.zeros_like(g)), handle

    def test_gradient_keys_match_trainable_set(self):
        frozen, stack, x, t = make_setup("talklora", share_b=True, depth=3)
        grads = stack.views(backward(stack, frozen, (x, t), MSE)[1])
        assert set(grads) == set(stack.handles)
        assert not any("w0" in h.lower() for h in grads)

    def test_first_order_taylor_expansion(self):
        frozen, stack, x, t = make_setup("talklora", seed=3)
        loss0, grad = backward(stack, frozen, (x, t), MSE)
        grads = stack.views(grad)
        gen = RngState(99).generator()
        eps = 1e-4
        for handle, arr in stack.named_parameters():
            direction = gen.normal(size=arr.shape)
            direction /= np.linalg.norm(direction)
            arr += eps * direction
            z, _ = model_forward(frozen, stack, x)
            loss1 = float(np.mean((z - t) ** 2))
            arr -= eps * direction
            predicted = eps * float((grads[handle] * direction).sum())
            assert abs((loss1 - loss0) - predicted) < 100 * eps**2, handle

    def test_c_gradient_zero_when_talking_disabled(self):
        frozen, stack, x, t = make_setup("talklora", talking=False)
        grads = stack.views(backward(stack, frozen, (x, t), MSE)[1])
        c_handles = [h for h in grads if h.endswith(".C")]
        assert c_handles
        for h in c_handles:
            assert np.array_equal(grads[h], np.zeros_like(grads[h]))

    def test_c_gradient_nonzero_when_talking_enabled(self):
        frozen, stack, x, t = make_setup("talklora", talking=True)
        grads = stack.views(backward(stack, frozen, (x, t), MSE)[1])
        assert any(
            np.abs(grads[h]).max() > 0 for h in grads if h.endswith(".C")
        )

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_gradient_is_one_vector_laid_out_like_flat(self, method):
        frozen, stack, x, t = make_setup(method, share_b=True, depth=3)
        _, grad = backward(stack, frozen, (x, t), MSE)
        assert isinstance(grad, np.ndarray) and grad.dtype == np.float64
        assert grad.shape == (stack.flat.size,)
        assert not np.shares_memory(grad, stack.flat)
        assert list(stack.views(grad)) == stack.handles

    def test_determinism(self):
        g1 = backward(*_fresh())[1]
        g2 = backward(*_fresh())[1]
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_sweep_forms_no_gradient_for_the_model_input(self, method):
        # the forward reads each w0 once; the backward reads it again only
        # to pass the gradient below a layer, which layer 0 never needs
        frozen, stack, x, t = make_setup(method, seed=17, depth=3)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=18)
        expected = backward(stack, frozen, (x, t), MSE, scales)
        counting = [_CountingFrozen(fl) for fl in frozen]
        got = backward(stack, counting, (x, t), MSE, scales)
        assert [fl.reads for fl in counting] == [1, 2, 2]
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1])


def _cache_bytes(caches):
    """Each field of each cache as bytes (None where the field is None)."""
    return [{f.name: None if getattr(cache, f.name) is None else getattr(cache, f.name).tobytes()
             for f in fields(cache)} for cache in caches]


class TestStepBuffers:
    @pytest.mark.parametrize("dropout", [False, True], ids=["clean", "dropout"])
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_backward_changes_nothing_its_caller_sees(self, method, dropout):
        # backward writes over and drops arrays of the caches its own forward
        # built; caches a caller got from a forward of its own stay as they were
        frozen, stack, x, t = make_setup(method, seed=9, depth=3)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=10) if dropout else None
        labels = np.zeros(x.shape[0], dtype=int)
        data = tasks.ClusterDataset(x, t, labels, x, t, labels)
        _, direct = model_forward(frozen, stack, x, scales)
        _, evaluated = tasks.evaluate(stack, frozen, data, MSE)
        held = [x, t, stack.flat, *(scales or [])]
        before = [a.tobytes() for a in held], _cache_bytes(direct), _cache_bytes(evaluated)
        first = backward(stack, frozen, (x, t), MSE, scales)
        second = backward(stack, frozen, (x, t), MSE, scales)
        after = [a.tobytes() for a in held], _cache_bytes(direct), _cache_bytes(evaluated)
        assert after == before
        assert first[0] == second[0]
        assert first[1].tobytes() == second[1].tobytes()

    @pytest.mark.parametrize("dropout", [False, True], ids=["clean", "dropout"])
    @pytest.mark.parametrize("method, n", [("moelora", 2), ("talklora", 2), ("talklora", 4)])
    def test_no_cache_holds_expert_outputs(self, method, n, dropout):
        # at d = k every other cached array is narrower than the (n, B, k)
        # expert outputs, which no pass forms
        frozen, stack, x, t = make_setup(method, n=n, depth=3, seed=13)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=14) if dropout else None
        _, caches = model_forward(frozen, stack, x, scales)
        stack_size = n * t.size
        for cache in caches:
            for f in fields(cache):
                arr = getattr(cache, f.name)
                while arr is not None and arr.base is not None:  # a view holds its base
                    arr = arr.base
                assert arr is None or arr.size < stack_size, f.name

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_layer_backward_only_reads_its_cache(self, method):
        frozen, stack, x, _ = make_setup(method, seed=15, depth=1)
        _, caches = model_forward(frozen, stack, x)
        gz = RngState(16).generator().normal(size=caches[0].z.shape)
        before = _cache_bytes(caches)
        runs = []
        for _ in range(2):
            grad = np.zeros_like(stack.flat)
            gx = autodiff._layer_backward(stack.adapters[0], stack.cfg, caches[0], gz, grad,
                                          stack.ranges[0], want_gx=True)
            runs.append((gx.tobytes(), grad.tobytes()))
        assert runs[0] == runs[1]
        assert _cache_bytes(caches) == before

    @pytest.mark.parametrize("method, n", [("lora", 1), ("moelora", 4), ("talklora", 4)])
    def test_layer_backward_holds_no_parameter_gradient(self, method, n):
        """The peak one ``_layer_backward`` allocates, d = k = 1024, r = 16.

        It forms gd, one (B, k) array, and the gate mix's gradients in rank
        space, so nothing (n, B, k) or (n, B, d): the B gradient, r k
        scalars (half an array here), goes into ``grad`` before gd is
        freed, and the A gradient, r d scalars, before the input gradient,
        one (B, d) product, is formed.  MoELoRA's router read xa, so its
        input-gradient term is one more (B, d) array beside that product.
        So 1.75 arrays, plus that term, bound it whatever n is; a layer
        that formed the n expert outputs, or the n (B, d) input-gradient
        terms, or held its parameter gradients beside the input gradient,
        fails it.
        """
        frozen, stack, x, _ = make_setup(method, d=1024, k=1024, r=16, n=n, batch=32,
                                         depth=1, seed=15)
        _, caches = model_forward(frozen, stack, x)
        gz = RngState(16).generator().normal(size=caches[0].z.shape)
        grad = np.zeros_like(stack.flat)

        def layer_backward():
            return autodiff._layer_backward(stack.adapters[0], stack.cfg, caches[0], gz, grad,
                                            stack.ranges[0], want_gx=True)

        layer_backward()  # one-time allocations of the first call are not the layer's
        tracemalloc.start()
        try:
            layer_backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        router_term = 1 if method == "moelora" else 0
        assert peak < (1.75 + router_term) * gz.nbytes

    @pytest.mark.parametrize("method, n", [("lora", 1), ("moelora", 4), ("talklora", 4)])
    def test_step_allocation_budget(self, method, n):
        """The peak a second step (backward, then AdamW) allocates, d = k = 256.

        No pass forms an (n, B, k) or (n, B, d) array: the forward mixes the
        experts in rank space, and the sweep takes their gradients there.
        At its peak the sweep holds the flat gradient and four (B, k)
        arrays: the last layer's input (layer 0's tanh, kept for its
        derivative), the output gradient, the adapter path's input gradient
        and the frozen ``gx @ w0``.  The caches' rank-sized arrays (h, E h,
        the router input: B r scalars each, a sixteenth of an array here)
        and a parameter gradient of at most r k scalars stay under one more
        array together.  AdamW then holds the gradient and two scratch
        arrays of one block each, here of the flat's size.  So the larger of
        five (B, k) arrays and one flat vector, and three flat vectors and a
        quarter array, bounds the step whatever n is; a step that forms or
        holds the n expert outputs of a layer, or its n input-gradient
        terms, fails it.
        """
        frozen, stack, x, t = make_setup(method, d=256, k=256, r=16, n=n, batch=32)
        state, hyper = AdamWState(stack), AdamWHyper(lr=1e-3)

        def step():
            _, grad = backward(stack, frozen, (x, t), MSE)
            stack_adamw_step(stack, grad, state, hyper)

        step()  # one-time allocations of the first step are not the step's
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = max(5 * t.nbytes + stack.flat.nbytes, 3 * stack.flat.nbytes + t.nbytes / 4)
        assert peak < budget


class TestGradientDigests:
    """The pins ``gradient/<config>`` of ``tests/pins.py``: the gradient of
    each family and flag setting, first recorded while MoELoRA and TalkLoRA
    still ran separate backward functions."""

    @pytest.mark.parametrize("key", list(pins.gradient_pins()))
    def test_gradient_matches_recorded_digest(self, key):
        pins.assert_pinned(key)


class _CountingFrozen:
    """Stand-in for a ``FrozenLinear`` that counts reads of ``w0``."""

    def __init__(self, fl):
        self._w0 = fl.w0
        self.reads = 0

    @property
    def w0(self):
        self.reads += 1
        return self._w0


def _fresh():
    frozen, stack, x, t = make_setup("moelora", seed=7)
    return stack, frozen, (x, t), MSE


class TestFiniteDifferenceOracle:
    def test_quadratic_toy_derivative(self):
        # single scalar parameter b with loss (b * 1)^2: derivative at b=3 is 6
        cfg = AdapterConfig(
            total_rank=1, experts=1, lora_alpha=1.0, share_b=False, talking_enabled=False
        )
        frozen = [FrozenLinear(np.zeros((1, 1)))]
        stack = build_stack_from_slots(
            "lora", cfg, [LayerSlot(0, "1x1", 1, 1)], RngState(0)
        )
        stack.parameter("L00.1x1.A0")[:] = 1.0
        stack.parameter("L00.1x1.B0")[:] = 3.0
        batch = (np.array([[1.0]]), np.array([[0.0]]))
        grad = finite_difference_oracle(stack, frozen, batch, MSE)
        assert grad.shape == stack.flat.shape == (2,)
        assert abs(stack.views(grad)["L00.1x1.B0"][0, 0] - 6.0) < 1e-9

    def test_oracle_leaves_parameters_untouched(self):
        frozen, stack, x, t = make_setup("talklora")
        before = {h: arr.copy() for h, arr in stack.named_parameters()}
        finite_difference_oracle(stack, frozen, (x, t), MSE)
        for h, arr in stack.named_parameters():
            assert np.array_equal(arr, before[h])


def _per_scalar_oracle(stack, frozen, batch, loss, scales):
    """Complex steps one scalar at a time: the oracle's reference.

    One ``_reference_loss`` call per scalar, every parameter plain
    complex128 and one scalar moved by i*h, g = Im f / h.
    """
    step = autodiff._COMPLEX_STEP
    x, targets = np.asarray(batch[0]), np.asarray(batch[1])
    params = {h: arr.astype(np.complex128) for h, arr in stack.named_parameters()}
    grads = {}
    for handle, arr in stack.named_parameters():
        flat = params[handle].reshape(-1)
        g = np.zeros(arr.size)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + 1j * step
            f = _reference_loss(stack, frozen, params, x, targets, loss, scales)
            flat[j] = original
            g[j] = f.imag / step
        grads[handle] = g.reshape(arr.shape)
    return grads


def _assert_matches_per_scalar(stack, got, expected):
    """The oracle's vector ``got`` is laid out like ``stack.flat`` and equals
    the per-scalar gradients ``expected`` to rounding at each handle's scale.

    Not bitwise: complex ufunc loops are vectorized, so an entry's last bits
    depend on its position in the stacked array.  Nor entry by entry: an
    entry 1e-4 of its handle's largest is a cancelling sum of larger terms,
    so those last bits alone reach about 1e-12 of it.
    """
    assert got.shape == stack.flat.shape and got.dtype == np.float64
    got = stack.views(got)
    assert list(got) == list(expected)
    for handle, exp in expected.items():
        gap = np.abs(got[handle] - exp).max(initial=0.0)
        assert gap <= 1e-13 * np.abs(exp).max(initial=0.0), handle


def _grid_case(method, depth, share_b, talking, dropout, kind, d=4, k=4, r=2):
    frozen, stack, x, t = make_setup(
        method, share_b=share_b, talking=talking, seed=depth, d=d, k=k, r=r, depth=depth
    )
    if kind == CE.kind:
        t = RngState(5).generator().integers(0, k, size=x.shape[0])
    scales = (
        fixed_dropout_scales(frozen, x.shape[0], seed=7, p=dropout) if dropout else None
    )
    return stack, frozen, (x, t), LossSpec(kind), scales


class TestBlockedOracle:
    """The oracle packs one complex-step copy per scalar across handles."""

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_equals_per_scalar_loop(self, method):
        grid = itertools.product(
            (1, 2, 3), (False, True), (False, True), (0.0, 0.3), (MSE.kind, CE.kind)
        )
        for depth, share_b, talking, dropout, kind in grid:
            stack, frozen, batch, loss, scales = _grid_case(
                method, depth, share_b, talking, dropout, kind
            )
            expected = _per_scalar_oracle(stack, frozen, batch, loss, scales)
            got = finite_difference_oracle(stack, frozen, batch, loss, scales)
            _assert_matches_per_scalar(stack, got, expected)

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_handle_larger_than_one_block(self, method):
        stack, frozen, batch, loss, scales = _grid_case(
            method, 2, True, True, 0.3, MSE.kind, d=24, k=40, r=8
        )
        sizes = {h: arr.size for h, arr in stack.named_parameters()}
        assert max(sizes.values()) > ORACLE_BLOCK
        expected = _per_scalar_oracle(stack, frozen, batch, loss, scales)
        got = finite_difference_oracle(stack, frozen, batch, loss, scales)
        _assert_matches_per_scalar(stack, got, expected)

    @pytest.mark.parametrize("block", [2, 6, 7])
    def test_partial_blocks_and_call_count(self, monkeypatch, block):
        # tiny blocks straddle handle edges, most with a short last block
        stack, frozen, batch, loss, scales = _grid_case("talklora", 2, False, True, 0.3, MSE.kind)
        expected = _per_scalar_oracle(stack, frozen, batch, loss, scales)
        calls = []
        real = autodiff._reference_loss

        def counting(stack, frozen, params, *rest):
            calls.append(max(np.ndim(p) for p in params.values()))
            assert all(p.dtype == np.complex128 for p in params.values())
            return real(stack, frozen, params, *rest)

        monkeypatch.setattr(autodiff, "ORACLE_BLOCK", block)
        monkeypatch.setattr(autodiff, "_reference_loss", counting)
        got = finite_difference_oracle(stack, frozen, batch, loss, scales)
        _assert_matches_per_scalar(stack, got, expected)
        assert len(calls) == -(-stack.flat.size // block)
        assert set(calls) == {3}  # every call carries stacked (m, ...) handles

    def test_unused_c_gives_exact_zeros(self):
        stack, frozen, batch, loss, _ = _grid_case("talklora", 2, True, False, 0.0, MSE.kind)
        params = {h: arr.copy() for h, arr in stack.named_parameters()}
        c_handles = [h for h in params if h.endswith(".C")]
        assert c_handles
        for h in c_handles:
            params[h] = np.stack([params[h]] * 4)
        # the forward never reads C with talking off: one loss for the stack
        assert np.ndim(_reference_loss(stack, frozen, params, *batch, loss, None)) == 0
        got = stack.views(finite_difference_oracle(stack, frozen, batch, loss))
        for h in c_handles:
            assert np.array_equal(got[h], np.zeros_like(got[h])), h
            assert not np.signbit(got[h]).any(), h

    @pytest.mark.parametrize("kind", [MSE.kind, CE.kind])
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_real_part_equals_float64_loss(self, method, kind):
        stack, frozen, batch, loss, scales = _grid_case(method, 3, True, True, 0.3, kind)
        params = dict(stack.named_parameters())
        plain = float(_reference_loss(stack, frozen, params, *batch, loss, scales))
        complex_params = {h: arr.astype(np.complex128) for h, arr in params.items()}
        value = _reference_loss(stack, frozen, complex_params, *batch, loss, scales)
        assert value.dtype == np.complex128
        assert value.imag == 0.0
        assert abs(value.real - plain) <= 1e-15 * abs(plain)

    @pytest.mark.parametrize("kind", [MSE.kind, CE.kind])
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_reference_loss_shapes(self, method, kind):
        stack, frozen, batch, loss, scales = _grid_case(method, 2, True, True, 0.3, kind)
        params = dict(stack.named_parameters())
        plain = _reference_loss(stack, frozen, params, *batch, loss, scales)
        assert np.ndim(plain) == 0
        assert float(plain) == pytest.approx(backward(stack, frozen, batch, loss, scales)[0])
        handle = stack.handles[0]
        shifts = np.arange(3.0)[:, None, None] * 1e-3
        stacked = dict(params, **{handle: params[handle][None] + shifts})
        losses = _reference_loss(stack, frozen, stacked, *batch, loss, scales)
        assert losses.shape == (3,)
        for p in range(3):
            one = dict(params, **{handle: stacked[handle][p]})
            assert losses[p] == _reference_loss(stack, frozen, one, *batch, loss, scales)


class TestDirectionalCheck:
    """``backward`` against complex-step directional derivatives of the
    reference forward, one Gaussian direction per handle (``directional_errors``)."""

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_families_at_width_1024(self, method):
        # one reference forward per handle checks every scalar of it at once,
        # at a width where the per-scalar oracle would need 49,440 to 73,728
        # copies
        frozen, stack, x, t = make_setup(method, d=1024, k=1024, r=16, n=4, batch=32,
                                         depth=2, seed=21)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=22)
        _, grad = backward(stack, frozen, (x, t), MSE, scales)
        errors = directional_errors(stack, frozen, (x, t), MSE, scales, grad)
        assert list(errors) == stack.handles
        worst = max(errors, key=errors.get)
        assert errors[worst] < 1e-8, (worst, errors[worst])

    @pytest.mark.parametrize("method", ["moelora", "talklora"])
    def test_agrees_with_the_per_scalar_oracle(self, method):
        # at desk dims the oracle's whole gradient, projected on v, meets each
        # directional derivative to rounding, and a rerun gives the same errors
        stack, frozen, batch, loss, scales = _grid_case(method, 2, True, True, 0.3, MSE.kind)
        oracle = finite_difference_oracle(stack, frozen, batch, loss, scales)
        errors = directional_errors(stack, frozen, batch, loss, scales, oracle)
        assert max(errors.values()) < 1e-13
        assert directional_errors(stack, frozen, batch, loss, scales, oracle) == errors

    def test_a_slice_scaled_by_one_part_in_a_million_fails(self):
        stack, frozen, batch, loss, scales = _grid_case("talklora", 2, True, True, 0.3, MSE.kind)
        _, grad = backward(stack, frozen, batch, loss, scales)
        handle = "L01.4x4.E1"
        stack.views(grad)[handle] *= 1 + 1e-6
        errors = directional_errors(stack, frozen, batch, loss, scales, grad)
        assert {h for h, err in errors.items() if err >= 1e-8} == {handle}
        assert errors[handle] == pytest.approx(5e-7, rel=1e-3)


class TestSharedBGradients:
    def test_shared_gradient_is_sum_over_aliasing_layers(self):
        frozen, shared_stack, x, t = make_setup(
            "talklora", share_b=True, depth=3, seed=5
        )
        frozen2, unshared_stack, x2, t2 = make_setup(
            "talklora", share_b=False, depth=3, seed=5, randomize_b=False
        )
        assert np.array_equal(x, x2) and np.array_equal(t, t2)
        # tie the unshared B values to the shared ones
        n = shared_stack.cfg.experts
        for slot in unshared_stack.slots:
            for j in range(n):
                unshared_stack.parameter(f"{slot.name}.B{j}")[:] = (
                    shared_stack.parameter(f"shared.{slot.tag}.B{j}")
                )
        loss_s, grad_s = backward(shared_stack, frozen, (x, t), MSE)
        loss_u, grad_u = backward(unshared_stack, frozen2, (x, t), MSE)
        grads_s, grads_u = shared_stack.views(grad_s), unshared_stack.views(grad_u)
        assert loss_s == pytest.approx(loss_u, rel=1e-15)
        for tag in {slot.tag for slot in shared_stack.slots}:
            for j in range(n):
                summed = sum(
                    grads_u[f"{slot.name}.B{j}"]
                    for slot in unshared_stack.slots
                    if slot.tag == tag
                )
                assert np.allclose(
                    grads_s[f"shared.{tag}.B{j}"], summed, rtol=1e-12, atol=1e-15
                )

    def test_oracle_agrees_on_shared_handles(self):
        frozen, stack, x, t = make_setup("talklora", share_b=True, depth=3, seed=6)
        report = gradcheck(stack, frozen, (x, t), MSE)
        assert report.max_relative_error < 1e-6


class TestGradcheck:
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_families_pass_mse(self, method):
        frozen, stack, x, t = make_setup(method, seed=11)
        report = gradcheck(stack, frozen, (x, t), MSE)
        assert report.max_relative_error < 1e-6, report.worst_handle

    def test_cross_entropy_loss(self):
        frozen, stack, x, _ = make_setup("talklora", seed=12)
        classes = RngState(13).generator().integers(0, 8, size=x.shape[0])
        report = gradcheck(stack, frozen, (x, classes), CE)
        assert report.max_relative_error < 1e-6, report.worst_handle

    def test_fixed_dropout_masks(self):
        frozen, stack, x, t = make_setup("talklora", seed=14)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=15)
        report = gradcheck(stack, frozen, (x, t), MSE, dropout_scales=scales)
        assert report.max_relative_error < 1e-6, report.worst_handle

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_depth_one_with_dropout(self, method):
        # the only layer is layer 0, where the sweep stops
        frozen, stack, x, t = make_setup(method, seed=19, depth=1)
        scales = fixed_dropout_scales(frozen, x.shape[0], seed=20)
        report = gradcheck(stack, frozen, (x, t), MSE, dropout_scales=scales)
        assert report.max_relative_error < 1e-6, report.worst_handle

    def test_detects_injected_sign_flip(self, monkeypatch):
        frozen, stack, x, t = make_setup("talklora", seed=16)
        value, grad = backward(stack, frozen, (x, t), MSE)
        handle = next(h for h in stack.handles if h.endswith(".Wg"))
        stack.views(grad)[handle] *= -1.0  # negative control
        monkeypatch.setattr(autodiff, "backward", lambda *args: (value, grad))
        report = gradcheck(stack, frozen, (x, t), MSE)
        assert report.worst_handle == handle
        assert report.max_relative_error > 1e-3

    def test_nan_error_is_the_worst(self, monkeypatch):
        # NaN compares false both ways, so a plain max would report a 0.0
        frozen, stack, x, t = make_setup("lora", seed=17)
        numeric = backward(stack, frozen, (x, t), MSE)[1]
        stack.views(numeric)[stack.handles[-1]][0, 0] = np.nan
        monkeypatch.setattr(autodiff, "finite_difference_oracle", lambda *args: numeric)
        report = gradcheck(stack, frozen, (x, t), MSE)
        assert report.worst_handle == stack.handles[-1]
        assert np.isnan(report.max_relative_error)


def _scalar_stack(a, b):
    """One-slot 1x1 LoRA stack: two trainable scalars, A0 = a and B0 = b."""
    cfg = AdapterConfig(total_rank=1, lora_alpha=1.0, share_b=False)
    stack = build_stack_from_slots("lora", cfg, [LayerSlot(0, "1x1", 1, 1)], RngState(0))
    stack.parameter("L00.1x1.A0")[:] = a
    stack.parameter("L00.1x1.B0")[:] = b
    return stack


def _scalar_grads(a, b):
    """Gradient vector of ``_scalar_stack``: A0 = a, then B0 = b."""
    return np.array([a, b])


def _whole_array_adamw(flat, grad, m, v, step, hyper):
    """``adamw_step``'s update in one pass over the whole arrays, into two
    scratch arrays of their size: the update as it ran before blocking."""
    bc1 = 1.0 - ADAMW_BETA1**step
    bc2 = 1.0 - ADAMW_BETA2**step
    t, u = np.empty_like(flat), np.empty_like(flat)
    m *= ADAMW_BETA1
    m += np.multiply(1.0 - ADAMW_BETA1, grad, out=t)
    v *= ADAMW_BETA2
    v += np.multiply(1.0 - ADAMW_BETA2, np.multiply(grad, grad, out=t), out=t)
    np.divide(m, bc1, out=t)
    np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), ADAMW_EPS, out=u)
    flat -= np.multiply(hyper.lr, np.divide(t, u, out=t), out=t)
    if hyper.weight_decay != 0.0:
        flat -= np.multiply(hyper.lr * hyper.weight_decay, flat, out=t)


class TestAdamW:
    def test_zero_gradient_no_decay_is_identity(self):
        stack = _scalar_stack(1.0, -2.0)
        adamw_step(stack, _scalar_grads(0.0, 0.0), AdamWState(stack), AdamWHyper(lr=0.1))
        assert np.array_equal(stack.flat, [1.0, -2.0])

    def test_unit_gradient_first_step(self):
        stack = _scalar_stack(5.0, 0.0)
        adamw_step(stack, _scalar_grads(1.0, 0.0), AdamWState(stack), AdamWHyper(lr=0.1))
        # bias-corrected m_hat / sqrt(v_hat) = 1 on the first step
        assert stack.parameter("L00.1x1.A0")[0, 0] == pytest.approx(5.0 - 0.1, abs=1e-8)

    def test_decoupled_decay_alone(self):
        stack = _scalar_stack(2.0, 0.0)
        hyper = AdamWHyper(lr=0.1, weight_decay=0.01)
        adamw_step(stack, _scalar_grads(0.0, 0.0), AdamWState(stack), hyper)
        assert stack.parameter("L00.1x1.A0")[0, 0] == pytest.approx(
            2.0 * (1.0 - 0.1 * 0.01), rel=1e-12
        )

    def test_frozen_weights_never_move(self):
        frozen, stack, x, t = make_setup("talklora", seed=17)
        w0_before = [fl.w0.copy() for fl in frozen]
        state = AdamWState(stack)
        for _ in range(5):
            _, grads = backward(stack, frozen, (x, t), MSE)
            stack_adamw_step(stack, grads, state, AdamWHyper(lr=1e-2))
        for fl, before in zip(frozen, w0_before):
            assert np.array_equal(fl.w0, before)

    def test_spectral_clip_projects_c(self):
        frozen, stack, x, t = make_setup(
            "talklora", seed=18, spectral_clip_c=1.0
        )
        for adapter in stack.adapters:
            adapter.c *= 10.0
        apply_spectral_clip(stack)
        for adapter in stack.adapters:
            assert spectral_norm(adapter.c) <= 1.0 + 1e-9

    def test_spectral_clip_bound_holds_on_near_degenerate_c(self):
        # an estimate of sigma_max from below would leave C outside the ball
        _, stack, _, _ = make_setup("talklora", n=4, r=4, seed=21, spectral_clip_c=1.0)
        for adapter in stack.adapters:
            adapter.c[:] = near_degenerate_c()
        apply_spectral_clip(stack)
        for adapter in stack.adapters:
            assert np.linalg.svd(adapter.c, compute_uv=False)[0] <= 1.0 + 1e-12

    def test_spectral_clip_takes_one_svd_for_every_c(self, monkeypatch):
        _, stack, _, _ = make_setup("talklora", depth=3, seed=25, spectral_clip_c=1.0)
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        apply_spectral_clip(stack)
        assert calls == [(3, 2, 2)]

    def test_shared_parameters_updated_once(self):
        frozen, stack, x, t = make_setup("talklora", share_b=True, depth=3, seed=19)
        state = AdamWState(stack)
        handle = "shared.8x8.B0"
        arr = stack.parameter(handle)
        before = arr.copy()
        grad = np.zeros_like(stack.flat)
        stack.views(grad)[handle][:] = 1.0
        adamw_step(stack, grad, state, AdamWHyper(lr=0.1))
        # one update of ~lr, not one per aliasing layer
        assert np.allclose(before - arr, 0.1, atol=1e-7)

    @pytest.mark.parametrize(
        "method,share_b", [("moelora", True), ("talklora", True), ("talklora", False)]
    )
    def test_expert_handles_are_views_of_stacked_tensors(self, method, share_b):
        frozen, stack, x, t = make_setup(method, share_b=share_b, depth=3, seed=20)
        stacked = []
        for i, ad in enumerate(stack.adapters):
            for role, handle, _ in stack.slot_handles(i):
                if role[0] not in "AEB":
                    continue
                whole = getattr(ad, role[0].lower())
                assert whole.flags.c_contiguous and whole.ndim == 3
                view = stack.parameter(handle)
                assert np.shares_memory(view, whole[int(role[1:])])
                stacked.append(whole)
        before = [whole.copy() for whole in stacked]
        _, grads = backward(stack, frozen, (x, t), MSE)
        stack_adamw_step(stack, grads, AdamWState(stack), AdamWHyper(lr=1e-2))
        for whole, old in zip(stacked, before):
            assert not np.array_equal(whole, old)

    def test_buffer_update_matches_per_handle_loop_bitwise(self):
        # the per-tensor AdamW the buffer update replaced, with weight decay
        frozen, stack, x, t = make_setup("talklora", share_b=True, depth=3, seed=22)
        _, loop_stack, _, _ = make_setup("talklora", share_b=True, depth=3, seed=22)
        state = AdamWState(stack)
        m = {h: np.zeros_like(a) for h, a in loop_stack.named_parameters()}
        v = {h: np.zeros_like(a) for h, a in loop_stack.named_parameters()}
        for step in range(1, 6):
            hyper = AdamWHyper(lr=1e-2 * step, weight_decay=0.01)
            _, grads = backward(stack, frozen, (x, t), MSE)
            adamw_step(stack, grads, state, hyper)
            loop_grads = loop_stack.views(backward(loop_stack, frozen, (x, t), MSE)[1])
            bc1, bc2 = 1.0 - ADAMW_BETA1**step, 1.0 - ADAMW_BETA2**step
            for handle, arr in loop_stack.named_parameters():
                g = loop_grads[handle]
                m[handle] *= ADAMW_BETA1
                m[handle] += (1.0 - ADAMW_BETA1) * g
                v[handle] *= ADAMW_BETA2
                v[handle] += (1.0 - ADAMW_BETA2) * (g * g)
                arr -= hyper.lr * ((m[handle] / bc1) / (np.sqrt(v[handle] / bc2) + ADAMW_EPS))
                arr -= hyper.lr * hyper.weight_decay * arr
            assert np.array_equal(stack.flat, loop_stack.flat), step

    def test_overflowed_gradient_raises_a_non_finite_update(self):
        # inf / sqrt(inf) is NaN, so the one check on the parameters sees it
        stack = _scalar_stack(1.0, 2.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as exc:
            stack_adamw_step(stack, _scalar_grads(np.inf, 0.0), AdamWState(stack),
                             AdamWHyper(lr=0.1))
        assert not isinstance(exc.value, ValueError)
        assert np.isnan(stack.flat[0]) and stack.flat[1] == 2.0

    def test_gradient_of_another_shape_rejected(self):
        stack = _scalar_stack(1.0, 2.0)
        with pytest.raises(ValueError, match="gradient shape"):
            adamw_step(stack, np.zeros(3), AdamWState(stack), AdamWHyper(lr=0.1))
        assert np.array_equal(stack.flat, [1.0, 2.0])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01], ids=["no-decay", "decay"])
    @pytest.mark.parametrize(
        "size", [1, ADAMW_BLOCK - 1, ADAMW_BLOCK, ADAMW_BLOCK + 1, 3 * ADAMW_BLOCK + 5]
    )
    def test_blocks_match_one_whole_array_pass(self, size, weight_decay):
        gen = RngState(26).generator()
        stack = SimpleNamespace(flat=gen.normal(size=size))  # adamw_step reads only flat
        state = AdamWState(stack)
        flat, m, v = stack.flat.copy(), np.zeros(size), np.zeros(size)
        for step in range(1, 6):
            hyper = AdamWHyper(lr=1e-2 * step, weight_decay=weight_decay)
            grad = gen.normal(scale=10.0 ** gen.integers(-6, 3, size=size))
            adamw_step(stack, grad, state, hyper)
            _whole_array_adamw(flat, grad, m, v, step, hyper)
            assert stack.flat.tobytes() == flat.tobytes(), step
            assert state.m.tobytes() == m.tobytes(), step
            assert state.v.tobytes() == v.tobytes(), step

    def test_inf_in_the_last_block_raises_after_every_block_updated(self):
        d_in = (3 * ADAMW_BLOCK + 5) // 2  # A0 (1, d_in) and B0 (d_out, 1) fill four blocks
        slot = LayerSlot(0, "wide", d_in, 3 * ADAMW_BLOCK + 5 - d_in)
        cfg = AdapterConfig(total_rank=1, lora_alpha=1.0, share_b=False)
        stack = build_stack_from_slots("lora", cfg, [slot], RngState(27))
        grad = RngState(28).generator().normal(size=stack.flat.size)
        grad[-1] = np.inf
        flat, m, v = stack.flat.copy(), np.zeros_like(grad), np.zeros_like(grad)
        hyper = AdamWHyper(lr=0.1)
        with np.errstate(invalid="ignore"):
            _whole_array_adamw(flat, grad, m, v, 1, hyper)
            with pytest.raises(NumericalError):
                stack_adamw_step(stack, grad, AdamWState(stack), hyper)
        assert np.isnan(stack.flat[-1]) and np.isfinite(stack.flat[:-1]).all()
        assert stack.flat.tobytes() == flat.tobytes()
