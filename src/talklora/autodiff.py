"""Analytic reverse-mode gradients for every trainable adapter parameter.

``backward`` runs the exact chain rule through the frozen host stack and
whichever adapter family is attached: gate gradients pass through the full
softmax Jacobian diag(g) - g g^T, the communication matrix receives
gradient through the router path only (experts consume the uncommunicated
representations), and shared B matrices accumulate the sum of all aliasing
layers' contributions in their one slice.  Only adapter parameters train,
so the sweep stops at layer 0 and forms no gradient with respect to the
model input.  The gradient is one float64 vector laid out like
``stack.flat``; callers that read it by handle build ``stack.views(grad)``.

``finite_difference_oracle`` recomputes the same gradients by the complex
step, g_j = Im f(theta + i*h*e_j) / h, through ``_reference_loss``, a
naive forward kept deliberately independent of the production path and
evaluated in complex128.  Nothing is subtracted, so the oracle is exact
to rounding; its one +ih copy per scalar is packed across handles into
blocks of ``ORACLE_BLOCK``, one call per block.  ``gradcheck`` compares
the two.  ``adamw_step`` is the
decoupled-weight-decay update of the training loop: one vector update of
``flat`` from that gradient.  ``apply_spectral_clip`` then projects every
communication matrix, with the spectral norms of all of them taken in one
batched SVD.  ``stack_adamw_step`` runs the two, and between them raises
:class:`NonFiniteUpdateError` if the update left ``flat`` non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adapters import (
    AdapterConfig,
    AdapterStack,
    LoRAAdapter,
    MoELoRALayer,
    TalkLoRALayer,
    _c_mix,
    batch_forward,
)
from .linalg import _all_finite, softmax_rows, spectral_norms

LOSS_KINDS = ("mean-squared-error", "softmax-cross-entropy")


@dataclass(frozen=True)
class LossSpec:
    """Loss on the model output; always mean-reduced over the batch."""

    kind: str = "mean-squared-error"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected {LOSS_KINDS}")


class NonFiniteLossError(ValueError):
    """Loss became NaN/Inf; carries the index of the offending sample."""

    def __init__(self, sample_index: int):
        self.sample_index = sample_index
        super().__init__(f"non-finite loss at sample index {sample_index}")


class NonFiniteUpdateError(ValueError):
    """An AdamW update left NaN/Inf in the parameters."""

    def __init__(self):
        super().__init__("AdamW update left non-finite parameters")


def _per_sample_losses(z: np.ndarray, targets: np.ndarray, spec: LossSpec) -> np.ndarray:
    # overflow to inf is fine here: non-finite losses are detected and
    # reported with the offending sample index
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "mean-squared-error":
            return np.mean((z - targets) ** 2, axis=1)
        batch, k = z.shape
        if not (targets.shape == (batch,) and np.issubdtype(targets.dtype, np.integer)
                and ((targets >= 0) & (targets < k)).all()):
            raise ValueError(
                f"softmax-cross-entropy needs one integer class index in [0, {k}) per row "
                f"({batch} rows), got {targets.dtype} targets of shape {targets.shape}"
            )
        probs = softmax_rows(z)
        return -np.log(probs[np.arange(batch), targets])


def loss_value(z: np.ndarray, targets: np.ndarray, spec: LossSpec) -> float:
    per_sample = _per_sample_losses(z, targets, spec)
    if not np.isfinite(per_sample).all():
        raise NonFiniteLossError(int(np.argmax(~np.isfinite(per_sample))))
    return float(per_sample.mean())


def loss_and_grad(
    z: np.ndarray, targets: np.ndarray, spec: LossSpec
) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient with respect to the model output."""
    value = loss_value(z, targets, spec)
    batch = z.shape[0]
    if spec.kind == "mean-squared-error":
        grad = 2.0 * (z - targets) / (batch * z.shape[1])
    else:
        probs = softmax_rows(z)
        onehot = np.zeros_like(probs)
        onehot[np.arange(batch), targets.astype(int)] = 1.0
        grad = (probs - onehot) / batch
    return value, grad


def model_forward(
    frozen_layers: list,
    stack: AdapterStack,
    x: np.ndarray,
    dropout_scales: Optional[list] = None,
) -> tuple[np.ndarray, list]:
    """Adapted forward through the frozen stack; tanh between layers.

    ``dropout_scales`` optionally holds one (batch, d_layer) array of
    mask/(1-p) factors per layer applied to the adapter-path input only;
    the frozen path always sees the clean activations.
    """
    if len(frozen_layers) != len(stack.adapters):
        raise ValueError(
            f"frozen stack has {len(frozen_layers)} layers but adapter stack "
            f"has {len(stack.adapters)}"
        )
    caches = []
    h = x
    last = len(frozen_layers) - 1
    for i, fl in enumerate(frozen_layers):
        scale = dropout_scales[i] if dropout_scales is not None else None
        xa = h * scale if scale is not None else None
        cache = batch_forward(fl.w0, stack.adapters[i], h, stack.cfg, xa=xa, drop_scale=scale)
        caches.append(cache)
        h = cache.z if i == last else np.tanh(cache.z)
    return h, caches


def _softmax_backward(gates: np.ndarray, g_gates: np.ndarray) -> np.ndarray:
    """Row-wise (diag(g) - g g^T) applied to the gate gradient."""
    inner = (gates * g_gates).sum(axis=1, keepdims=True)
    return gates * (g_gates - inner)


def _lora_backward(ad: LoRAAdapter, cfg: AdapterConfig, cache, gz, want_gx):
    gd = cfg.scaling * gz
    gb = gd.T @ cache.h
    gh = gd @ ad.b
    ga = gh.T @ cache.xa
    gxa = gh @ ad.a if want_gx else None
    return gxa, {"a": ga, "b": gb}


def _gate_backward(cache, gd):
    """Gradients at the gate logits (B, n) and at each expert's output (n, B, k)."""
    g_gates = (gd * cache.yexp).sum(axis=2).T  # (B, n)
    g_logits = _softmax_backward(cache.gates, g_gates)
    return g_logits, cache.gates.T[:, :, None] * gd


def _moelora_backward(ml: MoELoRALayer, cfg: AdapterConfig, cache, gz, want_gx):
    g_logits, gy = _gate_backward(cache, cfg.scaling * gz)
    gh = gy @ ml.b  # (n, B, r_e)
    gxa = None
    if want_gx:
        # router term first, then each expert's in order: a fixed float summation order
        gxa = np.concatenate(((g_logits @ ml.router_wg)[None], gh @ ml.a)).sum(axis=0)
    return gxa, {
        "router_wg": g_logits.T @ cache.router_in,
        "b": gy.transpose(0, 2, 1) @ cache.h,
        "a": gh.transpose(0, 2, 1) @ cache.xa,
    }


def _talklora_backward(tl: TalkLoRALayer, cfg: AdapterConfig, cache, gz, want_gx):
    n, batch, r_e = cache.h.shape
    g_logits, gy = _gate_backward(cache, cfg.scaling * gz)
    ght = g_logits @ tl.router_wg  # (B, r) gradient at the router input
    ght = ght.reshape(batch, n, r_e).transpose(1, 0, 2)  # (n, B, r_e)
    grads = {"router_wg": g_logits.T @ cache.router_in}
    gh_router = ght  # without talking, C gets no gradient and keeps its zero
    if cfg.talking_enabled:
        grads["c"] = ght.reshape(n, -1) @ cache.h.reshape(n, -1).T
        gh_router = _c_mix(tl.c.T, ght)
    gp = gy @ tl.b  # (n, B, r_e)
    gh = gh_router + gp @ tl.e
    grads["b"] = gy.transpose(0, 2, 1) @ cache.p
    grads["e"] = gp.transpose(0, 2, 1) @ cache.h
    grads["a"] = gh.transpose(0, 2, 1) @ cache.xa
    gxa = (gh @ tl.a).sum(axis=0) if want_gx else None
    return gxa, grads


def _layer_backward(adapter, cfg, cache, gz, want_gx):
    """Parameter gradients of one layer and, if ``want_gx``, the adapter
    path's gradient at the layer input (``None`` otherwise)."""
    if isinstance(adapter, LoRAAdapter):
        gxa, grads = _lora_backward(adapter, cfg, cache, gz, want_gx)
    elif isinstance(adapter, MoELoRALayer):
        gxa, grads = _moelora_backward(adapter, cfg, cache, gz, want_gx)
    else:
        gxa, grads = _talklora_backward(adapter, cfg, cache, gz, want_gx)
    if gxa is not None and cache.drop_scale is not None:
        gxa = gxa * cache.drop_scale
    return gxa, grads


def backward(
    stack: AdapterStack,
    frozen_layers: list,
    batch: tuple,
    loss: LossSpec,
    dropout_scales: Optional[list] = None,
) -> tuple[float, np.ndarray]:
    """Loss value and the exact analytic gradient of every trainable scalar.

    The gradient is a fresh float64 vector laid out like ``stack.flat``
    (``stack.views(grad)`` names its slices by handle); a shared B slice
    holds the sum of all aliasing layers' contributions, accumulated in
    fixed layer order.

    Only the adapters train, so the sweep stops at layer 0: it forms no
    gradient with respect to the model input (neither the frozen
    ``gx @ w0`` product nor the adapter path's input gradient there).
    """
    inputs, targets = batch
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("batch inputs must be a nonempty (batch, d) array")
    z, caches = model_forward(frozen_layers, stack, inputs, dropout_scales)
    value, gz = loss_and_grad(z, np.asarray(targets), loss)
    grad = np.zeros_like(stack.flat)
    gx = gz
    for i in reversed(range(len(frozen_layers))):
        if i < len(frozen_layers) - 1:
            act = caches[i + 1].x  # tanh(z_i), stored as the next layer's input
            gx = gx * (1.0 - act * act)
        gxa, layer_grads = _layer_backward(
            stack.adapters[i], stack.cfg, caches[i], gx, want_gx=i > 0
        )
        for name, g in layer_grads.items():
            grad[stack.ranges[i][name]] += g.reshape(-1)
        if i > 0:
            gx = gx @ frozen_layers[i].w0 + gxa
    return value, grad


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (a leading perturbation axis stays put)."""
    return np.swapaxes(m, -1, -2)


def _reference_loss(
    stack: AdapterStack,
    frozen_layers: list,
    params: dict,
    x: np.ndarray,
    targets: np.ndarray,
    loss: LossSpec,
    dropout_scales: Optional[list],
):
    """Naive re-implementation of the adapted forward pass plus loss.

    Deliberately independent of the production forward: per-expert loops,
    explicit softmax, and whatever dtype the parameters carry (float64, or
    complex128 from the complex-step oracle).  Parameters are looked up by
    handle in ``params`` so shared tensors alias automatically.

    It stays complex-analytic, so that the imaginary part of a complex loss
    carries the derivative: no ``abs`` and no branch on a value that
    depends on the parameters.  The softmax max-shift is the one
    value-dependent choice, and it cancels exactly: exp(l - s) / sum
    exp(l - s) is the same function of l for any s, complex s included.

    Any entry of ``params`` may carry a leading perturbation axis,
    ``(P, *shape)`` instead of ``shape``; every operation broadcasts over
    it and the result is the ``(P,)`` losses, one per perturbed copy.
    With plain parameters the result is one 0-d loss.
    """
    h = x
    last = len(frozen_layers) - 1
    cfg = stack.cfg
    for i in range(last + 1):
        roles = {role: params[handle] for role, handle, _ in stack.slot_handles(i)}
        w0 = frozen_layers[i].w0
        scale = cfg.scaling
        xa = h * dropout_scales[i] if dropout_scales else h
        n = cfg.experts
        if stack.method == "lora":
            delta = scale * ((xa @ _t(roles["A0"])) @ _t(roles["B0"]))
        else:
            hs = [xa @ _t(roles[f"A{j}"]) for j in range(n)]
            if stack.method == "moelora":
                logits = xa @ _t(roles["Wg"])
                outs = [hs[j] @ _t(roles[f"B{j}"]) for j in range(n)]
            else:
                if cfg.talking_enabled:
                    c = roles["C"]
                    mixed = [
                        sum(c[..., a, b, None, None] * hs[b] for b in range(n))
                        for a in range(n)
                    ]
                else:
                    mixed = hs
                router_in = np.concatenate(np.broadcast_arrays(*mixed), axis=-1)
                logits = router_in @ _t(roles["Wg"])
                outs = [
                    (hs[j] @ _t(roles[f"E{j}"])) @ _t(roles[f"B{j}"]) for j in range(n)
                ]
            shifted = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            gates = e / e.sum(axis=-1, keepdims=True)
            delta = scale * sum(
                gates[..., j : j + 1] * outs[j] for j in range(n)
            )
        z = h @ w0.T + delta
        h = np.tanh(z) if i < last else z
    if loss.kind == "mean-squared-error":
        return np.mean((h - targets) ** 2, axis=(-2, -1))
    shifted = h - h.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    idx = np.arange(h.shape[-2])
    return np.mean(-np.log(probs[..., idx, targets.astype(int)]), axis=-1)


# Copies per reference-loss call in the oracle: one +ih copy per scalar,
# packed in handle order across handles, so one call serves up to this many
# scalars and its working set is bounded by this many copies of the handles
# the block touches plus one forward's activations.
ORACLE_BLOCK = 128

# The complex step h: with no subtraction to cancel, any h far below the
# parameters' scale leaves only the h^2 truncation term, which vanishes in
# float64, while h * derivative stays far above the float64 underflow.
_COMPLEX_STEP = 1e-40


def finite_difference_oracle(
    stack: AdapterStack,
    frozen_layers: list,
    batch: tuple,
    loss: LossSpec,
    dropout_scales: Optional[list] = None,
) -> dict:
    """Complex-step gradients of every trainable scalar.

    Evaluates a naive reference forward (independent of both the
    production forward and the analytic backward) with every parameter in
    complex128, at theta + i*h*e_j for each trainable scalar j, and takes
    g_j = Im f(theta + i*h*e_j) / h (Squire & Trapp, SIAM Review 40(1),
    1998; Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).  There is no
    difference of two losses, so no cancellation: the result is exact to
    rounding for any small h, and this one uses a fixed h = 1e-40.

    Each scalar needs one copy.  The copies go through ``_reference_loss``
    in blocks of ``ORACLE_BLOCK``, packed in handle order across handles:
    every handle the block touches carries a leading (m, ...) axis with
    one scalar moved in each of its rows, and the others stay plain.  So
    one call serves up to ``ORACLE_BLOCK`` scalars, and memory stays
    bounded by the block, not the handles' sizes.  A scalar the forward
    never reads (C with talking off) gets an exact +0.

    Shared parameters are perturbed once; the handle-keyed lookup aliases
    their effect into every layer, which is exactly the summed gradient
    the analytic side must reproduce.
    """
    inputs, targets = batch
    x = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets)
    base = {h: arr.astype(np.complex128) for h, arr in stack.named_parameters()}
    spans = []  # (handle, first scalar, end) in handle order
    total = 0
    for handle, arr in base.items():
        spans.append((handle, total, total + arr.size))
        total += arr.size
    grad = np.zeros(total)
    for lo in range(0, total, ORACLE_BLOCK):
        hi = min(lo + ORACLE_BLOCK, total)
        m = hi - lo
        params = dict(base)
        for handle, start, end in spans:
            if start < hi and end > lo:
                first, last = max(start, lo), min(end, hi)
                arr = base[handle]
                copies = np.repeat(arr.reshape(1, -1), m, axis=0)
                copies[np.arange(first - lo, last - lo),
                       np.arange(first - start, last - start)] += 1j * _COMPLEX_STEP
                params[handle] = copies.reshape(m, *arr.shape)
        f = _reference_loss(stack, frozen_layers, params, x, targets, loss, dropout_scales)
        grad[lo:hi] = np.broadcast_to(f, (m,)).imag / _COMPLEX_STEP
    return {handle: grad[start:end].reshape(base[handle].shape)
            for handle, start, end in spans}


def relative_errors(analytic: dict, numeric: dict) -> dict:
    """Symmetric relative error |ga - gn| / max(1e-8, |ga| + |gn|), per handle."""
    if set(analytic) != set(numeric):
        raise ValueError("gradient sets carry different handles")
    out = {}
    for handle in analytic:
        ga, gn = analytic[handle], numeric[handle]
        denom = np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        out[handle] = float(np.max(np.abs(ga - gn) / denom)) if ga.size else 0.0
    return out


@dataclass
class GradcheckReport:
    max_relative_error: float
    worst_handle: str
    per_handle: dict


def gradcheck(
    stack: AdapterStack,
    frozen_layers: list,
    batch: tuple,
    loss: LossSpec,
    dropout_scales: Optional[list] = None,
) -> GradcheckReport:
    """Compare analytic gradients against the complex-step oracle."""
    _, grad = backward(stack, frozen_layers, batch, loss, dropout_scales)
    analytic = stack.views(grad)
    numeric = finite_difference_oracle(stack, frozen_layers, batch, loss, dropout_scales)
    errs = relative_errors(analytic, numeric)
    # NaN compares false both ways, so it is ranked above every number
    worst = max(errs, key=lambda handle: np.inf if np.isnan(errs[handle]) else errs[handle])
    return GradcheckReport(
        max_relative_error=errs[worst], worst_handle=worst, per_handle=errs
    )


@dataclass(frozen=True)
class AdamWHyper:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


class AdamWState:
    """First/second moments of a stack's parameter buffer plus the step counter."""

    def __init__(self, stack: AdapterStack):
        self.step = 0
        self.m = np.zeros_like(stack.flat)
        self.v = np.zeros_like(stack.flat)


def adamw_step(stack, grad: np.ndarray, state: AdamWState, hyper: AdamWHyper) -> None:
    """One decoupled-weight-decay Adam update, in place on ``stack.flat``.

    ``grad`` is the gradient vector laid out like ``stack.flat``, as
    :func:`backward` returns it.  Weight decay multiplies parameters by
    (1 - lr * wd) after the gradient step, independent of the adaptive
    scaling.
    """
    if grad.shape != stack.flat.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match the buffer's {stack.flat.shape}"
        )
    state.step += 1
    bc1 = 1.0 - hyper.beta1**state.step
    bc2 = 1.0 - hyper.beta2**state.step
    state.m *= hyper.beta1
    state.m += (1.0 - hyper.beta1) * grad
    state.v *= hyper.beta2
    state.v += (1.0 - hyper.beta2) * (grad * grad)
    stack.flat -= hyper.lr * ((state.m / bc1) / (np.sqrt(state.v / bc2) + hyper.eps))
    if hyper.weight_decay != 0.0:
        stack.flat -= hyper.lr * hyper.weight_decay * stack.flat


def apply_spectral_clip(stack: AdapterStack) -> None:
    """Project every communication matrix onto the spectral-norm ball.

    No-op unless the stack is TalkLoRA with ``spectral_clip_c`` set; when a
    C matrix exceeds the clip, it is rescaled by clip / sigma_max, which
    enforces the non-expansiveness assumption by construction.  The exact
    sigma_max of every C comes from one batched LAPACK SVD
    (:func:`~talklora.linalg.spectral_norms`), equal bit for bit to one
    SVD per matrix.
    """
    clip = stack.cfg.spectral_clip_c
    if clip is None or stack.method != "talklora":
        return
    cs = [adapter.c for adapter in stack.adapters]
    for c, sigma in zip(cs, spectral_norms(np.stack(cs))):
        if sigma > clip:
            c *= clip / sigma


def stack_adamw_step(
    stack: AdapterStack, grad: np.ndarray, state: AdamWState, hyper: AdamWHyper
) -> None:
    """AdamW over a whole stack, then the configured C projection.

    Raises :class:`NonFiniteUpdateError`, before the projection and with
    the update kept in ``flat``, if the update is not finite.  A gradient
    that overflowed to inf turns the Adam ratio m / sqrt(v) into NaN, so
    this one check on the parameters also catches it.
    """
    adamw_step(stack, grad, state, hyper)
    if not _all_finite(stack.flat):
        raise NonFiniteUpdateError()
    apply_spectral_clip(stack)
