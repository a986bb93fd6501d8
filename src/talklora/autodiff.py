"""Analytic reverse-mode gradients for every trainable adapter parameter.

``backward`` runs the exact chain rule through the frozen host stack and
whichever adapter family is attached, in one layer backward for all
three that reads what differs off the arrays a layer holds, as the
forward does.  Gate gradients pass through the full softmax Jacobian
diag(g) - g g^T (LoRA holds no router), the communication matrix receives
gradient through the router path only (experts consume the uncommunicated
representations), and shared B matrices accumulate the sum of all aliasing
layers' contributions in their one slice.  Only adapter parameters train,
so the sweep stops at layer 0 and forms no gradient with respect to the
model input.  The gradient is one float64 vector laid out like
``stack.flat``; callers that read it by handle build ``stack.views(grad)``.

A step's temporaries stay few without moving a bit.  No layer's (n, B, k)
expert outputs outlive its forward: the sweep forms them again from the
cached h or E h, by the forward's own product, and writes the gate
gradients over them.  It adds each parameter gradient into the flat
vector as soon as it is formed, writes the tanh derivative over the
activation it is taken from, and frees every value after its last
reader; AdamW writes into two scratch arrays of one block each.  The
loss gradient is written over the residual or exponentials the loss
formed.

``finite_difference_oracle`` recomputes the same gradients by the complex
step, g_j = Im f(theta + i*h*e_j) / h, through ``_reference_loss``, a
naive forward kept deliberately independent of the production path and
evaluated in complex128.  Nothing is subtracted, so the oracle is exact
to rounding; its one +ih copy per scalar is packed across handles into
blocks of ``ORACLE_BLOCK``, one call per block, and its gradient is laid
out as ``backward``'s.  ``gradcheck`` compares the two vectors.
``adamw_step`` is the decoupled-weight-decay update of the training loop:
one vector update of ``flat`` from that gradient, run over blocks of
``ADAMW_BLOCK`` scalars.  ``apply_spectral_clip`` then projects every
communication matrix, with the spectral norms of all of them taken in one
batched SVD.  ``stack_adamw_step`` runs the two, and between them raises
:class:`NumericalError` if the update left ``flat`` non-finite.

Every numerical failure is a :class:`NumericalError` (``tasks.DivergenceError``
included): an ``ArithmeticError``, never a ``ValueError``, so no caller can
take it for a rejected input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adapters import (AdapterConfig, AdapterLayer, AdapterStack, _c_mix, _expert_outputs,
                       batch_forward)
from .linalg import _all_finite, spectral_norms

LOSS_KINDS = ("mean-squared-error", "softmax-cross-entropy")


@dataclass(frozen=True)
class LossSpec:
    """Loss on the model output; always mean-reduced over the batch."""

    kind: str = "mean-squared-error"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.kind!r}")


class NumericalError(ArithmeticError):
    """A numerical failure: a non-finite loss (the message names the first
    such sample) or AdamW update, a diverged run (``tasks.DivergenceError``),
    or in the CLI a failed gradcheck or a non-finite value bound for an output."""


def _per_sample_losses(
    z: np.ndarray, targets: np.ndarray, spec: LossSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses, and a fresh array the gradient is written over:
    z - targets (MSE) or exp(z - row max) (cross-entropy)."""
    # overflow to inf is fine here: non-finite losses are detected and
    # reported with the offending sample index
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "mean-squared-error":
            if targets.shape != z.shape:  # a broadcast would give a meaningless loss
                raise ValueError(f"mean-squared-error needs targets of the output's shape "
                                 f"{z.shape}, got {targets.shape}")
            residual = z - targets
            return np.mean(residual ** 2, axis=1), residual
        batch, k = z.shape
        if not (targets.shape == (batch,) and np.issubdtype(targets.dtype, np.integer)
                and ((targets >= 0) & (targets < k)).all()):
            raise ValueError(
                f"softmax-cross-entropy needs one integer class index in [0, {k}) per row "
                f"({batch} rows), got {targets.dtype} targets of shape {targets.shape}"
            )
        # log-sum-exp minus the target's logit, both shifted by the row max,
        # stays finite where the target's softmax probability underflows
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return np.log(e.sum(axis=1)) - shifted[np.arange(batch), targets], e


def _mean_loss(per_sample: np.ndarray) -> float:
    if not np.isfinite(per_sample).all():
        index = int(np.argmax(~np.isfinite(per_sample)))
        raise NumericalError(f"non-finite loss at sample index {index}")
    return float(per_sample.mean())


def loss_value(z: np.ndarray, targets: np.ndarray, spec: LossSpec) -> float:
    return _mean_loss(_per_sample_losses(z, targets, spec)[0])


def loss_and_grad(
    z: np.ndarray, targets: np.ndarray, spec: LossSpec
) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient with respect to the model output."""
    per_sample, grad = _per_sample_losses(z, targets, spec)
    value = _mean_loss(per_sample)
    batch = z.shape[0]
    if spec.kind == "mean-squared-error":
        grad *= 2.0
        grad /= batch * z.shape[1]
        return value, grad
    grad /= grad.sum(axis=1, keepdims=True)  # the softmax
    grad[np.arange(batch), targets] -= 1.0  # minus the one-hot target
    grad /= batch
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
        cache = batch_forward(fl.w0, stack.adapters[i], h, stack.cfg, xa=xa)
        caches.append(cache)
        h = cache.z if i == last else np.tanh(cache.z)
    return h, caches


def _softmax_backward(gates: np.ndarray, g_gates: np.ndarray) -> np.ndarray:
    """Row-wise (diag(g) - g g^T) applied to the gate gradient."""
    inner = (gates * g_gates).sum(axis=1, keepdims=True)
    return gates * (g_gates - inner)


def _gate_backward(layer: AdapterLayer, cache, gd):
    """Gradients at the gate logits (B, n) and at each expert's output (n, B, k).

    The expert outputs are formed again by :func:`~talklora.adapters._expert_outputs`,
    the forward's own product, so they match its bits; both (n, B, k)
    values are written over that fresh array, and ``cache`` is only read.
    """
    yexp = _expert_outputs(layer, cache.h, cache.p)
    g_gates = np.multiply(gd, yexp, out=yexp).sum(axis=2).T  # (B, n)
    g_logits = _softmax_backward(cache.gates, g_gates)
    return g_logits, np.multiply(cache.gates.T[:, :, None], gd, out=yexp)


def _layer_backward(layer: AdapterLayer, cfg: AdapterConfig, cache, gz, grad, ranges,
                    want_gx):
    """Add one layer's parameter gradients into ``grad`` and return, if
    ``want_gx``, the adapter path's gradient at its (dropped-out) input
    ``xa`` (``None`` otherwise).

    ``grad`` is laid out like ``stack.flat`` and ``ranges`` maps the
    layer's field names to their slices (``stack.ranges[i]``).  Each
    parameter gradient is added into its slice as soon as it is formed and
    dropped there, so none is held beside the (n, B, d) input-gradient
    terms; a shared B slice sums the contributions of the layers that
    add into it.

    Every family, read off the arrays the layer holds, as the forward
    does: gates when it holds ``router_wg`` (without one, the delta is the
    one expert's output), E when it holds ``e``, and a router that read
    the (C kron I)-mixed h (h with talking off) when it holds ``c``, else xa.
    """
    def add(name, g):
        grad[ranges[name]] += g.reshape(-1)

    gd = cfg.scaling * gz
    if layer.router_wg is None:
        gy = gd[None]  # (1, B, k) at the one expert's output
    else:
        g_logits, gy = _gate_backward(layer, cache, gd)
        add("router_wg", g_logits.T @ cache.router_in)
    del gd  # a gated layer's last reader is done (LoRA's gy is a view of it)
    gh = gy @ layer.b  # (n, B, r_e) at each expert's input: h, or p = E h
    add("b", gy.transpose(0, 2, 1) @ (cache.h if layer.e is None else cache.p))
    del gy  # its last readers are done: free it before the (n, B, d) terms
    if layer.e is not None:
        add("e", gh.transpose(0, 2, 1) @ cache.h)
        gh = gh @ layer.e
    if layer.c is not None:
        n, batch, r_e = cache.h.shape
        ght = g_logits @ layer.router_wg  # (B, r) gradient at the router input
        ght = ght.reshape(batch, n, r_e).transpose(1, 0, 2)  # (n, B, r_e)
        if cfg.talking_enabled:  # without talking, C gets no gradient and keeps its zero
            add("c", ght.reshape(n, -1) @ cache.h.reshape(n, -1).T)
            ght = _c_mix(layer.c.T, ght)
        gh = ght + gh
    add("a", gh.transpose(0, 2, 1) @ cache.xa)
    if not want_gx:
        return None
    gx = (gh @ layer.a).sum(axis=0)  # the (n, B, d) expert terms summed
    if layer.router_wg is not None and layer.c is None:  # the router read xa
        gx += g_logits @ layer.router_wg
    return gx


def backward(
    stack: AdapterStack,
    frozen_layers: list,
    batch: tuple,
    loss: LossSpec,
    dropout_scales: Optional[list] = None,
) -> tuple[float, np.ndarray]:
    """Loss value and the exact analytic gradient of every trainable scalar.

    The gradient is a fresh float64 vector laid out like ``stack.flat``
    (``stack.views(grad)`` names its slices by handle).  Each layer adds
    its gradients into it as they form, from the last layer to the first,
    so a shared B slice holds the sum of all aliasing layers'
    contributions, accumulated in that fixed order.

    Only the adapters train, so the sweep stops at layer 0: it forms no
    gradient with respect to the model input (neither the frozen
    ``gx @ w0`` product nor the adapter path's input gradient there).
    """
    inputs, targets = batch
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("batch inputs must be a nonempty (batch, d) array")
    z, caches = model_forward(frozen_layers, stack, inputs, dropout_scales)
    for cache in caches:  # no backward reads them; the last z is held below
        cache.delta = cache.z = None
    value, gx = loss_and_grad(z, np.asarray(targets), loss)
    del z
    grad = np.zeros_like(stack.flat)
    for i in reversed(range(len(frozen_layers))):
        if i < len(frozen_layers) - 1:
            act = caches[i + 1].x  # tanh(z_i), stored as the next layer's input
            caches[i + 1] = None  # its last reader is done
            # 1 - act * act, written over act, which this forward made and nothing else holds
            gx *= np.subtract(1.0, np.multiply(act, act, out=act), out=act)
            del act
        gxa = _layer_backward(stack.adapters[i], stack.cfg, caches[i], gx, grad,
                              stack.ranges[i], want_gx=i > 0)
        if i > 0:
            if dropout_scales is not None:
                gxa *= dropout_scales[i]  # back through the adapter path's dropout
            gx = gx @ frozen_layers[i].w0
            gx += gxa
            del gxa
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
    exp(l - s), and the cross-entropy log sum exp(l - s) - (l_t - s), are
    the same functions of l for any s, complex s included.

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
    lse = np.log(np.exp(shifted).sum(axis=-1))
    idx = np.arange(h.shape[-2])
    return np.mean(lse - shifted[..., idx, targets.astype(int)], axis=-1)


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
) -> np.ndarray:
    """Complex-step gradients of every trainable scalar, as one float64
    vector laid out like ``stack.flat``, as :func:`backward` returns it.

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
    ends = np.cumsum([arr.size for arr in base.values()])  # base is in flat's order
    spans = [(handle, end - arr.size, end) for (handle, arr), end in zip(base.items(), ends)]
    grad = np.zeros(stack.flat.size)
    for lo in range(0, grad.size, ORACLE_BLOCK):
        hi = min(lo + ORACLE_BLOCK, grad.size)
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
    return grad


@dataclass
class GradcheckReport:
    max_relative_error: float
    worst_handle: str


def gradcheck(
    stack: AdapterStack,
    frozen_layers: list,
    batch: tuple,
    loss: LossSpec,
    dropout_scales: Optional[list] = None,
) -> GradcheckReport:
    """The worst handle's symmetric relative error |ga - gn| / max(1e-8, |ga| + |gn|)
    between ``backward``'s gradient ga and the complex-step oracle's gn."""
    _, analytic = backward(stack, frozen_layers, batch, loss, dropout_scales)
    numeric = finite_difference_oracle(stack, frozen_layers, batch, loss, dropout_scales)
    errs = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    per_handle = {handle: float(err.max(initial=0.0)) for handle, err in stack.views(errs).items()}
    # NaN compares false both ways, so it is ranked above every number
    worst = max(per_handle, key=lambda h: np.inf if np.isnan(per_handle[h]) else per_handle[h])
    return GradcheckReport(max_relative_error=per_handle[worst], worst_handle=worst)


# AdamW's moment decay rates and denominator floor, the same for every run
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8

# Scalars per block of ``adamw_step``: one block of each vector the update
# touches (flat, grad, m, v and two scratch arrays) is 1.5 MB, which stays in
# cache across the block's passes.
ADAMW_BLOCK = 2**15


@dataclass(frozen=True)
class AdamWHyper:
    lr: float
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

    The update runs over blocks of ``ADAMW_BLOCK`` scalars, each through
    the whole ufunc sequence while it is in cache, with every temporary
    written into one of two block-sized scratch arrays.  Every operation is
    elementwise, so the blocks give the bits of one whole-array pass.
    """
    if grad.shape != stack.flat.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match the buffer's {stack.flat.shape}"
        )
    state.step += 1
    bc1 = 1.0 - ADAMW_BETA1**state.step
    bc2 = 1.0 - ADAMW_BETA2**state.step
    scratch = np.empty((2, min(stack.flat.size, ADAMW_BLOCK)))
    for lo in range(0, stack.flat.size, ADAMW_BLOCK):
        block = slice(lo, lo + ADAMW_BLOCK)
        flat, g, m, v = stack.flat[block], grad[block], state.m[block], state.v[block]
        t, u = scratch[0, :flat.size], scratch[1, :flat.size]
        # flat -= lr * ((m / bc1) / (sqrt(v / bc2) + eps))
        m *= ADAMW_BETA1
        m += np.multiply(1.0 - ADAMW_BETA1, g, out=t)
        v *= ADAMW_BETA2
        v += np.multiply(1.0 - ADAMW_BETA2, np.multiply(g, g, out=t), out=t)
        np.divide(m, bc1, out=t)
        np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), ADAMW_EPS, out=u)
        flat -= np.multiply(hyper.lr, np.divide(t, u, out=t), out=t)
        if hyper.weight_decay != 0.0:
            flat -= np.multiply(hyper.lr * hyper.weight_decay, flat, out=t)


def apply_spectral_clip(stack: AdapterStack) -> None:
    """Project every communication matrix onto the spectral-norm ball.

    No-op unless ``spectral_clip_c`` is set and the layers hold C (TalkLoRA).
    A C matrix that exceeds the clip is rescaled by clip / sigma_max, which
    enforces the non-expansiveness assumption by construction.  The exact
    sigma_max of every C comes from one batched LAPACK SVD
    (:func:`~talklora.linalg.spectral_norms`), equal bit for bit to one
    SVD per matrix.
    """
    clip = stack.cfg.spectral_clip_c
    cs = [adapter.c for adapter in stack.adapters if adapter.c is not None]
    if clip is None or not cs:
        return
    for c, sigma in zip(cs, spectral_norms(np.stack(cs))):
        if sigma > clip:
            c *= clip / sigma


def stack_adamw_step(
    stack: AdapterStack, grad: np.ndarray, state: AdamWState, hyper: AdamWHyper
) -> None:
    """AdamW over a whole stack, then the configured C projection.

    Raises :class:`NumericalError`, before the projection and with
    the update kept in ``flat``, if the update is not finite.  A gradient
    that overflowed to inf turns the Adam ratio m / sqrt(v) into NaN, so
    this one check on the parameters also catches it.
    """
    adamw_step(stack, grad, state, hyper)
    if not _all_finite(stack.flat):
        raise NumericalError("AdamW update left non-finite parameters")
    apply_spectral_clip(stack)
