"""Shared builders for small adapted models used across the test suite."""

import numpy as np

from talklora.adapters import (
    AdapterConfig,
    LayerSlot,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
)
from talklora.analysis import BALANCE_ADAPTER, BALANCE_DEPTH, BALANCE_TASK
from talklora.linalg import RngState


def make_setup(
    method,
    share_b=True,
    talking=True,
    seed=0,
    d=8,
    k=8,
    r=4,
    n=2,
    depth=2,
    batch=4,
    alpha=8.0,
    randomize_b=True,
    spectral_clip_c=None,
):
    """Frozen stack + adapter stack + one random batch, all seeded.

    B matrices start at zero by contract; ``randomize_b`` fills them with
    small values afterwards so gradients flow through every path.
    """
    rng = RngState(seed)
    frozen = build_frozen_stack(d, k, depth, rng)
    cfg = AdapterConfig(
        total_rank=r,
        experts=n,
        lora_alpha=alpha,
        share_b=share_b,
        talking_enabled=talking,
        spectral_clip_c=spectral_clip_c,
    )
    stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), rng)
    if randomize_b:
        for handle, arr in stack.named_parameters():
            if ".B" in handle:
                gen = rng.split(f"fill.{handle}").generator()
                arr[:] = 0.3 * gen.normal(size=arr.shape)
    gen = rng.split("data").generator()
    x = gen.normal(size=(batch, d))
    t = gen.normal(size=(batch, k))
    return frozen, stack, x, t


def balance_setup(seed):
    """Frozen host and talking TalkLoRA stack as the routing-balance experiment builds them."""
    rng = RngState(1000 + seed)
    frozen = build_frozen_stack(
        BALANCE_TASK["input_dim"], BALANCE_TASK["output_dim"], BALANCE_DEPTH, rng
    )
    cfg = AdapterConfig(**BALANCE_ADAPTER)
    return frozen, build_stack_from_slots("talklora", cfg, frozen_stack_slots(frozen), rng)


def geometry_slots(geom, targets):
    """One slot per (layer, target projection) of a geometry, layer-major,
    targets in the geometry's projection order."""
    return [
        LayerSlot(layer, p.tag, p.d_in, p.d_out)
        for layer in range(geom.layers) for p in geom.projections if p.tag in targets
    ]


def near_degenerate_c(seed=0):
    """4x4 C = 1.5 * Q1 diag(1, 1 - 1e-3, 0.5, 0.1) Q2^T, top gap 1.5e-3.

    Power iteration converges slowly from below on such a matrix, so it is
    the case that separates an exact spectral norm from an estimate.
    """
    gen = RngState(seed).generator()
    q1, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    return 1.5 * (q1 * np.array([1.0, 1.0 - 1e-3, 0.5, 0.1])) @ q2.T
