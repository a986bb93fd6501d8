"""Verification analyses: budgets, stability certificates, routing statistics.

This is where the family's analyzable claims become executable checks:
parameter accounting against published model geometries, the routing
Lipschitz certificate (observed gate perturbations vs the alpha*beta
bound), spectral-norm audits of the communication matrices, the
degeneracy / expressive-power probes, and routing-load balance reports.
Each analysis reads a layer's family off the arrays it holds, never the
stack's method name, and a refusal reads ``<function> needs a TalkLoRA
layer, one that holds c`` or ``<function> needs a gated layer, one that
holds router_wg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapters import (
    AdapterConfig,
    AdapterLayer,
    AdapterStack,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
    layer_layout,
    router_gates,
)
from .autodiff import LossSpec, model_forward
from .geometry import ModelGeometry
from .linalg import RngState, as_matrix, spectral_norm, spectral_norms
from .tasks import ClusterTaskSpec, TrainConfig, _mean_gates, generate_cluster_task, train

NONEXPANSIVE_SLACK = 1e-9
# Trial rows per router evaluation in stability_certificate: the gate and
# norm temporaries are bounded by this block, not by the trial count.  A
# power of two, so block starts fall on every BLAS kernel's unroll.
STABILITY_BLOCK = 1024


@dataclass(frozen=True)
class ParamBudget:
    """Trainable-parameter count, share of the host model, and role breakdown."""

    trainable: int
    total: int
    percent: float
    breakdown: dict


def count_params(
    geom: ModelGeometry, method: str, cfg: AdapterConfig, targets
) -> ParamBudget:
    """Parameter budget for one method over a geometry, by handle role.

    Each target contributes the sizes of :func:`layer_layout`'s arrays at
    its dims once per layer, or once in all for an array shared across
    the layers of a tag (TalkLoRA's B under ``share_b``).  ``targets`` must be
    a nonempty collection of tags, never a string, that repeats no tag and
    names only projections of ``geom``.  The layout checks each target's dims,
    so a rank that no stack could hold raises too.
    """
    if isinstance(targets, str):  # list("QK") would read as ["Q", "K"]
        raise ValueError(f"targets must be a collection of tags, got {targets!r}")
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be nonempty")
    for i, tag in enumerate(targets):
        if tag in targets[:i]:
            raise ValueError(f"targets repeats {tag!r}")
    projections = {p.tag: p for p in geom.projections}
    unknown = sorted(set(targets) - projections.keys())
    if unknown:
        raise ValueError(f"targets holds tags {unknown} unknown to {geom.name!r}")
    breakdown: dict = {}
    for tag in sorted(targets):
        proj = projections[tag]
        for field in layer_layout(method, cfg, proj.d_in, proj.d_out, f"target {tag}"):
            copies = 1 if field.shared else geom.layers
            breakdown[field.role] = breakdown.get(field.role, 0) + copies * math.prod(field.shape)
    trainable = sum(breakdown.values())
    return ParamBudget(
        trainable=trainable,
        total=geom.total_params,
        percent=100.0 * trainable / geom.total_params,
        breakdown=breakdown,
    )


@dataclass(frozen=True)
class StabilityCertificate:
    """Empirical check of the routing Lipschitz bound |g(x+dx)-g(x)| <= alpha*beta*|dx|.

    alpha is the spectral norm of the vertically stacked A_i (the full
    low-rank projection), beta that of the router weights, c_norm that of
    the effective communication operator (1.0 when talking is disabled,
    i.e. identity).  The verdict asserts the bound only in the regime the
    theory covers: it requires c_norm <= 1 and no observed violation.

    ``bound_any_c = 1/2 * alpha * beta * c_norm`` holds for every C, so an
    unclipped layer is bounded too and c_norm > 1 reads directly as
    amplification.  Proof: the gates are g = softmax(W_g (C kron I) A x),
    and (C kron I) has spectral norm c_norm, so by the chain rule and the
    mean-value inequality it suffices that the softmax Jacobian
    J = diag(g) - g g^T has spectral norm at most 1/2.  J is symmetric,
    and for any v, v^T J v = sum_i g_i v_i^2 - (sum_i g_i v_i)^2 is the
    variance of v under the distribution g, hence nonnegative.  By
    Popoviciu's inequality that variance is at most
    (max_i v_i - min_i v_i)^2 / 4 <= 2 |v|^2 / 4 = |v|^2 / 2, because
    (v_i - v_j)^2 <= 2 (v_i^2 + v_j^2).  So 0 <= J <= I/2 and |J| <= 1/2.
    """

    alpha: float
    beta: float
    c_norm: float
    bound: float
    bound_any_c: float
    trials: int
    max_observed_ratio: float
    verdict: bool


def stability_certificate(
    tl: AdapterLayer,
    trials: int,
    delta_scale: float,
    rng: RngState,
    talking_enabled: bool = True,
) -> StabilityCertificate:
    """Sample ``trials`` input pairs (x, x + dx) and certify the gate Lipschitz bound.

    ``x`` and ``dx`` (scaled by ``delta_scale``) are drawn whole from
    ``rng``; the gates and the ratios |g(x+dx) - g(x)| / |dx| are then
    evaluated in blocks of ``STABILITY_BLOCK`` rows and reduced to one
    maximum, so the transient memory past the draws stays bounded as
    ``trials`` grows.  Blocks start at multiples of ``STABILITY_BLOCK``, so
    every row meets the same BLAS kernel as in one call over all rows, and
    a last block of one row joins the block before it, because a one-row
    product takes BLAS's matrix-vector path.  So the result equals a
    one-shot evaluation of all rows bit for bit.  Pairs with dx = 0 are
    skipped; if every pair has dx = 0 the observed ratio is 0.  TalkLoRA only:
    the proof needs g = softmax(W_g (C kron I) A x), so a layer without C raises.
    """
    if tl.c is None:
        raise ValueError("stability_certificate needs a TalkLoRA layer, one that holds c")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if delta_scale < 0:
        raise ValueError(f"delta_scale must be nonnegative, got {delta_scale}")
    d = tl.a.shape[2]
    alpha = spectral_norm(tl.a.reshape(-1, d))
    beta = spectral_norm(tl.router_wg)
    c_norm = spectral_norm(tl.c) if talking_enabled else 1.0
    bound = alpha * beta
    gen = rng.generator()
    x = gen.normal(size=(trials, d))
    dx = delta_scale * gen.normal(size=(trials, d))
    block_maxima = []
    edges = [*range(0, max(trials - 1, 1), STABILITY_BLOCK), trials]  # no one-row tail
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        g0 = router_gates(tl, x[rows], talking_enabled)
        g1 = router_gates(tl, x[rows] + dx[rows], talking_enabled)
        diff = np.linalg.norm(g1 - g0, axis=1)
        dx_norm = np.linalg.norm(dx[rows], axis=1)
        valid = dx_norm > 0
        if valid.any():
            block_maxima.append((diff[valid] / dx_norm[valid]).max())
    max_ratio = float(np.max(block_maxima)) if block_maxima else 0.0
    verdict = (c_norm <= 1.0 + NONEXPANSIVE_SLACK) and (
        max_ratio <= bound * (1.0 + 1e-9)
    )
    return StabilityCertificate(
        alpha=alpha,
        beta=beta,
        c_norm=c_norm,
        bound=bound,
        bound_any_c=0.5 * bound * c_norm,
        trials=trials,
        max_observed_ratio=max_ratio,
        verdict=verdict,
    )


@dataclass(frozen=True)
class NonexpansiveAudit:
    """Spectral norms of every communication matrix in a stack."""

    rows: list  # (layer, tag, sigma_max)
    fraction_within: float  # share of entries with sigma <= 1 + 1e-9


def nonexpansive_audit(stack: AdapterStack) -> NonexpansiveAudit:
    if any(adapter.c is None for adapter in stack.adapters):
        raise ValueError("nonexpansive_audit needs a TalkLoRA layer, one that holds c")
    sigmas = spectral_norms(np.stack([adapter.c for adapter in stack.adapters])).tolist()
    rows = [(slot.layer, slot.tag, sigma) for slot, sigma in zip(stack.slots, sigmas)]
    within = sum(sigma <= 1.0 + NONEXPANSIVE_SLACK for sigma in sigmas)
    return NonexpansiveAudit(rows=rows, fraction_within=within / len(rows))


def shannon_entropy(p: np.ndarray) -> float:
    """Natural-log entropy with the 0 log 0 = 0 convention; NaN if ``p`` holds NaN."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p != 0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class RoutingLoadReport:
    """Per-layer routing statistics (mean gate weights and their spread)."""

    mean_gates: np.ndarray  # (layers, experts)
    entropy: np.ndarray  # (layers,), in [0, ln n]
    max_share: np.ndarray  # (layers,)
    load_cv: float  # mean over layers of the CV of the layer's expert loads

    @property
    def mean_entropy(self) -> float:
        return float(self.entropy.mean())


def routing_load(stack: AdapterStack, frozen_layers: list, x) -> RoutingLoadReport:
    """Mean gate vectors over the (N, d) inputs ``x``, their entropies and
    the load spread.  Plain LoRA layers have no router and are rejected.

    ``load_cv`` is per-layer load balance (as in Switch Transformer,
    arXiv:2101.03961): the coefficient of variation of each layer's mean
    gates, averaged over the layers.  Expert j of one layer is unrelated to
    expert j of another, so loads are never pooled across layers.
    """
    if any(adapter.router_wg is None for adapter in stack.adapters):
        raise ValueError("routing_load needs a gated layer, one that holds router_wg")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a nonempty (N, d) array")
    mean_gates = _mean_gates(model_forward(frozen_layers, stack, x)[1])
    entropy = np.array([shannon_entropy(row) for row in mean_gates])
    max_share = mean_gates.max(axis=1)
    load_cv = float((mean_gates.std(axis=1) / mean_gates.mean(axis=1)).mean())
    return RoutingLoadReport(
        mean_gates=mean_gates, entropy=entropy, max_share=max_share, load_cv=load_cv
    )


@dataclass(frozen=True)
class DegeneracyReport:
    """Expressive-power probes of the communication matrix.

    identity_max_diff: largest |h~ - h| under C = I (must be exactly 0).
    isolation_max_diff: largest change in h~_i (i != j) after perturbing
    A_j under a diagonal C (must be exactly 0: experts stay independent).
    cross_influence_min: smallest witnessed change of h~_1 after
    perturbing A_2 once C_12 != 0 (must be strictly positive).
    """

    identity_max_diff: float
    isolation_max_diff: float
    cross_influence_min: float

    @property
    def passed(self) -> bool:
        return (
            self.identity_max_diff == 0.0
            and self.isolation_max_diff == 0.0
            and self.cross_influence_min > 0.0
        )


def degeneracy_check(
    tl: AdapterLayer, trials: int, rng: RngState
) -> DegeneracyReport:
    """The :class:`DegeneracyReport` probes of a layer's C over ``trials`` draws.
    TalkLoRA only: a layer that holds no C raises."""
    if tl.c is None:
        raise ValueError("degeneracy_check needs a TalkLoRA layer, one that holds c")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n, r_e, d = tl.a.shape
    if n < 2:
        raise ValueError("degeneracy probes need at least 2 experts")
    gen = rng.generator()
    # each trial's draws in a fixed order: x, j, the A_j noise, the A_2 delta
    x = np.empty((trials, d))
    j = np.empty(trials, dtype=np.intp)
    noise = np.empty((trials, r_e, d))
    delta_a2 = np.empty((trials, r_e, d))
    for t in range(trials):
        x[t] = gen.normal(size=d)
        j[t] = gen.integers(0, n)
        noise[t] = gen.normal(size=(r_e, d))
        delta_a2[t] = gen.normal(size=(r_e, d))

    c = as_matrix(tl.c, "c")
    eye = np.eye(n)
    diagonal_c = np.diag(np.diag(c))
    cross_c = c.copy()
    if not np.any(cross_c - np.diag(np.diag(cross_c))):
        cross_c[0, 1] = 1.0  # guarantee an off-diagonal channel to witness

    # The probes run on (trials, n, r_e) stacks.  Each projection is one
    # (r_e, d) @ (d, 1) product per trial and expert, and each mix one
    # (n, n) @ (n, r_e) product per trial: the products adapters._c_mix forms
    # for one trial, so the bits equal a per-trial loop.  (_c_mix on the
    # whole stack is one (n, n) @ (n, trials * r_e) product, which BLAS may
    # round differently.)
    cols = x[:, None, :, None]
    trial = np.arange(trials)
    h = (tl.a @ cols)[..., 0]
    # (a) identity communication is an exact pass-through
    identity_max = float(np.abs(eye @ h - h).max())
    # (b) diagonal C: perturbing A_j cannot reach h~_i for i != j
    h_pert = h.copy()
    h_pert[trial, j] = ((tl.a[j] + noise) @ cols[:, 0])[..., 0]
    moved = np.abs(diagonal_c @ h_pert - diagonal_c @ h)
    moved[trial, j] = 0.0  # only the other experts count
    isolation_max = float(moved.max())
    # (c) off-diagonal C_12 != 0: h~_1 must feel a perturbation of A_2
    h_cross = h.copy()
    h_cross[:, 1] = ((tl.a[1] + delta_a2) @ cols[:, 0])[..., 0]
    change = np.abs((cross_c @ h_cross)[:, 0] - (cross_c @ h)[:, 0])
    cross_min = change.max(axis=-1).min()

    return DegeneracyReport(
        identity_max_diff=identity_max,
        isolation_max_diff=isolation_max,
        cross_influence_min=float(cross_min),
    )


def communication_heatmap(stack: AdapterStack) -> list:
    """Per-layer C matrices normalized to [-1, 1] by their max-abs entry.

    Zero matrices pass through unchanged; the operation is idempotent.
    Returns (layer, tag, normalized C) triples.
    """
    if any(adapter.c is None for adapter in stack.adapters):
        raise ValueError("communication_heatmap needs a TalkLoRA layer, one that holds c")
    out = []
    for slot, adapter in zip(stack.slots, stack.adapters):
        peak = np.abs(adapter.c).max()
        normalized = adapter.c / peak if peak > 0 else adapter.c.copy()
        out.append((slot.layer, slot.tag, normalized))
    return out


# Protocol of the routing-balance comparison: a 4-cluster regression task
# with heavy intra-cluster noise, adapted with 4 experts under the
# non-expansive regime (spectral clip 1.0) that the stability analysis
# assumes; the ablation arm differs only in talking_enabled.
BALANCE_TASK = dict(
    clusters=4, input_dim=16, output_dim=16, samples_per_cluster=250, noise_std=4.0
)
BALANCE_ADAPTER = dict(total_rank=8, experts=4, lora_alpha=16.0, spectral_clip_c=1.0)
BALANCE_TRAIN = dict(
    epochs=40, batch_size=32, lr=1e-2, warmup_steps=100, eval_every=10**6, dropout=0.05
)
BALANCE_DEPTH = 4


@dataclass(frozen=True)
class BalanceResult:
    seeds: tuple
    entropy_talking: tuple
    entropy_ablated: tuple

    @property
    def mean_talking(self) -> float:
        return float(np.mean(self.entropy_talking))

    @property
    def mean_ablated(self) -> float:
        return float(np.mean(self.entropy_ablated))

    @property
    def direction_holds(self) -> bool:
        return self.mean_talking >= self.mean_ablated


def routing_balance_experiment(seeds=(0, 1, 2, 3, 4)) -> BalanceResult:
    """Train talking vs no-talking on the m=n cluster task and compare entropy.

    Both arms share the task, the frozen host, every hyperparameter and
    the seeds; only ``talking_enabled`` differs.  Returns the per-seed
    mean routing entropies (averaged over layers) after training.
    """
    ent_on, ent_off = [], []
    for seed in seeds:
        data = generate_cluster_task(ClusterTaskSpec(seed=seed, **BALANCE_TASK))
        # split() consumes nothing and host weights are read-only, so one
        # host and one rng serve both arms
        rng = RngState(1000 + seed)
        frozen = build_frozen_stack(
            BALANCE_TASK["input_dim"], BALANCE_TASK["output_dim"], BALANCE_DEPTH, rng
        )
        for talking, sink in ((True, ent_on), (False, ent_off)):
            cfg = AdapterConfig(talking_enabled=talking, **BALANCE_ADAPTER)
            stack = build_stack_from_slots(
                "talklora", cfg, frozen_stack_slots(frozen), rng
            )
            tc = TrainConfig(seed=seed, **BALANCE_TRAIN)
            train(stack, frozen, data, tc, LossSpec())
            report = routing_load(stack, frozen, data.x_eval)
            sink.append(report.mean_entropy)
    return BalanceResult(
        seeds=tuple(seeds),
        entropy_talking=tuple(ent_on),
        entropy_ablated=tuple(ent_off),
    )
