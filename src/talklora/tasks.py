"""Synthetic desk-scale workloads and the training loop.

The stand-in for full-scale LLM fine-tuning: a frozen tanh-chained linear
stack is adapted on a clustered linear-regression task whose heterogeneity
(one ground-truth map per cluster) is what gives the router something to
specialize on.  Everything is deterministic given the seeds, down to byte
identity of the logs.

A rejected spec's ValueError starts with its field.  A run whose loss,
update or eval loss goes non-finite raises :class:`DivergenceError`, an
``autodiff.NumericalError`` carrying the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .adapters import AdapterStack
from .autodiff import (
    AdamWHyper,
    AdamWState,
    LossSpec,
    NumericalError,
    backward,
    loss_value,
    model_forward,
    stack_adamw_step,
)
from .linalg import RngState


@dataclass(frozen=True)
class ClusterTaskSpec:
    """Mixture of linear regression problems.

    Sample inputs are cluster centers plus isotropic Gaussian noise; the
    target of a sample in cluster c is W_c applied to its (noisy) input.
    Centers and per-cluster maps are drawn from named streams of ``seed``.
    """

    clusters: int
    input_dim: int
    output_dim: int
    samples_per_cluster: int
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("clusters", "input_dim", "output_dim", "samples_per_cluster"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.clusters * self.samples_per_cluster < 2:  # the eval split takes the first sample
            raise ValueError("samples_per_cluster times clusters must be at least 2, got "
                             f"{self.samples_per_cluster} * {self.clusters}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")


@dataclass
class ClusterDataset:
    x_train: np.ndarray
    y_train: np.ndarray
    cluster_train: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray
    cluster_eval: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # a non-finite draw is reported below
def generate_cluster_task(spec: ClusterTaskSpec) -> ClusterDataset:
    """Deterministic dataset for a spec; train/eval split 90/10 by stride.

    Samples are laid out cluster-blocked, permuted once with a seeded
    stream, and every tenth sample of the permuted order goes to the eval
    split.  Data that overflow (a huge ``noise_std``) raise ValueError.
    """
    rng = RngState(spec.seed)
    m, d, k = spec.clusters, spec.input_dim, spec.output_dim
    centers = 2.0 * rng.split("centers").generator().normal(size=(m, d))
    maps = rng.split("maps").generator().normal(size=(m, k, d)) / math.sqrt(d)

    total = m * spec.samples_per_cluster
    cluster_ids = np.repeat(np.arange(m), spec.samples_per_cluster)
    noise = spec.noise_std * rng.split("noise").generator().normal(size=(total, d))
    x = centers[cluster_ids] + noise
    y = np.empty((total, k))
    for c in range(m):
        mask = cluster_ids == c
        y[mask] = x[mask] @ maps[c].T
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"noise_std {spec.noise_std} makes the task data non-finite")

    order = rng.split("order").generator().permutation(total)
    x, y, cluster_ids = x[order], y[order], cluster_ids[order]
    eval_mask = np.zeros(total, dtype=bool)
    eval_mask[::10] = True
    return ClusterDataset(
        x_train=x[~eval_mask],
        y_train=y[~eval_mask],
        cluster_train=cluster_ids[~eval_mask],
        x_eval=x[eval_mask],
        y_eval=y[eval_mask],
        cluster_eval=cluster_ids[eval_mask],
    )


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol: AdamW with linear warmup then linear decay.

    Defaults mirror the reference fine-tuning recipe (batch 32, warmup
    100, dropout 0.05); ``dropout`` applies to the adapter-path input
    during training only.
    """

    epochs: int
    batch_size: int = 32
    lr: float = 3e-4
    warmup_steps: int = 100
    eval_every: int = 50
    seed: int = 0
    lr_schedule: str = "linear"
    weight_decay: float = 0.0
    dropout: float = 0.05

    def __post_init__(self):
        for name in ("epochs", "batch_size", "eval_every", "warmup_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.lr_schedule != "linear":
            raise ValueError(f"lr_schedule must be 'linear', got {self.lr_schedule!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


class DivergenceError(NumericalError):
    """Training loss, parameters or eval loss became non-finite; carries the
    offending step."""

    def __init__(self, step: int, quantity: str = "loss"):
        self.step = step
        super().__init__(f"training diverged (non-finite {quantity}) at step {step}")


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float


@dataclass
class RoutingSnapshot:
    step: int
    eval_loss: float
    mean_gates: Optional[np.ndarray]  # (layers, experts); None for plain LoRA


@dataclass
class TrainLog:
    steps: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)


def _schedule_lr(step: int, total: int, tc: TrainConfig) -> float:
    """Linear warmup to ``tc.lr``, then linear decay to 0 at ``total``.  ``train``
    calls it with 1 <= step <= total, so past the warmup total > warmup_steps."""
    if step <= tc.warmup_steps:
        return tc.lr * step / tc.warmup_steps
    return tc.lr * (total - step) / (total - tc.warmup_steps)


def _mean_gates(caches: list) -> Optional[np.ndarray]:
    """(layers, experts) mean gate vectors of a forward's caches; None for LoRA."""
    if caches[0].gates is None:
        return None
    return np.stack([cache.gates.mean(axis=0) for cache in caches], axis=0)


def _dropout_scales(frozen_layers, batch: int, p: float, rng: RngState, step: int):
    """Per-layer (batch, d_in) mask/(1-p) factors for one step; None at p = 0.

    One uniform draw covers every layer.  Philox fills doubles in order,
    so layer i's slice equals a separate (batch, d_in) draw made after
    those of the layers before it.
    """
    if p == 0.0:
        return None
    sizes = [batch * fl.d_in for fl in frozen_layers]
    gen = rng.split(f"dropout.step{step}").generator()
    scales = (gen.uniform(size=sum(sizes)) >= p) / (1.0 - p)
    return [
        scales[end - size:end].reshape(batch, fl.d_in)
        for fl, size, end in zip(frozen_layers, sizes, accumulate(sizes))
    ]


def train(
    stack: AdapterStack,
    frozen_layers: list,
    data: ClusterDataset,
    tc: TrainConfig,
    loss: LossSpec,
) -> TrainLog:
    """AdamW training with per-step loss logging and periodic routing snapshots,
    each taken by one :func:`evaluate`.

    Deterministic given the config seed and the dataset; aborts with
    :class:`DivergenceError` if a batch's loss goes non-finite (the stack
    keeps the last step's parameters), or if an update does, an overflowed
    gradient included, or the eval loss after it (the stack keeps that
    update).  The frozen weights and the dataset are never mutated.
    """
    rng = RngState(tc.seed)
    n_train = data.x_train.shape[0]
    if n_train == 0:
        raise ValueError("training split is empty")
    steps_per_epoch = math.ceil(n_train / tc.batch_size)
    total_steps = tc.epochs * steps_per_epoch
    state = AdamWState(stack)
    log = TrainLog()
    step = 0
    # an overflow or NaN on the way is not reported as a numpy warning: the
    # loss and update checks turn every non-finite result into DivergenceError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(tc.epochs):
            perm = rng.split(f"shuffle.epoch{epoch}").generator().permutation(n_train)
            for b in range(steps_per_epoch):
                idx = perm[b * tc.batch_size : (b + 1) * tc.batch_size]
                xb, yb = data.x_train[idx], data.y_train[idx]
                step += 1
                lr_t = _schedule_lr(step, total_steps, tc)
                scales = _dropout_scales(frozen_layers, xb.shape[0], tc.dropout, rng, step)
                try:
                    loss_val, grad = backward(stack, frozen_layers, (xb, yb), loss, scales)
                except NumericalError as exc:
                    raise DivergenceError(step) from exc
                hyper = AdamWHyper(lr=lr_t, weight_decay=tc.weight_decay)
                try:
                    stack_adamw_step(stack, grad, state, hyper)
                except NumericalError as exc:
                    raise DivergenceError(step, "parameters") from exc
                log.steps.append(StepRecord(step=step, lr=lr_t, loss=loss_val))
                if step % tc.eval_every == 0 or step == total_steps:
                    try:
                        eval_loss, caches = evaluate(stack, frozen_layers, data, loss)
                    except NumericalError as exc:
                        raise DivergenceError(step, "eval loss") from exc
                    log.snapshots.append(
                        RoutingSnapshot(
                            step=step, eval_loss=eval_loss, mean_gates=_mean_gates(caches)
                        )
                    )
    return log


def evaluate(
    stack: AdapterStack, frozen_layers: list, data: ClusterDataset, loss: LossSpec
) -> tuple[float, list]:
    """Mean loss over the eval split and the forward caches it came from;
    pure, no dropout, no mutation."""
    if data.x_eval.shape[0] == 0:
        raise ValueError("eval split is empty")
    z, caches = model_forward(frozen_layers, stack, data.x_eval)
    return loss_value(z, data.y_eval, loss), caches
