"""Desk-scale laboratory for the LoRA / MoELoRA / TalkLoRA adapter family.

Exact forward and backward math for all three adapter families, synthetic
training workloads, and the analyses that make the family's claims
checkable on a laptop: parameter budgets against published model
geometries, routing-stability certificates, non-expansive communication
audits, degeneracy checks, and routing-load statistics.

The package namespace holds what the demos and the acceptance suite use;
everything else is imported from its module.
"""

from .adapters import (
    AdapterConfig,
    FrozenLinear,
    build_frozen_stack,
    build_stack_from_slots,
    forward_one,
    frozen_stack_slots,
    init_layer,
    lora_merge,
)
from .analysis import (
    count_params,
    degeneracy_check,
    nonexpansive_audit,
    routing_balance_experiment,
    stability_certificate,
)
from .autodiff import LossSpec, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .geometry import bundled_geometry
from .linalg import RngState, spectral_norm
from .tasks import ClusterTaskSpec, TrainConfig, generate_cluster_task, train

__all__ = [
    "AdapterConfig",
    "ClusterTaskSpec",
    "FrozenLinear",
    "LossSpec",
    "RngState",
    "TrainConfig",
    "backward",
    "build_frozen_stack",
    "build_stack_from_slots",
    "bundled_geometry",
    "count_params",
    "degeneracy_check",
    "forward_one",
    "frozen_stack_slots",
    "generate_cluster_task",
    "init_layer",
    "load_checkpoint",
    "lora_merge",
    "nonexpansive_audit",
    "routing_balance_experiment",
    "save_checkpoint",
    "spectral_norm",
    "stability_certificate",
    "train",
]

__version__ = "0.1.0"
