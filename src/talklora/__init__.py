"""Desk-scale laboratory for the LoRA / MoELoRA / TalkLoRA adapter family.

Exact forward and backward math for all three adapter families, synthetic
training workloads, and the analyses that make the family's claims
checkable on a laptop: parameter budgets against published model
geometries, routing-stability certificates, non-expansive communication
audits, degeneracy checks, and routing-load statistics.
"""

from .adapters import (
    AdapterConfig,
    AdapterLayer,
    AdapterStack,
    ForwardTrace,
    FrozenLinear,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
    init_lora,
    init_moelora,
    init_talklora,
    lora_forward,
    lora_merge,
    moelora_forward,
    talklora_forward,
)
from .analysis import (
    ParamBudget,
    RoutingLoadReport,
    StabilityCertificate,
    communication_heatmap,
    count_params,
    degeneracy_check,
    nonexpansive_audit,
    routing_balance_experiment,
    routing_load,
    stability_certificate,
)
from .autodiff import (
    AdamWHyper,
    AdamWState,
    LossSpec,
    adamw_step,
    backward,
    finite_difference_oracle,
    gradcheck,
    model_forward,
    stack_adamw_step,
)
from .checkpoint import load_checkpoint, read_header, save_checkpoint
from .geometry import ModelGeometry, bundled_geometry, load_geometry
from .linalg import (
    RngState,
    kaiming_init,
    spectral_norm,
)
from .tasks import (
    ClusterTaskSpec,
    TrainConfig,
    TrainLog,
    evaluate,
    generate_cluster_task,
    train,
)

__all__ = [
    "AdapterConfig",
    "AdapterLayer",
    "AdapterStack",
    "AdamWHyper",
    "AdamWState",
    "ClusterTaskSpec",
    "ForwardTrace",
    "FrozenLinear",
    "LossSpec",
    "ModelGeometry",
    "ParamBudget",
    "RngState",
    "RoutingLoadReport",
    "StabilityCertificate",
    "TrainConfig",
    "TrainLog",
    "adamw_step",
    "backward",
    "build_frozen_stack",
    "build_stack_from_slots",
    "bundled_geometry",
    "communication_heatmap",
    "count_params",
    "degeneracy_check",
    "evaluate",
    "finite_difference_oracle",
    "frozen_stack_slots",
    "generate_cluster_task",
    "gradcheck",
    "init_lora",
    "init_moelora",
    "init_talklora",
    "kaiming_init",
    "load_checkpoint",
    "load_geometry",
    "lora_forward",
    "lora_merge",
    "model_forward",
    "moelora_forward",
    "nonexpansive_audit",
    "read_header",
    "routing_balance_experiment",
    "routing_load",
    "save_checkpoint",
    "spectral_norm",
    "stability_certificate",
    "stack_adamw_step",
    "talklora_forward",
    "train",
]

__version__ = "0.1.0"
