"""Which program functions the benchmark times, and the per-layer metric list.

The layers are talklora's modules.  Each target is a public entry point
of a module (plus the few private helpers the per-layer table names);
``STEP_CLOCK`` is the subset the untraced run keeps, just enough to read
the clock at training-step boundaries.
"""

from __future__ import annotations

import os

from spans import Target

FAMILIES = ("lora", "moelora", "talklora")
CLI_COMMANDS = ("params", "train", "analyze", "gradcheck", "ckpt")

# A training step runs from one call of backward made by the training
# loop to the next one (or to the end of the loop).
STEP_LOOP = "tasks.train"
STEP_CALL = "autodiff.backward"


def _family(args, kwargs):
    stack = args[0] if args else kwargs.get("stack")
    return getattr(stack, "method", None)


def _command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _capture_stack(tracer, args, kwargs, result):
    tracer.captured.append(args[0] if args else kwargs["stack"])


def _count_tensors(tracer, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    items = params.named_parameters() if hasattr(params, "named_parameters") else params
    tracer.count("autodiff.adamw_step.tensors", len(items))


def _file_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[0] if args else kwargs["path"]))
    return observe


STEP_CLOCK = (
    Target(STEP_LOOP, observe=_capture_stack),
    Target(STEP_CALL, tag=_family),
)

TRACED = STEP_CLOCK + (
    Target("linalg.spectral_norm"),
    Target("linalg.kaiming_init"),
    Target("linalg.RngState.split"),
    Target("geometry.bundled_geometry"),
    Target("adapters.build_frozen_stack"),
    Target("adapters.build_stack_from_slots"),
    Target("adapters.lora_batch_forward"),
    Target("adapters.moelora_batch_forward"),
    Target("adapters.talklora_batch_forward"),
    Target("adapters.AdapterStack.slot_cfg"),
    Target("adapters.router_gates"),
    Target("autodiff.model_forward"),
    Target("autodiff.adamw_step", observe=_count_tensors),
    Target("autodiff.apply_spectral_clip"),
    Target("autodiff.finite_difference_oracle"),
    Target("autodiff._reference_loss"),
    Target("tasks.generate_cluster_task"),
    Target("tasks.evaluate"),
    Target("tasks._mean_gates"),
    Target("analysis.routing_load"),
    Target("analysis.stability_certificate"),
    Target("analysis.nonexpansive_audit"),
    Target("analysis.degeneracy_check"),
    Target("analysis.count_params"),
    Target("checkpoint.save_checkpoint",
           observe=_file_bytes("checkpoint.save_checkpoint.bytes")),
    Target("checkpoint.load_checkpoint",
           observe=_file_bytes("checkpoint.load_checkpoint.bytes")),
    Target("cli.parse_run_config"),
    Target("cli.main", tag=_command),
)

COUNTERS = (
    ("autodiff.adamw_step.tensors", "count", "lower"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower"),
    ("checkpoint.load_checkpoint.bytes", "B", "lower"),
)

KERNEL_PER_FAMILY = (
    ("step_gflop", "GFLOP", "lower"),
    ("step_gbyte", "GB", "lower"),
    ("gflops_achieved", "GFLOP/s", "higher"),
    ("frac_of_peak", "ratio", "higher"),
)


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    span_keys = [t.name for t in TRACED]
    span_keys += [f"{STEP_CALL}.{f}" for f in FAMILIES]
    span_keys += [f"cli.main.{c}" for c in CLI_COMMANDS]
    for key in span_keys:
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.self_ms", "ms", "lower"))
    out.extend(COUNTERS)
    out.append(("tasks.step_ms_p99", "ms", "lower"))
    out.append(("tasks.step_ms.samples", "count", "higher"))
    out.append(("kernel.dgemm_peak_gflops", "GFLOP/s", "higher"))
    for family in FAMILIES:
        for metric, unit, better in KERNEL_PER_FAMILY:
            out.append((f"kernel.{family}.{metric}", unit, better))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out.append(("trace.step_unattributed_frac", "ratio", "lower"))
    out.append(("trace.missing", "count", "lower"))
    return out
