"""Command-line surface: config-driven experiments, checkpoints, reports.

Subcommands
-----------
params     parameter budget of a method over a published model geometry
train      synthetic cluster-task training run (loss CSV, routing CSV,
           trainlog JSON, binary checkpoint)
analyze    stability / nonexpansive / routing / heatmap / degeneracy
           reports from a checkpoint
gradcheck  analytic-vs-numeric gradient verification across all families
           and ablation flags
ckpt       checkpoint roundtrip verification and header inspection

Every command reads a single JSON config (see ``parse_run_config``; its
fields, JSON kinds and defaults are in ``_CONFIG_FIELDS`` and ``_SECTIONS``,
the adapter's in ``adapters.ADAPTER_FIELDS``, which the checkpoint header
shares).  ``--seed`` is the only flag override and is echoed into all
outputs.  Exit codes are a stable contract: 0 success, 2 config/input
error, 3 numerical failure, 4 artifact corruption.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis
from ._fields import REQUIRED, read_fields
from .adapters import (
    ADAPTER_FIELDS,
    METHODS,
    AdapterConfig,
    LowRankError,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
)
from .autodiff import LossSpec, NonFiniteLossError, gradcheck, model_forward
from .checkpoint import (
    CorruptCheckpointError,
    VersionMismatchError,
    encode_checkpoint,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from .geometry import BUNDLED_GEOMETRIES, bundled_geometry, load_geometry
from .linalg import RngState
from .tasks import (
    ClusterTaskSpec,
    DivergenceError,
    TrainConfig,
    generate_cluster_task,
    loss_csv_lines,
    routing_csv_lines,
    train,
    trainlog_to_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CORRUPT = 4

GRADCHECK_TOL = 1e-6
GRADCHECK_DIM_CAP = 32

ANALYZE_REPORTS = ("stability", "nonexpansive", "routing", "heatmap", "degeneracy")


class ConfigError(ValueError):
    """Invalid or missing configuration field; names the offending key."""


class GradcheckError(ArithmeticError):
    """A gradcheck combination whose loss or relative error is not finite."""


_RUN_SEED = object()  # a seed field that defaults to the run's seed

# The config's top level, then each section: the class built from it and
# its fields, every field as (name, JSON kind, default).
_CONFIG_FIELDS = (
    ("method", str, REQUIRED), ("seed", int, 0), ("output_dir", str, "out"), ("adapter", dict, {}),
    ("targets", list[str], None), ("geometry", str, None), ("task", dict, None),
    ("model_depth", int, 4), ("train", dict, {}), ("loss", str, "mean-squared-error"),
)
_SECTIONS = {
    "adapter": (AdapterConfig, ADAPTER_FIELDS),
    "task": (ClusterTaskSpec, (
        ("clusters", int, 4), ("input_dim", int, 16), ("output_dim", int, 16),
        ("samples_per_cluster", int, 250), ("noise_std", float, 0.3), ("seed", int, _RUN_SEED),
    )),
    "train": (TrainConfig, (
        ("epochs", int, 2), ("batch_size", int, 32), ("lr", float, 3e-4),
        ("warmup_steps", int, 100), ("eval_every", int, 50), ("seed", int, _RUN_SEED),
        ("lr_schedule", str, "linear"), ("weight_decay", float, 0.0), ("dropout", float, 0.05),
    )),
}


def _seed(seed: int, name: str) -> int:
    """``seed``, which must be a valid RngState seed."""
    try:
        RngState(seed)
    except ValueError as exc:
        raise ConfigError(f"{name} must be a valid seed: {exc}") from None
    return seed


def _build(cls, section: str, **fields):
    """``cls(**fields)``, reporting a rejected value as a ConfigError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"config.{section}: {exc}") from exc


def _section(config: dict, name: str, seed: int) -> tuple:
    """Section ``name`` of the config's values: (its values, the object built
    from them), or (None, None) when the section is absent."""
    if config[name] is None:
        return None, None
    cls, fields = _SECTIONS[name]
    values = read_fields(config[name], fields, f"{name}.", ConfigError)
    if "seed" in values:
        values["seed"] = _seed(seed if values["seed"] is _RUN_SEED else values["seed"],
                               f"{name}.seed")
    return values, _build(cls, name, **values)


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config.

    ``values`` is every value the parser took, defaults applied, with each
    section as the dict of its fields; ``adapter``, ``task``, ``train`` and
    ``loss`` are built from them.
    """

    values: dict
    adapter: AdapterConfig
    task: Optional[ClusterTaskSpec]
    train: TrainConfig
    loss: LossSpec

    method = property(lambda self: self.values["method"])
    seed = property(lambda self: self.values["seed"])
    output_dir = property(lambda self: self.values["output_dir"])
    targets = property(lambda self: self.values.get("targets"))
    geometry = property(lambda self: self.values.get("geometry"))
    model_depth = property(lambda self: self.values["model_depth"])

    def effective_dict(self) -> dict:
        """The full configuration with every default applied, for echoing."""
        return copy.deepcopy(self.values)


def parse_run_config(doc: dict, seed_override: Optional[int] = None) -> RunConfig:
    """Strict parse of the single-document JSON config.

    The top level's fields, JSON kinds and defaults are in
    ``_CONFIG_FIELDS``, and each section's in ``_SECTIONS``.
    Unknown keys anywhere are rejected with the field name.
    ``task.seed`` and ``train.seed`` default to the top-level seed.
    Targets, geometry and task are echoed only when given.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be an object, got {type(doc).__name__}")
    values = read_fields(doc, _CONFIG_FIELDS, "config.", ConfigError)
    if values["method"] not in METHODS:
        raise ConfigError(f"config.method must be {'|'.join(METHODS)}, got {values['method']!r}")
    seed = _seed(values["seed"], "config.seed")
    if seed_override is not None:
        seed = _seed(seed_override, "--seed")
    values["seed"] = seed
    values["adapter"], adapter = _section(values, "adapter", seed)
    values["task"], task = _section(values, "task", seed)
    if values["model_depth"] < 1:
        raise ConfigError("config.model_depth must be positive")
    values["train"], train_cfg = _section(values, "train", seed)
    loss = _build(LossSpec, "loss", kind=values["loss"])
    values = {key: value for key, value in values.items() if value is not None}
    return RunConfig(values, adapter, task, train_cfg, loss)


def _load_config_file(path: str, seed_override: Optional[int]) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(doc, seed_override)


def _resolve_geometry(name_or_path: str):
    if name_or_path.lower() in BUNDLED_GEOMETRIES:
        return bundled_geometry(name_or_path)
    path = Path(name_or_path)
    if not path.is_file():
        raise ConfigError(f"geometry fixture not found: {name_or_path}")
    return load_geometry(path)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, lines: list) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_params(config: RunConfig) -> int:
    if config.geometry is None:
        raise ConfigError("missing required field config.geometry")
    if not config.targets:
        raise ConfigError("missing required field config.targets")
    geom = _resolve_geometry(config.geometry)
    budget = analysis.count_params(geom, config.method, config.adapter, config.targets)
    doc = analysis.budget_to_dict(budget)
    doc["method"] = config.method
    doc["geometry"] = geom.name
    doc["targets"] = sorted(config.targets)
    doc["config"] = config.effective_dict()
    print(json.dumps(doc, sort_keys=True, indent=2))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "param_budget.json", doc)
    return EXIT_OK


def _task_and_host(config: RunConfig):
    """The task data and the frozen host model, regenerated from the config's seeds."""
    if config.task is None:
        raise ConfigError("missing required field config.task")
    data = _build(generate_cluster_task, "task", spec=config.task)
    frozen = build_frozen_stack(
        config.task.input_dim, config.task.output_dim, config.model_depth,
        RngState(config.seed),
    )
    return data, frozen


def _build_training_pieces(config: RunConfig):
    data, frozen = _task_and_host(config)
    stack = build_stack_from_slots(
        config.method, config.adapter, frozen_stack_slots(frozen), RngState(config.seed)
    )
    return data, frozen, stack


def cmd_train(config: RunConfig) -> int:
    if config.loss.kind != "mean-squared-error":
        raise ConfigError(
            f"config.loss must be mean-squared-error for train, got {config.loss.kind!r}: "
            "the cluster task's targets are real-valued (softmax-cross-entropy is for gradcheck)"
        )
    data, frozen, stack = _build_training_pieces(config)
    # an unusable output_dir fails here, before any training
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = train(stack, frozen, data, config.train, config.loss)
    ckpt_path = out / "checkpoint.tlkl"
    save_checkpoint(ckpt_path, stack, config.effective_dict())
    log.checkpoint = str(ckpt_path)
    _write_csv(out / "loss.csv", loss_csv_lines(log))
    _write_csv(out / "routing.csv", routing_csv_lines(log))
    _write_json(out / "trainlog.json", trainlog_to_dict(log))
    summary = {
        "steps": log.steps[-1].step,
        "final_loss": log.steps[-1].loss,
        "final_eval_loss": log.snapshots[-1].eval_loss if log.snapshots else None,
        "checkpoint": str(ckpt_path),
        "outputs": ["loss.csv", "routing.csv", "trainlog.json", "checkpoint.tlkl"],
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_analyze(checkpoint: str, report: str, out_dir: Optional[str],
                trials: int = 1000) -> int:
    stack, echoed = load_checkpoint(checkpoint)
    # stability and degeneracy draw their probes from the run's seed, and
    # routing rebuilds the task data and the frozen host; the adapter's own
    # settings come from the stack, which was built from them
    config = parse_run_config(echoed) if report in ("stability", "routing", "degeneracy") else None
    if report != "routing" and stack.method != "talklora":
        raise ConfigError(f"report {report!r} needs a talklora checkpoint")
    if report == "routing":
        if stack.method == "lora":
            raise ConfigError("report 'routing' needs a moelora or talklora checkpoint")
        if config.task is None:
            raise ConfigError("checkpoint config carries no task; cannot rebuild data")
    if report == "stability" and trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    out = Path(out_dir) if out_dir else Path(checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {"report": report, "checkpoint": checkpoint}

    if report == "stability":
        certs = []
        for i, adapter in enumerate(stack.adapters):
            cert = analysis.stability_certificate(
                adapter,
                trials=trials,
                delta_scale=0.1,
                rng=RngState(config.seed).split(f"stability.L{i:02d}"),
                talking_enabled=stack.cfg.talking_enabled,
            )
            doc = analysis.certificate_to_dict(cert)
            doc["layer"] = stack.slots[i].layer
            doc["tag"] = stack.slots[i].tag
            certs.append(doc)
        _write_json(out / "stability.json", {"certificates": certs})
        summary["all_verdicts_pass"] = all(c["verdict"] for c in certs)
        summary["max_observed_ratio"] = max(c["max_observed_ratio"] for c in certs)
    elif report == "nonexpansive":
        audit = analysis.nonexpansive_audit(stack)
        _write_csv(out / "nonexpansive.csv", analysis.nonexpansive_csv_lines(audit))
        summary["fraction_within"] = audit.fraction_within
        summary["max_sigma"] = max(sigma for _, _, sigma in audit.rows)
    elif report == "routing":
        data, frozen = _task_and_host(config)
        rep = analysis.routing_load(stack, frozen, data.x_eval)
        _write_csv(out / "routing_load.csv", analysis.routing_load_csv_lines(rep))
        summary["mean_entropy"] = rep.mean_entropy
        summary["load_cv"] = rep.load_cv
    elif report == "heatmap":
        heat = analysis.communication_heatmap(stack)
        _write_csv(out / "heatmap.csv", analysis.heatmap_csv_lines(heat))
        summary["layers"] = len(heat)
    else:  # degeneracy
        reports = []
        for i, adapter in enumerate(stack.adapters):
            rep = analysis.degeneracy_check(
                adapter, trials=100,
                rng=RngState(config.seed).split(f"degeneracy.L{i:02d}"),
            )
            reports.append(
                {
                    "layer": stack.slots[i].layer,
                    "tag": stack.slots[i].tag,
                    "identity_max_diff": rep.identity_max_diff,
                    "isolation_max_diff": rep.isolation_max_diff,
                    "cross_influence_min": rep.cross_influence_min,
                    "passed": rep.passed,
                }
            )
        _write_json(out / "degeneracy.json", {"layers": reports})
        summary["all_passed"] = all(r["passed"] for r in reports)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _gradcheck_dims(config: RunConfig) -> tuple:
    """The task's (input_dim, output_dim), checked against the gradcheck cap."""
    if config.task is None:
        raise ConfigError("missing required field config.task")
    d, k = config.task.input_dim, config.task.output_dim
    if d > GRADCHECK_DIM_CAP or k > GRADCHECK_DIM_CAP:
        raise ConfigError(
            f"gradcheck dims capped at {GRADCHECK_DIM_CAP} "
            f"(got input_dim={d}, output_dim={k})"
        )
    return d, k


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_gradcheck_suite(config: RunConfig) -> dict:
    """Gradcheck every family x sharing x talking combination.

    Uses the config's task dims, rank/expert counts and model depth on a
    small random batch; returns per-combination max relative errors.  A
    non-finite loss or relative error raises GradcheckError, naming the
    combination (and the handle).
    """
    d, k = _gradcheck_dims(config)
    rng = RngState(config.seed)
    gen = rng.split("gradcheck.data").generator()
    x = gen.normal(size=(4, d))
    target_noise = gen.normal(size=(4, k))
    class_targets = gen.integers(0, k, size=4)
    combos = []
    worst = 0.0
    for method in METHODS:
        for share_b in (False, True):
            for talking in (False, True):
                frozen = build_frozen_stack(d, k, config.model_depth, rng)
                cfg = replace(config.adapter, share_b=share_b, talking_enabled=talking,
                              spectral_clip_c=None)
                stack = build_stack_from_slots(
                    method, cfg, frozen_stack_slots(frozen), rng
                )
                for handle, arr in stack.named_parameters():
                    if ".B" in handle:  # nonzero B so every path carries gradient
                        g = rng.split(f"fill.{method}.{share_b}.{talking}.{handle}")
                        arr[:] = 0.3 * g.generator().normal(size=arr.shape)
                if config.loss.kind == "mean-squared-error":
                    # targets near the model output: a small loss, with
                    # gradient on every path
                    z0, _ = model_forward(frozen, stack, x)
                    targets = z0 + 0.3 * target_noise
                else:
                    targets = class_targets
                combo = f"gradcheck {method} share_b={share_b} talking_enabled={talking}"
                try:
                    report = gradcheck(stack, frozen, (x, targets), config.loss)
                except NonFiniteLossError as exc:
                    raise GradcheckError(f"{combo}: {exc}") from exc
                if not math.isfinite(report.max_relative_error):
                    raise GradcheckError(f"{combo}: relative error {report.max_relative_error} "
                                         f"at {report.worst_handle}")
                combos.append(
                    {
                        "method": method,
                        "share_b": share_b,
                        "talking_enabled": talking,
                        "max_relative_error": report.max_relative_error,
                        "worst_handle": report.worst_handle,
                    }
                )
                worst = max(worst, report.max_relative_error)
    return {
        "tolerance": GRADCHECK_TOL,
        "max_relative_error": worst,
        "passed": worst < GRADCHECK_TOL,
        "combinations": combos,
    }


def cmd_gradcheck(config: RunConfig) -> int:
    _gradcheck_dims(config)
    # an unusable output_dir fails here, before the suite runs
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_gradcheck_suite(config)
    _write_json(out / "gradcheck.json", result)
    print(json.dumps(
        {k: result[k] for k in ("tolerance", "max_relative_error", "passed")},
        sort_keys=True, indent=2,
    ))
    return EXIT_OK if result["passed"] else EXIT_NUMERIC


def cmd_ckpt(action: str, checkpoint: str) -> int:
    if action == "inspect":
        header = read_header(checkpoint)
        doc = {
            "format_version": header["format_version"],
            "method": header["method"],
            "adapter_config": header["adapter_config"],
            "slots": len(header["slots"]),
            "tensors": len(header["tensors"]),
            "shared_tensors": sum(
                1 for t in header["tensors"] if t["handle"].startswith("shared.")
            ),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return EXIT_OK
    # roundtrip: load (checksum-validating), re-encode in memory, compare bytes
    stack, echoed = load_checkpoint(checkpoint)
    identical = b"".join(encode_checkpoint(stack, echoed)) == Path(checkpoint).read_bytes()
    print(json.dumps({"roundtrip_bit_identical": identical}, indent=2))
    return EXIT_OK if identical else EXIT_CORRUPT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talklora",
        description="Desk-scale laboratory for the LoRA/MoELoRA/TalkLoRA family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_seed in (("params", True), ("train", True), ("gradcheck", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed (echoed into outputs)")

    p = sub.add_parser("analyze")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True, choices=ANALYZE_REPORTS)
    p.add_argument("--out", default=None, help="output dir (default: checkpoint dir)")
    p.add_argument("--trials", type=int, default=1000,
                   help="perturbation trials per layer for the stability report")

    p = sub.add_parser("ckpt")
    p.add_argument("action", choices=("roundtrip", "inspect"))
    p.add_argument("--checkpoint", required=True)
    return parser


_PARSER = None  # built by the first main() call and reused by later ones


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "params":
            return cmd_params(_load_config_file(args.config, args.seed))
        if args.command == "train":
            return cmd_train(_load_config_file(args.config, args.seed))
        if args.command == "gradcheck":
            return cmd_gradcheck(_load_config_file(args.config, None))
        if args.command == "analyze":
            return cmd_analyze(args.checkpoint, args.report, args.out, args.trials)
        if args.command == "ckpt":
            return cmd_ckpt(args.action, args.checkpoint)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"input not found: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # e.g. output_dir names a file, --checkpoint a directory
        print(f"path error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NonFiniteLossError, GradcheckError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorruptCheckpointError, VersionMismatchError) as exc:
        print(f"artifact corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except LowRankError as exc:  # the config's total_rank against a slot's or target's dims
        print(f"config error: config.adapter.{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(
            f"config error: the configured sizes need more memory than is available: {exc}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
