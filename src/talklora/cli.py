"""Command-line surface: config-driven experiments, checkpoints, reports.

Subcommands
-----------
params     parameter budget of a method over a published model geometry
train      synthetic cluster-task training run (loss CSV, routing CSV,
           trainlog JSON, binary checkpoint)
analyze    stability / nonexpansive / routing / heatmap / degeneracy
           reports from a checkpoint
gradcheck  analytic-vs-numeric gradient verification of the config's
           family and each family it generalizes (TalkLoRA at every
           sharing x talking setting)
ckpt       checkpoint roundtrip verification and header inspection

Every command reads a single JSON config (see ``parse_run_config``; its
fields, JSON kinds and defaults are in ``_CONFIG_FIELDS`` and ``_SECTIONS``,
the adapter's in ``adapters.ADAPTER_FIELDS``, which the checkpoint header
shares).  ``--seed`` is the only flag override and is echoed into all
outputs.  Exit codes are a stable contract: 0 success, 2 config/input
error, 3 numerical failure (``autodiff.NumericalError``), 4 artifact
corruption; a rejected config value is named ``config.<section>.<field>``.
This is the only module that writes files or stdout; ``tasks`` and
``analysis`` return only their dataclasses and arrays.  Every artifact and
printed summary goes through one CSV writer (``_write_csv``) or one JSON
emitter (``_emit_json``), which refuse NaN and infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis
from ._fields import REQUIRED, read_fields, read_json
from .adapters import (
    ADAPTER_FIELDS,
    METHODS,
    AdapterConfig,
    LowRankError,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
    layer_layout,
)
from .autodiff import LossSpec, NumericalError, gradcheck
from .checkpoint import (
    CorruptCheckpointError,
    encode_checkpoint,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from .geometry import bundled_geometry, load_geometry
from .linalg import RngState
from .tasks import ClusterTaskSpec, TrainConfig, generate_cluster_task, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CORRUPT = 4

GRADCHECK_TOL = 1e-6
GRADCHECK_DIM_CAP = 32

ANALYZE_REPORTS = ("stability", "nonexpansive", "routing", "heatmap", "degeneracy")


class ConfigError(ValueError):
    """Invalid or missing configuration field; names the offending key."""


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


def _build(cls, where: str, **fields):
    """``cls(**fields)``; a rejected value raises ConfigError(``where`` + its message),
    except a LowRankError, which ``main`` names under ``config.adapter.``."""
    try:
        return cls(**fields)
    except LowRankError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _section(config: dict, name: str, seed: int) -> tuple:
    """Section ``name`` of the config's values: (its values, the object built
    from them), or (None, None) when the section is absent."""
    if config[name] is None:
        return None, None
    cls, fields = _SECTIONS[name]
    where = f"config.{name}."
    values = read_fields(config[name], fields, where, ConfigError)
    if "seed" in values:
        values["seed"] = _seed(seed if values["seed"] is _RUN_SEED else values["seed"],
                               f"{where}seed")
    return values, _build(cls, where, **values)


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config.

    ``values`` is every value the parser took, defaults applied, with each
    section as the dict of its fields; ``adapter``, ``task``, ``train`` and
    ``loss`` are built from them, and ``params`` and the checkpoint echo it.
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
        raise ConfigError(f"config.model_depth must be positive, got {values['model_depth']}")
    values["train"], train_cfg = _section(values, "train", seed)
    loss = _build(LossSpec, "config.", kind=values["loss"])
    values = {key: value for key, value in values.items() if value is not None}
    return RunConfig(values, adapter, task, train_cfg, loss)


def _load_config_file(path: str, seed_override: Optional[int]) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    doc = read_json(p.read_bytes(), ConfigError, f"config file {path} is not valid JSON")
    return parse_run_config(doc, seed_override)


def _resolve_geometry(name_or_path: str):
    """The bundled geometry of that name, else the fixture at that path."""
    try:
        return bundled_geometry(name_or_path)
    except KeyError:
        path = Path(name_or_path)
    if not path.is_file():
        raise ConfigError(f"geometry fixture not found: {name_or_path}")
    return load_geometry(path)


def _non_finite_field(doc, path: str = ""):
    """``<path> is <value>`` for the first NaN or infinity in ``doc``, in
    emitted order, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else f"{path} is {doc}"
    if isinstance(doc, dict):
        children = ((f"{path}.{key}" if path else key, doc[key]) for key in sorted(doc))
    elif isinstance(doc, (list, tuple, np.ndarray)):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(doc))
    else:
        return None
    for name, value in children:
        found = _non_finite_field(value, name)
        if found:
            return found
    return None


def _emit_json(doc: dict, path: Optional[Path] = None) -> None:
    """Write ``doc`` to ``path``, or print it when no path is given.

    The one JSON form of every artifact and summary: sorted keys, so field
    order cannot move a byte, two-space indent and arrays as lists.  A
    value that is NaN or infinite raises NumericalError naming the
    artifact and the field, before anything is written.
    """
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False,
                          default=np.ndarray.tolist)
    except ValueError:
        where = path.name if path else "stdout"
        raise NumericalError(f"{where}: {_non_finite_field(doc)}") from None
    if path is None:
        print(text)
    else:
        path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, schema: str, columns: tuple, rows) -> None:
    """Write a ``#schema=<schema>`` line, the ``columns`` header and one line per row.

    The one CSV form of every artifact: a float as %.17g, so the bytes
    are stable, anything else as str.  A float that is NaN or infinite
    raises NumericalError naming the artifact, the row (counted
    from 1 below the header) and the column, before the file is opened.
    """
    lines = [f"#schema={schema}", ",".join(columns)]
    for i, row in enumerate(rows, 1):
        cells = []
        for column, value in zip(columns, row):
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise NumericalError(f"{path.name}: row {i} {column} is {value}")
                value = f"{value:.17g}"
            cells.append(str(value))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_params(config: RunConfig) -> int:
    if config.geometry is None:
        raise ConfigError("missing required field config.geometry")
    if config.targets is None:
        raise ConfigError("missing required field config.targets")
    geom = _resolve_geometry(config.geometry)
    budget = _build(analysis.count_params, "config.", geom=geom, method=config.method,
                    cfg=config.adapter, targets=config.targets)
    doc = {"schema": "param-budget-v1", **asdict(budget), "method": config.method,
           "geometry": geom.name, "targets": sorted(config.targets),
           "config": config.values}
    # an unusable output_dir fails here, before the summary is printed
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _emit_json(doc)
    _emit_json(doc, out / "param_budget.json")
    return EXIT_OK


def _task_and_host(config: RunConfig):
    """The task data and the frozen host model, regenerated from the config's seeds."""
    if config.task is None:
        raise ConfigError("missing required field config.task")
    data = _build(generate_cluster_task, "config.task.", spec=config.task)
    frozen = build_frozen_stack(
        config.task.input_dim, config.task.output_dim, config.model_depth,
        RngState(config.seed),
    )
    return data, frozen


def cmd_train(config: RunConfig) -> int:
    if config.loss.kind != "mean-squared-error":
        raise ConfigError(
            f"config.loss must be mean-squared-error for train, got {config.loss.kind!r}: "
            "the cluster task's targets are real-valued (softmax-cross-entropy is for gradcheck)"
        )
    data, frozen = _task_and_host(config)
    stack = build_stack_from_slots(
        config.method, config.adapter, frozen_stack_slots(frozen), RngState(config.seed)
    )
    # an unusable output_dir fails here, before any training
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = train(stack, frozen, data, config.train, config.loss)
    ckpt_path = out / "checkpoint.tlkl"
    save_checkpoint(ckpt_path, stack, config.values)
    _write_csv(out / "loss.csv", "loss-v1", ("step", "lr", "loss"),
               ((s.step, s.lr, s.loss) for s in log.steps))
    _write_csv(out / "routing.csv", "routing-v1", ("step", "layer", "expert", "mean_gate"),
               ((snap.step, layer, expert, gate) for snap in log.snapshots
                if snap.mean_gates is not None
                for (layer, expert), gate in np.ndenumerate(snap.mean_gates)))
    _emit_json({"schema": "trainlog-v1", **asdict(log), "checkpoint": str(ckpt_path)},
               out / "trainlog.json")
    summary = {
        "steps": log.steps[-1].step,
        "final_loss": log.steps[-1].loss,
        "final_eval_loss": log.snapshots[-1].eval_loss if log.snapshots else None,
        "checkpoint": str(ckpt_path),
        "outputs": ["loss.csv", "routing.csv", "trainlog.json", "checkpoint.tlkl"],
    }
    _emit_json(summary)
    return EXIT_OK


# an overflow or NaN on the way is not reported as a numpy warning: the
# writers refuse every non-finite value that reaches a report
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cmd_analyze(checkpoint: str, report: str, out_dir: Optional[str], trials: int) -> int:
    stack, echoed = load_checkpoint(checkpoint)
    # stability and degeneracy draw their probes from the run's seed, and
    # routing rebuilds the task data and the frozen host; the adapter's own
    # settings come from the stack, which was built from them
    config = parse_run_config(echoed) if report in ("stability", "routing", "degeneracy") else None
    # each report is computed before --out is made, so one that the analysis
    # or the checkpoint's config rejects leaves nothing behind: ``artifact``
    # is its file name and its JSON document or CSV (schema, columns, rows)
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
            certs.append({"schema": "stability-certificate-v1", **asdict(cert),
                          "layer": stack.slots[i].layer, "tag": stack.slots[i].tag})
        summary["all_verdicts_pass"] = all(c["verdict"] for c in certs)
        summary["max_observed_ratio"] = max(c["max_observed_ratio"] for c in certs)
        artifact = "stability.json", {"certificates": certs}
    elif report == "nonexpansive":
        audit = analysis.nonexpansive_audit(stack)
        summary["fraction_within"] = audit.fraction_within
        summary["max_sigma"] = max(sigma for _, _, sigma in audit.rows)
        artifact = "nonexpansive.csv", ("nonexpansive-v1", ("layer", "tag", "sigma_max"),
                                        audit.rows)
    elif report == "routing":
        data, frozen = _task_and_host(config)
        host = [(slot.d_in, slot.d_out) for slot in frozen_stack_slots(frozen)]
        held = [(slot.d_in, slot.d_out) for slot in stack.slots]
        if host != held:  # dims only: a library checkpoint's tags may differ
            field = ("model_depth" if len(host) != len(held) else
                     "task.input_dim" if host[0][0] != held[0][0] else "task.output_dim")
            raise ConfigError(f"config.{field} rebuilds a host of (d_in, d_out) "
                              f"layers {host}, but the checkpoint's slots are {held}")
        rep = analysis.routing_load(stack, frozen, data.x_eval)
        summary["mean_entropy"] = rep.mean_entropy
        summary["load_cv"] = rep.load_cv
        artifact = "routing_load.csv", (
            "routing-load-v1", ("layer", "expert", "mean_gate", "entropy", "max_share"),
            ((layer, expert, gate, rep.entropy[layer], rep.max_share[layer])
             for (layer, expert), gate in np.ndenumerate(rep.mean_gates)))
    elif report == "heatmap":
        heat = analysis.communication_heatmap(stack)
        summary["layers"] = len(heat)
        artifact = "heatmap.csv", (
            "heatmap-v1", ("layer", "tag", "row", "col", "value"),
            ((layer, tag, i, j, value)
             for layer, tag, c in heat for (i, j), value in np.ndenumerate(c)))
    else:  # degeneracy
        reports = []
        for i, adapter in enumerate(stack.adapters):
            rep = analysis.degeneracy_check(
                adapter, trials=100,
                rng=RngState(config.seed).split(f"degeneracy.L{i:02d}"),
            )
            reports.append({**asdict(rep), "passed": rep.passed,
                            "layer": stack.slots[i].layer, "tag": stack.slots[i].tag})
        summary["all_passed"] = all(r["passed"] for r in reports)
        artifact = "degeneracy.json", {"layers": reports}
    out = Path(out_dir) if out_dir else Path(checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    name, content = artifact
    if name.endswith(".json"):
        _emit_json(content, out / name)
    else:
        _write_csv(out / name, *content)
    _emit_json(summary)
    return EXIT_OK


def _gradcheck_plan(config: RunConfig) -> tuple:
    """The frozen host and the (method, share_b, talking_enabled) of each
    gradcheck combination, once the task's dims have passed the gradcheck
    cap and each of its slots the layout of every family checked.

    The families checked are the config's and each family it generalizes,
    in METHODS order.  A family whose layout holds a shared B (at
    ``share_b`` true) reads ``share_b``, and one that holds C reads
    ``talking_enabled``: a flag a family reads is checked at both settings,
    any other once, at the config's own value.
    """
    if config.task is None:
        raise ConfigError("missing required field config.task")
    d, k = config.task.input_dim, config.task.output_dim
    for field, dim in (("input_dim", d), ("output_dim", k)):
        if dim > GRADCHECK_DIM_CAP:
            raise ConfigError(f"config.task.{field} must be at most {GRADCHECK_DIM_CAP} "
                              f"for gradcheck, got {dim}")
    frozen = build_frozen_stack(d, k, config.model_depth, RngState(config.seed))
    shareable = replace(config.adapter, share_b=True)
    combos = []
    for method in METHODS[:METHODS.index(config.method) + 1]:
        for slot in frozen_stack_slots(frozen):  # every slot's layout holds the same arrays
            fields = layer_layout(method, shareable, slot.d_in, slot.d_out, f"slot {slot.name}")
        shares = (False, True) if any(f.shared for f in fields) else (config.adapter.share_b,)
        talks = ((False, True) if any(f.name == "c" for f in fields)
                 else (config.adapter.talking_enabled,))
        combos += [(method, share_b, talking) for share_b in shares for talking in talks]
    return frozen, combos


def _gradcheck_failure(combo: dict, why: str = "") -> NumericalError:
    """The one form of every gradcheck failure: ``gradcheck <method> share_b=<b>
    talking_enabled=<b>: [relative error <e> at <worst handle>]<why>``."""
    if "worst_handle" in combo:
        why = f"relative error {combo['max_relative_error']} at {combo['worst_handle']}{why}"
    return NumericalError(f"gradcheck {combo['method']} share_b={combo['share_b']} "
                          f"talking_enabled={combo['talking_enabled']}: {why}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_gradcheck_suite(config: RunConfig) -> dict:
    """Gradcheck the config's family and each family it generalizes.

    TalkLoRA is checked at every ``share_b`` x ``talking_enabled`` setting,
    LoRA and MoELoRA once, at the config's flags, which they do not read
    (see ``_gradcheck_plan``).  Uses the config's task dims, rank/expert
    counts and model depth on a small random batch; returns per-combination
    max relative errors.  A non-finite loss or relative error raises
    NumericalError (see ``_gradcheck_failure``).
    """
    frozen, plan = _gradcheck_plan(config)
    d, k = frozen[0].d_in, frozen[-1].d_out
    rng = RngState(config.seed)
    gen = rng.split("gradcheck.data").generator()
    x = gen.normal(size=(4, d))
    mse_targets = gen.normal(size=(4, k))  # drawn apart from the model output
    class_targets = gen.integers(0, k, size=4)
    targets = mse_targets if config.loss.kind == "mean-squared-error" else class_targets
    combos = []
    for method, share_b, talking in plan:
        cfg = replace(config.adapter, share_b=share_b, talking_enabled=talking)
        stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), rng)
        for handle, arr in stack.named_parameters():
            if ".B" in handle:  # nonzero B so every path carries gradient
                g = rng.split(f"fill.{method}.{share_b}.{talking}.{handle}")
                arr[:] = 0.3 * g.generator().normal(size=arr.shape)
        combo = {"method": method, "share_b": share_b, "talking_enabled": talking}
        try:
            report = gradcheck(stack, frozen, (x, targets), config.loss)
        except NumericalError as exc:
            raise _gradcheck_failure(combo, str(exc)) from exc
        combo.update(asdict(report))  # max_relative_error, worst_handle
        if not math.isfinite(report.max_relative_error):
            raise _gradcheck_failure(combo)
        combos.append(combo)
    worst = max(combo["max_relative_error"] for combo in combos)
    return {
        "method": config.method,
        "tolerance": GRADCHECK_TOL,
        "max_relative_error": worst,
        "passed": worst < GRADCHECK_TOL,
        "combinations": combos,
    }


def cmd_gradcheck(config: RunConfig) -> int:
    _gradcheck_plan(config)
    # an unusable output_dir fails here, before the suite runs
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_gradcheck_suite(config)
    if not result["passed"]:  # before anything is written or printed
        worst = max(result["combinations"], key=lambda combo: combo["max_relative_error"])
        raise _gradcheck_failure(worst, f", not below the tolerance {GRADCHECK_TOL}")
    _emit_json(result, out / "gradcheck.json")
    _emit_json({k: result[k] for k in ("method", "tolerance", "max_relative_error", "passed")})
    return EXIT_OK


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
        _emit_json(doc)
        return EXIT_OK
    # roundtrip: load (checksum-validating), re-encode in memory, compare bytes
    stack, echoed = load_checkpoint(checkpoint)
    identical = b"".join(encode_checkpoint(stack, echoed)) == Path(checkpoint).read_bytes()
    _emit_json({"roundtrip_bit_identical": identical})
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
        return cmd_ckpt(args.action, args.checkpoint)
    except FileNotFoundError as exc:
        print(f"input not found: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # e.g. output_dir names a file, --checkpoint a directory
        print(f"path error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:  # a divergence included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CorruptCheckpointError as exc:  # a version mismatch included
        print(f"artifact corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except LowRankError as exc:  # the config's rank against a slot's or target's dims
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
