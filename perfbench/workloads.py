"""The workloads: what one pass runs, how its set-up is built, what is checked.

Every workload derives its inputs from the seed alone and drives talklora
only through module attributes, so the tracer's wrappers see every call.
Checks that need the spectral norm of a communication matrix compute it
with ``np.linalg.norm(c, 2)``, never with the program's own
``spectral_norm``: a change to the clip must not be able to pass its own
check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from talklora import adapters, analysis, autodiff, checkpoint, cli, geometry, tasks
from talklora.linalg import RngState

import stats
from layers import FAMILIES, STEP_CALL, STEP_LOOP

clock = time.perf_counter

SIGMA_SLACK = 1e-9


class Checks:
    """Counts checked operations and keeps one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class PassResult:
    seconds: float
    steps: list  # (family, start, end) per training step
    parts: dict = field(default_factory=dict)  # extra per-pass seconds by metric name
    key: int = 0  # which of the inputs a run cycles through this pass ran


def loop_steps(tracer) -> list:
    """Steps of every training loop the tracer saw, with the stack's family."""
    return [
        (tracer.spans[i][stats.TAG], t0, t1)
        for i, t0, t1 in stats.step_intervals(tracer.spans, STEP_LOOP, STEP_CALL)
    ]


def max_sigma_c(stack) -> float:
    return max(float(np.linalg.norm(ad.c, 2)) for ad in stack.adapters)


class Balance:
    """``routing_balance_experiment`` for one seed per pass: both arms, 2 x 1160 steps.

    The cost of a seed depends on how fast power iteration converges on
    its communication matrices, so a run cycles through ``experiments``
    seeds derived from the workload seed and then repeats the first (the
    rerun must be bit-identical).  Set-up times building what the
    experiment builds for those seeds (task, host and the two TalkLoRA
    stacks); each pass rebuilds them inside the experiment.
    """

    name = "balance"
    setup_reps = 5
    experiments = 3
    min_passes = experiments + 1

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [seed * self.experiments + j for j in range(self.experiments)]
        self.first: dict = {}

    def setup(self) -> None:
        task = analysis.BALANCE_TASK
        for seed in self.seeds:
            tasks.generate_cluster_task(tasks.ClusterTaskSpec(seed=seed, **task))
            for talking in (True, False):
                rng = RngState(1000 + seed)
                frozen = adapters.build_frozen_stack(task["input_dim"], task["output_dim"],
                                                     analysis.BALANCE_DEPTH, rng)
                cfg = adapters.AdapterConfig(talking_enabled=talking, **analysis.BALANCE_ADAPTER)
                adapters.build_stack_from_slots(
                    "talklora", cfg, adapters.frozen_stack_slots(frozen), rng
                )

    def run_pass(self, tracer, checks: Checks, index: int) -> PassResult:
        seed = self.seeds[index % self.experiments]
        t0 = clock()
        try:
            result = analysis.routing_balance_experiment(seeds=(seed,))
        except Exception as exc:  # a diverged arm; counted, the run goes on
            checks.error(f"balance experiment, seed {seed}", exc)
            result = None
        seconds = clock() - t0
        if result is not None:
            self._check(seed, result, tracer.captured, checks)
        return PassResult(seconds, loop_steps(tracer), key=seed)

    def _check(self, seed, result, stacks, checks: Checks) -> None:
        entropies = result.entropy_talking + result.entropy_ablated
        checks.expect(len(entropies) == 2, f"balance: expected 2 entropies, got {entropies}")
        for e in entropies:
            checks.expect(math.isfinite(e) and 0.0 <= e <= math.log(4) + 1e-12,
                          f"balance: seed {seed}: entropy {e!r} outside [0, ln 4]")
        checks.expect(len(stacks) == 2, f"balance: {len(stacks)} arms trained, expected 2")
        for stack in stacks:
            checks.expect(all(np.isfinite(a).all() for _, a in stack.named_parameters()),
                          f"balance: seed {seed}: non-finite parameters after training")
            sigma = max_sigma_c(stack)
            checks.expect(sigma <= 1.0 + SIGMA_SLACK,
                          f"balance: seed {seed}: sigma(C) = {sigma!r} exceeds the clip 1.0")
        first = self.first.setdefault(seed, entropies)
        checks.expect(entropies == first,
                      f"balance: seed {seed}: rerun not bit-identical: {entropies} vs {first}")

    def finish(self, checks: Checks) -> None:
        pass

    def release(self) -> None:
        pass


class Slot4096:
    """Three adapter stacks on one frozen host shaped like a llama3-8b Q slot.

    Each pass starts from a fresh set-up and runs four round-robin rounds
    (one backward and AdamW step per stack each), then a checkpoint save
    and load of every stack.
    """

    name = "slot4096"
    setup_reps = 1
    min_passes = 2
    width = 4096
    depth = 2
    batch = 32
    rounds = 4
    hyper = autodiff.AdamWHyper(lr=1e-3)
    configs = {
        "lora": dict(total_rank=16, experts=1),
        "moelora": dict(total_rank=16, experts=4),
        "talklora": dict(total_rank=16, experts=4, share_b=True, spectral_clip_c=1.0),
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.release()

    def release(self) -> None:
        self.frozen = self.stacks = self.states = self.data = None

    def setup(self) -> None:
        self.release()  # the previous host goes before the next is drawn
        rng = RngState(self.seed)
        self.frozen = adapters.build_frozen_stack(self.width, self.width, self.depth,
                                                  rng.split("host"))
        slots = adapters.frozen_stack_slots(self.frozen)
        self.stacks = {
            family: adapters.build_stack_from_slots(
                family, adapters.AdapterConfig(**cfg), slots, rng.split(family)
            )
            for family, cfg in self.configs.items()
        }
        self.states = {f: autodiff.AdamWState(s) for f, s in self.stacks.items()}
        gen = rng.split("batches").generator()
        self.data = [
            (gen.normal(size=(self.batch, self.width)), gen.normal(size=(self.batch, self.width)))
            for _ in range(self.rounds)
        ]

    def run_pass(self, tracer, checks: Checks, index: int) -> PassResult:
        steps, losses = [], []
        t_pass = clock()
        for batch in self.data:  # one round per batch
            for family, stack in self.stacks.items():
                t0 = clock()
                try:
                    loss, grads = autodiff.backward(stack, self.frozen, batch,
                                                    autodiff.LossSpec())
                    autodiff.stack_adamw_step(stack, grads, self.states[family], self.hyper)
                except Exception as exc:
                    loss = exc
                steps.append((family, t0, clock()))
                losses.append((family, loss))
        reloaded = {}
        for family, stack in self.stacks.items():
            path = self.workdir / f"{family}.tlkl"
            try:
                checkpoint.save_checkpoint(path, stack, self._run_config(family))
                reloaded[family] = checkpoint.load_checkpoint(path)
            except Exception as exc:
                reloaded[family] = exc
        seconds = clock() - t_pass
        for family, loss in losses:
            if isinstance(loss, Exception):
                checks.error(f"slot4096: {family} step", loss)
            else:
                checks.expect(math.isfinite(loss), f"slot4096: {family} loss {loss!r}")
        for family, got in reloaded.items():
            if isinstance(got, Exception):
                checks.error(f"slot4096: {family} checkpoint", got)
            else:
                checks.expect(self._identical(family, *got),
                              f"slot4096: {family} checkpoint reload not bit-identical")
        return PassResult(seconds, steps)

    def _run_config(self, family: str) -> dict:
        return {"workload": self.name, "seed": self.seed, "family": family}

    def _identical(self, family: str, loaded, echoed) -> bool:
        stack = self.stacks[family]
        if echoed != self._run_config(family) or loaded.method != stack.method:
            return False
        if loaded.handles != stack.handles:
            return False
        for i in range(len(stack.slots)):
            if [h for _, h, _ in loaded.slot_handles(i)] != [h for _, h, _ in stack.slot_handles(i)]:
                return False
        return all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for (_, a), (_, b) in zip(loaded.named_parameters(), stack.named_parameters())
        )

    def finish(self, checks: Checks) -> None:
        x, y = self.data[0]
        for family, stack in self.stacks.items():
            loss, _ = autodiff.backward(stack, self.frozen, (x, y), autodiff.LossSpec())
            params = dict(stack.named_parameters())
            ref = float(autodiff._reference_loss(stack, self.frozen, params, x, y,
                                                 autodiff.LossSpec(), None))
            checks.expect(abs(loss - ref) <= 1e-9 * abs(ref),
                          f"slot4096: {family} loss {loss!r} vs reference {ref!r}")
        sigma = max_sigma_c(self.stacks["talklora"])
        checks.expect(sigma <= 1.0 + SIGMA_SLACK,
                      f"slot4096: sigma(C) = {sigma!r} exceeds the clip 1.0")

    def kernel_shapes(self) -> dict:
        dims = [(self.width, self.width)] * self.depth
        return {
            family: dict(batch=self.batch, dims=dims, r=cfg["total_rank"], n=cfg["experts"])
            for family, cfg in self.configs.items()
        }


class CliPipeline:
    """In-process ``talklora`` sessions: train, params, analyze, ckpt, gradcheck.

    Each pass runs the same 25 commands with stdout and stderr captured;
    ``run_s`` is the sum of their wall times.  Set-up writes the session's
    13 config files (the first time only: on a shared VM, small file writes
    vary threefold from run to run) and loads them as the CLI does, parsing each
    with ``cli.parse_run_config`` and resolving the bundled geometries.
    """

    name = "cli_pipeline"
    setup_reps = 20  # set-up takes about a millisecond
    min_passes = 2
    geometries = ("llama3-8b", "llama2-7b", "qwen2.5-7b")
    targets = ["Q", "K", "V", "Up", "Down"]
    talklora_reports = ("stability", "nonexpansive", "routing", "heatmap", "degeneracy")
    stability_trials = "10000"
    parts = ("cli.train_s", "cli.report_s", "cli.gradcheck_s", "cli.ckpt_s")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = workdir / "session"
        self.first_loss_csv = None
        self.configs: list = []

    def _config(self, name: str, doc: dict) -> str:
        path = self.root / f"{name}.json"
        if path not in self.configs:
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.configs.append(path)
        return str(path)

    def setup(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        seed, out = self.seed, self.root
        # (metric the command's time adds to, argv, (stdout field, required value))
        cmds = []
        for family in FAMILIES:
            doc = {"method": family, "seed": seed, "output_dir": str(out / family), "task": {}}
            if family == "talklora":
                doc["adapter"] = {"spectral_clip_c": 1.0}
            path = self._config(f"train-{family}", doc)
            cmds.append(("cli.train_s", ["train", "--config", path], None))
        for family in FAMILIES:
            for geom in self.geometries:
                doc = {"method": family, "seed": seed, "geometry": geom, "targets": self.targets,
                       "output_dir": str(out / f"params-{family}-{geom}")}
                path = self._config(f"params-{family}-{geom}", doc)
                cmds.append(("cli.report_s", ["params", "--config", path], None))
        ckpt = {family: str(out / family / "checkpoint.tlkl") for family in FAMILIES}
        for report in self.talklora_reports:
            argv = ["analyze", "--checkpoint", ckpt["talklora"], "--report", report]
            expect = None
            if report == "stability":
                argv += ["--trials", self.stability_trials]
                expect = ("all_verdicts_pass", True)
            elif report == "degeneracy":
                expect = ("all_passed", True)
            cmds.append(("cli.report_s", argv, expect))
        argv = ["analyze", "--checkpoint", ckpt["moelora"], "--report", "routing"]
        cmds.append(("cli.report_s", argv, None))
        for family in FAMILIES:
            cmds.append(("cli.ckpt_s", ["ckpt", "roundtrip", "--checkpoint", ckpt[family]],
                         ("roundtrip_bit_identical", True)))
            cmds.append(("cli.ckpt_s", ["ckpt", "inspect", "--checkpoint", ckpt[family]], None))
        # the configuration of the acceptance suite's gradient-verification test
        doc = {"method": "talklora", "seed": seed, "output_dir": str(out / "gradcheck"),
               "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
               "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                        "samples_per_cluster": 40},
               "model_depth": 2}
        path = self._config("gradcheck", doc)
        cmds.append(("cli.gradcheck_s", ["gradcheck", "--config", path], ("passed", True)))
        self.commands = cmds
        self.talklora_ckpt = ckpt["talklora"]
        for path in self.configs:
            cli.parse_run_config(json.loads(path.read_text(encoding="utf-8")))
        for geom in self.geometries:
            geometry.bundled_geometry(geom)

    def run_pass(self, tracer, checks: Checks, index: int) -> PassResult:
        parts = dict.fromkeys(self.parts, 0.0)
        results = []
        for part, argv, expect in self.commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:  # the exit-code contract promises no traceback
                code = f"{type(exc).__name__}: {exc}"
            parts[part] += clock() - t0
            results.append((argv, expect, code, out.getvalue(), err.getvalue()))
        for result in results:
            self._check(*result, checks)
        loss_csv = tuple(
            path.read_bytes() if path.is_file() else None
            for path in (self.root / family / "loss.csv" for family in FAMILIES)
        )
        if self.first_loss_csv is None:
            self.first_loss_csv = loss_csv
        else:
            checks.expect(loss_csv == self.first_loss_csv,
                          "cli: loss.csv differs from the first pass")
        return PassResult(sum(parts.values()), loop_steps(tracer), parts)

    @staticmethod
    def _check(argv, expect, code, out, err, checks: Checks) -> None:
        what = "talklora " + " ".join(argv[:2])
        if not checks.expect(code == 0, f"cli: {what} exited {code!r}: {err.strip()[-300:]}"):
            return
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            checks.error(f"cli: {what} printed no JSON", exc)
            return
        if expect is not None:
            key, value = expect
            checks.expect(doc.get(key) is value, f"cli: {what} reported {key}={doc.get(key)!r}")

    def finish(self, checks: Checks) -> None:
        stack, _ = checkpoint.load_checkpoint(self.talklora_ckpt)
        sigma = max_sigma_c(stack)
        checks.expect(sigma <= 1.0 + SIGMA_SLACK,
                      f"cli: sigma(C) = {sigma!r} exceeds the clip 1.0")

    def release(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Balance, Slot4096, CliPipeline)}
