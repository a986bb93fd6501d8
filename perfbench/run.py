"""talklora benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload balance --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  balance       routing_balance_experiment for one seed (dispatch-bound steps)
  slot4096      LoRA / MoELoRA / TalkLoRA on a 4096-wide frozen host (BLAS-bound)
  cli_pipeline  in-process talklora CLI sessions (parsing, analyses, file I/O)

A run sets the workload up several times before each pass and runs passes
until ``--seconds`` have gone by (and at least ``min_passes``); set-up and
pass times are reported as medians.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment stamp, goes to ``.perfbench_work/`` in the checkout,
and a traced run writes its spans there too.  Any failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import kernel
import stats
from layers import COUNTERS, FAMILIES, KERNEL_PER_FAMILY, STEP_CLOCK, TRACED, per_layer_metrics
from spans import Tracer, write_spans

PER_LAYER = per_layer_metrics()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# What BENCHMARK.json gates on.  The step median and the step rate are
# printed too, but on a shared VM whose CPU speed flickers between two
# levels the lower half of the step times (so their median and mean) moves
# with the share of fast moments in a run; the 75th percentile stays put.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p75": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import talklora from this checkout's src/, and from nowhere else."""
    if not (SRC / "talklora" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'talklora'} not found; run from a talklora checkout")
    sys.path.insert(0, str(SRC))
    import talklora

    if not Path(talklora.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported talklora from {talklora.__file__}, not from {SRC}")


def _openblas():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        if hasattr(handle, "scipy_openblas_get_num_threads64_"):
            return handle
    return None


def blas_stamp(nproc: int) -> dict:
    """BLAS name, version and thread count; caps this process's threads at nproc."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        threads = lib.scipy_openblas_get_num_threads64_()
        if threads > nproc:
            lib.scipy_openblas_set_num_threads64_(ctypes.c_int(nproc))
            stamp["threads_before_cap"] = threads
            threads = lib.scipy_openblas_get_num_threads64_()
        stamp["threads"] = threads
    return stamp


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_stamp(nproc),
        "nproc": nproc,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_passes(wl, seconds: float, checks, targets_for, index_for, setup_times) -> list:
    """Set-ups and passes until ``seconds`` have gone by and ``wl.min_passes`` ran.

    Before each pass the workload is set up ``wl.setup_reps`` times, so
    set-up is sampled across the whole run, as the passes are.
    ``targets_for(i)`` gives the targets to wrap during pass ``i``, and
    ``index_for(i)`` the index the workload sees.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        i = len(passes)
        targets = targets_for(i)
        tracer = Tracer()
        with tracer.installed(targets):
            result = wl.run_pass(tracer, checks, index_for(i))
        passes.append((targets, tracer, result))
    return passes


def step_seconds(results, family=None) -> list:
    return [t1 - t0 for r in results for f, t0, t1 in r.steps if family in (None, f)]


def step_ms(results, pct: float) -> float:
    """A percentile of each trained family's step times, averaged over the families.

    Families differ in step time by up to 3x, so a percentile of the mixed
    steps would jump between them; per-family percentiles do not.
    """
    families = sorted({f for r in results for f, _, _ in r.steps})
    return sum(stats.percentile(step_seconds(results, f), pct) for f in families) \
        / len(families) * 1e3


def run_seconds(results) -> float:
    """Median pass time per input, averaged over the inputs the passes cycle through.

    Inputs differ in cost (the balance seeds by up to 3x), so a plain
    median over the passes would be the time of the middle-cost input
    only.
    """
    return stats.mean_of_medians((r.key, r.seconds) for r in results)


def end_to_end(wl, seconds: float, checks, lines: list, samples: dict) -> dict:
    setup: list = []
    passes = [r for _, _, r in run_passes(wl, seconds, checks, lambda i: STEP_CLOCK,
                                          lambda i: i, setup)]
    samples["setup_s"] = setup
    samples["pass_s"] = [r.seconds for r in passes]
    samples["step_s"] = [(f, t1 - t0) for r in passes for f, t0, t1 in r.steps]
    rss = peak_rss_mb()  # before the checks in finish() allocate their own arrays
    wl.finish(checks)
    steps = step_seconds(passes)
    if not steps:
        raise RuntimeError("no training steps were timed")
    metrics = {
        "setup_s": stats.median(setup),
        "run_s": run_seconds(passes),
        "step_ms_p75": step_ms(passes, 75),
        "peak_rss_mb": rss,
    }
    inputs = len({r.key for r in passes})
    pass_q1, _, pass_q3 = stats.quartiles(r.seconds for r in passes)
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "run_s": f"per-input medians averaged over {inputs} inputs; {len(passes)} passes, "
                 f"quartiles {pass_q1:.6g} to {pass_q3:.6g} s",
        "step_ms_p75": f"per-family 75th percentiles averaged, {len(steps)} steps",
        "peak_rss_mb": "maximum resident set of the process before the final checks",
    }
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {E2E_UNITS[name]}  ({notes[name]})")
    pct, tail, beyond = stats.tail_percentile(steps)
    tail_note = (f"p{pct:g} = {tail * 1e3:.6g} ms with {beyond} steps beyond" if pct
                 else "no percentile above p50 has ten steps beyond it")
    lines.append(f"step_ms_p50 = {step_ms(passes, 50):.6g} ms  (per-family medians averaged; "
                 f"all steps: {tail_note})")
    lines.append(f"train_steps_per_s = {len(steps) / sum(steps):.6g} steps/s  "
                 f"(steps / summed step time)")
    for part in passes[0].parts:
        value = stats.median(r.parts[part] for r in passes)
        lines.append(f"{part} = {value:.6g} s per pass  (median of {len(passes)} passes)")
    return metrics


def traced(wl, seconds: float, checks, lines: list, spans_path: Path) -> dict:
    setup_tracer = Tracer()
    with setup_tracer.installed(TRACED):
        wl.setup()
    # even passes untraced, odd passes traced on the same inputs, so both
    # see the same work and the same drift
    passes = run_passes(wl, seconds, checks, lambda i: TRACED if i % 2 else STEP_CLOCK,
                        lambda i: i // 2, [])
    wl.finish(checks)
    wl.release()
    peak = kernel.dgemm_peak_gflops()

    plain = [r for targets, _, r in passes if targets is STEP_CLOCK]
    traced_passes = [(tr, r) for targets, tr, r in passes if targets is TRACED]
    missing = sorted(set(setup_tracer.missing))
    metrics: dict = {}

    # calls and self time: the traced set-up once plus the median traced pass
    setup_agg = stats.aggregate(setup_tracer.spans)
    pass_aggs = [stats.aggregate(tr.spans) for tr, _ in traced_passes]
    for name, _, _ in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind not in ("calls", "self_ms"):
            continue
        if any(key == m or key.startswith(m + ".") for m in missing):
            metrics[name] = -1.0
            continue
        col, scale = (0, 1) if kind == "calls" else (1, 1e3)
        per_pass = stats.median(agg.get(key, [0, 0.0])[col] for agg in pass_aggs)
        metrics[name] = (setup_agg.get(key, [0, 0.0])[col] + per_pass) * scale
    for name, _, _ in COUNTERS:
        per_pass = stats.median(tr.counters.get(name, 0) for tr, _ in traced_passes)
        metrics[name] = setup_tracer.counters.get(name, 0) + per_pass
    calls = metrics["autodiff.adamw_step.calls"]
    metrics["autodiff.adamw_step.tensors"] = (
        metrics["autodiff.adamw_step.tensors"] / calls if calls > 0 else 0.0
    )

    steps = step_seconds(plain)
    metrics["tasks.step_ms_p99"] = stats.percentile(steps, 99.0) * 1e3 if steps else 0.0
    metrics["tasks.step_ms.samples"] = len(steps)

    metrics["kernel.dgemm_peak_gflops"] = peak
    shapes = wl.kernel_shapes() if hasattr(wl, "kernel_shapes") else {}
    for family in FAMILIES:
        values = dict.fromkeys((m for m, _, _ in KERNEL_PER_FAMILY), 0.0)
        family_steps = step_seconds(plain, family)
        if family in shapes and family_steps:
            flops, nbytes = kernel.step_counts(family, **shapes[family])
            values["step_gflop"] = flops / 1e9
            values["step_gbyte"] = nbytes / 1e9
            values["gflops_achieved"] = values["step_gflop"] / stats.median(family_steps)
            values["frac_of_peak"] = values["gflops_achieved"] / peak
        for metric, value in values.items():
            metrics[f"kernel.{family}.{metric}"] = value

    plain_s = run_seconds(plain)
    traced_s = run_seconds(r for _, r in traced_passes)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    step_total = attributed = 0.0
    n_steps = 0
    for tracer, result in traced_passes:
        n_steps += len(result.steps)
        step_total += sum(t1 - t0 for _, t0, t1 in result.steps)
        attributed += stats.attributed_seconds(
            tracer.spans, stats.self_times(tracer.spans), result.steps)
    metrics["trace.step_unattributed_frac"] = (
        1.0 - attributed / step_total if step_total else 0.0
    )
    metrics["trace.missing"] = len(missing)

    rows = write_spans(spans_path, [("setup", setup_tracer)] +
                       [(f"pass{i}", tr) for i, (tr, _) in enumerate(traced_passes)])
    lines.append(f"passes: {len(traced_passes)} traced, {len(plain)} untraced; "
                 f"{rows} spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"run_s untraced = {plain_s:.6g} s, traced = {traced_s:.6g} s")
    if n_steps:
        lines.append(f"traced steps: {n_steps}, {step_total / n_steps * 1e3:.6g} ms each, "
                     f"of which {(step_total - attributed) / n_steps * 1e3:.6g} ms "
                     f"in code no span covers")
    if missing:
        lines.append("MISSING, reported as -1: " + ", ".join(missing))
    for name, unit, _ in PER_LAYER:
        lines.append(f"{name} = {metrics[name]:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    env = environment(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
             "env " + json.dumps(env, sort_keys=True)]
    checks = Checks()
    samples: dict = {}
    workdir = Path(tempfile.mkdtemp(prefix=label + "-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = traced(wl, args.seconds, checks, lines, WORK / f"spans-{label}.csv")
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(wl, args.seconds, checks, lines, samples)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checks.failures)
    lines.append(f"fail_frac = {failed}/{checks.attempted} = "
                 f"{failed / max(checks.attempted, 1):.6g} failed ops / attempted ops")
    lines.extend(f"FAILED: {what}" for what in checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{label}.json").write_text(
        json.dumps(dict(result, env=env, failures=checks.failures, samples=samples)) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
