"""Every recorded digest of the test suite, and the recorder that rewrites them.

``tests/fixtures/pins.json`` holds each byte-identity pin under a key
``<kind>/<name>``, beside the numpy version and BLAS build that recorded
them.  Each pin kind below maps its keys to functions that compute the
digests; the Tier-1 tests and the recorder call the same functions:

    python tests/pins.py check                      # print the moved keys; exit 1 if any
    python tests/pins.py record --declare KEY [KEY ...]

``record`` rewrites the manifest only when the keys that moved are exactly
the declared ones, so a change that moves bits names every pin it moves.
A key that is new, or no longer pinned, counts as moved.

The kinds:

- ``session/<command>: <output>``: the stdout and each written file of
  one CLI session (``ckpt`` and reports on the v1 files, ``params``,
  ``train`` per family, and the reports of each trained checkpoint);
- ``flat/<stack>``: the ``flat`` of a freshly built stack;
- ``gradient/<config>``: the gradient of one ``backward``;
- ``demo/<script>``: the stdout of demos 01-04;
- ``degeneracy/<run>``: ``degeneracy.json`` of a default TalkLoRA run;
- ``fixture/<file>``: the ``flat`` of a v1 checkpoint as it loads.  The
  files are format evidence: they are never rewritten;
- ``trained/<stack>``: the ``flat`` of the stacks the v1 files were saved
  from, as today's training computes them.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from _setup import (
    balance_setup,
    fixed_dropout_scales,
    make_setup,
    overflow_router_checkpoint,
    run_cli,
    train_fixture_stack,
    trained_stack,
)
import talklora
from talklora.adapters import METHODS, AdapterConfig, LayerSlot, build_stack_from_slots
from talklora.autodiff import LossSpec, backward
from talklora.checkpoint import load_checkpoint
from talklora.linalg import RngState

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = FIXTURES / "pins.json"
ROOT = Path(__file__).resolve().parents[1]
V1_FILES = ("lora-v1.tlkl", "moelora-v1.tlkl", "talklora-v1.tlkl", "talklora-train-v1.tlkl")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flat_digest(stack) -> str:
    return sha256(stack.flat.tobytes())


@contextlib.contextmanager
def _in_temp_dir():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            yield
        finally:
            os.chdir(home)


def _cli(label, *argv):
    code, stdout, _ = run_cli(".", *argv)
    if code != 0:
        raise AssertionError(f"{label} exited {code}")
    return stdout


# -- session/: one CLI session, every path relative to its directory --------

_REPORT_FILES = {"stability": "stability.json", "nonexpansive": "nonexpansive.csv",
                 "routing": "routing_load.csv", "heatmap": "heatmap.csv",
                 "degeneracy": "degeneracy.json"}
_TRAIN_FILES = ("checkpoint.tlkl", "loss.csv", "routing.csv", "trainlog.json")


def _session():
    """Each session command as ``(label, argv, config, out, files)``: the
    ``(path, document)`` of the config it reads or None, its output
    directory or None, and the files it writes there."""
    commands = []
    for name in V1_FILES:
        for action in ("inspect", "roundtrip"):
            commands.append((f"ckpt {action} {name}", ["ckpt", action, "--checkpoint", name],
                             None, None, ()))
        if name.startswith("talklora"):
            for report in ("nonexpansive", "heatmap"):
                out = f"analyze-{name}-{report}"
                commands.append((f"analyze {name} {report}", ["analyze", "--checkpoint", name,
                                 "--report", report, "--out", out], None, out,
                                 (_REPORT_FILES[report],)))
    for method in METHODS:
        for geometry in ("llama2-7b", "llama3-8b", "qwen2.5-7b"):
            out = f"params-{method}-{geometry}"
            config = (f"{out}.json", {
                "method": method, "geometry": geometry, "output_dir": out,
                "targets": ["Q", "K", "V", "Up", "Down"],
                "adapter": {"total_rank": 16, "experts": 4}})
            commands.append((f"params {method} {geometry}", ["params", "--config", config[0]],
                             config, out, ("param_budget.json",)))
    # its router overflows, but the degeneracy probes read only A and C
    commands.append(("analyze overflow-router.tlkl degeneracy", [
        "analyze", "--checkpoint", "overflow-router.tlkl", "--report", "degeneracy",
        "--out", "analyze-overflow-router"], None, "analyze-overflow-router",
        ("degeneracy.json",)))
    reports = {"lora": (), "moelora": ("routing",),
               "talklora": ("stability", "nonexpansive", "routing", "heatmap", "degeneracy")}
    for method, method_reports in reports.items():
        out = f"train-{method}"
        config = (f"{out}.json", {
            "method": method, "seed": 3, "output_dir": out, "model_depth": 2,
            "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0,
                        "spectral_clip_c": 1.0 if method == "talklora" else None},
            "task": {"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 40},
            "train": {"epochs": 2, "batch_size": 16, "lr": 0.01, "warmup_steps": 2,
                      "eval_every": 4}})
        commands.append((f"train {method}", ["train", "--config", config[0]], config, out,
                         _TRAIN_FILES))
        for report in method_reports:
            commands.append((f"analyze {out} {report}", ["analyze", "--checkpoint",
                             f"{out}/checkpoint.tlkl", "--report", report,
                             "--out", f"{out}-{report}"], None, f"{out}-{report}",
                             (_REPORT_FILES[report],)))
    return commands


def _run_session():
    digests = {}
    with _in_temp_dir():
        for name in V1_FILES:
            shutil.copy(FIXTURES / name, name)
        overflow_router_checkpoint("overflow-router.tlkl")
        for label, argv, config, out, files in _session():
            if config is not None:
                Path(config[0]).write_text(json.dumps(config[1]))
            digests[f"session/{label}: stdout"] = sha256(_cli(label, *argv).encode())
            written = sorted(path.name for path in Path(out).iterdir()) if out else []
            if written != sorted(files):
                raise AssertionError(f"{label} wrote {written}, not {sorted(files)}")
            for name in files:
                digests[f"session/{label}: {name}"] = sha256((Path(out) / name).read_bytes())
    return digests


def session_pins():
    """The SHA-256 of each session command's stdout and of each file it writes.

    The session runs once, in a temporary directory, for all of its keys.
    """
    run = functools.cache(_run_session)
    keys = [f"session/{label}: {output}"
            for label, _, _, _, files in _session() for output in ("stdout", *files)]
    return {key: lambda key=key: run()[key] for key in keys}


# -- flat/: stacks drawn straight into flat --------------------------------

TWO_TAG_SLOTS = [LayerSlot(0, "Q", 8, 8), LayerSlot(0, "V", 8, 4),
                 LayerSlot(1, "Q", 8, 8), LayerSlot(1, "V", 8, 4)]


def two_tag_stack(method, share_b):
    cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=share_b)
    return build_stack_from_slots(method, cfg, TWO_TAG_SLOTS, RngState(21))


def flat_pins():
    """``flat`` of ``two_tag_stack(method, share_b)`` and of ``balance_setup(seed)``,
    first recorded by the code that drew each layer's arrays on their own
    and concatenated them."""
    pins = {f"flat/{method}-share_b-{str(share_b).lower()}":
            lambda case=(method, share_b): flat_digest(two_tag_stack(*case))
            for method in METHODS for share_b in (True, False)}
    for seed in range(3):
        pins[f"flat/balance-seed{seed}"] = lambda seed=seed: flat_digest(balance_setup(seed)[1])
    return pins


# -- gradient/: one backward per family and flag setting -------------------

GRADIENT_CONFIGS = (("lora", True, True), ("moelora", True, True), ("talklora", True, True),
                    ("talklora", False, True), ("talklora", True, False),
                    ("talklora", False, False))  # (method, share_b, talking_enabled)


def gradient_key(method, share_b, talking):
    return f"gradient/{method}-share_b-{share_b}-talking-{talking}".lower()


def _gradient_digest(method, share_b, talking):
    frozen, stack, x, t = make_setup(method, share_b=share_b, talking=talking, seed=5,
                                     depth=3, batch=8)
    scales = fixed_dropout_scales(frozen, x.shape[0], seed=6)
    _, grad = backward(stack, frozen, (x, t), LossSpec(), scales)
    return sha256(grad.tobytes())


def gradient_pins():
    """The gradient vector of ``make_setup(method, share_b, talking, seed=5,
    depth=3, batch=8)`` under ``fixed_dropout_scales(seed=6)``, first
    recorded while MoELoRA and TalkLoRA ran separate backward functions."""
    return {gradient_key(*config): lambda config=config: _gradient_digest(*config)
            for config in GRADIENT_CONFIGS}


# -- demo/: stdout of the demos that run in seconds -------------------------

DEMOS = ("01_adapter_family_tour.py", "02_parameter_budgets.py",
         "03_gradient_verification.py", "04_stability_and_degeneracy.py")


def _demo_digest(demo):
    src = str(Path(talklora.__file__).resolve().parents[1])  # the directory holding talklora
    with tempfile.TemporaryDirectory() as cwd:
        ran = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                             capture_output=True, cwd=cwd, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
    if ran.returncode != 0:
        raise AssertionError(f"{demo} exited {ran.returncode}: {ran.stderr.decode()}")
    return sha256(ran.stdout)


def demo_pins():
    """The stdout of ``python -W error demos/<script>``, run in an empty directory."""
    return {f"demo/{demo}": lambda demo=demo: _demo_digest(demo) for demo in DEMOS}


# -- degeneracy/: the degeneracy report of the benchmark's TalkLoRA run -----

def _degeneracy_digest():
    with _in_temp_dir():
        Path("config.json").write_text(json.dumps({
            "method": "talklora", "seed": 0, "output_dir": "out", "task": {},
            "adapter": {"spectral_clip_c": 1.0}}))
        _cli("train", "train", "--config", "config.json")
        _cli("analyze", "analyze", "--checkpoint", "out/checkpoint.tlkl",
             "--report", "degeneracy")
        return sha256(Path("out/degeneracy.json").read_bytes())


def degeneracy_pins():
    """``degeneracy.json`` of the talklora run of the benchmark's CLI session
    at seed 0 (defaults, C clipped at 1)."""
    return {"degeneracy/talklora-seed0": _degeneracy_digest}


# -- fixture/ and trained/: the v1 files and the stacks they were saved from

def fixture_pins():
    """``flat`` of each v1 file as it loads: it moves only if loading does."""
    return {f"fixture/{name}": lambda name=name: flat_digest(load_checkpoint(FIXTURES / name)[0])
            for name in V1_FILES}


def trained_pins():
    """``flat`` of ``trained_stack(method)`` and of ``train_fixture_stack()``:
    a change that moves training bits moves these keys, never a v1 file."""
    pins = {f"trained/{method}": lambda method=method: flat_digest(trained_stack(method))
            for method in METHODS}
    pins["trained/talklora-train"] = lambda: flat_digest(train_fixture_stack())
    return pins


KINDS = (session_pins, flat_pins, gradient_pins, demo_pins, degeneracy_pins, fixture_pins,
         trained_pins)


def pin_functions(kinds=KINDS):
    """Every pinned key -> the function computing its digest.  Building
    this computes nothing."""
    return {key: compute for kind in kinds for key, compute in kind().items()}


# -- the manifest -----------------------------------------------------------

def build_stamp():
    """The numpy version and BLAS build that the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 names no build this way
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def read_manifest(manifest=MANIFEST):
    return json.loads(Path(manifest).read_text())


def build_note(manifest=MANIFEST):
    """Empty when this build is the one that recorded the manifest; else
    a sentence naming both builds."""
    recorded, running = read_manifest(manifest)["stamp"], build_stamp()
    if recorded == running:
        return ""
    return (f"; the pins were recorded with numpy {recorded['numpy']} ({recorded['blas']}),"
            f" and this is numpy {running['numpy']} ({running['blas']})")


def moved_keys(recorded, computed):
    """Keys whose digest differs, including keys only one side holds."""
    return sorted(key for key in recorded.keys() | computed.keys()
                  if recorded.get(key) != computed.get(key))


def assert_digests(digests, manifest=MANIFEST):
    """Assert each ``key -> digest`` equals the recorded pin, naming the
    moved keys and, if it differs, the numpy build."""
    recorded = read_manifest(manifest)["pins"]
    moved = moved_keys({key: recorded.get(key) for key in digests}, digests)
    assert not moved, f"moved pins: {', '.join(moved)}{build_note(manifest)}"


def assert_pinned(*keys):
    """Compute the pins named by ``keys`` and assert each holds."""
    functions = pin_functions()
    assert_digests({key: functions[key]() for key in keys})


def main(argv=None, manifest=MANIFEST, kinds=KINDS):
    parser = argparse.ArgumentParser(prog="python tests/pins.py",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", help="print the keys whose digest moved; exit 1 if any moved")
    record = sub.add_parser("record", help="rewrite the manifest if exactly the declared "
                                           "keys moved; otherwise write nothing and exit 1")
    record.add_argument("--declare", nargs="+", required=True, metavar="KEY")
    args = parser.parse_args(argv)
    computed = {key: compute() for key, compute in pin_functions(kinds).items()}
    moved = moved_keys(read_manifest(manifest)["pins"], computed)
    for key in moved:
        print(key)
    note = build_note(manifest)
    if args.command == "check":
        print(f"{len(moved)} pins moved{note}", file=sys.stderr)
        return 1 if moved else 0
    declared = set(args.declare)
    if declared != set(moved):
        for key in sorted(set(moved) - declared):
            print(f"moved but not declared: {key}", file=sys.stderr)
        for key in sorted(declared - set(moved)):
            print(f"declared but did not move: {key}", file=sys.stderr)
        print(f"nothing written{note}", file=sys.stderr)
        return 1
    doc = {"stamp": build_stamp(), "pins": dict(sorted(computed.items()))}
    Path(manifest).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded {len(moved)} moved pins in {manifest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
