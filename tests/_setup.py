"""Shared builders for small adapted models used across the test suite."""

import contextlib
import io
import json
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np

from talklora.adapters import (
    AdapterConfig,
    LayerSlot,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
)
from talklora.analysis import BALANCE_ADAPTER, BALANCE_DEPTH, BALANCE_TASK, BALANCE_TRAIN
from talklora.autodiff import (_COMPLEX_STEP, AdamWHyper, AdamWState, LossSpec, _reference_loss,
                               backward, stack_adamw_step)
from talklora.checkpoint import _PREFIX, load_checkpoint, save_checkpoint
from talklora.cli import main
from talklora.linalg import RngState
from talklora.tasks import ClusterTaskSpec, TrainConfig, generate_cluster_task, train


def make_setup(
    method,
    share_b=True,
    talking=True,
    seed=0,
    d=8,
    k=8,
    r=4,
    n=2,
    depth=2,
    batch=4,
    alpha=8.0,
    randomize_b=True,
    spectral_clip_c=None,
    frozen=None,
):
    """Frozen stack + adapter stack + one random batch, all seeded.

    B matrices start at zero by contract; ``randomize_b`` fills them with
    small values afterwards so gradients flow through every path.  The host
    depends only on ``seed``, ``d``, ``k`` and ``depth``, so ``frozen``, a
    host an earlier call returned for them, is reused as it is.
    """
    rng = RngState(seed)
    if frozen is None:
        frozen = build_frozen_stack(d, k, depth, rng)
    cfg = AdapterConfig(
        total_rank=r,
        experts=n,
        lora_alpha=alpha,
        share_b=share_b,
        talking_enabled=talking,
        spectral_clip_c=spectral_clip_c,
    )
    stack = build_stack_from_slots(method, cfg, frozen_stack_slots(frozen), rng)
    if randomize_b:
        for handle, arr in stack.named_parameters():
            if ".B" in handle:
                gen = rng.split(f"fill.{handle}").generator()
                arr[:] = 0.3 * gen.normal(size=arr.shape)
    gen = rng.split("data").generator()
    x = gen.normal(size=(batch, d))
    t = gen.normal(size=(batch, k))
    return frozen, stack, x, t


def balance_setup(seed):
    """Frozen host and talking TalkLoRA stack as the routing-balance experiment builds them."""
    rng = RngState(1000 + seed)
    frozen = build_frozen_stack(
        BALANCE_TASK["input_dim"], BALANCE_TASK["output_dim"], BALANCE_DEPTH, rng
    )
    cfg = AdapterConfig(**BALANCE_ADAPTER)
    return frozen, build_stack_from_slots("talklora", cfg, frozen_stack_slots(frozen), rng)


def fixed_dropout_scales(frozen, batch, seed, p=0.25):
    """Fixed inverted-dropout factors, one (batch, d_in) array per layer."""
    gen = RngState(seed).generator()
    return [(gen.uniform(size=(batch, fl.d_in)) >= p) / (1.0 - p) for fl in frozen]


def trained_stack(method):
    """Three clipped AdamW steps from ``make_setup``: the stack the
    ``<method>-v1.tlkl`` fixtures were saved from."""
    frozen, stack, x, t = make_setup(method, depth=2, seed=12, spectral_clip_c=1.0)
    state = AdamWState(stack)
    for _ in range(3):
        _, grads = backward(stack, frozen, (x, t), LossSpec())
        stack_adamw_step(stack, grads, state, AdamWHyper(lr=1e-2))
    return stack


def train_fixture_stack():
    """Two epochs of ``train`` at the balance dims, with dropout, clip and
    decay: the stack ``talklora-train-v1.tlkl`` was saved from."""
    seed = 3
    data = generate_cluster_task(ClusterTaskSpec(seed=seed, **BALANCE_TASK))
    frozen, stack = balance_setup(seed)
    tc = TrainConfig(
        seed=seed, **{**BALANCE_TRAIN, "epochs": 2, "dropout": 0.05}, weight_decay=0.01
    )
    train(stack, frozen, data, tc, LossSpec())
    return stack


def geometry_slots(geom, targets):
    """One slot per (layer, target projection) of a geometry, layer-major,
    targets in the geometry's projection order."""
    return [
        LayerSlot(layer, p.tag, p.d_in, p.d_out)
        for layer in range(geom.layers) for p in geom.projections if p.tag in targets
    ]


def near_degenerate_c(seed=0):
    """4x4 C = 1.5 * Q1 diag(1, 1 - 1e-3, 0.5, 0.1) Q2^T, top gap 1.5e-3.

    Power iteration converges slowly from below on such a matrix, so it is
    the case that separates an exact spectral norm from an estimate.
    """
    gen = RngState(seed).generator()
    q1, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    return 1.5 * (q1 * np.array([1.0, 1.0 - 1e-3, 0.5, 0.1])) @ q2.T


def directional_errors(stack, frozen, batch, loss, dropout_scales, grad, seed=0):
    """Per handle, the relative error of ``grad`` (laid out like ``stack.flat``)
    along one Gaussian direction v: |<slice, v> - D_v| / max(1e-8, |<slice, v>| + |D_v|).

    D_v = Im f(theta + i*h*v) / h is the complex-step directional derivative,
    with f ``autodiff._reference_loss`` in complex128 and only that handle
    moved: one reference forward per handle, however many scalars it holds,
    so it checks ``backward`` at widths where the per-scalar oracle would
    need a copy per scalar.  v comes from ``RngState(seed)``'s stream
    ``direction.<handle>``.
    """
    x, targets = np.asarray(batch[0], dtype=np.float64), np.asarray(batch[1])
    base = {h: arr.astype(np.complex128) for h, arr in stack.named_parameters()}
    errors = {}
    for handle, g in stack.views(grad).items():
        v = RngState(seed).split(f"direction.{handle}").generator().normal(size=g.shape)
        params = dict(base, **{handle: base[handle] + 1j * _COMPLEX_STEP * v})
        f = _reference_loss(stack, frozen, params, x, targets, loss, dropout_scales)
        numeric, analytic = float(f.imag) / _COMPLEX_STEP, float(np.dot(g.ravel(), v.ravel()))
        errors[handle] = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
    return errors


def forge_checkpoint(src, dst, edit=None, values=()):
    """Write the checkpoint at ``src`` to ``dst`` with the first scalar of
    each ``(handle, value)`` of ``values`` set, that record's CRC-32
    recomputed, and then ``edit(header)`` applied to the JSON header.

    The prefix keeps its magic and version, and the header is written as
    the program writes it, with sorted keys; every other payload byte is
    kept.  ``src`` and ``dst`` may name the same file.
    """
    raw = Path(src).read_bytes()
    magic, version, header_len = _PREFIX.unpack_from(raw)
    start = _PREFIX.size + header_len
    header = json.loads(raw[_PREFIX.size : start])
    payload = bytearray(raw[start:])
    firsts = dict(values)
    offset = 0
    for rec in header["tensors"]:
        size = 8 * rec["rows"] * rec["cols"]
        if rec["handle"] in firsts:
            payload[offset : offset + 8] = struct.pack("<d", firsts[rec["handle"]])
            rec["crc32"] = zlib.crc32(payload[offset : offset + size]) & 0xFFFFFFFF
        offset += size
    if edit is not None:
        edit(header)
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(dst).write_bytes(_PREFIX.pack(magic, version, len(body)) + body + payload)


EXIT_PREFIXES = {  # a failing exit code -> the prefixes of its one stderr line
    2: ("config error: ", "path error: ", "input not found: "),
    3: ("numerical failure: ",),
    4: ("artifact corruption: ",),
}


def _tree(root):
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in Path(root).rglob("*")}


def _reject(token):
    raise AssertionError(f"non-JSON constant {token}")


def run_cli(root, *argv):
    """``main(argv)`` in process as ``(code, stdout, stderr)``, with the exit
    contract asserted on what it printed and on what it left under ``root``.

    Warnings are errors.  A malformed command line exits 2 with argparse's
    usage text and writes nothing.  Any other failure prints one stderr
    line with its code's prefix and nothing on stdout; exits 2 and 4 leave
    ``root`` as it was, and exit 3 can add directories but no file.  A
    success prints strict JSON, and every ``.json`` and ``.csv`` it writes
    holds no NaN or infinity.
    """
    before = _tree(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
            parsed = True
        except SystemExit as exc:
            code, parsed = exc.code, False
    out, err = out.getvalue(), err.getvalue()
    after = _tree(root)
    new = {path for path, held in after.items() if before.get(path, ...) != held}
    assert code in (0, 2, 3, 4), (argv, code)
    if not parsed:
        assert (code, out) == (2, "") and err.startswith("usage: "), (argv, code, out, err)
    elif code != 0:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)
        assert err.startswith(EXIT_PREFIXES[code]), (argv, err)
    if code != 0:
        assert before.keys() <= after.keys(), (argv, sorted(before.keys() - after.keys()))
        assert all(after[path] is None for path in new) if code == 3 else not new, \
            (argv, sorted(new))
        return code, out, err
    json.loads(out, parse_constant=_reject)
    for path in new:
        if path.suffix == ".json":
            json.loads(after[path], parse_constant=_reject)
        elif path.suffix == ".csv":
            cells = {cell for line in after[path].decode().splitlines() for cell in line.split(",")}
            assert not cells & {"nan", "inf", "-inf"}, (argv, path)
    return code, out, err


def overflow_router_checkpoint(path):
    """``talklora-v1.tlkl`` with every router weight set to +-1.5e308 (random
    signs), saved at ``path`` with a CLI run config: its gates overflow."""
    stack, _ = load_checkpoint(Path(__file__).parent / "fixtures" / "talklora-v1.tlkl")
    gen = RngState(0).generator()
    for adapter in stack.adapters:
        adapter.router_wg[:] = 1.5e308 * gen.choice([-1.0, 1.0], size=adapter.router_wg.shape)
    save_checkpoint(path, stack, {
        "method": "talklora", "model_depth": 2,
        "task": {"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 40},
    })
