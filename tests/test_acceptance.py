"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Budgets and tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from talklora.adapters import (
    AdapterConfig,
    FrozenLinear,
    build_frozen_stack,
    build_stack_from_slots,
    forward_one,
    frozen_stack_slots,
    init_layer,
    lora_merge,
)
from talklora.analysis import (
    degeneracy_check,
    nonexpansive_audit,
    routing_balance_experiment,
    stability_certificate,
)
from talklora.autodiff import LossSpec
from talklora.checkpoint import (
    CorruptCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from talklora.cli import main, parse_run_config, run_gradcheck_suite
from talklora.linalg import RngState, spectral_norm
from talklora.tasks import ClusterTaskSpec, TrainConfig, generate_cluster_task, train


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


PARAM_CASES = [
    ("llama3-8b", "lora", 32, 1, 0.7),
    ("llama3-8b", "talklora", 32, 4, 0.4),
    ("llama3-8b", "talklora", 16, 4, 0.2),
    ("llama2-7b", "lora", 32, 1, 0.8),
    ("qwen2.5-7b", "talklora", 16, 4, 0.2),
]


class TestAcceptance:
    def test_01_published_parameter_budgets(self, tmp_path, capsys):
        results = []
        for geometry, method, rank, experts, expected in PARAM_CASES:
            cfg_path = tmp_path / f"{geometry}_{method}_{rank}.json"
            cfg_path.write_text(json.dumps({
                "method": method,
                "geometry": geometry,
                "targets": ["Q", "K", "V", "Up", "Down"],
                "adapter": {"total_rank": rank, "experts": experts,
                            "lora_alpha": float(rank)},
                "output_dir": str(tmp_path / "out"),
            }))
            start = time.monotonic()
            code = main(["params", "--config", str(cfg_path)])
            elapsed = time.monotonic() - start
            out = capsys.readouterr().out
            percent = json.loads(out)["percent"]
            results.append(
                (geometry, method, rank, percent, expected, elapsed)
            )
            assert code == 0
        with capsys.disabled():
            ok = True
            for geometry, method, rank, percent, expected, elapsed in results:
                ok &= abs(percent - expected) <= 0.05 and elapsed < 1.0
                print(f"\n  {geometry} {method} r={rank}: {percent:.3f}% "
                      f"(published {expected}%, {elapsed * 1e3:.0f} ms)")
            report(
                "published-parameter-budgets", ok,
                "5 published cells within +/-0.05 pp, < 1 s each",
            )

    def test_02_gradient_verification(self, capsys):
        doc = {
            "method": "talklora",
            "seed": 0,
            "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
            "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                     "samples_per_cluster": 40},
            "model_depth": 2,
        }
        start = time.monotonic()
        result = run_gradcheck_suite(parse_run_config(doc))
        elapsed = time.monotonic() - start
        with capsys.disabled():
            report(
                "gradient-verification",
                result["passed"] and elapsed < 120.0,
                f"max rel err {result['max_relative_error']:.2e} < 1e-6 over "
                f"{len(result['combinations'])} family/flag combos "
                f"(d=8,k=8,r=4,n=2,L=2), {elapsed:.1f} s",
            )

    def test_03_routing_stability_certificate(self, capsys):
        start = time.monotonic()
        worst_ratio_over_bound = 0.0
        violations = 0
        for layer_seed in range(20):
            cfg = AdapterConfig(total_rank=8, experts=4, lora_alpha=16.0)
            tl = init_layer("talklora", cfg, 16, 16, RngState(5000 + layer_seed))
            sigma = spectral_norm(tl.c)
            if sigma > 1.0:
                tl.c *= 1.0 / sigma  # enforce the non-expansive assumption
            cert = stability_certificate(
                tl, trials=10_000, delta_scale=0.1,
                rng=RngState(layer_seed).split("acceptance.stability"),
            )
            if not cert.verdict:
                violations += 1
            worst_ratio_over_bound = max(
                worst_ratio_over_bound, cert.max_observed_ratio / cert.bound
            )
        elapsed = time.monotonic() - start
        with capsys.disabled():
            report(
                "routing-stability-certificate",
                violations == 0 and elapsed < 60.0,
                f"0 violations of |g(x+dx)-g(x)| <= alpha*beta*|dx| over "
                f"20 layers x 1e4 perturbations; worst observed/bound = "
                f"{worst_ratio_over_bound:.3f}; {elapsed:.1f} s",
            )

    def _train_run(self, clip):
        spec = ClusterTaskSpec(
            clusters=2, input_dim=8, output_dim=8, samples_per_cluster=120,
            noise_std=0.3, seed=3,
        )
        data = generate_cluster_task(spec)
        rng = RngState(42)
        frozen = build_frozen_stack(8, 8, 3, rng)
        cfg = AdapterConfig(
            total_rank=4, experts=2, lora_alpha=8.0, spectral_clip_c=clip
        )
        stack = build_stack_from_slots(
            "talklora", cfg, frozen_stack_slots(frozen), rng
        )
        tc = TrainConfig(epochs=6, batch_size=32, lr=3e-3, warmup_steps=20,
                         eval_every=50, seed=5)
        train(stack, frozen, data, tc, LossSpec())
        return stack

    def test_04_nonexpansive_audit(self, capsys):
        clipped = nonexpansive_audit(self._train_run(clip=1.0))
        unclipped = nonexpansive_audit(self._train_run(clip=None))
        with capsys.disabled():
            print("\n  unclipped per-layer sigma_max (reported, not asserted):")
            for layer, tag, sigma in unclipped.rows:
                print(f"    layer {layer} [{tag}]: {sigma:.4f}")
            report(
                "nonexpansive-audit",
                clipped.fraction_within == 1.0,
                "100% of C matrices satisfy sigma_max <= 1 + 1e-9 after a "
                "clipped training run",
            )

    def test_05_degeneracy_suite(self, capsys):
        worst_identity = 0.0
        worst_isolation = 0.0
        min_cross = np.inf
        for seed in range(100):
            cfg = AdapterConfig(total_rank=8, experts=4, lora_alpha=16.0)
            tl = init_layer("talklora", cfg, 12, 12, RngState(7000 + seed))
            rep = degeneracy_check(tl, trials=1, rng=RngState(seed))
            worst_identity = max(worst_identity, rep.identity_max_diff)
            worst_isolation = max(worst_isolation, rep.isolation_max_diff)
            min_cross = min(min_cross, rep.cross_influence_min)
        ok = worst_identity == 0.0 and worst_isolation == 0.0 and min_cross > 0.0
        with capsys.disabled():
            report(
                "degeneracy-suite", ok,
                f"C=I bit-exact, diagonal-C isolation exact, cross-expert "
                f"influence witnessed (min {min_cross:.2e}) on 100 instances",
            )

    def test_06_zero_init_contract(self, capsys):
        cfg = AdapterConfig(total_rank=8, experts=4, lora_alpha=16.0)
        w0 = RngState(81).generator().normal(size=(16, 16))
        layer = FrozenLinear(w0)
        gen = RngState(82).generator()
        exact = True
        for family in ("lora", "moelora", "talklora"):
            ad = init_layer(family, cfg, 16, 16, RngState(83))
            for _ in range(1000):
                x = gen.normal(size=16)
                if not np.array_equal(forward_one(layer, ad, x, cfg)[0], w0 @ x):
                    exact = False
        with capsys.disabled():
            report(
                "zero-init-contract", exact,
                "all three families output exactly w0 x at construction "
                "over 1000 random inputs each",
            )

    def test_07_routing_balance_direction(self, capsys):
        start = time.monotonic()
        result = routing_balance_experiment(seeds=(0, 1, 2, 3, 4))
        elapsed = time.monotonic() - start
        with capsys.disabled():
            report(
                "routing-balance-direction",
                result.direction_holds and elapsed < 600.0,
                f"mean entropy talking={result.mean_talking:.4f} >= "
                f"ablated={result.mean_ablated:.4f} over 5 seeds "
                f"(m=4 clusters, n=4 experts); {elapsed:.0f} s",
            )

    def test_08_lora_merge_equivalence(self, capsys):
        cfg = AdapterConfig(total_rank=8, experts=1, lora_alpha=16.0)
        gen = RngState(91).generator()
        layer = FrozenLinear(gen.normal(size=(12, 24)))
        ad = init_layer("lora", cfg, 24, 12, RngState(92))
        ad.b[:] = gen.normal(size=ad.b.shape)
        merged = lora_merge(layer, ad, cfg)
        worst = 0.0
        for _ in range(50):
            x = gen.normal(size=24)
            diff = np.abs(merged @ x - forward_one(layer, ad, x, cfg)[0]).max()
            worst = max(worst, diff)
        with capsys.disabled():
            report(
                "lora-merge-equivalence", worst < 1e-10,
                f"merged weights reproduce the forward path; worst "
                f"|diff| = {worst:.2e} over 50 inputs",
            )

    def test_09_checkpoint_roundtrip(self, tmp_path, capsys):
        stack = self._train_run(clip=1.0)
        path = tmp_path / "acc.tlkl"
        save_checkpoint(path, stack, {"purpose": "acceptance"})
        loaded, _ = load_checkpoint(path)
        bit_exact = all(
            np.array_equal(a, b)
            for (_, a), (_, b) in zip(
                stack.named_parameters(), loaded.named_parameters()
            )
        )
        raw = bytearray(path.read_bytes())
        raw[-9] ^= 0x01
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
            detected = False
        except CorruptCheckpointError:
            detected = True
        with capsys.disabled():
            report(
                "checkpoint-roundtrip",
                bit_exact and detected,
                "save/load bit-identical; single-byte corruption detected "
                "by checksum",
            )

    def test_10_train_determinism(self, tmp_path, capsys):
        config = {
            "method": "talklora",
            "seed": 17,
            "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0,
                        "spectral_clip_c": 1.0},
            "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                     "samples_per_cluster": 80, "noise_std": 0.2},
            "model_depth": 2,
            "train": {"epochs": 3, "batch_size": 16, "lr": 1e-3,
                      "warmup_steps": 10, "eval_every": 5},
        }
        out_dir = tmp_path / "run"
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(dict(config, output_dir=str(out_dir))))
        outputs = []
        for _ in range(2):  # same config file, same output dir, run twice
            assert main(["train", "--config", str(cfg_path)]) == 0
            outputs.append({
                name: (out_dir / name).read_bytes()
                for name in ("loss.csv", "routing.csv", "checkpoint.tlkl")
            })
        capsys.readouterr()
        identical = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        with capsys.disabled():
            report(
                "train-determinism", identical,
                "two identical-config runs produce byte-identical loss CSV, "
                "routing CSV and checkpoint",
            )
