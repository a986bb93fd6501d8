import json
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from _setup import make_setup, set_first_value
from talklora import analysis, cli
from talklora.checkpoint import load_checkpoint, read_header, save_checkpoint
from talklora.cli import main, parse_run_config

FIXTURES = Path(__file__).parent / "fixtures"


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "method": "talklora",
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
        "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
        "task": {
            "clusters": 2,
            "input_dim": 8,
            "output_dim": 8,
            "samples_per_cluster": 60,
            "noise_std": 0.2,
        },
        "model_depth": 2,
        "train": {"epochs": 2, "batch_size": 16, "lr": 1e-3, "warmup_steps": 10,
                  "eval_every": 4},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of a checkpoint, keeping its payloads."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(
        raw[:8] + struct.pack("<I", len(header_bytes)) + header_bytes
        + raw[12 + header_len :]
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def _params_config(self, tmp_path, **kw):
        base = {
            "geometry": "llama3-8b",
            "targets": ["Q", "K", "V", "Up", "Down"],
            "adapter": {"total_rank": 16, "experts": 4, "lora_alpha": 16.0},
        }
        base.update(kw)
        return write_config(tmp_path, **base)

    def test_llama3_talklora_r16(self, tmp_path, capsys):
        cfg = self._params_config(tmp_path)
        code, out, _ = run(capsys, "params", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["percent"] - 0.2) <= 0.05
        assert (tmp_path / "out" / "param_budget.json").is_file()

    def test_llama2_lora_r32(self, tmp_path, capsys):
        cfg = self._params_config(
            tmp_path,
            method="lora",
            adapter={"total_rank": 32, "experts": 1, "lora_alpha": 32.0},
            geometry="llama2-7b",
        )
        code, out, _ = run(capsys, "params", "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["percent"] - 0.8) <= 0.05

    def test_toy_geometry_fixture_file(self, tmp_path, capsys):
        geom_path = tmp_path / "toy.json"
        geom_path.write_text(json.dumps({
            "name": "toy", "total_params": 10000, "layers": 2,
            "projections": [{"tag": "X", "d_in": 8, "d_out": 8}],
        }))
        cfg = self._params_config(
            tmp_path,
            geometry=str(geom_path),
            targets=["X"],
            adapter={"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
        )
        code, out, _ = run(capsys, "params", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["trainable"] == 136

    TOY = {"name": "toy", "total_params": 10000, "layers": 2,
           "projections": [{"tag": "X", "d_in": 8, "d_out": 8}]}
    MALFORMED = {  # case -> (fixture document, the message's field)
        "not_an_object": ([TOY], "geometry fixture must be an object, got list"),
        "projections_int": ({**TOY, "projections": 5}, "projections"),
        "projection_not_object": ({**TOY, "projections": [5]}, "projections"),
        "d_in_null": ({**TOY, "projections": [{"tag": "X", "d_in": None, "d_out": 8}]},
                      "projections[0].d_in"),
        "d_out_float": ({**TOY, "projections": [{"tag": "X", "d_in": 8, "d_out": 8.0}]},
                        "projections[0].d_out"),
        "tag_int": ({**TOY, "projections": [{"tag": 7, "d_in": 8, "d_out": 8}]},
                    "projections[0].tag"),
        "layers_bool": ({**TOY, "layers": True}, "layers"),
        "total_params_float": ({**TOY, "total_params": 1e4}, "total_params"),
        "name_null": ({**TOY, "name": None}, "name"),
        "layers_missing": ({k: v for k, v in TOY.items() if k != "layers"},
                           "missing required field layers"),
        "d_out_missing": ({**TOY, "projections": [{"tag": "X", "d_in": 8}]},
                          "missing required field projections[0].d_out"),
        "unknown_field": ({**TOY, "vocab": 32000}, "unknown field vocab"),
        "source_int": ({**TOY, "source": 1}, "source"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_geometry_fixture_exits_2_naming_field(self, tmp_path, capsys, case):
        doc, field = self.MALFORMED[case]
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps(doc))
        cfg = self._params_config(tmp_path, geometry=str(geom_path), targets=["X"])
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: geometry fixture")
        assert field in err
        assert not (tmp_path / "out").exists()

    def test_rank_beyond_a_target_exits_2_naming_it(self, tmp_path, capsys):
        # K of llama3-8b is 4096 -> 1024, so no stack can hold rank 8192 there
        cfg = self._params_config(tmp_path, targets=["K"],
                                  adapter={"total_rank": 8192, "experts": 4})
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == ("config error: config.adapter.total_rank 8192 exceeds min(d_in, d_out) "
                       "= 1024 at target K with d_in 4096, d_out 1024 (low-rank regime)\n")
        assert not (tmp_path / "out").exists()

    def test_missing_fixture_exits_2_with_path(self, tmp_path, capsys):
        cfg = self._params_config(tmp_path, geometry="does/not/exist.json")
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert "does/not/exist.json" in err

    def test_unknown_config_key_exits_2_with_field(self, tmp_path, capsys):
        cfg = self._params_config(tmp_path, bogus_field=1)
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert "bogus_field" in err

    def test_seed_override_is_echoed(self, tmp_path, capsys):
        cfg = self._params_config(tmp_path)
        code, out, _ = run(capsys, "params", "--config", str(cfg), "--seed", "99")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99


class TestConfigTypes:
    ADAPTER = {"total_rank": 4, "experts": 2, "lora_alpha": 8.0}
    TASK = {"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 60}
    WRONG_TYPES = {  # field -> config overrides giving it a value of the wrong JSON type
        "spectral_clip_c": {"adapter": {**ADAPTER, "spectral_clip_c": "1.0"}},
        "share_b": {"adapter": {**ADAPTER, "share_b": "false"}},
        "samples_per_cluster": {"task": {**TASK, "samples_per_cluster": 2.9}},
        "adapter": {"adapter": [1, 2]},
        "targets": {"targets": "QKV"},
        "seed": {"seed": "abc"},
    }

    @pytest.mark.parametrize("command", ["params", "train", "gradcheck"])
    def test_config_file_holding_a_list_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([["method", "talklora"]]))
        code, _, err = run(capsys, command, "--config", str(path))
        assert code == 2
        assert err == "config error: config must be an object, got list\n"

    @pytest.mark.parametrize("field", list(WRONG_TYPES))
    def test_wrong_json_type_exits_2_naming_field(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, **self.WRONG_TYPES[field])
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert f"{field} must be" in err
        assert not (tmp_path / "out").exists()

    def test_integer_in_float_field_is_echoed_as_float(self, tmp_path, capsys):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8, "share_b": False,
            "spectral_clip_c": 1,
        })
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        echoed = read_header(tmp_path / "out" / "checkpoint.tlkl")["run_config"]
        assert repr(echoed["adapter"]["lora_alpha"]) == "8.0"
        assert repr(echoed["adapter"]["spectral_clip_c"]) == "1.0"
        assert echoed["adapter"]["share_b"] is False


class TestConfigValues:
    ADAPTER = TestConfigTypes.ADAPTER
    TASK = TestConfigTypes.TASK
    TRAIN = {"epochs": 1, "batch_size": 16}
    UNUSABLE = {  # field -> config overrides giving it a value that parses but cannot run
        "train.lr": {"train": {**TRAIN, "lr": float("nan")}},
        "task.noise_std": {"task": {**TASK, "noise_std": float("nan")}},
        "adapter.spectral_clip_c": {"adapter": {**ADAPTER, "spectral_clip_c": float("nan")}},
        "adapter.lora_alpha": {"adapter": {**ADAPTER, "lora_alpha": float("inf")}},
        "train.weight_decay": {"train": {**TRAIN, "weight_decay": -float("inf")}},
        "config.seed": {"seed": -1},
        "task.seed": {"task": {**TASK, "seed": 2**64}},
        "train.seed": {"train": {**TRAIN, "seed": -5}},
    }

    @pytest.mark.parametrize("field", list(UNUSABLE))
    def test_unusable_value_exits_2_naming_field(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, **self.UNUSABLE[field])
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert f"{field} must" in err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "train", "--config", str(cfg), "--seed", str(2**64))
        assert code == 2
        assert "--seed must" in err


class TestTrain:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, name="a.json", output_dir=str(out_a))
        cfg_b = write_config(tmp_path, name="b.json", output_dir=str(out_b))
        assert run(capsys, "train", "--config", str(cfg_a))[0] == 0
        assert run(capsys, "train", "--config", str(cfg_b))[0] == 0
        for fname in ("loss.csv", "routing.csv"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        assert (out_a / "checkpoint.tlkl").is_file()

    def test_zero_lr_constant_loss_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            train={"epochs": 2, "batch_size": 27, "lr": 0.0, "warmup_steps": 10,
                   "eval_every": 4, "dropout": 0.0},
            task={"clusters": 1, "input_dim": 8, "output_dim": 8,
                  "samples_per_cluster": 60, "noise_std": 0.0},
        )
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        lines = (tmp_path / "out" / "loss.csv").read_text().splitlines()
        losses = {line.split(",")[2] for line in lines[2:]}
        assert len(losses) == 1

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            task={"clusters": 1, "input_dim": 8, "output_dim": 8,
                  "samples_per_cluster": 60, "noise_std": 1e300},
        )
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 3
        assert "step" in err

    def test_overflowing_gradient_exits_3_naming_step(self, tmp_path, capsys):
        # the loss is still finite at step 7 when the gradient overflows
        cfg = write_config(
            tmp_path, seed=0,
            adapter={"total_rank": 4, "experts": 2, "lora_alpha": 8.0, "spectral_clip_c": 1.0},
            task={"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 40},
            train={"epochs": 5, "batch_size": 16, "lr": 1e50, "warmup_steps": 1,
                   "eval_every": 4},
        )
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 3
        assert err == "numerical failure: training diverged (non-finite parameters) at step 7\n"

    def test_non_finite_task_data_exits_2_in_one_line(self, tmp_path, capsys):
        # the task's data overflow, so nothing is trained: a config error,
        # not a divergence, and no numpy warning
        cfg = write_config(tmp_path, task={"noise_std": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "config error: config.task: noise_std 1e+308 makes the task data non-finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_rank_beyond_the_task_dims_exits_2_naming_the_field(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, adapter={"total_rank": 16, "experts": 4},
                           task={"input_dim": 4, "output_dim": 4})
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == ("config error: config.adapter.total_rank 16 exceeds min(d_in, d_out) = 4 "
                       "at slot L00.4x4 with d_in 4, d_out 4 (low-rank regime)\n")

    def test_cross_entropy_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, loss="softmax-cross-entropy")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: config.loss must be mean-squared-error")
        assert not (tmp_path / "out").exists()


class TestAnalyze:
    @pytest.fixture()
    def checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8.0,
            "spectral_clip_c": 1.0,
        })
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        return tmp_path / "out" / "checkpoint.tlkl"

    @pytest.mark.parametrize(
        "report,artifact",
        [
            ("stability", "stability.json"),
            ("nonexpansive", "nonexpansive.csv"),
            ("routing", "routing_load.csv"),
            ("heatmap", "heatmap.csv"),
            ("degeneracy", "degeneracy.json"),
        ],
    )
    def test_reports_run(self, checkpoint, capsys, report, artifact, tmp_path):
        out = tmp_path / f"reports_{report}"
        code, stdout, _ = run(
            capsys, "analyze", "--checkpoint", str(checkpoint),
            "--report", report, "--out", str(out), "--trials", "200",
        )
        assert code == 0
        assert (out / artifact).is_file()
        json.loads(stdout)

    def test_stability_on_clipped_checkpoint_passes(self, checkpoint, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "analyze", "--checkpoint", str(checkpoint),
            "--report", "stability", "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert json.loads(stdout)["all_verdicts_pass"] is True

    @pytest.mark.parametrize(
        "method, report, trials, drop_task, message",
        [
            ("lora", "stability", "200", False, "needs a talklora checkpoint"),
            ("moelora", "heatmap", "200", False, "needs a talklora checkpoint"),
            ("lora", "routing", "200", False, "needs a moelora or talklora checkpoint"),
            ("talklora", "routing", "200", True, "carries no task"),
            ("talklora", "stability", "0", False, "--trials must be at least 1"),
        ],
        ids=["stability_on_lora", "heatmap_on_moelora", "routing_on_lora",
             "routing_without_task", "zero_trials"],
    )
    def test_config_error_leaves_no_out_dir(
        self, tmp_path, capsys, method, report, trials, drop_task, message
    ):
        experts = 1 if method == "lora" else 2
        cfg = write_config(tmp_path, method=method, adapter={
            "total_rank": 4, "experts": experts, "lora_alpha": 8.0,
        })
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        checkpoint = tmp_path / "out" / "checkpoint.tlkl"
        if drop_task:
            rewrite_header(checkpoint, lambda header: header["run_config"].pop("task"))
        out = tmp_path / "new"
        code, _, err = run(
            capsys, "analyze", "--checkpoint", str(checkpoint),
            "--report", report, "--out", str(out), "--trials", trials,
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_corrupt_checkpoint_exits_4(self, checkpoint, capsys):
        raw = bytearray(checkpoint.read_bytes())
        raw[-3] ^= 0x42
        checkpoint.write_bytes(bytes(raw))
        code, _, err = run(
            capsys, "analyze", "--checkpoint", str(checkpoint),
            "--report", "nonexpansive",
        )
        assert code == 4
        assert "corrupt" in err.lower() or "checksum" in err.lower()


class TestAnalyzeLibraryCheckpoints:
    """Checkpoints saved through the library echo no CLI run config."""

    CHECKPOINTS = ["talklora-v1.tlkl", "talklora-train-v1.tlkl"]
    STACK_REPORTS = {  # report -> (artifact, its CSV lines from the loaded stack)
        "nonexpansive": ("nonexpansive.csv", lambda stack: analysis.nonexpansive_csv_lines(
            analysis.nonexpansive_audit(stack))),
        "heatmap": ("heatmap.csv", lambda stack: analysis.heatmap_csv_lines(
            analysis.communication_heatmap(stack))),
    }

    @pytest.mark.parametrize("fixture", CHECKPOINTS)
    @pytest.mark.parametrize("report", list(STACK_REPORTS))
    def test_stack_reports_need_only_the_stack(self, tmp_path, capsys, fixture, report):
        out = tmp_path / "reports"
        code, stdout, _ = run(capsys, "analyze", "--checkpoint", str(FIXTURES / fixture),
                              "--report", report, "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["report"] == report
        artifact, lines = self.STACK_REPORTS[report]
        stack, _ = load_checkpoint(FIXTURES / fixture)
        assert (out / artifact).read_text() == "\n".join(lines(stack)) + "\n"

    @pytest.mark.parametrize("fixture", CHECKPOINTS)
    @pytest.mark.parametrize("report", ["stability", "degeneracy", "routing"])
    def test_reports_that_rebuild_need_the_cli_config(self, tmp_path, capsys, fixture, report):
        out = tmp_path / "reports"
        code, _, err = run(capsys, "analyze", "--checkpoint", str(FIXTURES / fixture),
                           "--report", report, "--out", str(out))
        assert code == 2
        assert err == "config error: unknown field config.note\n"
        assert not out.exists()

    @pytest.mark.parametrize("run_config", [[1, 2], 5, [["method", "talklora"]]],
                             ids=["list", "number", "pairs"])
    @pytest.mark.parametrize("report", ["stability", "degeneracy", "routing"])
    def test_non_object_run_config_exits_2(self, tmp_path, capsys, run_config, report):
        _, stack, _, _ = make_setup("talklora")
        checkpoint = tmp_path / "ckpt.tlkl"
        save_checkpoint(checkpoint, stack, run_config)
        out = tmp_path / "reports"
        code, _, err = run(capsys, "analyze", "--checkpoint", str(checkpoint),
                           "--report", report, "--out", str(out))
        assert code == 2
        assert err == f"config error: config must be an object, got {type(run_config).__name__}\n"
        assert not out.exists()

    def test_stability_reads_the_ablation_flag_from_the_stack(self, tmp_path, capsys):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8.0, "talking_enabled": False,
        })
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        checkpoint = tmp_path / "out" / "checkpoint.tlkl"
        rewrite_header(
            checkpoint, lambda header: header["run_config"]["adapter"].update(talking_enabled=True)
        )
        assert read_header(checkpoint)["adapter_config"]["talking_enabled"] is False
        out = tmp_path / "reports"
        code, _, _ = run(capsys, "analyze", "--checkpoint", str(checkpoint),
                         "--report", "stability", "--out", str(out), "--trials", "50")
        assert code == 0
        certs = json.loads((out / "stability.json").read_text())["certificates"]
        assert [cert["c_norm"] for cert in certs] == [1.0, 1.0]


class TestEffectiveDict:
    def test_every_default_is_echoed(self):
        # the run-config block of the README, without the params-only fields
        assert parse_run_config({"method": "talklora", "task": {}}).effective_dict() == {
            "method": "talklora",
            "seed": 0,
            "output_dir": "out",
            "adapter": {
                "total_rank": 16, "experts": 4, "lora_alpha": 16.0, "share_b": True,
                "talking_enabled": True, "spectral_clip_c": None,
            },
            "task": {
                "clusters": 4, "input_dim": 16, "output_dim": 16,
                "samples_per_cluster": 250, "noise_std": 0.3, "seed": 0,
            },
            "model_depth": 4,
            "train": {
                "epochs": 2, "batch_size": 32, "lr": 3e-4, "warmup_steps": 100,
                "eval_every": 50, "seed": 0, "lr_schedule": "linear",
                "weight_decay": 0.0, "dropout": 0.05,
            },
            "loss": "mean-squared-error",
        }


class TestDegeneracyReport:
    def test_report_of_the_benchmark_session_is_pinned(self, tmp_path, capsys):
        # the talklora run of the benchmark's CLI session at seed 0; the
        # fixture was written by the one-trial-at-a-time probe loop
        doc = {"method": "talklora", "seed": 0, "output_dir": str(tmp_path / "out"),
               "task": {}, "adapter": {"spectral_clip_c": 1.0}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        assert run(capsys, "analyze", "--checkpoint", str(ckpt), "--report", "degeneracy")[0] == 0
        expected = (FIXTURES / "degeneracy-talklora-seed0.json").read_bytes()
        assert (tmp_path / "out" / "degeneracy.json").read_bytes() == expected


class TestGradcheckCommand:
    def test_small_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_relative_error"] < 1e-6
        report = json.loads((tmp_path / "out" / "gradcheck.json").read_text())
        assert len(report["combinations"]) == 12

    def test_single_expert_collapse_config_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, adapter={"total_rank": 4, "experts": 1, "lora_alpha": 8.0}
        )
        code, out, _ = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_seed_1903_of_the_acceptance_config_passes(self, tmp_path, capsys):
        # a longdouble central-difference oracle failed here (1.53e-6 on
        # L00.8x8.B1, moelora, unshared B, talking off) by its own truncation
        doc = {"method": "talklora", "seed": 1903, "output_dir": str(tmp_path / "out"),
               "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
               "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                        "samples_per_cluster": 40},
               "model_depth": 2}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-8

    def test_non_finite_error_fails_and_writes_strict_json(self, tmp_path, capsys):
        # lora_alpha 1e308 overflows the oracle's loss: its gradient, and so
        # the relative error, is NaN, which must fail rather than pass
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"method": "talklora", "output_dir": str(tmp_path / "out"),
                                   "adapter": {"lora_alpha": 1e308}, "task": {}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 3
        assert '"passed": true' not in out
        assert err.startswith("numerical failure: gradcheck lora share_b=False "
                              "talking_enabled=False: relative error nan at L")
        assert err.count("\n") == 1

        def reject(token):
            raise AssertionError(f"non-JSON constant {token}")

        for path in (tmp_path / "out").rglob("*.json"):
            json.loads(path.read_text(), parse_constant=reject)

    def test_dim_cap_enforced(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            task={"clusters": 2, "input_dim": 64, "output_dim": 64,
                  "samples_per_cluster": 40},
            adapter={"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
        )
        code, _, err = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 2
        assert "32" in err
        assert not (tmp_path / "out").exists()


class TestCkptCommand:
    def test_roundtrip_and_inspect(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        code, out, _ = run(capsys, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(out)["roundtrip_bit_identical"] is True
        code, out, _ = run(capsys, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "talklora"
        assert doc["shared_tensors"] == 2

    def test_roundtrip_writes_no_file(self, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.tlkl"
        shutil.copy(FIXTURES / "talklora-v1.tlkl", ckpt)
        sentinel = tmp_path / "checkpoint.roundtrip.tlkl"
        sentinel.write_bytes(b"a file of the user's")
        listing = sorted(tmp_path.iterdir())
        code, out, _ = run(capsys, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(out)["roundtrip_bit_identical"] is True
        assert sentinel.read_bytes() == b"a file of the user's"
        assert sorted(tmp_path.iterdir()) == listing

    def test_inspect_truncated_prefix_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        ckpt.write_bytes(ckpt.read_bytes()[:6])
        code, _, err = run(capsys, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 4
        assert "truncated" in err

    @pytest.mark.parametrize(
        "argv", [("ckpt", "roundtrip"), ("analyze", "--report", "routing")],
        ids=["ckpt_roundtrip", "analyze_routing"],
    )
    def test_forged_slot_dims_exit_4(self, tmp_path, capsys, argv):
        # the header asks for a 10^11-wide slot the payload cannot hold
        ckpt = tmp_path / "forged.tlkl"
        shutil.copy(Path(__file__).parent / "fixtures" / "lora-v1.tlkl", ckpt)
        rewrite_header(ckpt, lambda header: header["slots"][0].update(d_in=10**11))
        code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
        assert code == 4
        assert out == ""
        assert err.startswith("artifact corruption: slot L00.8x8")

    @pytest.mark.parametrize("action", ["inspect", "roundtrip"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["tensors"][0].pop("handle"),
            lambda header: header.update(tensors=5),
        ],
        ids=["record_without_handle", "tensors_not_a_list"],
    )
    def test_malformed_tensor_records_exit_4(self, tmp_path, capsys, action, edit):
        cfg = write_config(tmp_path)
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        rewrite_header(ckpt, edit)
        code, _, err = run(capsys, "ckpt", action, "--checkpoint", str(ckpt))
        assert code == 4
        assert "malformed header" in err


    RETYPED = {  # case -> (header edit, the field the message names)
        "total_rank_float": (lambda h: h["adapter_config"].update(total_rank=4.0),
                             "adapter_config.total_rank must be an integer, got float"),
        "d_in_float": (lambda h: h["slots"][0].update(d_in=8.0),
                       "slots[0].d_in must be an integer, got float"),
        "talking_string": (lambda h: h["adapter_config"].update(talking_enabled="false"),
                           "adapter_config.talking_enabled must be true or false, got str"),
        "talking_int": (lambda h: h["adapter_config"].update(talking_enabled=0),
                        "adapter_config.talking_enabled must be true or false, got int"),
        "lora_alpha_string": (lambda h: h["adapter_config"].update(lora_alpha="16"),
                              "adapter_config.lora_alpha must be a number, got str"),
        "clip_string": (lambda h: h["adapter_config"].update(spectral_clip_c="1.0"),
                        "adapter_config.spectral_clip_c must be a number, got str"),
        "layer_string": (lambda h: h["slots"][0].update(layer="0"),
                         "slots[0].layer must be an integer, got str"),
        "slot_int": (lambda h: h["slots"].__setitem__(0, 5),
                     "slots must be a list of objects, got list"),
        "extra_key": (lambda h: h["adapter_config"].update(bogus=1),
                      "unknown field adapter_config.bogus"),
    }

    @pytest.mark.parametrize("argv", [("ckpt", "inspect"), ("ckpt", "roundtrip"),
                                      ("analyze", "--report", "heatmap")],
                             ids=["inspect", "roundtrip", "heatmap"])
    @pytest.mark.parametrize("case", list(RETYPED))
    def test_retyped_header_field_exits_4_naming_it(self, tmp_path, capsys, argv, case):
        edit, message = self.RETYPED[case]
        ckpt = tmp_path / "retyped.tlkl"
        shutil.copy(FIXTURES / "talklora-v1.tlkl", ckpt)
        rewrite_header(ckpt, edit)
        code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt), *(
            ("--out", str(tmp_path / "reports")) if argv[0] == "analyze" else ()))
        assert code == 4
        assert out == ""
        assert err == f"artifact corruption: malformed header: {message}\n"
        assert "Error(" not in err


class TestNonFinitePayload:
    """A payload whose CRCs pass but which holds NaN or infinity is corrupt."""

    HANDLES = [rec["handle"] for rec in read_header(FIXTURES / "talklora-v1.tlkl")["tensors"]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("handle", HANDLES)
    def test_every_command_that_loads_exits_4_naming_the_tensor(
        self, tmp_path, capsys, handle, value
    ):
        ckpt = tmp_path / "nonfinite.tlkl"
        shutil.copy(FIXTURES / "talklora-v1.tlkl", ckpt)
        set_first_value(ckpt, handle, value)
        out_dir = tmp_path / "reports"
        for argv in [("ckpt", "roundtrip")] + [("analyze", "--report", report, "--out",
                                                str(out_dir)) for report in cli.ANALYZE_REPORTS]:
            code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
            assert code == 4, argv
            assert out == ""
            assert err == f"artifact corruption: tensor {handle!r} holds a non-finite value\n"
        assert not out_dir.exists()
        code, out, _ = run(capsys, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 0  # inspect reads only the header
        assert json.loads(out)["tensors"] == len(self.HANDLES)


class TestPathErrors:
    """An unusable path exits 2 with a message naming it, never a traceback."""

    def _config(self, tmp_path, output_dir):
        return write_config(
            tmp_path, output_dir=str(output_dir), geometry="llama3-8b",
            targets=["Q"], train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                                  "warmup_steps": 2, "eval_every": 4},
        )

    @pytest.mark.parametrize("command", ["train", "params", "gradcheck"])
    def test_output_dir_naming_a_file_exits_2(self, tmp_path, capsys, command):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        cfg = self._config(tmp_path, target)
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert str(target) in err

    @pytest.mark.parametrize("command", ["train", "params", "gradcheck"])
    def test_output_dir_under_a_file_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        cfg = self._config(tmp_path, blocker / "out")
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert str(blocker) in err

    @pytest.mark.parametrize(
        "command, work", [("train", "train"), ("gradcheck", "run_gradcheck_suite")]
    )
    def test_unusable_output_dir_fails_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, work
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output_dir check")

        monkeypatch.setattr(f"talklora.cli.{work}", must_not_run)
        target = tmp_path / "taken"
        target.write_text("not a directory")
        cfg = self._config(tmp_path, target)
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert str(target) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ckpt", "inspect"),
            ("ckpt", "roundtrip"),
            ("analyze", "--report", "nonexpansive"),
        ],
        ids=["ckpt_inspect", "ckpt_roundtrip", "analyze"],
    )
    def test_checkpoint_naming_a_directory_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--checkpoint", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err


class TestOversizedConfig:
    def test_train_beyond_memory_exits_2(self, tmp_path, capsys):
        # 10^12 inputs: the first allocation is refused outright, nothing is touched
        task = {"clusters": 2, "input_dim": 10**12, "output_dim": 8, "samples_per_cluster": 60}
        cfg = write_config(tmp_path, task=task)
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert err.startswith(
            "config error: the configured sizes need more memory than is available"
        )
        assert err.count("\n") == 1


class TestParser:
    def test_built_once_across_commands(self, tmp_path, capsys, monkeypatch):
        built = []

        def spy():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(cli, "_PARSER", None)
        cfg = write_config(tmp_path, geometry="llama3-8b", targets=["Q", "V"])
        for _ in range(3):
            assert run(capsys, "params", "--config", str(cfg))[0] == 0
        with pytest.raises(SystemExit):
            main(["params"])
        code, out, _ = run(capsys, "params", "--config", str(cfg), "--seed", "3")
        assert code == 0 and json.loads(out)["config"]["seed"] == 3
        assert built == [1]

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["train"],
        ["params", "--config"],
        ["analyze", "--checkpoint", "x.tlkl", "--report", "nope"],
        ["ckpt", "explode", "--checkpoint", "x.tlkl"],
        ["gradcheck", "--config", "c.json", "--seed", "1"],
        ["train", "--config", "c.json", "--seed", "abc"],
    ])
    def test_malformed_command_line_exits_2_on_every_call(self, capsys, argv):
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
