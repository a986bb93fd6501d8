import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pins
from _setup import (
    forge_checkpoint,
    make_setup,
    overflow_router_checkpoint,
    run_cli,
)
from talklora import analysis, autodiff, cli
from talklora.checkpoint import _PREFIX, load_checkpoint, read_header, save_checkpoint
from talklora.cli import parse_run_config
from talklora.linalg import RngState

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


class TestParams:
    def _params_config(self, tmp_path, **kw):
        base = {
            "geometry": "llama3-8b",
            "targets": ["Q", "K", "V", "Up", "Down"],
            "adapter": {"total_rank": 16, "experts": 4, "lora_alpha": 16.0},
        }
        base.update(kw)
        return write_config(tmp_path, **base)

    def test_llama3_talklora_r16(self, tmp_path):
        cfg = self._params_config(tmp_path)
        code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["percent"] - 0.2) <= 0.05
        assert (tmp_path / "out" / "param_budget.json").is_file()

    def test_llama2_lora_r32(self, tmp_path):
        cfg = self._params_config(
            tmp_path,
            method="lora",
            adapter={"total_rank": 32, "experts": 1, "lora_alpha": 32.0},
            geometry="llama2-7b",
        )
        code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["percent"] - 0.8) <= 0.05

    def test_toy_geometry_fixture_file(self, tmp_path):
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
        code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg))
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
        "tag_repeated": ({**TOY, "projections": [{"tag": "X", "d_in": 8, "d_out": 8}] * 2},
                         "geometry fixture projections repeats tag 'X'\n"),
        "d_out_zero": ({**TOY, "projections": [{"tag": "X", "d_in": 8, "d_out": 0}]},
                       "geometry fixture projections[0].d_out must be positive, got 0\n"),
        "total_params_zero": ({**TOY, "total_params": 0},
                              "geometry fixture total_params must be positive, got 0\n"),
        "layers_zero": ({**TOY, "layers": 0}, "geometry fixture layers must be positive, got 0\n"),
        "unknown_field": ({**TOY, "vocab": 32000}, "unknown field vocab"),
        "source_int": ({**TOY, "source": 1}, "source"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_geometry_fixture_exits_2_naming_field(self, tmp_path, case):
        doc, field = self.MALFORMED[case]
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps(doc))
        cfg = self._params_config(tmp_path, geometry=str(geom_path), targets=["X"])
        code, _, err = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error: geometry fixture")
        assert field in err

    def test_rank_beyond_a_target_exits_2_naming_it(self, tmp_path):
        # K of llama3-8b is 4096 -> 1024, so no stack can hold rank 8192 there
        cfg = self._params_config(tmp_path, targets=["K"],
                                  adapter={"total_rank": 8192, "experts": 4})
        code, _, err = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 2
        assert err == ("config error: config.adapter.total_rank 8192 exceeds min(d_in, d_out) "
                       "= 1024 at target K with d_in 4096, d_out 1024 (low-rank regime)\n")

    def test_missing_fixture_exits_2_with_path(self, tmp_path):
        cfg = self._params_config(tmp_path, geometry="does/not/exist.json")
        code, _, err = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 2
        assert "does/not/exist.json" in err

    def test_unknown_config_key_exits_2_with_field(self, tmp_path):
        cfg = self._params_config(tmp_path, bogus_field=1)
        code, _, err = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 2
        assert "bogus_field" in err

    def test_bundled_name_in_another_spelling(self, tmp_path):
        budgets = []
        for name in ("llama3-8b", "LLaMA3_8B"):
            cfg = self._params_config(tmp_path, geometry=name)
            code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg))
            assert code == 0
            doc = json.loads(out)
            assert doc.pop("config")["geometry"] == name
            budgets.append(doc)
        assert budgets[0] == budgets[1]

    def test_empty_targets_exit_2_saying_so(self, tmp_path):
        cfg = self._params_config(tmp_path, targets=[])
        code, _, err = run_cli(tmp_path, "params", "--config", str(cfg))
        assert code == 2
        assert err == "config error: config.targets must be nonempty\n"

    def test_seed_override_is_echoed(self, tmp_path):
        cfg = self._params_config(tmp_path)
        code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg), "--seed", "99")
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
    def test_config_file_holding_a_list_exits_2(self, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([["method", "talklora"]]))
        code, _, err = run_cli(tmp_path, command, "--config", str(path))
        assert code == 2
        assert err == "config error: config must be an object, got list\n"

    @pytest.mark.parametrize("field", list(WRONG_TYPES))
    def test_wrong_json_type_exits_2_naming_field(self, tmp_path, field):
        cfg = write_config(tmp_path, **self.WRONG_TYPES[field])
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert f"{field} must be" in err

    def test_integer_in_float_field_is_echoed_as_float(self, tmp_path):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8, "share_b": False,
            "spectral_clip_c": 1,
        })
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
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
    def test_unusable_value_exits_2_naming_field(self, tmp_path, field):
        cfg = write_config(tmp_path, **self.UNUSABLE[field])
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert f"{field} must" in err

    def test_seed_flag_out_of_range_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg), "--seed", str(2**64))
        assert code == 2
        assert "--seed must" in err


class TestInputErrors:
    ADAPTER = TestConfigTypes.ADAPTER
    TASK = TestConfigTypes.TASK
    TRAIN = {"epochs": 1, "batch_size": 16, "warmup_steps": 10, "eval_every": 4}
    CONFIG = ["train", "--config", "{config}"]
    # case -> (argv, the config's overrides or its text, the stderr line's start);
    # "{tmp}" is the test's directory and "{config}" the config file there
    CASES = {
        "config_file_missing": (["train", "--config", "{tmp}/absent.json"], {},
                                "config error: config file not found: {tmp}/absent.json\n"),
        "config_not_json": (CONFIG, "{method: lora}",
                            "config error: config file {config} is not valid JSON: "),
        "analyze_checkpoint_missing": (
            ["analyze", "--checkpoint", "{tmp}/absent.tlkl", "--report", "heatmap"], {},
            "input not found: [Errno 2] No such file or directory: '{tmp}/absent.tlkl'\n"),
        "ckpt_roundtrip_checkpoint_missing": (
            ["ckpt", "roundtrip", "--checkpoint", "{tmp}/absent.tlkl"], {},
            "input not found: [Errno 2] No such file or directory: '{tmp}/absent.tlkl'\n"),
        "ckpt_inspect_checkpoint_missing": (
            ["ckpt", "inspect", "--checkpoint", "{tmp}/absent.tlkl"], {},
            "input not found: [Errno 2] No such file or directory: '{tmp}/absent.tlkl'\n"),
        "params_without_geometry": (["params", "--config", "{config}"], {"targets": ["Q"]},
                                    "config error: missing required field config.geometry\n"),
        "params_without_targets": (["params", "--config", "{config}"], {"geometry": "llama3-8b"},
                                   "config error: missing required field config.targets\n"),
        "gradcheck_without_task": (["gradcheck", "--config", "{config}"], {"task": None},
                                   "config error: missing required field config.task\n"),
        "params_repeated_target": (["params", "--config", "{config}"],
                                   {"geometry": "llama3-8b", "targets": ["Q", "Q"]},
                                   "config error: config.targets repeats 'Q'\n"),
        "params_unknown_target": (["params", "--config", "{config}"],
                                  {"geometry": "llama3-8b", "targets": ["Q", "q"]},
                                  "config error: config.targets holds tags ['q'] unknown to "
                                  "'LLaMA3-8B'\n"),
        "lr_out_of_float_range": (CONFIG, '{"method": "lora", "train": {"lr": 1%s}}' % ("0" * 400),
                                  "config error: config.train.lr is out of float range\n"),
        "method": (CONFIG, {"method": "foo"},
                   "config error: config.method must be lora|moelora|talklora, got 'foo'\n"),
        "model_depth": (CONFIG, {"model_depth": 0},
                        "config error: config.model_depth must be positive, got 0\n"),
        "task.clusters": (CONFIG, {"task": {**TASK, "clusters": 0}},
                          "config error: config.task.clusters must be positive, got 0\n"),
        "task.input_dim": (CONFIG, {"task": {**TASK, "input_dim": 0}},
                           "config error: config.task.input_dim must be positive, got 0\n"),
        "task.output_dim": (CONFIG, {"task": {**TASK, "output_dim": 0}},
                            "config error: config.task.output_dim must be positive, got 0\n"),
        "task.samples_per_cluster": (
            CONFIG, {"task": {**TASK, "samples_per_cluster": 0}},
            "config error: config.task.samples_per_cluster must be positive, got 0\n"),
        "task.noise_std": (CONFIG, {"task": {**TASK, "noise_std": -1.0}},
                           "config error: config.task.noise_std must be nonnegative, got -1.0\n"),
        "train.epochs": (CONFIG, {"train": {**TRAIN, "epochs": 0}},
                         "config error: config.train.epochs must be positive, got 0\n"),
        "train.batch_size": (CONFIG, {"train": {**TRAIN, "batch_size": 0}},
                             "config error: config.train.batch_size must be positive, got 0\n"),
        "train.eval_every": (CONFIG, {"train": {**TRAIN, "eval_every": 0}},
                             "config error: config.train.eval_every must be positive, got 0\n"),
        "train.warmup_steps": (CONFIG, {"train": {**TRAIN, "warmup_steps": 0}},
                               "config error: config.train.warmup_steps must be positive, "
                               "got 0\n"),
        "train.lr": (CONFIG, {"train": {**TRAIN, "lr": -1.0}},
                     "config error: config.train.lr must be nonnegative, got -1.0\n"),
        "train.lr_schedule": (CONFIG, {"train": {**TRAIN, "lr_schedule": "cosine"}},
                              "config error: config.train.lr_schedule must be 'linear', "
                              "got 'cosine'\n"),
        "train.dropout": (CONFIG, {"train": {**TRAIN, "dropout": 1.0}},
                          "config error: config.train.dropout must lie in [0, 1), got 1.0\n"),
        "adapter.total_rank": (CONFIG, {"adapter": {**ADAPTER, "total_rank": 0}},
                               "config error: config.adapter.total_rank must be positive, "
                               "got 0\n"),
        "adapter.experts": (CONFIG, {"adapter": {**ADAPTER, "experts": 0}},
                            "config error: config.adapter.experts must be positive, got 0\n"),
        "adapter.lora_alpha": (CONFIG, {"adapter": {**ADAPTER, "lora_alpha": 0.0}},
                               "config error: config.adapter.lora_alpha must be positive, "
                               "got 0.0\n"),
        "adapter.spectral_clip_c": (CONFIG, {"adapter": {**ADAPTER, "spectral_clip_c": 0.0}},
                                    "config error: config.adapter.spectral_clip_c must be "
                                    "positive when set, got 0.0\n"),
        "loss": (CONFIG, {"loss": "hinge"},
                 "config error: config.loss must be one of ('mean-squared-error', "
                 "'softmax-cross-entropy'), got 'hinge'\n"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_naming_the_field(self, tmp_path, case):
        argv, config, line = self.CASES[case]
        if isinstance(config, str):
            path = tmp_path / "config.json"
            path.write_text(config)
        else:
            path = write_config(tmp_path, **config)
        names = {"tmp": str(tmp_path), "config": str(path)}
        code, _, err = run_cli(tmp_path, *(arg.format(**names) for arg in argv))
        assert code == 2
        assert err.startswith(line.format(**names)), err


class TestTrain:
    def test_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, name="a.json", output_dir=str(out_a))
        cfg_b = write_config(tmp_path, name="b.json", output_dir=str(out_b))
        assert run_cli(tmp_path, "train", "--config", str(cfg_a))[0] == 0
        assert run_cli(tmp_path, "train", "--config", str(cfg_b))[0] == 0
        for fname in ("loss.csv", "routing.csv"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        assert (out_a / "checkpoint.tlkl").is_file()

    def test_zero_lr_constant_loss_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            train={"epochs": 2, "batch_size": 27, "lr": 0.0, "warmup_steps": 10,
                   "eval_every": 4, "dropout": 0.0},
            task={"clusters": 1, "input_dim": 8, "output_dim": 8,
                  "samples_per_cluster": 60, "noise_std": 0.0},
        )
        code, _, _ = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 0
        lines = (tmp_path / "out" / "loss.csv").read_text().splitlines()
        losses = {line.split(",")[2] for line in lines[2:]}
        assert len(losses) == 1

    def test_divergence_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            task={"clusters": 1, "input_dim": 8, "output_dim": 8,
                  "samples_per_cluster": 60, "noise_std": 1e300},
        )
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 3
        assert "step" in err

    OVERFLOWING = {  # config overrides whose gradient overflows while the loss is finite
        "seed": 0,
        "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0, "spectral_clip_c": 1.0},
        "task": {"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 40},
        "train": {"epochs": 5, "batch_size": 16, "lr": 1e40, "warmup_steps": 1,
                  "eval_every": 4},
    }

    def test_non_finite_eval_loss_exits_3_naming_step(self, tmp_path):
        # the first batch's loss is finite; the eval split's is not
        cfg = write_config(
            tmp_path, seed=2, model_depth=2, adapter={"total_rank": 2, "experts": 2},
            task={"clusters": 2, "input_dim": 4, "output_dim": 4, "samples_per_cluster": 20,
                  "noise_std": 3e153},
            train={"epochs": 1, "batch_size": 1, "lr": 0.0, "warmup_steps": 1,
                   "eval_every": 1, "dropout": 0.0},
        )
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 3
        assert err == "numerical failure: training diverged (non-finite eval loss) at step 1\n"

    def test_overflowing_gradient_exits_3_naming_step(self, tmp_path):
        # the loss is still finite at step 7 when the gradient overflows
        cfg = write_config(tmp_path, **self.OVERFLOWING)
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 3
        assert err == "numerical failure: training diverged (non-finite parameters) at step 7\n"

    def test_non_finite_task_data_exits_2_in_one_line(self, tmp_path):
        # the task's data overflow, so nothing is trained: a config error,
        # not a divergence
        cfg = write_config(tmp_path, task={"noise_std": 1e308})
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert err == "config error: config.task.noise_std 1e+308 makes the task data non-finite\n"

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_rank_beyond_the_task_dims_exits_2_naming_the_field(self, tmp_path, command):
        cfg = write_config(tmp_path, adapter={"total_rank": 16, "experts": 4},
                           task={"input_dim": 4, "output_dim": 4})
        code, _, err = run_cli(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert err == ("config error: config.adapter.total_rank 16 exceeds min(d_in, d_out) = 4 "
                       "at slot L00.4x4 with d_in 4, d_out 4 (low-rank regime)\n")

    def test_lora_rank_need_not_be_a_multiple_of_experts(self, tmp_path):
        # LoRA never reads experts, so the default 4 need not divide its rank 6
        cfg = write_config(tmp_path, method="lora", adapter={"total_rank": 6})
        out = tmp_path / "out"
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        code, out_text, _ = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint",
                                    str(out / "checkpoint.tlkl"))
        assert code == 0 and '"roundtrip_bit_identical": true' in out_text
        # its gradcheck checks lora alone
        code, out_text, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0 and json.loads(out_text)["method"] == "lora"
        report = json.loads((out / "gradcheck.json").read_text())
        assert [combo["method"] for combo in report["combinations"]] == ["lora"]

    @pytest.mark.parametrize("method, command", [
        ("moelora", "train"), ("talklora", "train"),
        ("moelora", "gradcheck"), ("talklora", "gradcheck"),
    ])
    def test_experts_not_dividing_the_rank_exits_2_naming_them(self, tmp_path, method,
                                                                 command):
        cfg = write_config(tmp_path, method=method, adapter={"total_rank": 6})
        code, _, err = run_cli(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert err == ("config error: config.adapter.experts (4) must divide total_rank (6) "
                       "at slot L00.8x8\n")

    def test_csv_files_carry_schema_headers(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        out = tmp_path / "out"
        loss_lines = (out / "loss.csv").read_text().splitlines()
        routing_lines = (out / "routing.csv").read_text().splitlines()
        log = json.loads((out / "trainlog.json").read_text())
        assert loss_lines[0] == "#schema=loss-v1"
        assert routing_lines[0] == "#schema=routing-v1"
        assert len(loss_lines) == 2 + len(log["steps"])
        gates_rows = sum(np.size(s["mean_gates"]) for s in log["snapshots"])
        assert len(routing_lines) == 2 + gates_rows

    def test_one_sample_task_exits_2_naming_the_field(self, tmp_path):
        # the eval split takes the first sample, so one sample leaves none to train on
        cfg = write_config(tmp_path, task={"clusters": 1, "samples_per_cluster": 1})
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert err == ("config error: config.task.samples_per_cluster times clusters must be "
                       "at least 2, got 1 * 1\n")

    def test_cross_entropy_exits_2_before_any_output(self, tmp_path):
        cfg = write_config(tmp_path, loss="softmax-cross-entropy")
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error: config.loss must be mean-squared-error")


class TestAnalyze:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8.0,
            "spectral_clip_c": 1.0,
        })
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
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
    def test_reports_run(self, checkpoint, report, artifact, tmp_path):
        out = tmp_path / f"reports_{report}"
        code, _, _ = run_cli(
            tmp_path, "analyze", "--checkpoint", str(checkpoint),
            "--report", report, "--out", str(out), "--trials", "200",
        )
        assert code == 0
        assert (out / artifact).is_file()

    @pytest.mark.parametrize("report,artifact,schema,header,rows", [
        ("nonexpansive", "nonexpansive.csv", "nonexpansive-v1", "layer,tag,sigma_max", 2),
        ("routing", "routing_load.csv", "routing-load-v1",
         "layer,expert,mean_gate,entropy,max_share", 2 * 2),
        ("heatmap", "heatmap.csv", "heatmap-v1", "layer,tag,row,col,value", 2 * 2 * 2),
    ])
    def test_csv_schema_header_and_rows(self, checkpoint, tmp_path,
                                        report, artifact, schema, header, rows):
        # 2 layers of 2 experts
        out = tmp_path / "reports"
        assert run_cli(tmp_path, "analyze", "--checkpoint", str(checkpoint),
                       "--report", report, "--out", str(out))[0] == 0
        lines = (out / artifact).read_text().splitlines()
        assert lines[0] == f"#schema={schema}"
        assert lines[1] == header
        assert len(lines) == 2 + rows

    def test_stability_json_emits_bound_any_c(self, checkpoint, tmp_path):
        out = tmp_path / "reports"
        assert run_cli(tmp_path, "analyze", "--checkpoint", str(checkpoint), "--report",
                       "stability", "--out", str(out), "--trials", "4")[0] == 0
        doc = json.loads((out / "stability.json").read_text())["certificates"][0]
        stack, _ = load_checkpoint(checkpoint)
        cert = analysis.stability_certificate(stack.adapters[0], trials=4, delta_scale=0.1,
                                              rng=RngState(0))
        assert doc["bound_any_c"] == cert.bound_any_c

    def test_stability_on_clipped_checkpoint_passes(self, checkpoint, tmp_path):
        code, stdout, _ = run_cli(
            tmp_path, "analyze", "--checkpoint", str(checkpoint),
            "--report", "stability", "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert json.loads(stdout)["all_verdicts_pass"] is True

    @pytest.mark.parametrize(
        "method, experts, report, trials, edit, message",
        [
            ("lora", 1, "stability", "200", None,
             "config error: stability_certificate needs a TalkLoRA layer, one that holds c\n"),
            ("moelora", 2, "heatmap", "200", None,
             "config error: communication_heatmap needs a TalkLoRA layer, one that holds c\n"),
            ("moelora", 2, "nonexpansive", "200", None,
             "config error: nonexpansive_audit needs a TalkLoRA layer, one that holds c\n"),
            ("moelora", 2, "degeneracy", "200", None,
             "config error: degeneracy_check needs a TalkLoRA layer, one that holds c\n"),
            ("lora", 1, "routing", "200", None,
             "config error: routing_load needs a gated layer, one that holds router_wg\n"),
            ("talklora", 2, "routing", "200", lambda header: header["run_config"].pop("task"),
             "config error: missing required field config.task\n"),
            ("talklora", 2, "stability", "0", None,
             "config error: trials must be at least 1, got 0\n"),
            ("talklora", 1, "degeneracy", "200", None,
             "degeneracy probes need at least 2 experts"),
            ("talklora", 2, "routing", "200",
             lambda header: header["run_config"].update(model_depth=3),
             "config error: config.model_depth rebuilds a host of (d_in, d_out) "
             "layers [(8, 8), (8, 8), (8, 8)], but the checkpoint's slots are [(8, 8), (8, 8)]\n"),
            ("moelora", 2, "routing", "200",
             lambda header: header["run_config"]["task"].update(input_dim=6),
             "config error: config.task.input_dim rebuilds a host of "
             "(d_in, d_out) layers [(6, 6), (6, 8)], but the checkpoint's slots are "
             "[(8, 8), (8, 8)]\n"),
            ("talklora", 2, "routing", "200",
             lambda header: header["run_config"]["task"].update(output_dim=6),
             "config error: config.task.output_dim rebuilds a host of "
             "(d_in, d_out) layers [(8, 8), (8, 6)], but the checkpoint's slots are "
             "[(8, 8), (8, 8)]\n"),
        ],
        ids=["stability_on_lora", "heatmap_on_moelora", "nonexpansive_on_moelora",
             "degeneracy_on_moelora", "routing_on_lora",
             "routing_without_task", "zero_trials", "degeneracy_on_one_expert",
             "routing_on_a_deeper_host", "routing_on_another_input_dim",
             "routing_on_another_output_dim"],
    )
    def test_config_error_leaves_no_out_dir(
        self, tmp_path, method, experts, report, trials, edit, message
    ):
        cfg = write_config(tmp_path, method=method, adapter={
            "total_rank": 4, "experts": experts, "lora_alpha": 8.0,
        })
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        checkpoint = tmp_path / "out" / "checkpoint.tlkl"
        if edit is not None:
            forge_checkpoint(checkpoint, checkpoint, edit)
        out = tmp_path / "new"
        code, _, err = run_cli(
            tmp_path, "analyze", "--checkpoint", str(checkpoint),
            "--report", report, "--out", str(out), "--trials", trials,
        )
        assert code == 2
        assert message in err

    def test_corrupt_checkpoint_exits_4(self, checkpoint, tmp_path):
        raw = bytearray(checkpoint.read_bytes())
        raw[-3] ^= 0x42
        checkpoint.write_bytes(bytes(raw))
        code, _, err = run_cli(
            tmp_path, "analyze", "--checkpoint", str(checkpoint),
            "--report", "nonexpansive",
        )
        assert code == 4
        assert "corrupt" in err.lower() or "checksum" in err.lower()


class TestAnalyzeLibraryCheckpoints:
    """Checkpoints saved through the library echo no CLI run config."""

    CHECKPOINTS = ["talklora-v1.tlkl", "talklora-train-v1.tlkl"]
    STACK_REPORTS = {"nonexpansive": "nonexpansive.csv", "heatmap": "heatmap.csv"}

    @pytest.mark.parametrize("fixture", CHECKPOINTS)
    @pytest.mark.parametrize("report", list(STACK_REPORTS))
    def test_stack_reports_need_only_the_stack(self, tmp_path, fixture, report):
        out = tmp_path / "reports"
        code, stdout, _ = run_cli(tmp_path, "analyze", "--checkpoint", str(FIXTURES / fixture),
                                  "--report", report, "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["report"] == report
        artifact = self.STACK_REPORTS[report]
        pins.assert_digests({f"session/analyze {fixture} {report}: {artifact}":
                             pins.sha256((out / artifact).read_bytes())})

    @pytest.mark.parametrize("fixture", CHECKPOINTS)
    @pytest.mark.parametrize("report", ["stability", "degeneracy", "routing"])
    def test_reports_that_rebuild_need_the_cli_config(self, tmp_path, fixture, report):
        code, _, err = run_cli(tmp_path, "analyze", "--checkpoint", str(FIXTURES / fixture),
                               "--report", report, "--out", str(tmp_path / "reports"))
        assert code == 2
        assert err == "config error: unknown field config.note\n"

    @pytest.mark.parametrize("run_config", [[1, 2], 5, [["method", "talklora"]]],
                             ids=["list", "number", "pairs"])
    @pytest.mark.parametrize("report", ["stability", "degeneracy", "routing"])
    def test_non_object_run_config_exits_2(self, tmp_path, run_config, report):
        _, stack, _, _ = make_setup("talklora")
        checkpoint = tmp_path / "ckpt.tlkl"
        save_checkpoint(checkpoint, stack, run_config)
        code, _, err = run_cli(tmp_path, "analyze", "--checkpoint", str(checkpoint),
                               "--report", report, "--out", str(tmp_path / "reports"))
        assert code == 2
        assert err == f"config error: config must be an object, got {type(run_config).__name__}\n"

    def test_stability_reads_the_ablation_flag_from_the_stack(self, tmp_path):
        cfg = write_config(tmp_path, adapter={
            "total_rank": 4, "experts": 2, "lora_alpha": 8.0, "talking_enabled": False,
        })
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        checkpoint = tmp_path / "out" / "checkpoint.tlkl"
        forge_checkpoint(checkpoint, checkpoint, lambda header: (
            header["run_config"]["adapter"].update(talking_enabled=True)))
        assert read_header(checkpoint)["adapter_config"]["talking_enabled"] is False
        out = tmp_path / "reports"
        code, _, _ = run_cli(tmp_path, "analyze", "--checkpoint", str(checkpoint),
                             "--report", "stability", "--out", str(out), "--trials", "50")
        assert code == 0
        certs = json.loads((out / "stability.json").read_text())["certificates"]
        assert [cert["c_norm"] for cert in certs] == [1.0, 1.0]


class TestConfigEcho:
    def test_every_default_is_echoed(self):
        # the run-config block of the README, without the params-only fields
        assert parse_run_config({"method": "talklora", "task": {}}).values == {
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
    def test_report_of_the_benchmark_session_is_pinned(self):
        # the talklora run of the benchmark's CLI session at seed 0; the
        # pin was last recorded after the probes' four whole-array draws
        pins.assert_pinned("degeneracy/talklora-seed0")


class TestGradcheckCommand:
    @pytest.mark.parametrize("loss", ["mean-squared-error", "softmax-cross-entropy"])
    def test_small_config_passes(self, tmp_path, loss):
        cfg = write_config(tmp_path, loss=loss)
        code, out, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_relative_error"] < 1e-6
        assert doc["method"] == "talklora"
        report = json.loads((tmp_path / "out" / "gradcheck.json").read_text())
        # the talklora family at every flag setting, and the families it
        # generalizes once: the configurations whose gradients are pinned
        assert len(report["combinations"]) == 6
        keys = [(c["method"], c["share_b"], c["talking_enabled"]) for c in report["combinations"]]
        assert sorted(keys) == sorted(pins.GRADIENT_CONFIGS)

    def test_single_expert_collapse_config_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, adapter={"total_rank": 4, "experts": 1, "lora_alpha": 8.0}
        )
        code, out, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_seed_1903_of_the_acceptance_config_passes(self, tmp_path):
        # a longdouble central-difference oracle failed here (1.53e-6 on
        # L00.8x8.B1, moelora, unshared B, talking off) by its own truncation
        doc = {"method": "talklora", "seed": 1903, "output_dir": str(tmp_path / "out"),
               "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
               "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                        "samples_per_cluster": 40},
               "model_depth": 2}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-8

    @pytest.mark.parametrize("lora_alpha", [1e10, 1e50])
    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_large_outputs_keep_the_error_small(self, tmp_path, method, lora_alpha):
        # depth 1 has no tanh, so only the targets can fail here: outputs are
        # of order lora_alpha, and targets drawn near them would round away
        doc = {"method": method, "seed": 0, "output_dir": str(tmp_path / "out"),
               "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": lora_alpha},
               "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
                        "samples_per_cluster": 40},
               "model_depth": 1}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-8

    @pytest.mark.parametrize("config, nan_in_oracle, failure", [
        # an oracle gradient that holds one NaN makes that relative error
        # NaN, which must fail rather than pass
        ({"task": {}}, True, "relative error nan at L00.16x16.A0\n"),
        # lora_alpha 1e308 overflows the production mean-squared-error loss
        ({"adapter": {"lora_alpha": 1e308}, "task": {}}, False,
         "non-finite loss at sample index 0\n"),
        # the production cross-entropy loss itself overflows on one sample:
        # alpha near the float64 maximum makes the logits themselves infinite
        ({"method": "lora", "adapter": {"total_rank": 1, "experts": 1, "lora_alpha": 1.7e308},
          "model_depth": 1, "loss": "softmax-cross-entropy", "task": TestConfigTypes.TASK},
         False, "non-finite loss at sample index 1\n"),
    ], ids=["relative_error_nan", "non_finite_mse_loss", "non_finite_loss"])
    def test_non_finite_error_exits_3_writing_no_file(self, tmp_path, monkeypatch, config,
                                                      nan_in_oracle, failure):
        if nan_in_oracle:
            oracle = autodiff.finite_difference_oracle

            def nan_first(*args):
                grad = oracle(*args)
                grad[0] = np.nan
                return grad

            monkeypatch.setattr(autodiff, "finite_difference_oracle", nan_first)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"method": "talklora", "output_dir": str(tmp_path / "out"),
                                   **config}))
        code, _, err = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 3
        assert err.startswith("numerical failure: gradcheck lora share_b=True "
                              f"talking_enabled=True: {failure}")

    def test_cross_entropy_of_a_target_far_behind_the_max_passes(self, tmp_path):
        # at lora_alpha 1e3 a target's logit trails the row max by more than
        # 745, so its softmax probability underflows to 0 while the loss,
        # log-sum-exp minus the target's logit, stays finite
        doc = {"method": "talklora", "output_dir": str(tmp_path / "out"),
               "adapter": {**TestConfigTypes.ADAPTER, "lora_alpha": 1e3},
               "task": TestConfigTypes.TASK, "model_depth": 1, "loss": "softmax-cross-entropy"}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-8

    def test_error_above_tolerance_exits_3_writing_no_file(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        combos = cli.run_gradcheck_suite(parse_run_config(json.loads(cfg.read_text())))
        worst = max(combos["combinations"], key=lambda combo: combo["max_relative_error"])
        monkeypatch.setattr(cli, "GRADCHECK_TOL", 0.0)
        code, _, err = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 3
        assert err == (f"numerical failure: gradcheck {worst['method']} "
                       f"share_b={worst['share_b']} talking_enabled={worst['talking_enabled']}: "
                       f"relative error {worst['max_relative_error']} at {worst['worst_handle']}, "
                       "not below the tolerance 0.0\n")
        assert not (tmp_path / "out" / "gradcheck.json").exists()

    def test_dim_cap_enforced(self, tmp_path):
        cfg = write_config(
            tmp_path,
            task={"clusters": 2, "input_dim": 64, "output_dim": 64,
                  "samples_per_cluster": 40},
            adapter={"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
        )
        code, _, err = run_cli(tmp_path, "gradcheck", "--config", str(cfg))
        assert code == 2
        assert err == ("config error: config.task.input_dim must be at most 32 for gradcheck, "
                       "got 64\n")


class TestCkptCommand:
    def test_roundtrip_and_inspect(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        code, out, _ = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(out)["roundtrip_bit_identical"] is True
        code, out, _ = run_cli(tmp_path, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "talklora"
        assert doc["shared_tensors"] == 2

    def test_roundtrip_writes_no_file(self, tmp_path):
        ckpt = tmp_path / "checkpoint.tlkl"
        shutil.copy(FIXTURES / "talklora-v1.tlkl", ckpt)
        sentinel = tmp_path / "checkpoint.roundtrip.tlkl"
        sentinel.write_bytes(b"a file of the user's")
        listing = sorted(tmp_path.iterdir())
        code, out, _ = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(out)["roundtrip_bit_identical"] is True
        assert sentinel.read_bytes() == b"a file of the user's"
        assert sorted(tmp_path.iterdir()) == listing

    def test_inspect_truncated_prefix_exits_4(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        ckpt.write_bytes(ckpt.read_bytes()[:6])
        code, _, err = run_cli(tmp_path, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 4
        assert "truncated" in err

    @pytest.mark.parametrize(
        "argv", [("ckpt", "roundtrip"), ("analyze", "--report", "routing")],
        ids=["ckpt_roundtrip", "analyze_routing"],
    )
    def test_forged_slot_dims_exit_4(self, tmp_path, argv):
        # the header asks for a 10^11-wide slot the payload cannot hold
        ckpt = tmp_path / "forged.tlkl"
        forge_checkpoint(FIXTURES / "lora-v1.tlkl", ckpt,
                         lambda header: header["slots"][0].update(d_in=10**11))
        code, _, err = run_cli(tmp_path, *argv, "--checkpoint", str(ckpt))
        assert code == 4
        assert err.startswith("artifact corruption: slot L00.8x8")

    @pytest.mark.parametrize("fixture", ["moelora-v1.tlkl", "talklora-v1.tlkl"])
    def test_forged_experts_not_dividing_the_rank_exit_4(self, tmp_path, fixture):
        ckpt = tmp_path / "forged.tlkl"
        forge_checkpoint(FIXTURES / fixture, ckpt, lambda h: h["adapter_config"].update(experts=3))
        code, _, err = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 4
        assert err == ("artifact corruption: malformed header: experts (3) must divide "
                       "total_rank (4) at slot L00.8x8\n")

    @pytest.mark.parametrize("action", ["inspect", "roundtrip"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["tensors"][0].pop("handle"),
            lambda header: header.update(tensors=5),
        ],
        ids=["record_without_handle", "tensors_not_a_list"],
    )
    def test_malformed_tensor_records_exit_4(self, tmp_path, action, edit):
        cfg = write_config(tmp_path)
        assert run_cli(tmp_path, "train", "--config", str(cfg))[0] == 0
        ckpt = tmp_path / "out" / "checkpoint.tlkl"
        forge_checkpoint(ckpt, ckpt, edit)
        code, _, err = run_cli(tmp_path, "ckpt", action, "--checkpoint", str(ckpt))
        assert code == 4
        assert "malformed header" in err

    @pytest.mark.parametrize("action", ["inspect", "roundtrip"])
    def test_header_not_an_object_exits_4(self, tmp_path, action):
        raw = (FIXTURES / "lora-v1.tlkl").read_bytes()
        magic, version, header_len = _PREFIX.unpack_from(raw)
        body = json.dumps([{"format_version": version}]).encode()
        ckpt = tmp_path / "listed.tlkl"
        ckpt.write_bytes(_PREFIX.pack(magic, version, len(body)) + body
                         + raw[_PREFIX.size + header_len:])
        code, _, err = run_cli(tmp_path, "ckpt", action, "--checkpoint", str(ckpt))
        assert code == 4
        assert err == ("artifact corruption: malformed header: the header must be an object, "
                       "got list\n")

    @pytest.mark.parametrize("argv", [("ckpt", "roundtrip"), ("analyze", "--report", "heatmap")],
                             ids=["roundtrip", "heatmap"])
    def test_header_without_slots_exits_4(self, tmp_path, argv):
        # no slots, no records, no aliases and no payload: a layout that holds nothing
        raw = (FIXTURES / "talklora-v1.tlkl").read_bytes()
        magic, version, header_len = _PREFIX.unpack_from(raw)
        header = json.loads(raw[_PREFIX.size:_PREFIX.size + header_len])
        header.update(slots=[], tensors=[], alias_table={})
        body = json.dumps(header, sort_keys=True).encode()
        ckpt = tmp_path / "empty.tlkl"
        ckpt.write_bytes(_PREFIX.pack(magic, version, len(body)) + body)
        code, _, err = run_cli(tmp_path, *argv, "--checkpoint", str(ckpt), *(
            ("--out", str(tmp_path / "reports")) if argv[0] == "analyze" else ()))
        assert code == 4
        assert err == "artifact corruption: malformed header: at least one slot is required\n"

    def test_tensor_record_beyond_the_slots_exits_4_on_roundtrip(self, tmp_path):
        ckpt = tmp_path / "extra.tlkl"
        forge_checkpoint(FIXTURES / "lora-v1.tlkl", ckpt, lambda header: header["tensors"].append(
            dict(header["tensors"][-1], handle="L02.8x8.A0")))
        code, _, err = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint", str(ckpt))
        assert code == 4
        assert err == "artifact corruption: tensor record 4 is not implied by the slots\n"
        # inspect reads only the header, whose every field has its kind
        code, out, _ = run_cli(tmp_path, "ckpt", "inspect", "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(out)["tensors"] == 5

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
        "version_7": (lambda h: h.update(format_version=7),
                      "format_version 7 does not match the prefix's version 1"),
    }

    @pytest.mark.parametrize("argv", [("ckpt", "inspect"), ("ckpt", "roundtrip"),
                                      ("analyze", "--report", "heatmap")],
                             ids=["inspect", "roundtrip", "heatmap"])
    @pytest.mark.parametrize("case", list(RETYPED))
    def test_retyped_header_field_exits_4_naming_it(self, tmp_path, argv, case):
        edit, message = self.RETYPED[case]
        ckpt = tmp_path / "retyped.tlkl"
        forge_checkpoint(FIXTURES / "talklora-v1.tlkl", ckpt, edit)
        code, _, err = run_cli(tmp_path, *argv, "--checkpoint", str(ckpt), *(
            ("--out", str(tmp_path / "reports")) if argv[0] == "analyze" else ()))
        assert code == 4
        assert err == f"artifact corruption: malformed header: {message}\n"


class TestArtifacts:
    def test_session_outputs_match_recorded_digests(self):
        # first recorded by the code that still formatted each artifact in
        # its own function
        pins.assert_pinned(*pins.session_pins())

    @pytest.mark.parametrize("report,code,message", [
        ("stability", 3, "stability.json: certificates[0].beta is inf"),
        ("routing", 3, "routing_load.csv: row 1 mean_gate is nan"),
        ("nonexpansive", 0, None),
        ("heatmap", 0, None),
        ("degeneracy", 0, None),
    ])
    def test_no_report_carries_a_non_finite_value(self, tmp_path, report, code, message):
        # run_cli rejects a report that exits 0 holding NaN or infinity
        ckpt = tmp_path / "overflow.tlkl"
        overflow_router_checkpoint(ckpt)
        got = run_cli(tmp_path, "analyze", "--checkpoint", str(ckpt), "--report", report,
                      "--out", str(tmp_path / "reports"))
        assert (got[0], got[2]) == (code, "" if message is None else
                                    f"numerical failure: {message}\n")


class TestNonFinitePayload:
    """A payload whose CRCs pass but which holds NaN or infinity is corrupt."""

    HANDLES = [rec["handle"] for rec in read_header(FIXTURES / "talklora-v1.tlkl")["tensors"]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("handle", HANDLES)
    def test_every_command_that_loads_exits_4_naming_the_tensor(
        self, tmp_path, handle, value
    ):
        ckpt = tmp_path / "nonfinite.tlkl"
        forge_checkpoint(FIXTURES / "talklora-v1.tlkl", ckpt, values=[(handle, value)])
        out_dir = tmp_path / "reports"
        for argv in [("ckpt", "roundtrip")] + [("analyze", "--report", report, "--out",
                                                str(out_dir)) for report in cli.ANALYZE_REPORTS]:
            code, _, err = run_cli(tmp_path, *argv, "--checkpoint", str(ckpt))
            assert code == 4, argv
            assert err == f"artifact corruption: tensor {handle!r} holds a non-finite value\n"
        code, out, _ = run_cli(tmp_path, "ckpt", "inspect", "--checkpoint", str(ckpt))
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
    def test_output_dir_naming_a_file_exits_2(self, tmp_path, command):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        cfg = self._config(tmp_path, target)
        code, _, err = run_cli(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert err.startswith("path error: ") and str(target) in err

    @pytest.mark.parametrize("command", ["train", "params", "gradcheck"])
    def test_output_dir_under_a_file_exits_2(self, tmp_path, command):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        cfg = self._config(tmp_path, blocker / "out")
        code, _, err = run_cli(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert err.startswith("path error: ") and str(blocker) in err

    @pytest.mark.parametrize(
        "command, work", [("train", "train"), ("gradcheck", "run_gradcheck_suite")]
    )
    def test_unusable_output_dir_fails_before_the_work(
        self, tmp_path, monkeypatch, command, work
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output_dir check")

        monkeypatch.setattr(f"talklora.cli.{work}", must_not_run)
        target = tmp_path / "taken"
        target.write_text("not a directory")
        cfg = self._config(tmp_path, target)
        code, _, err = run_cli(tmp_path, command, "--config", str(cfg))
        assert code == 2
        assert err.startswith("path error: ") and str(target) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ckpt", "inspect"),
            ("ckpt", "roundtrip"),
            ("analyze", "--report", "nonexpansive"),
        ],
        ids=["ckpt_inspect", "ckpt_roundtrip", "analyze"],
    )
    def test_checkpoint_naming_a_directory_exits_2(self, tmp_path, argv):
        code, _, err = run_cli(tmp_path, *argv, "--checkpoint", str(tmp_path))
        assert code == 2
        assert err.startswith("path error: ") and str(tmp_path) in err


class TestOversizedConfig:
    def test_train_beyond_memory_exits_2(self, tmp_path):
        # 10^12 inputs: the first allocation is refused outright, nothing is touched
        task = {"clusters": 2, "input_dim": 10**12, "output_dim": 8, "samples_per_cluster": 60}
        cfg = write_config(tmp_path, task=task)
        code, _, err = run_cli(tmp_path, "train", "--config", str(cfg))
        assert code == 2
        assert err.startswith(
            "config error: the configured sizes need more memory than is available"
        )


class TestParser:
    def test_built_once_across_commands(self, tmp_path, monkeypatch):
        built = []

        def spy():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(cli, "_PARSER", None)
        cfg = write_config(tmp_path, geometry="llama3-8b", targets=["Q", "V"])
        for _ in range(3):
            assert run_cli(tmp_path, "params", "--config", str(cfg))[0] == 0
        assert run_cli(tmp_path, "params")[0] == 2
        code, out, _ = run_cli(tmp_path, "params", "--config", str(cfg), "--seed", "3")
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
    def test_malformed_command_line_exits_2_on_every_call(self, tmp_path, argv):
        for _ in range(3):
            assert run_cli(tmp_path, *argv)[0] == 2


class TestEntryPoint:
    """``python -W error -m talklora`` exits, prints and fails as ``main`` does in process."""

    SRC = str(Path(cli.__file__).resolve().parents[1])  # the directory holding talklora

    @staticmethod
    def _argv(tmp_path, case):
        if case == "usage":
            return ["train"]
        if case == "retyped":
            ckpt = tmp_path / "retyped.tlkl"
            edit = TestCkptCommand.RETYPED["talking_string"][0]
            forge_checkpoint(FIXTURES / "talklora-v1.tlkl", ckpt, edit)
            return ["ckpt", "inspect", "--checkpoint", str(ckpt)]
        command, overrides = {
            "gradcheck_lora": ("gradcheck", {"method": "lora", "adapter": {"total_rank": 6}}),
            "one_sample": ("train", {"task": {"clusters": 1, "samples_per_cluster": 1}}),
            "overflowing": ("train", TestTrain.OVERFLOWING),
        }[case]
        return [command, "--config", str(write_config(tmp_path, **overrides))]

    @pytest.mark.parametrize("case, code", [
        ("gradcheck_lora", 0), ("one_sample", 2), ("overflowing", 3), ("retyped", 4),
        ("usage", 2),
    ])
    def test_module_run_matches_in_process_run(self, tmp_path, case, code):
        argv = self._argv(tmp_path, case)
        expected = run_cli(tmp_path, *argv)
        assert expected[0] == code
        ran = subprocess.run([sys.executable, "-W", "error", "-m", "talklora", *argv],
                             capture_output=True, text=True, cwd=tmp_path, timeout=120,
                             env={**os.environ, "PYTHONPATH": self.SRC})
        assert (ran.returncode, ran.stdout, ran.stderr) == expected
