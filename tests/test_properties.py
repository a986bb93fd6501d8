"""Property tests: malformed artifacts and configs fail only in the documented way.

Every example set is derandomized and uses no example database, so the
suite stays reproducible from run to run.
"""

import copy
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _setup import forge_checkpoint, make_setup, run_cli
from talklora import checkpoint
from talklora.adapters import METHODS
from talklora.checkpoint import (
    CorruptCheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from talklora.cli import ANALYZE_REPORTS, ConfigError, parse_run_config
from talklora.linalg import RngState

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

VALID_CONFIG = {
    "method": "talklora",
    "seed": 3,
    "output_dir": "out",
    "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0, "share_b": True,
                "talking_enabled": True, "spectral_clip_c": 1.0},
    "targets": ["Q", "V"],
    "geometry": "llama3-8b",
    "task": {"clusters": 2, "input_dim": 8, "output_dim": 8, "samples_per_cluster": 10,
             "noise_std": 0.2, "seed": 5},
    "model_depth": 2,
    "train": {"epochs": 1, "batch_size": 4, "lr": 1e-3, "warmup_steps": 2,
              "eval_every": 2, "seed": 6, "lr_schedule": "linear",
              "weight_decay": 0.0, "dropout": 0.0},
    "loss": "mean-squared-error",
}
FIELD_PATHS = [(key,) for key in VALID_CONFIG] + [
    (section, key)
    for section, fields in VALID_CONFIG.items() if isinstance(fields, dict)
    for key in fields
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    _, stack, _, _ = make_setup("talklora", depth=2, seed=4)
    path = tmp_path_factory.mktemp("valid") / "valid.tlkl"
    save_checkpoint(path, stack, {"method": "talklora", "seed": 4})
    return path.read_bytes()


@pytest.fixture(scope="module")
def victim(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "victim.tlkl"


# bytes that keep a JSON header parseable more often than a uniform byte does
_JSONISH = st.sampled_from(b'0123456789-.e"{}[],: tfn')


def _mutated(raw: bytes, data) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    at = data.draw(st.integers(0, len(raw) - 1), label="position")
    byte = data.draw(_JSONISH | st.integers(0, 255), label="byte")
    return raw[:at] + bytes([byte]) + raw[at + 1 :]


class TestCheckpointMutations:
    @PROPERTY
    @given(data=st.data())
    def test_readers_raise_only_artifact_errors(self, checkpoint_bytes, victim, data):
        victim.write_bytes(_mutated(checkpoint_bytes, data))
        for reader in (load_checkpoint, read_header):
            try:
                reader(victim)
            except CorruptCheckpointError:
                pass

    @PROPERTY
    @given(data=st.data())
    def test_ckpt_inspect_exits_0_or_4(self, checkpoint_bytes, victim, data):
        victim.write_bytes(_mutated(checkpoint_bytes, data))
        assert run_cli(victim.parent, "ckpt", "inspect", "--checkpoint", str(victim))[0] in (0, 4)


FIXTURES = Path(__file__).parent / "fixtures"
# a dim, rank or record size: small ones (some the file's own) and one far too large
sizes = st.integers(-1, 17) | st.just(10**11)


def _retyped(value) -> list:
    """``value`` as other JSON kinds: the other number type of the same value,
    bool <-> int, its string, null and a list."""
    kinds = [str(value), None, [value]]
    if isinstance(value, bool):
        kinds.append(int(value))
    elif isinstance(value, int):
        kinds += [float(value), bool(value)]
    elif isinstance(value, float) and value.is_integer():
        kinds.append(int(value))
    elif value is None:
        kinds += [0, 1.0, False]
    return [kind for kind in kinds if kind is not value]


def _retype_field(header: dict, data) -> None:
    """Give one field of the header's adapter config, a slot or a tensor record
    another JSON kind, or add an extra key to one of them."""
    holder = data.draw(st.sampled_from(
        [header["adapter_config"], *header["slots"], *header["tensors"]]))
    key = data.draw(st.sampled_from(sorted(holder) + ["extra"]))
    if key == "extra":
        holder[key] = data.draw(json_values)
    else:
        holder[key] = data.draw(st.sampled_from(_retyped(holder[key])))


def _edit_header(header: dict, data) -> None:
    """One random edit of a header's slot dims, ranks, record sizes, alias
    table or field kinds."""
    part = data.draw(st.sampled_from(["slot", "adapter_config", "record", "alias_table",
                                      "retype"]))
    if part == "retype":
        _retype_field(header, data)
    elif part == "slot":
        slot = data.draw(st.sampled_from(header["slots"]))
        slot[data.draw(st.sampled_from(["d_in", "d_out"]))] = data.draw(sizes)
    elif part == "adapter_config":
        key = data.draw(st.sampled_from(["total_rank", "experts"]))
        header["adapter_config"][key] = data.draw(sizes)
    elif part == "record":
        record = data.draw(st.sampled_from(header["tensors"]))
        record[data.draw(st.sampled_from(["rows", "cols"]))] = data.draw(sizes)
    else:
        table = header["alias_table"]
        names = sorted(table) + [f"L{layer:02d}.8x8.B{j}" for layer in (0, 1, 2) for j in (0, 1)]
        name = data.draw(st.sampled_from(names))
        handles = [record["handle"] for record in header["tensors"]]
        target = data.draw(st.none() | st.sampled_from(handles))
        if target is None:
            table.pop(name, None)
        else:
            table[name] = target


class TestHeaderEdits:
    @staticmethod
    def _loads_identically_or_is_rejected_before_building(victim, method, edit):
        """The stack loaded from the edited fixture, which holds the same
        arrays as the fixture's, or None when the edit is rejected before
        any stack is built."""
        forge_checkpoint(FIXTURES / f"{method}-v1.tlkl", victim, edit)
        built = []
        real_build = checkpoint.AdapterStack

        def build(*args):
            built.append(args)
            return real_build(*args)

        with mock.patch.object(checkpoint, "AdapterStack", build):
            try:
                stack, _ = load_checkpoint(victim)
            except CorruptCheckpointError:
                assert not built
                return None
        expected, _ = load_checkpoint(FIXTURES / f"{method}-v1.tlkl")
        assert stack.handles == expected.handles
        assert stack.flat.tobytes() == expected.flat.tobytes()
        return stack

    @PROPERTY
    @given(method=st.sampled_from(METHODS), data=st.data())
    def test_edit_loads_identically_or_is_rejected_before_building(self, victim, method, data):
        self._loads_identically_or_is_rejected_before_building(
            victim, method, lambda header: _edit_header(header, data))

    @PROPERTY
    @given(method=st.sampled_from(METHODS), data=st.data())
    def test_retyped_field_loads_identically_or_is_rejected_before_building(
        self, victim, method, data
    ):
        stack = self._loads_identically_or_is_rejected_before_building(
            victim, method, lambda header: _retype_field(header, data))
        if stack is not None:  # the retyped value was the same number
            expected, _ = load_checkpoint(FIXTURES / f"{method}-v1.tlkl")
            assert (stack.cfg, stack.slots) == (expected.cfg, expected.slots)


class TestConfigValues:
    def test_valid_config_parses(self):
        assert parse_run_config(VALID_CONFIG).values == VALID_CONFIG

    @PROPERTY
    @given(path=st.sampled_from(FIELD_PATHS), value=json_values)
    @example(path=("train", "lr"), value=float("nan"))
    @example(path=("adapter", "spectral_clip_c"), value=float("inf"))
    @example(path=("seed",), value=-1)
    @example(path=("task", "seed"), value=2**64)
    def test_any_value_in_any_field_parses_or_raises_config_error(self, path, value):
        doc = copy.deepcopy(VALID_CONFIG)
        holder = doc if len(path) == 1 else doc[path[0]]
        holder[path[-1]] = value
        try:
            config = parse_run_config(doc)
        except ConfigError:
            return
        # what parses is usable: the echo is strict JSON and every seed seeds a stream
        json.dumps(config.values, allow_nan=False)
        tasks = [config.task] if config.task is not None else []
        for seed in [config.seed, config.train.seed] + [task.seed for task in tasks]:
            RngState(seed)


EDGE_FLOATS = (0.0, -0.0, 1e-300, 1.0, 1e10, 1e150, 1e308)


def _edge_floats(accepts):
    """The values of ``EDGE_FLOATS`` that a float field ``accepts``."""
    return st.sampled_from([value for value in EDGE_FLOATS if accepts(value)])


def _cli_session(doc: dict) -> tuple:
    """Exit codes of ``train``, of ``ckpt roundtrip`` and ``ckpt inspect`` and
    of every ``analyze`` report on its checkpoint (when it trained), and of
    ``gradcheck``, run on ``doc`` in a fresh directory, each call through
    ``run_cli``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_text(json.dumps({**doc, "output_dir": str(root / "out")}))
        trained = run_cli(root, "train", "--config", str(config))[0]
        ckpt = str(root / "out" / "checkpoint.tlkl")
        stored = [run_cli(root, "ckpt", action, "--checkpoint", ckpt)[0]
                  for action in ("roundtrip", "inspect") if trained == 0]
        reported = {run_cli(root, "analyze", "--checkpoint", ckpt, "--report", report,
                            "--out", str(root / "reports"), "--trials", "50")[0]
                    for report in ANALYZE_REPORTS if trained == 0}
        checked = run_cli(root, "gradcheck", "--config", str(config))[0]
    return trained, stored, reported, checked


class TestCliContract:
    """Small random run configs through ``train``, ``ckpt``, every ``analyze``
    report and ``gradcheck`` in process, each call held to ``run_cli``'s contract."""

    @PROPERTY
    @given(method=st.sampled_from(METHODS), total_rank=st.integers(1, 8),
           experts=st.integers(1, 4), input_dim=st.integers(1, 16),
           output_dim=st.integers(1, 16), model_depth=st.integers(1, 2))
    @example(method="lora", total_rank=6, experts=4, input_dim=8, output_dim=8, model_depth=2)
    def test_gradcheck_accepts_what_train_accepts(self, method, total_rank, experts, input_dim,
                                                   output_dim, model_depth):
        trained, stored, reported, checked = _cli_session({
            "method": method, "seed": 2, "model_depth": model_depth,
            "adapter": {"total_rank": total_rank, "experts": experts, "lora_alpha": 8.0},
            "task": {"clusters": 2, "input_dim": input_dim, "output_dim": output_dim,
                     "samples_per_cluster": 4},
            "train": {"epochs": 1, "batch_size": 4, "warmup_steps": 1, "eval_every": 2}})
        if trained == 0:  # the dims are below the gradcheck cap
            assert stored == [0, 0]
            assert reported <= {0, 2}  # a report the family cannot take exits 2
            assert checked in (0, 3)

    @settings(PROPERTY, max_examples=100)
    @given(method=st.sampled_from(METHODS), experts=st.integers(1, 2),
           expert_rank=st.integers(1, 2), lora_alpha=_edge_floats(lambda v: v > 0),
           spectral_clip_c=st.none() | _edge_floats(lambda v: v > 0),
           noise_std=_edge_floats(lambda v: v >= 0), lr=_edge_floats(lambda v: v >= 0),
           weight_decay=_edge_floats(lambda v: v >= 0),
           dropout=_edge_floats(lambda v: 0 <= v < 1),
           samples_per_cluster=st.sampled_from([1, 4]), batch_size=st.sampled_from([2, 9]))
    # the backward's tanh derivative, 1 - act * act, cancels at this scaling: exit 3
    @example(method="talklora", experts=2, expert_rank=1, lora_alpha=1e3, spectral_clip_c=None,
             noise_std=1.0, lr=1.0, weight_decay=0.0, dropout=0.0, samples_per_cluster=4,
             batch_size=2)
    def test_edge_floats_and_counts_keep_the_contract(
            self, method, experts, expert_rank, lora_alpha, spectral_clip_c, noise_std, lr,
            weight_decay, dropout, samples_per_cluster, batch_size):
        # batch_size 9 exceeds the 2 * samples_per_cluster samples; expert_rank 1 is r_e = 1
        trained, stored, _, checked = _cli_session({
            "method": method, "seed": 2, "model_depth": 2,
            "adapter": {"total_rank": experts * expert_rank, "experts": experts,
                        "lora_alpha": lora_alpha, "spectral_clip_c": spectral_clip_c},
            "task": {"clusters": 2, "input_dim": 4, "output_dim": 4,
                     "samples_per_cluster": samples_per_cluster, "noise_std": noise_std},
            "train": {"epochs": 1, "batch_size": batch_size, "lr": lr, "warmup_steps": 1,
                      "eval_every": 2, "weight_decay": weight_decay, "dropout": dropout}})
        assert stored == ([0, 0] if trained == 0 else [])
        assert checked in (0, 3)
