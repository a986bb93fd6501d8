import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pins
from _setup import forge_checkpoint, make_setup, run_cli, train_fixture_stack, trained_stack
from talklora import linalg
from talklora.adapters import AdapterConfig, LayerSlot, build_stack_from_slots
from talklora.autodiff import AdamWHyper, AdamWState, LossSpec, backward, stack_adamw_step
from talklora.checkpoint import (
    _PREFIX,
    CorruptCheckpointError,
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from talklora.linalg import RngState

RUN_CONFIG = {"method": "talklora", "seed": 7, "note": "fixture"}
TRAIN_RUN_CONFIG = {"method": "talklora", "seed": 3, "note": "train fixture"}
FIXTURES = Path(__file__).parent / "fixtures"


def _assert_stacks_equal(a, b):
    assert a.method == b.method
    assert a.cfg == b.cfg
    assert a.handles == b.handles
    for (h1, p1), (h2, p2) in zip(a.named_parameters(), b.named_parameters()):
        assert h1 == h2
        assert np.array_equal(p1, p2), h1


class TestRoundtrip:
    def test_fresh_stack_roundtrip_bit_identical(self, tmp_path):
        _, stack, _, _ = make_setup("talklora", depth=3, seed=1)
        path = tmp_path / "fresh.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        loaded, run_config = load_checkpoint(path)
        _assert_stacks_equal(stack, loaded)
        assert run_config == RUN_CONFIG

    def test_trained_stack_roundtrip_bit_identical(self, tmp_path):
        frozen, stack, x, t = make_setup("talklora", depth=2, seed=2)
        state = AdamWState(stack)
        for _ in range(10):
            _, grads = backward(stack, frozen, (x, t), LossSpec())
            stack_adamw_step(stack, grads, state, AdamWHyper(lr=1e-2))
        path = tmp_path / "trained.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        loaded, _ = load_checkpoint(path)
        _assert_stacks_equal(stack, loaded)

    @pytest.mark.parametrize("method", ["lora", "moelora"])
    def test_other_families_roundtrip(self, tmp_path, method):
        _, stack, _, _ = make_setup(method, depth=2, seed=3)
        path = tmp_path / f"{method}.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        _assert_stacks_equal(stack, load_checkpoint(path)[0])

    def test_sharing_restored_as_aliasing(self, tmp_path):
        cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
        slots = [LayerSlot(i, "8x8", 8, 8) for i in range(3)]
        stack = build_stack_from_slots("talklora", cfg, slots, RngState(5))
        path = tmp_path / "shared.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        loaded, _ = load_checkpoint(path)
        first, second, third = loaded.adapters
        assert first.b is second.b
        assert second.b is third.b

    def test_unshared_not_aliased_after_load(self, tmp_path):
        _, stack, _, _ = make_setup("talklora", depth=3, share_b=False, seed=6)
        path = tmp_path / "unshared.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        loaded, _ = load_checkpoint(path)
        assert not np.shares_memory(loaded.adapters[0].b, loaded.adapters[1].b)


def _implies_billions_of_handles(header):
    """Edit config and every slot so the header implies 10**9 experts per slot.

    Each size passes the config's own checks; only the records show the forgery.
    """
    header["adapter_config"].update(total_rank=10**9, experts=10**9)
    for slot in header["slots"]:
        slot.update(d_in=10**9, d_out=10**9)


class TestCorruptionDetection:
    def _saved(self, tmp_path):
        _, stack, _, _ = make_setup("talklora", depth=2, seed=7)
        path = tmp_path / "victim.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        return path

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # corrupt one byte inside the last tensor payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_reports_both_versions(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (
            f"checkpoint format version 99 does not match supported version {FORMAT_VERSION}")

    def test_truncated_file_detected(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_inside_fixed_prefix(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_header_missing_field(self, tmp_path):
        path = self._saved(tmp_path)
        forge_checkpoint(path, path, lambda header: header.pop("slots"))
        with pytest.raises(CorruptCheckpointError, match="slots"):
            load_checkpoint(path)

    def test_tensor_record_missing_field(self, tmp_path):
        path = self._saved(tmp_path)
        forge_checkpoint(path, path, lambda header: header["tensors"][0].pop("crc32"))
        with pytest.raises(CorruptCheckpointError, match="crc32"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CorruptCheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h["slots"][0].update(d_in=10**11),
             r"slot L00\.8x8 \(d_in 100000000000, d_out 8\) .* implies "
             r"L00\.8x8\.A0 \(2, 100000000000\), but tensor record 0 is L00\.8x8\.A0 \(2, 8\)"),
            (lambda h: h["slots"][1].update(d_out=10**11),
             r"slot L01\.8x8 \(d_in 8, d_out 100000000000\) implies "
             r"shared\.8x8\.B0 \(100000000000, 2\)"),
            (lambda h: h["adapter_config"].update(total_rank=10**9, experts=10**9),
             "exceeds min"),
            (lambda h: h["adapter_config"].update(total_rank=8),
             r"total_rank 8 and 2 experts implies L00\.8x8\.A0 \(4, 8\), "
             r"but tensor record 0 is L00\.8x8\.A0 \(2, 8\)"),
            (lambda h: h["tensors"][-1].update(rows=10**9),
             r"implies L01\.8x8\.Wg \(2, 4\), "
             r"but tensor record 13 is L01\.8x8\.Wg \(1000000000, 4\)"),
            (lambda h: h.update(alias_table=[]), "alias_table"),
            (_implies_billions_of_handles,
             r"slot L00\.8x8 \(d_in 1000000000, d_out 1000000000\) at total_rank 1000000000 "
             r"and 1000000000 experts implies L00\.8x8\.A0 \(1, 1000000000\), "
             r"but tensor record 0 is L00\.8x8\.A0 \(2, 8\)"),
        ],
        ids=["d_in", "d_out", "experts", "rank", "record_rows", "alias_table", "all_sizes"],
    )
    def test_forged_sizes_rejected_before_allocation(self, tmp_path, monkeypatch, edit, match):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the stack was built from a forged header")

        path = self._saved(tmp_path)
        forge_checkpoint(path, path, edit)
        monkeypatch.setattr("talklora.checkpoint.AdapterStack", must_not_run)
        with pytest.raises(CorruptCheckpointError, match=match):
            load_checkpoint(path)

    def test_payload_found_by_stored_header_length(self, tmp_path):
        _, stack, _, _ = make_setup("talklora", depth=2, seed=9)
        path = tmp_path / "indented.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        raw = path.read_bytes()
        magic, version, header_len = _PREFIX.unpack_from(raw)
        start = _PREFIX.size + header_len
        # valid JSON, another layout
        body = json.dumps(json.loads(raw[_PREFIX.size : start]), indent=1).encode("utf-8")
        path.write_bytes(_PREFIX.pack(magic, version, len(body)) + body + raw[start:])
        _assert_stacks_equal(stack, load_checkpoint(path)[0])


V1_RUN_CONFIGS = {"lora-v1.tlkl": RUN_CONFIG, "moelora-v1.tlkl": RUN_CONFIG,
                  "talklora-v1.tlkl": RUN_CONFIG, "talklora-train-v1.tlkl": TRAIN_RUN_CONFIG}


class TestFormatV1Fixtures:
    """Format v1 checkpoints written by earlier code: format evidence only.

    The lora and moelora files come from the code that kept every expert
    in its own array; ``talklora-train-v1.tlkl`` from the code that still
    drew one dropout mask per layer, clipped each C with its own SVD and
    gathered a handle-keyed gradient dict for AdamW.  ``talklora-v1.tlkl``
    was rewritten once, when the C clip moved from power iteration to the
    exact spectral norm; the old file still loaded and re-saved byte for
    byte.  No change rewrites them now.  Each must load, re-save byte for
    byte, and hold the ``flat`` that its pin ``fixture/<file>`` of
    ``tests/pins.py`` records.  What today's training computes is pinned
    apart, by ``TestTrainingPins``.
    """

    @pytest.mark.parametrize("name", list(V1_RUN_CONFIGS))
    def test_fixture_loads_and_resaves_byte_for_byte(self, tmp_path, name):
        path = FIXTURES / name
        loaded, run_config = load_checkpoint(path)
        assert run_config == V1_RUN_CONFIGS[name]
        resaved = tmp_path / "resaved.tlkl"
        save_checkpoint(resaved, loaded, run_config)
        assert resaved.read_bytes() == path.read_bytes()
        pins.assert_pinned(f"fixture/{name}")


class TestTrainingPins:
    """Today's training of the stacks the v1 fixtures were saved from.

    The pins ``trained/<method>`` hold the ``flat`` of
    ``trained_stack(method)``, three clipped AdamW steps, and
    ``trained/talklora-train`` that of ``train_fixture_stack()``, which
    covers the dropout draw, AdamW with weight decay and the C clip through
    the training loop.  Each stack keeps its fixture's method, config and
    handles.  A change that moves training bits re-records these keys
    through the recorder and rewrites no file.
    """

    @pytest.mark.parametrize("method", ["lora", "moelora", "talklora"])
    def test_trained_stack_matches_its_pin(self, method):
        self._check(trained_stack(method), f"{method}-v1.tlkl", f"trained/{method}")

    def test_train_matches_its_pin(self):
        self._check(train_fixture_stack(), "talklora-train-v1.tlkl", "trained/talklora-train")

    @staticmethod
    def _check(stack, fixture, key):
        loaded, _ = load_checkpoint(FIXTURES / fixture)
        assert (stack.method, stack.cfg, stack.handles) == (loaded.method, loaded.cfg,
                                                             loaded.handles)
        pins.assert_digests({key: pins.flat_digest(stack)})


class TestLoRAHeaderExperts:
    """A LoRA layer reads no ``experts``, and no tensor implies it: a header
    naming any count loads the fixture's arrays and re-encodes to its own bytes."""

    @pytest.mark.parametrize("experts", [1, 3, 4])  # the fixture holds 2, of total_rank 4
    def test_any_count_loads_the_same_flat_and_roundtrips(self, tmp_path, experts):
        source, forged = FIXTURES / "lora-v1.tlkl", tmp_path / "forged.tlkl"
        forge_checkpoint(source, forged, lambda h: h["adapter_config"].update(experts=experts))
        stack, _ = load_checkpoint(forged)
        expected, _ = load_checkpoint(source)
        assert stack.cfg.experts == experts
        assert stack.handles == expected.handles
        assert stack.flat.tobytes() == expected.flat.tobytes()
        code, out, _ = run_cli(tmp_path, "ckpt", "roundtrip", "--checkpoint", str(forged))
        assert (code, json.loads(out)) == (0, {"roundtrip_bit_identical": True})


V1_FIXTURES = sorted(FIXTURES.glob("*-v1.tlkl"))


class TestLoadIntoFlat:
    """A load reads the payload into ``flat`` in one pass and draws nothing."""

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda p: p.name)
    def test_load_makes_no_draw(self, monkeypatch, path):
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(linalg, "_fill_uniform", spy("fill", linalg._fill_uniform))
        monkeypatch.setattr(RngState, "generator", spy("generator", RngState.generator))
        load_checkpoint(path)
        assert calls == []
        build_stack_from_slots("lora", AdapterConfig(total_rank=1), [LayerSlot(0, "W", 2, 2)],
                               RngState(0))
        assert sorted(calls) == ["fill", "generator"]  # the spies do see a draw

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda p: p.name)
    def test_loaded_arrays_are_views_of_flat(self, path):
        loaded, _ = load_checkpoint(path)
        assert loaded.flat.flags.owndata and loaded.flat.dtype == np.float64
        for handle, arr in loaded.named_parameters():
            assert np.shares_memory(arr, loaded.flat), handle
        for ad, ranges in zip(loaded.adapters, loaded.ranges):
            for name in ranges:
                assert np.shares_memory(getattr(ad, name), loaded.flat), name

    def test_load_allocates_only_flat(self, tmp_path):
        cfg = AdapterConfig(total_rank=16, experts=4, share_b=True)
        slots = [LayerSlot(i, "Q", 4096, 4096) for i in range(2)]
        path = tmp_path / "wide.tlkl"
        save_checkpoint(path, build_stack_from_slots("talklora", cfg, slots, RngState(4)), {})
        load_checkpoint(path)  # warm imports
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < loaded.flat.nbytes + 128 * 1024

    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_flipped_byte_names_its_record(self, tmp_path, which):
        source = FIXTURES / "talklora-v1.tlkl"
        records = read_header(source)["tensors"]
        index = {"first": 0, "middle": len(records) // 2, "last": len(records) - 1}[which]
        sizes = [8 * r["rows"] * r["cols"] for r in records]
        raw = bytearray(source.read_bytes())
        # the payloads end the file, in record order
        raw[len(raw) - sum(sizes[index:]) + sizes[index] // 2] ^= 0x01
        path = tmp_path / "flipped.tlkl"
        path.write_bytes(bytes(raw))
        handle = records[index]["handle"]
        with pytest.raises(CorruptCheckpointError,
                           match=f"^checksum mismatch for tensor {re.escape(repr(handle))}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cut, message",
        [(-16, "truncated payload: the tensor records hold {n} bytes, the file {m} after the header"),
         (8, "trailing bytes: the tensor records hold {n} bytes, the file {m} after the header")],
        ids=["truncated", "trailing"],
    )
    def test_payload_size_messages(self, tmp_path, cut, message):
        source = FIXTURES / "moelora-v1.tlkl"
        payload = 8 * sum(r["rows"] * r["cols"] for r in read_header(source)["tensors"])
        raw = source.read_bytes()
        path = tmp_path / "resized.tlkl"
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        expected = message.format(n=payload, m=payload + cut)
        with pytest.raises(CorruptCheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == expected

    def test_forged_header_builds_no_stack(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the stack was built from a forged header")

        path = tmp_path / "forged.tlkl"
        forge_checkpoint(FIXTURES / "talklora-v1.tlkl", path,
                         lambda header: header["slots"][0].update(d_in=10**11))
        monkeypatch.setattr("talklora.checkpoint.AdapterStack", must_not_run)
        with pytest.raises(CorruptCheckpointError, match="implies L00"):
            load_checkpoint(path)


class TestNonFinitePayload:
    """Only finite tensors are saved, and a payload that is not finite is corrupt."""

    HANDLES = [rec["handle"] for rec in read_header(FIXTURES / "talklora-v1.tlkl")["tensors"]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("handle", HANDLES)
    def test_load_names_the_tensor(self, tmp_path, handle, value):
        path = tmp_path / "nonfinite.tlkl"
        forge_checkpoint(FIXTURES / "talklora-v1.tlkl", path, values=[(handle, value)])
        with pytest.raises(CorruptCheckpointError,
                           match=f"^tensor {re.escape(repr(handle))} holds a non-finite value$"):
            load_checkpoint(path)

    def test_checksum_is_checked_first(self, tmp_path):
        path = tmp_path / "nonfinite.tlkl"
        forge_checkpoint(FIXTURES / "talklora-v1.tlkl", path,
                         values=[(self.HANDLES[-1], float("nan"))])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # the last tensor's CRC no longer matches
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="^checksum mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("handle", ["L00.8x8.A1", "shared.8x8.B0", "L01.8x8.C"])
    def test_save_refuses_before_opening_the_file(self, tmp_path, handle):
        stack = trained_stack("talklora")
        stack.parameter(handle)[0, -1] = np.nan
        path = tmp_path / "nan.tlkl"
        message = f"^tensor {re.escape(repr(handle))} holds a non-finite value$"
        with pytest.raises(ValueError, match=message):
            save_checkpoint(path, stack, RUN_CONFIG)
        assert not path.exists()


class TestHeader:
    def test_header_inspection(self, tmp_path):
        _, stack, _, _ = make_setup("talklora", depth=2, seed=8)
        path = tmp_path / "inspect.tlkl"
        save_checkpoint(path, stack, RUN_CONFIG)
        header = read_header(path)
        assert header["format_version"] == FORMAT_VERSION
        assert header["method"] == "talklora"
        assert len(header["tensors"]) == len(stack.handles)
        assert path.read_bytes()[:4] == MAGIC
