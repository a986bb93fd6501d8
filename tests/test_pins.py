"""The pin manifest and its recorder, ``tests/pins.py``."""

import json

import pytest

import pins


def test_manifest_keys_are_the_pinned_keys():
    # key lists only: no pin is computed
    manifest = pins.read_manifest()
    assert set(manifest) == {"stamp", "pins"} and set(manifest["stamp"]) == {"numpy", "blas"}
    listed = pins.pin_functions()
    assert sorted(manifest["pins"].keys() - listed.keys()) == []  # no orphan
    assert sorted(listed.keys() - manifest["pins"].keys()) == []  # no unpinned value
    assert len(listed) == sum(len(kind()) for kind in pins.KINDS)  # no key in two kinds


def _stub_kind(**digests):
    return lambda: {f"stub/{name}": lambda d=d: d for name, d in digests.items()}


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"stamp": pins.build_stamp(),
                                "pins": {"stub/a": "1", "stub/b": "2", "stub/c": "3"}}))
    return path


class TestRecorder:
    def test_check_passes_when_nothing_moved(self, manifest, capsys):
        kinds = (_stub_kind(a="1", b="2", c="3"),)
        assert pins.main(["check"], manifest, kinds) == 0
        assert capsys.readouterr().out == ""

    def test_check_exits_nonzero_listing_the_moved_keys(self, manifest, capsys):
        before = manifest.read_bytes()
        kinds = (_stub_kind(a="1", b="20", d="4"),)  # b moved, c gone, d new
        assert pins.main(["check"], manifest, kinds) == 1
        assert capsys.readouterr().out.splitlines() == ["stub/b", "stub/c", "stub/d"]
        assert manifest.read_bytes() == before

    def test_record_writes_when_the_moved_keys_are_the_declared_ones(self, manifest):
        kinds = (_stub_kind(a="1", b="20", d="4"),)
        argv = ["record", "--declare", "stub/d", "stub/b", "stub/c"]
        assert pins.main(argv, manifest, kinds) == 0
        assert pins.read_manifest(manifest) == {
            "stamp": pins.build_stamp(), "pins": {"stub/a": "1", "stub/b": "20", "stub/d": "4"}}
        assert pins.main(["check"], manifest, kinds) == 0

    @pytest.mark.parametrize("declared, message", [
        (["stub/b"], "moved but not declared: stub/c"),
        (["stub/b", "stub/c", "stub/a"], "declared but did not move: stub/a"),
    ], ids=["undeclared_move", "declared_key_that_did_not_move"])
    def test_record_refuses_and_writes_nothing(self, manifest, capsys, declared, message):
        before = manifest.read_bytes()
        kinds = (_stub_kind(a="1", b="20", c="30"),)
        assert pins.main(["record", "--declare", *declared], manifest, kinds) == 1
        assert message in capsys.readouterr().err.splitlines()
        assert manifest.read_bytes() == before


class TestBuildNote:
    def test_a_failure_under_another_build_names_both_builds(self, manifest, monkeypatch):
        running = {"numpy": "1.26.4", "blas": "openblas 0.3.23"}
        monkeypatch.setattr(pins, "build_stamp", lambda: running)
        stamp = pins.read_manifest(manifest)["stamp"]
        with pytest.raises(AssertionError) as exc:
            pins.assert_digests({"stub/b": "20"}, manifest)
        assert str(exc.value).startswith("moved pins: stub/b; ")
        assert f"recorded with numpy {stamp['numpy']} ({stamp['blas']})" in str(exc.value)
        assert "this is numpy 1.26.4 (openblas 0.3.23)" in str(exc.value)

    def test_a_failure_under_the_recording_build_names_none(self, manifest):
        with pytest.raises(AssertionError) as exc:
            pins.assert_digests({"stub/b": "20", "stub/a": "1"}, manifest)
        assert str(exc.value) == "moved pins: stub/b"
        pins.assert_digests({"stub/a": "1", "stub/c": "3"}, manifest)
