"""Demos 01-04 print the stdout whose SHA-256 ``fixtures/demos-sha256.json`` holds.

Each demo runs as ``python -W error <demo>`` in a subprocess, as CI's
Demos step runs demo 05.  Like the other digests under ``fixtures``, these assume the
numpy build they were recorded with (2.4.6).  Demo 05 takes seconds, so
it runs only in CI's Demos step.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talklora

ROOT = Path(__file__).resolve().parents[1]
DEMO_DIGESTS = json.loads((ROOT / "tests" / "fixtures" / "demos-sha256.json").read_text())
SRC = str(Path(talklora.__file__).resolve().parents[1])  # the directory holding talklora


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_recorded_digest(tmp_path, demo):
    ran = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                         capture_output=True, cwd=tmp_path, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert ran.returncode == 0, ran.stderr.decode()
    assert hashlib.sha256(ran.stdout).hexdigest() == DEMO_DIGESTS[demo]
