"""Demos 01-04 print the stdout whose SHA-256 the pins ``demo/<script>`` hold.

Each demo runs as ``python -W error <demo>`` in a subprocess, as CI's
Demos step runs demo 05.  The pins live in ``tests/fixtures/pins.json``
with every other digest, stamped with the numpy build that recorded them
(2.4.6); a change that moves a demo's stdout re-records it with
``python tests/pins.py record --declare demo/<script> ...``.  Demo 05
takes seconds, so it runs only in CI's Demos step.
"""

import pytest

import pins


@pytest.mark.parametrize("demo", pins.DEMOS)
def test_demo_stdout_matches_recorded_digest(demo):
    pins.assert_pinned(f"demo/{demo}")
