"""Every script in demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordgenus

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    src = os.path.dirname(os.path.dirname(chordgenus.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
