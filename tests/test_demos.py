"""Every narrative demo and README's quick start run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _quick_start() -> str:
    """The Python block under README's Quick start heading."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize(
    "args",
    [[str(d)] for d in DEMOS] + [["-c", _quick_start()]],
    ids=[d.name for d in DEMOS] + ["README-quick-start"],
)
def test_demo_exits_cleanly(args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
