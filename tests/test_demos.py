"""The quick demos run to completion as standalone scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _stripped_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Demo 06 runs a full Monte Carlo experiment (~17 s), which the acceptance
# gate already covers through run_monte_carlo.
QUICK_DEMOS = sorted(p.name for p in DEMOS.glob("0[1-5]_*.py"))


def test_quick_demos_are_listed():
    assert len(QUICK_DEMOS) == 5, QUICK_DEMOS


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True, text=True, cwd=tmp_path, env=_stripped_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
