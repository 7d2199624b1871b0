"""Every module imports on its own, and the package root imports nothing.

Callers import each name from its defining module, so no module may rely on
another having been imported first (through the package root or a test).
Each case starts a fresh interpreter with only ``src`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(f"qdnroute.{p.stem}" for p in (SRC / "qdnroute").glob("*.py")
                 if p.stem != "__init__")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = _python("-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_package_root_imports_no_module():
    proc = _python("-c", "import sys, qdnroute; "
                         "print(sorted(m for m in sys.modules if m.startswith('qdnroute')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['qdnroute']\n"


def test_cli_help_runs_as_module():
    proc = _python("-m", "qdnroute.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qdnroute")
