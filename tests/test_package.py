"""Every module imports on its own, and the package root imports nothing.

Callers import each name from its defining module, so no module may rely on
another having been imported first (through the package root or a test).
Each import case starts a fresh interpreter with only ``src`` on the path.
Every annotation in the package also resolves to a name its module binds.
"""

import importlib
import inspect
import os
import subprocess
import sys
import typing
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


def _defined(module):
    """Every function, class and method that ``module`` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)  # class or static method
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("module", MODULES)
def test_annotations_resolve(module):
    for obj in _defined(importlib.import_module(module)):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"{module}.{obj.__qualname__}: {exc}")


def test_package_root_imports_no_module():
    proc = _python("-c", "import sys, qdnroute; "
                         "print(sorted(m for m in sys.modules if m.startswith('qdnroute')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['qdnroute']\n"


def test_cli_help_runs_as_module():
    proc = _python("-m", "qdnroute.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qdnroute")
