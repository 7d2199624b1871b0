"""The benchmark's self-check passes against the program in this checkout.

``perfbench`` imports the slot steps (``oscar_slot``, ``ma_slot``,
``mf_slot``), ``RunMetrics``, ``WorkloadParams(f_max=)`` and
``CandidateCache``, and traces ``selection.allocate``, requiring exactly one
call per route combination on exhaustive slots.  Its self-check runs every
workload at a short horizon, traced and untraced, and compares the records
with ``run_experiment``'s, so a change that breaks any of these fails here.
It runs at two seeds, so that two sets of Gibbs slots are compared.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_selfcheck_passes(seed):
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py", "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
