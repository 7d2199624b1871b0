#!/usr/bin/env python3
"""Self-check of the benchmark itself, at short horizons (about a minute).

    python3 perfbench/selfcheck.py [--seed 0]

For every workload:

1. the untraced and the traced run pass their own checks (feasible,
   capped allocations; and, traced, exactly one ``allocate`` call per
   combination on every exhaustive slot) and give the same records digest,
   so tracing does not change what the program computes;
2. the records, and so ``success.*``, equal what
   ``run_experiment(workers=1)`` produces for the same config and seed, so
   the benchmark's trials are the harness's trials.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys

import run
from qdnroute.harness import run_experiment

# (trials, horizon) small enough for the whole check to take about a minute.
SHORT = {"paper-default": (2, 5), "gibbs-crowded": (2, 1), "wide-redraw": (2, 20)}


def check(name: str, seed: int) -> list[str]:
    trials, horizon = SHORT[name]
    plain = run.measure(name, seed, 0.0, trace=False, trials=trials, horizon=horizon)
    traced = run.measure(name, seed, 0.0, trace=True, trials=trials, horizon=horizon)
    failures = [f"untraced: {p}" for p in plain["problems"]]
    failures += [f"traced: {p}" for p in traced["problems"]]
    if plain["digest"] != traced["digest"]:
        failures.append("traced and untraced records differ")

    cfg = run.workload_config(name, seed, trials, horizon)
    reference = run_experiment(cfg, None, quiet=True)
    if run.records_digest(reference.records) != plain["digest"]:
        failures.append("records differ from run_experiment's")
    for policy in cfg.policies:
        ours = plain["end_to_end"][f"success.{policy}"]
        theirs = reference.policy_mean(policy, "final_success")
        if ours != theirs:
            failures.append(f"success.{policy} {ours!r} != run_experiment's {theirs!r}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failed = False
    for name in run.SIZES:
        failures = check(name, args.seed)
        failed |= bool(failures)
        print(f"{name} (trials, T = {SHORT[name]}, seed {args.seed}): "
              + ("ok" if not failures else "FAILED"))
        for failure in failures:
            print(f"  {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
