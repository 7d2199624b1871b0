#!/usr/bin/env python3
"""Record one benchmark data point: every workload, untraced and traced.

    python3 perfbench/record.py --seed 0 --seconds 36 --out perfbench/results/NAME.json

Runs ``run.py`` once per (workload, trace) in its own process, so each run
reports its own peak RSS, then merges the full results it leaves under
``perfbench/out/``.  Per workload the file holds the end-to-end metrics
(untraced), the per-layer metrics (traced), the traced end-to-end numbers
and the tracing overhead, which is traced minus untraced.  Provenance (git
SHA, Python and numpy versions, CPU, nproc, source LOC) sits beside them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import SIZES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMINGS = ("setup_s", "combos_per_s.OSCAR", "combos_per_s.MA", "combos_per_s.MF",
           "slots_per_s.OSCAR", "slots_per_s.MA", "slots_per_s.MF",
           "slot_ms.tail", "slot_ms.p50", "wall.setup_s", "wall.combos_per_s.OSCAR",
           "wall.combos_per_s.MA", "wall.combos_per_s.MF")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    doc: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in SIZES:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        doc.setdefault("provenance", plain["provenance"])
        base = {**plain["end_to_end"], **plain["informational"]}
        with_spans = {**traced["end_to_end"], **traced["informational"]}
        doc["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "problems": plain["problems"] + traced["problems"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "digest": plain["digest"],
            "traced_digest": traced["digest"],
            "trials": plain["trials"],
            "horizon": plain["horizon"],
            "passes": {"untraced": plain["passes"], "traced": traced["passes"]},
            "tail": plain["tail"],
            "end_to_end": plain["end_to_end"],
            "informational": plain["informational"],
            "per_layer": traced["per_layer"],
            "traced_end_to_end": {k: with_spans[k] for k in TIMINGS},
            "tracing_overhead": {
                k: {"abs": with_spans[k] - base[k], "rel": with_spans[k] / base[k] - 1.0}
                for k in TIMINGS
            },
        }
        print(f"{workload}: done", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
