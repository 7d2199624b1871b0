#!/usr/bin/env python3
"""qdnroute benchmark: paired trials of OSCAR, MA and MF, timed slot by slot.

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run is many short paired trials in one process.  Each trial
makes the same calls in the same order, with the same seed streams, as
``qdnroute.harness._run_trial``:

1. set-up: ``generate_waxman``, ``sample_slot_capacities`` for every slot,
   then ``sample_requests`` and ``build_requests`` (one ``CandidateCache``)
   for every slot.  ``setup_s`` is the median over the trials.
2. slots: ``oscar_slot``, ``ma_slot`` and ``mf_slot`` over the horizon, each
   slot timed from outside and checked after its timer stops.  The slot
   loop over all trials (one "pass") runs once in full and is then replayed
   until ``--seconds`` of wall time has been spent in it; every replay must
   reproduce the first pass's records.

Every wall time is scaled to a nominal host speed: fixed pure-Python code
(the probe) is timed before a slot or set-up once ``PROBE_EVERY_S`` has
passed since its last reading, and a slot or set-up timed while the probe
took k times ``PROBE_NOMINAL_S`` counts 1/k of its wall time.  A slot counts once, at the median of its scaled timings in
the first pass and the replays.  README.md says why.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' entry points with in-memory spans and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result (and,
when tracing, every span) is also written under ``perfbench/out/``.
See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "qdnroute" / "__init__.py").is_file():
    sys.exit(f"error: no qdnroute sources at {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qdnroute import controller, routes, selection  # noqa: E402
from qdnroute.controller import (  # noqa: E402
    POLICIES,
    BudgetParams,
    ControllerState,
    ma_slot,
    mf_slot,
    oscar_slot,
)
from qdnroute.harness import (  # noqa: E402
    ExperimentConfig,
    RunMetrics,
    calibrate_beta,
    default_config,
)
from qdnroute.model import MissingAllocationError, verify_feasible  # noqa: E402
from qdnroute.routes import CandidateCache, build_requests  # noqa: E402
from qdnroute.topology import (  # noqa: E402
    STREAM_GIBBS,
    WorkloadParams,
    generate_waxman,
    sample_requests,
    sample_slot_capacities,
)

# (paired trials, horizon T) of each workload.  Slot cost depends on the
# topology and on each slot's request count, so a run averages many short
# trials; see README.md for the spreads behind these sizes.
SIZES = {"paper-default": (24, 10), "gibbs-crowded": (26, 3), "wide-redraw": (12, 30)}
# Bounds the span count and run time if a future change makes a pass tiny.
MAX_PASSES = 50
# The host-speed probe: how often it runs and its duration at nominal speed.
PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 2.2e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "combos_per_s.OSCAR": "1/s",
    "combos_per_s.MA": "1/s",
    "combos_per_s.MF": "1/s",
    "peak_rss_mb": "MB",
    "success.OSCAR": "prob",
    "success.MA": "prob",
    "success.MF": "prob",
    "cost_ratio.OSCAR": "ratio",
    "slot_ok_frac": "ratio",
}

_PER_POLICY_UNITS = {
    "selection.calls": "count",
    "selection.self_s": "s",
    "selection.allocs_per_call": "count",
    "selection.space_mean": "count",
    "selection.gibbs_share": "ratio",
    "allocation.calls": "count",
    "allocation.s": "s",
    "allocation.us_per_call.p50": "us",
    "allocation.vars_per_call": "count",
    "allocation.infeasible_ratio": "ratio",
    "allocation.no_convergence": "count",
    "allocation.useful_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "topology.generate_s": "s",
    "topology.sample_s": "s",
    "routes.calls": "count",
    "routes.s": "s",
    "routes.ms_per_call.p50": "ms",
    "routes.cache_hit_ratio": "ratio",
    **{f"{name}.{p}": unit for name, unit in _PER_POLICY_UNITS.items()
       for p in ("OSCAR", "MA", "MF")},
    "controller.s": "s",
    "controller.self_s": "s",
    "controller.unserved_slots": "count",
}

# Printed and stored, but not gated (README.md says why): slots_per_s and the
# median slot follow each seed's request-count mix, which combos_per_s
# normalises away; the tail slot is a handful of each seed's largest slots;
# overrun and slot_fail_frac are 0 whenever the program works, so the gate
# uses cost_ratio.OSCAR and slot_ok_frac instead; the unscaled wall figures
# and the host speed follow the host's drift.
INFORMATIONAL_UNITS = {"slots_per_s.OSCAR": "1/s", "slots_per_s.MA": "1/s",
                       "slots_per_s.MF": "1/s", "slot_ms.p50": "ms", "slot_ms.tail": "ms",
                       "overrun.OSCAR": "ratio", "slot_fail_frac": "ratio",
                       "wall.setup_s": "s", "wall.combos_per_s.OSCAR": "1/s",
                       "wall.combos_per_s.MA": "1/s", "wall.combos_per_s.MF": "1/s",
                       "host_speed.p10": "ratio", "host_speed.p50": "ratio",
                       "host_speed.p90": "ratio"}

STEPS = {"OSCAR": oscar_slot, "MA": ma_slot, "MF": mf_slot}
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------------------
# Workloads.

def workload_config(name: str, seed: int, trials: int | None = None,
                    horizon: int | None = None) -> ExperimentConfig:
    """A workload's experiment config; ``trials`` and ``horizon`` override its size.

    Trial k uses seed ``trials * seed + k``, so different workload seeds
    share no trial and ``run_experiment`` on the config runs the same trials.
    """
    base = default_config()
    K, T = SIZES[name]
    K, T = trials or K, horizon or T
    # Every horizon keeps the stock per-slot budget C/T.
    slot_budget = base.budget.total_budget // base.budget.horizon
    budget = replace(base.budget, horizon=T, total_budget=slot_budget * T)
    if name == "paper-default":
        cfg = base
    elif name == "gibbs-crowded":
        # Five SD pairs every slot (route space 3^5 = 243, or 81 when a pair
        # has one candidate) over a cap of 20 send every slot to the Gibbs
        # sampler.  Ten pairs over the stock cap cost about 2.5 s a slot: too
        # few slots per run to be steady.  C = F*L*T keeps Assumption 1.
        F = 5
        cfg = replace(base, workload=WorkloadParams(sd_range=(F, F), f_max=F),
                      enumeration_cap=20)
        budget = replace(budget, total_budget=F * base.route.max_hops * T)
    elif name == "wide-redraw":
        # Sized like ``qdnroute sweep --param node_count``: beta calibrated to
        # mean degree 4.  Few pairs on many nodes make nearly every request a
        # candidate-cache miss.
        topo = replace(base.topology, node_count=100,
                       beta=calibrate_beta(100, base.topology.alpha, base.topology.side))
        cfg = replace(base, topology=topo,
                      capacities=replace(base.capacities, fluctuation="redraw"),
                      workload=WorkloadParams(sd_range=(1, 2), f_max=2))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return replace(cfg, budget=budget, seed=K * seed, trials=K, workers=1)


# ---------------------------------------------------------------------------
# Host speed.

class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def _probe() -> int:
    """The probe: integer arithmetic, then small objects, tuple-keyed dict
    updates and a sort, the kinds of work the program's own Python does."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    for _ in range(6):
        sums: dict[tuple[int, int], int] = {}
        for item in [_Item(i, i * 7 % 13) for i in range(150)]:
            key = (item.a % 17, item.b)
            sums[key] = sums.get(key, 0) + item.a
        total += sorted(sums.items())[0][1]
    return total


class HostSpeed:
    """The host's current speed, read from the probe at most every PROBE_EVERY_S.

    ``factor()`` is PROBE_NOMINAL_S / the probe's last time: 1 at nominal
    speed, 0.7 when the probe ran 1/0.7 times slower.  A wall time
    multiplied by it is that time at nominal speed.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._at = -math.inf

    def factor(self) -> float:
        if perf_counter() - self._at >= PROBE_EVERY_S:
            start = perf_counter()
            _probe()
            self._at = perf_counter()
            self.factors.append(PROBE_NOMINAL_S / (self._at - start))
        return self.factors[-1]


# ---------------------------------------------------------------------------
# Tracing.

class Tracer:
    """In-memory spans ``[name, start, end, parent index, slot id, info]``.

    ``installed()`` wraps the layers' public entry points as the program
    looks them up, so spans nest: slot > select_routes > allocate, and
    set-up > build_requests > candidate_routes.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.slot: tuple = ()

    def begin(self, name: str, info: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.slot, info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        info: dict = {}
        idx = self.begin(name, info)
        try:
            yield info
        finally:
            self.end(idx)

    def _wrap(self, module, attr: str, name: str, describe):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            info = describe(args, kwargs)
            idx = self.begin(name, info)
            try:
                return inner(*args, **kwargs)
            except Exception as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                self.end(idx)

        setattr(module, attr, traced)
        return inner

    @contextmanager
    def installed(self):
        targets = [
            (routes, "candidate_routes", "routes.candidate_routes", lambda a, k: {}),
            (controller, "select_routes", "selection.select_routes", _describe_select),
            (selection, "allocate", "allocation.allocate", _describe_allocate),
        ]
        originals = [(m, attr, self._wrap(m, attr, name, d)) for m, attr, name, d in targets]
        try:
            yield self
        finally:
            for module, attr, inner in originals:
                setattr(module, attr, inner)


class NullTracer:
    """The untraced run: same interface, records nothing."""

    slot: tuple = ()

    def begin(self, name, info=None):
        return -1

    def end(self, idx):
        pass

    @contextmanager
    def span(self, name):
        yield {}

    @contextmanager
    def installed(self):
        yield self


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def route_space(requests) -> int:
    """Size of the servable requests' joint route space (0 with none servable)."""
    sizes = [len(r.candidates) for r in requests if r.servable]
    return math.prod(sizes) if sizes else 0


def _describe_select(args, kwargs) -> dict:
    cap = args[5] if len(args) > 5 else kwargs.get(
        "enumeration_cap", selection.DEFAULT_ENUMERATION_CAP)
    space = route_space(_arg(args, kwargs, 2, "requests"))
    return {"space": space, "gibbs": space > cap}


def _describe_allocate(args, kwargs) -> dict:
    return {"vars": sum(r.hops for r in _arg(args, kwargs, 2, "routes"))}


# ---------------------------------------------------------------------------
# The trial.

def set_up(cfg: ExperimentConfig, seed: int, tracer):
    """One trial's topology, slot capacities and requests, as ``_run_trial`` builds them."""
    with tracer.span("topology.generate"):
        graph = generate_waxman(replace(cfg.topology, seed=seed), cfg.capacities)
    cache = CandidateCache(graph, cfg.route)
    T = cfg.budget.horizon
    with tracer.span("topology.sample"):
        slot_caps = [sample_slot_capacities(graph, cfg.capacities, t, seed)
                     for t in range(T)]
    slot_reqs = []
    for t in range(T):
        with tracer.span("topology.sample"):
            pairs = sample_requests(graph, cfg.workload, t, seed)
        with tracer.span("routes.build_requests") as info:
            slot_reqs.append(build_requests(graph, pairs, cfg.route, cache))
            info["requests"] = len(pairs)
    return graph, slot_caps, slot_reqs


def slot_cost_cap(policy: str, budget: BudgetParams, state: ControllerState) -> int | None:
    """The hard per-slot cap MF and MA must respect, derived independently."""
    if policy == "MF":
        return budget.total_budget // budget.horizon
    if policy == "MA":
        remaining = budget.total_budget - state.cumulative_cost
        return max(0, remaining // (budget.horizon - state.slot))
    return None


def check_slot(graph, caps, requests, selection_, alloc, record, cost_cap) -> str | None:
    """Why a committed slot is wrong, or None when it passes every check."""
    if alloc is None:
        return None if record.cost == 0 and not selection_ else "unserved slot with cost"
    if record.cost != alloc.cost:
        return f"record cost {record.cost} != allocation cost {alloc.cost}"
    chosen = [r.candidates[selection_[r.request_id]] for r in requests if r.servable]
    for route in chosen:
        for eid in route.edges:
            try:
                if alloc.get(route.request_id, eid) < 1:
                    return f"edge {eid} of request {route.request_id} holds no channel"
            except MissingAllocationError:
                return f"edge {eid} of request {route.request_id} has no allocation"
    report = verify_feasible(graph, caps, chosen, alloc)
    if not report:
        return f"infeasible: nodes {report.node_violations} edges {report.edge_violations}"
    if cost_cap is not None and alloc.cost > cost_cap:
        return f"cost {alloc.cost} over the slot cap {cost_cap}"
    return None


def run_pass(cfg: ExperimentConfig, inputs: list, tracer, pass_no: int,
             speed: HostSpeed, deadline: float | None = None) -> dict:
    """Every trial, every policy, over the horizon: slot times, records, failures.

    ``times`` maps (trial, policy, t) to (wall s, s at nominal speed).  With
    a ``deadline`` the pass stops at the first slot boundary past it.
    """
    T = cfg.budget.horizon
    out = {"times": {}, "records": {}, "served": {p: 0 for p in cfg.policies},
           "attempted": 0, "failed": 0, "problems": []}
    for trial, (graph, slot_caps, slot_reqs) in enumerate(inputs):
        seed = cfg.seed + trial
        for policy in cfg.policies:
            step = STEPS[policy]
            state = ControllerState(q=cfg.budget.q0 if policy == "OSCAR" else 0.0,
                                    policy=policy)
            pol_tag = POLICIES.index(policy)
            out["records"][(policy, trial)] = recs = []
            for t in range(T):
                if deadline is not None and perf_counter() >= deadline:
                    return out
                gibbs = replace(cfg.gibbs, seed=[seed, STREAM_GIBBS, pol_tag, t])
                cost_cap = slot_cost_cap(policy, cfg.budget, state)
                factor = speed.factor()
                tracer.slot = (pass_no, trial, policy, t)
                idx = tracer.begin("controller.slot")
                start = perf_counter()
                try:
                    sel, alloc, record, new_state = step(
                        graph, slot_caps[t], slot_reqs[t], state, cfg.budget,
                        gibbs, cfg.enumeration_cap)
                except Exception as exc:  # a raising policy forfeits its horizon
                    tracer.end(idx)
                    out["attempted"] += T - t
                    out["failed"] += T - t
                    out["problems"].append(f"trial {trial} {policy} t={t} raised "
                                           f"{type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                    break
                elapsed = perf_counter() - start
                tracer.end(idx)
                out["times"][(trial, policy, t)] = (elapsed, elapsed * factor)
                out["attempted"] += 1
                problem = check_slot(graph, slot_caps[t], slot_reqs[t], sel, alloc,
                                     record, cost_cap)
                if problem:
                    out["failed"] += 1
                    out["problems"].append(f"trial {trial} {policy} t={t}: {problem}")
                out["served"][policy] += alloc is not None
                recs.append(record)
                state = new_state
    return out


def records_digest(records: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(records):
        for rec in records[key]:
            h.update(repr(rec).encode())
            h.update(b"\n")
    return h.hexdigest()


def host_speed_deciles(factors: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(factors, n=10) if len(factors) > 1 else factors * 9
    return {"host_speed.p10": deciles[0], "host_speed.p50": statistics.median(factors),
            "host_speed.p90": deciles[-1]}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least 10 samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def measure(name: str, seed: int, seconds: float, trace: bool,
            trials: int | None = None, horizon: int | None = None) -> dict:
    """Run one workload and return every metric plus the checks' outcome."""
    cfg = workload_config(name, seed, trials, horizon)
    tracer = Tracer() if trace else NullTracer()
    speed = HostSpeed()
    problems: list[str] = []
    with tracer.installed():
        setup_times = []
        inputs = []
        for trial in range(cfg.trials):
            factor = speed.factor()
            tracer.slot = ("setup", trial)
            idx = tracer.begin("setup")
            start = perf_counter()
            inputs.append(set_up(cfg, cfg.seed + trial, tracer))
            elapsed = perf_counter() - start
            tracer.end(idx)
            setup_times.append((elapsed, elapsed * factor))

        loop_start = perf_counter()
        passes = [run_pass(cfg, inputs, tracer, 0, speed)]
        first_pass_s = perf_counter() - loop_start
        deadline = loop_start + seconds
        while perf_counter() < deadline and len(passes) < MAX_PASSES:
            passes.append(run_pass(cfg, inputs, tracer, len(passes), speed, deadline))
    loop_s = perf_counter() - loop_start

    first = passes[0]
    digest = records_digest(first["records"])
    problems.extend(first["problems"])
    for k, p in enumerate(passes[1:], start=1):
        problems.extend(f"replay {k}: {problem}" for problem in p["problems"])
        if any(recs != first["records"][key][:len(recs)]
               for key, recs in p["records"].items()):
            problems.append(f"replay {k} records differ from pass 0")
    T = cfg.budget.horizon
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    # Each slot of the first pass counts once, at the median of its timings.
    samples: dict[tuple, list] = {key: [] for key in first["times"]}
    for p in passes:
        for key, pair in p["times"].items():
            samples[key].append(pair)
    wall = {key: statistics.median(w for w, _ in v) for key, v in samples.items()}
    slot_s = {key: statistics.median(n for _, n in v) for key, v in samples.items()}
    tail_p, tail_s = tail_percentile(list(slot_s.values()))
    metrics = {"setup_s": statistics.median(n for _, n in setup_times)}
    informational = {}
    for policy in cfg.policies:
        keys = [key for key in slot_s if key[1] == policy]
        combos = sum(route_space(inputs[trial][2][t]) for trial, _, t in keys)
        busy = sum(slot_s[key] for key in keys)
        wall_s = sum(wall[key] for key in keys)
        metrics[f"combos_per_s.{policy}"] = combos / busy if busy else 0.0
        informational[f"slots_per_s.{policy}"] = len(keys) / busy if busy else 0.0
        informational[f"wall.combos_per_s.{policy}"] = combos / wall_s if wall_s else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = {key: RunMetrics.from_records(key[0], key[1], recs)
            for key, recs in first["records"].items()}

    def trial_mean(policy: str, value) -> float:
        # Summed in trial order, as ExperimentResult.policy_mean does.
        vals = [value(m) for (p, _), m in runs.items() if p == policy]
        return sum(vals) / len(vals)

    for policy in cfg.policies:
        # A trial that served no slot has no success mean; it succeeded at nothing.
        metrics[f"success.{policy}"] = trial_mean(
            policy, lambda m: 0.0 if math.isnan(m.final_success) else m.final_success)
    C = cfg.budget.total_budget
    metrics["cost_ratio.OSCAR"] = trial_mean("OSCAR", lambda m: m.final_cost / C)
    metrics["slot_ok_frac"] = 1.0 - failed / attempted

    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "trials": cfg.trials, "horizon": T, "passes": len(passes),
        "first_pass_s": first_pass_s, "loop_s": loop_s,
        "attempted": attempted, "failed": failed, "digest": digest,
        "tail": {"percentile": tail_p, "samples": len(slot_s)},
        "end_to_end": metrics,
        "informational": {
            **informational,
            "slot_ms.p50": statistics.median(slot_s.values()) * 1e3,
            "slot_ms.tail": tail_s * 1e3,
            "overrun.OSCAR": trial_mean("OSCAR", lambda m: max(0, m.final_cost - C) / C),
            "slot_fail_frac": failed / attempted,
            "wall.setup_s": statistics.median(w for w, _ in setup_times),
            **host_speed_deciles(speed.factors),
        },
    }
    if trace:
        per_layer, layer_problems = layer_metrics(tracer.spans, cfg, first["served"])
        result["per_layer"] = per_layer
        problems.extend(layer_problems)
        result["spans"] = tracer.spans
    result["problems"] = problems
    result["correct"] = not problems
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def layer_metrics(spans: list[list], cfg: ExperimentConfig,
                  served: dict[str, int]) -> tuple[dict, list[str]]:
    """Per-layer counts and times over the K trials once, plus the exhaustive check.

    Set-up layers run once per run; slot-loop layers count the first pass
    only, since replays may stop part-way.  ``served`` counts the first
    pass's committed allocations per policy.  A span's self time is its
    duration minus the time its child spans cover.
    """
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    children = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            children[s[3]] += 1
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[4][0] in ("setup", 0):
            by_name.setdefault(s[0], []).append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name.get(name, []))

    yen = by_name.get("routes.candidate_routes", [])
    built = sum(spans[i][5]["requests"] for i in by_name["routes.build_requests"])
    m: dict[str, float] = {
        "topology.generate_s": total("topology.generate"),
        "topology.sample_s": total("topology.sample"),
        "routes.calls": len(yen),
        "routes.s": total("routes.candidate_routes"),
        "routes.ms_per_call.p50": statistics.median(dur[i] for i in yen) * 1e3 if yen else 0.0,
        "routes.cache_hit_ratio": 1.0 - len(yen) / built if built else 0.0,
    }

    problems = []
    slots = by_name.get("controller.slot", [])
    selects = by_name.get("selection.select_routes", [])
    allocs = by_name.get("allocation.allocate", [])
    for policy in cfg.policies:
        sel = [i for i in selects if spans[i][4][2] == policy]
        alc = [i for i in allocs if spans[i][4][2] == policy]
        errors = [spans[i][5].get("error") for i in alc]
        n_sel, n_alc = len(sel), len(alc)
        m[f"selection.calls.{policy}"] = n_sel
        m[f"selection.self_s.{policy}"] = sum(dur[i] - covered[i] for i in sel)
        m[f"selection.allocs_per_call.{policy}"] = n_alc / n_sel if n_sel else 0.0
        m[f"selection.space_mean.{policy}"] = (
            statistics.fmean(spans[i][5]["space"] for i in sel) if sel else 0.0)
        m[f"selection.gibbs_share.{policy}"] = (
            statistics.fmean(spans[i][5]["gibbs"] for i in sel) if sel else 0.0)
        m[f"allocation.calls.{policy}"] = n_alc
        m[f"allocation.s.{policy}"] = sum(dur[i] for i in alc)
        m[f"allocation.us_per_call.p50.{policy}"] = (
            statistics.median(dur[i] for i in alc) * 1e6 if alc else 0.0)
        m[f"allocation.vars_per_call.{policy}"] = (
            statistics.fmean(spans[i][5]["vars"] for i in alc) if alc else 0.0)
        m[f"allocation.infeasible_ratio.{policy}"] = (
            errors.count("InfeasibleSelectionError") / n_alc if n_alc else 0.0)
        m[f"allocation.no_convergence.{policy}"] = errors.count("NoConvergenceError")
        m[f"allocation.useful_ratio.{policy}"] = served[policy] / n_alc if n_alc else 0.0
        # Exhaustive search evaluates every combination exactly once, on
        # every pass.
        for i in (i for i, s in enumerate(spans)
                  if s[0] == "selection.select_routes" and s[4][2] == policy):
            info = spans[i][5]
            if (not info["gibbs"] and info.get("error") in (None, "AllInfeasibleError")
                    and children[i] != info["space"]):
                problems.append(f"slot {spans[i][4]}: {children[i]} allocate calls "
                                f"for an exhaustive space of {info['space']}")
    m["controller.s"] = total("controller.slot")
    m["controller.self_s"] = sum(dur[i] - covered[i] for i in slots)
    m["controller.unserved_slots"] = sum(
        spans[i][5].get("error") == "AllInfeasibleError" for i in selects)
    return m, problems


# ---------------------------------------------------------------------------
# Provenance and output.

def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` directly; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "src_loc": loc,
    }


def _write_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, slot, info in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "slot": list(slot),
                                     **(info or {})}) + "\n")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["provenance"] = provenance()
    path = _write_result(result)

    if args.trace:
        shown, units = result["per_layer"], PER_LAYER_UNITS
    else:
        shown, units = result["end_to_end"], END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed} trials {result['trials']} "
          f"horizon {result['horizon']} passes {result['passes']} trace {args.trace}")
    print("provenance " + json.dumps(result["provenance"]))
    label = "traced " if args.trace else ""
    for name, value in result["end_to_end"].items():
        print(f"  {label}{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in result["informational"].items():
        note = ""
        if name == "slot_ms.tail":
            note = f"  (p{result['tail']['percentile']:g} of {result['tail']['samples']} slots)"
        print(f"  {label}{name} = {value:.6g} {INFORMATIONAL_UNITS[name]}{note}")
    if args.trace:
        for name, value in shown.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  digest = {result['digest']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
