"""Experiment orchestration: paired multi-trial runs, sweeps, CSV outputs.

Every trial derives its topology, capacity, and workload streams from
``seed + trial``, and all policies within a trial see byte-identical
streams, so policy comparisons are paired.  Slot records roll up into
running-average time series and final aggregates; everything is persisted
as CSV plus the resolved configuration.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .controller import (
    POLICIES,
    BudgetParams,
    ControllerState,
    SlotRecord,
    bound_summary,
    run_slot,
)
from .model import check_fields
from .routes import CandidateCache, RouteConfig, build_requests
from .selection import DEFAULT_ENUMERATION_CAP, GibbsParams
from .topology import (
    STREAM_GIBBS,
    CapacityDistributions,
    WaxmanParams,
    WorkloadParams,
    generate_waxman,
    pair_factors,
    sample_requests,
    sample_slot_capacities,
)

SLOTS_COLUMNS = ["trial", "policy", "t", "utility_avg", "success_avg",
                 "cost", "cost_cum", "q", "unserved"]
SWEEP_COLUMNS = ["param", "value", "policy", "final_utility", "final_success",
                 "final_cost", "violation_bound"]
SWEEPABLE = ("C", "node_count", "V", "q0")

_HISTOGRAM_BINS = 50  # 0.02 wide
# Waxman beta calibration for node-count sweeps.
_TARGET_DEGREE = 4.0
_CALIBRATION_SAMPLES = 200
_CALIBRATION_SEED = 1234


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; ``default_config()`` gives the stock setup.

    ``config_to_dict`` writes the fields in this order, sections last.
    """

    seed: int = 0
    trials: int = 5
    policies: tuple[str, ...] = ("OSCAR", "MA", "MF")
    workers: int = 0  # 0 = one per CPU, capped at the trial count
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    topology: WaxmanParams = field(default_factory=WaxmanParams)
    capacities: CapacityDistributions = field(default_factory=CapacityDistributions)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    route: RouteConfig = field(default_factory=RouteConfig)
    budget: BudgetParams = field(default_factory=lambda: BudgetParams(5000, 200, 2500.0, 10.0))
    gibbs: GibbsParams = field(default_factory=GibbsParams)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        if not self.trials >= 1:
            raise ValueError("trials must be >= 1")
        if not self.workers >= 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if not self.enumeration_cap >= 0:
            raise ValueError(f"enumeration_cap must be >= 0, got {self.enumeration_cap}")
        if not self.policies:
            raise ValueError("policies must name at least one policy")
        for p in self.policies:
            if p not in POLICIES:
                raise ValueError(f"unknown policy {p!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policies must not repeat: {list(self.policies)}")


def default_config() -> ExperimentConfig:
    """Stock configuration: 20-node degree-4 network, C=5000 over T=200 slots."""
    return ExperimentConfig(topology=WaxmanParams(degree_band=(3.5, 4.5)))


def _config_fields(obj) -> list[str]:
    # A section's seed (topology, gibbs) is drawn per trial by _run_trial.
    return [f.name for f in fields(obj)
            if f.name != "seed" or isinstance(obj, ExperimentConfig)]


def config_to_dict(cfg) -> dict:
    """Fields in declaration order; sections nest, tuples become lists."""
    out = {}
    for name in _config_fields(cfg):
        value = getattr(cfg, name)
        if is_dataclass(value):
            value = config_to_dict(value)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Config from a ``config_to_dict``-shaped mapping; missing keys take
    their default values and unknown keys raise ValueError."""
    return _replace_from(default_config(), doc, None)


def _replace_from(base, doc: dict, section: str | None):
    """``base`` updated from ``doc``, the top-level mapping or ``section``'s."""
    if not isinstance(doc, dict):
        raise ValueError(f"config section {section!r} must be a mapping" if section
                         else f"config must be a mapping, got {type(doc).__name__}")
    known = _config_fields(base)
    changes = {}
    for key, value in doc.items():
        if key not in known:
            where = f"in section {section!r}" if section else "at the top level"
            raise ValueError(f"unknown config key {key!r} {where}")
        current = getattr(base, key)
        if is_dataclass(current):
            value = _replace_from(current, value, key)
        changes[key] = tuple(value) if isinstance(value, list) else value
    return replace(base, **changes)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML config; the literal name ``default`` gives the stock one.
    A file that does not parse as YAML raises ValueError naming it."""
    if str(path) == "default":
        return default_config()
    import yaml  # deferred: single-process runs that never read YAML skip its import

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {exc}") from exc
    return config_from_dict({} if doc is None else doc)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# Metrics.

@dataclass
class RunMetrics:
    """Time series and final aggregates for one (policy, trial) run."""

    policy: str
    trial: int
    utility_avg: list[float]
    success_avg: list[float]
    cost: list[int]
    cost_cum: list[int]
    q: list[float]
    unserved: list[int]
    success_probs: list[float]
    final_utility: float
    final_success: float
    final_cost: int
    total_unserved: int

    @classmethod
    def from_records(cls, policy: str, trial: int,
                     records: list[SlotRecord]) -> "RunMetrics":
        utility_avg, success_avg, cost, cost_cum, q, unserved = [], [], [], [], [], []
        probs: list[float] = []
        utility_sum = 0.0
        # Success averages weight slots equally (mean of per-slot means over
        # served requests), matching how the time-evolving average is read.
        # Left folds, not builtin sum, whose float bits vary by Python version.
        slot_mean_sum = 0.0
        served_slots = 0
        running_cost = 0
        for i, rec in enumerate(records):
            utility_sum += rec.utility
            if rec.success_probs:
                slot_sum = 0.0
                for p in rec.success_probs:
                    slot_sum += p
                slot_mean_sum += slot_sum / len(rec.success_probs)
                served_slots += 1
            probs.extend(rec.success_probs)
            running_cost += rec.cost
            utility_avg.append(utility_sum / (i + 1))
            success_avg.append(slot_mean_sum / served_slots if served_slots else math.nan)
            cost.append(rec.cost)
            cost_cum.append(running_cost)
            q.append(rec.q_after)
            unserved.append(rec.unserved)
        return cls(
            policy=policy, trial=trial,
            utility_avg=utility_avg, success_avg=success_avg,
            cost=cost, cost_cum=cost_cum, q=q, unserved=unserved,
            success_probs=probs,
            final_utility=utility_avg[-1] if utility_avg else 0.0,
            final_success=success_avg[-1] if success_avg else math.nan,
            final_cost=running_cost,
            total_unserved=sum(unserved),
        )


def histogram_success_rates(probs):
    """Histogram of per-request success probabilities in ``_HISTOGRAM_BINS``
    equal bins on [0, 1]."""
    probs = np.asarray(list(probs), dtype=float)
    if probs.size == 0:
        raise ValueError("no success probabilities to bin")
    edges = np.linspace(0.0, 1.0, _HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(probs, bins=edges)
    return edges, counts


# ---------------------------------------------------------------------------
# Running experiments.

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: dict[tuple[str, int], RunMetrics]
    records: dict[tuple[str, int], list[SlotRecord]]
    bounds: dict[int, dict]

    def policy_mean(self, policy: str, attr: str) -> float:
        vals = [getattr(m, attr) for (p, _), m in sorted(self.metrics.items())
                if p == policy]
        return sum(vals) / len(vals)


def _run_trial(cfg: ExperimentConfig, trial: int):
    """All policies over one trial's shared topology and workload streams."""
    seed = cfg.seed + trial
    graph = generate_waxman(replace(cfg.topology, seed=seed), cfg.capacities)
    cache = CandidateCache(graph, cfg.route)
    T = cfg.budget.horizon
    slot_caps = [sample_slot_capacities(graph, cfg.capacities, t, seed)
                 for t in range(T)]
    slot_reqs = [build_requests(graph, sample_requests(graph, cfg.workload, t, seed),
                                cfg.route, cache)
                 for t in range(T)]
    out: dict[str, list[SlotRecord]] = {}
    for policy in cfg.policies:
        q0 = cfg.budget.q0 if policy == "OSCAR" else 0.0
        state = ControllerState(q=q0, policy=policy)
        pol_tag = POLICIES.index(policy)
        records = []
        for t in range(T):
            gibbs = replace(cfg.gibbs, seed=[seed, STREAM_GIBBS, pol_tag, t])
            _, _, record, state = run_slot(
                policy, graph, slot_caps[t], slot_reqs[t], state, cfg.budget,
                gibbs, cfg.enumeration_cap,
            )
            records.append(record)
        out[policy] = records
    F = cfg.workload.sd_range[1]
    return out, bound_summary(graph, cfg.budget, F, cfg.route.max_hops)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   quiet: bool = False) -> ExperimentResult:
    """Run every (policy, trial) pair and persist CSVs when given a directory.

    Trials are independent and may run in parallel; outputs are merged in
    sorted order so the files are byte-identical regardless of worker count.
    """
    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    workers = min(workers, cfg.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        per_trial = [_run_trial(cfg, k) for k in range(cfg.trials)]

    records: dict[tuple[str, int], list[SlotRecord]] = {}
    metrics: dict[tuple[str, int], RunMetrics] = {}
    bounds: dict[int, dict] = {}
    for trial, (trial_records, trial_bounds) in enumerate(per_trial):
        bounds[trial] = trial_bounds
        for policy, recs in trial_records.items():
            records[(policy, trial)] = recs
            metrics[(policy, trial)] = RunMetrics.from_records(policy, trial, recs)

    result = ExperimentResult(cfg, metrics, records, bounds)
    if out_dir is not None:
        _write_outputs(result, Path(out_dir))
    if not quiet:
        if not all(b["assumption1"] for b in bounds.values()):
            print("warning: budget below F*L*T; the worst-case request load "
                  "may be unservable")
        for policy in cfg.policies:
            print(
                f"{policy}: success={result.policy_mean(policy, 'final_success'):.4f} "
                f"utility={result.policy_mean(policy, 'final_utility'):.4f} "
                f"cost={result.policy_mean(policy, 'final_cost'):.1f} "
                f"({cfg.trials} trials)"
            )
    return result


def _write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(result.config, out_dir / "config.yaml")

    with open(out_dir / "slots.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOTS_COLUMNS)
        for (policy, trial) in sorted(result.metrics, key=lambda k: (k[1], k[0])):
            m = result.metrics[(policy, trial)]
            for t in range(len(m.cost)):
                writer.writerow([
                    trial, policy, t, m.utility_avg[t], m.success_avg[t],
                    m.cost[t], m.cost_cum[t], m.q[t], m.unserved[t],
                ])

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "policy", "final_utility", "final_success",
                         "final_cost", "unserved"])
        for (policy, trial) in sorted(result.metrics, key=lambda k: (k[1], k[0])):
            m = result.metrics[(policy, trial)]
            writer.writerow([trial, policy, m.final_utility, m.final_success,
                             m.final_cost, m.total_unserved])
        for policy in sorted(set(p for p, _ in result.metrics)):
            writer.writerow([
                "mean", policy,
                result.policy_mean(policy, "final_utility"),
                result.policy_mean(policy, "final_success"),
                result.policy_mean(policy, "final_cost"),
                result.policy_mean(policy, "total_unserved"),
            ])

    with open(out_dir / "histogram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "bin_lo", "bin_hi", "count"])
        for policy in sorted(set(p for p, _ in result.metrics)):
            probs: list[float] = []
            for (p, trial), m in sorted(result.metrics.items()):
                if p == policy:
                    probs.extend(m.success_probs)
            if not probs:
                continue
            edges, counts = histogram_success_rates(probs)
            for lo, hi, c in zip(edges[:-1], edges[1:], counts):
                writer.writerow([policy, float(lo), float(hi), int(c)])


# ---------------------------------------------------------------------------
# Parameter sweeps.

def calibrate_beta(node_count: int, alpha: float, side: float) -> float:
    """Waxman beta that gives mean degree ``_TARGET_DEGREE`` (4) at the given size.

    Estimates the mean pair connection factor ``exp(-d / (alpha * d_max))``
    over ``_CALIBRATION_SAMPLES`` (200) placements drawn from the stream
    ``[_CALIBRATION_SEED, node_count]`` and inverts the expected-degree
    relation.
    """
    rng = np.random.default_rng([_CALIBRATION_SEED, node_count])
    factors = [pair_factors(rng.uniform(0.0, side, size=(node_count, 2)), alpha)[2].mean()
               for _ in range(_CALIBRATION_SAMPLES)]
    beta = _TARGET_DEGREE / ((node_count - 1) * float(np.mean(factors)))
    return min(max(beta, 1e-6), 1.0)


def _whole(parameter: str, value) -> int:
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise ValueError(f"sweep value for {parameter} must be a whole number, got {value!r}")


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value) -> ExperimentConfig:
    if parameter == "C":
        return replace(cfg, budget=replace(cfg.budget, total_budget=_whole(parameter, value)))
    if parameter == "V":
        return replace(cfg, budget=replace(cfg.budget, V=float(value)))
    if parameter == "q0":
        return replace(cfg, budget=replace(cfg.budget, q0=float(value)))
    if parameter == "node_count":
        # Built first, so that WaxmanParams rejects a bad count before calibration.
        topo = replace(cfg.topology, node_count=_whole(parameter, value))
        beta = calibrate_beta(topo.node_count, topo.alpha, topo.side)
        return replace(cfg, topology=replace(topo, beta=beta))
    raise ValueError(f"unknown sweep parameter {parameter!r}; pick one of {SWEEPABLE}")


def sweep(cfg: ExperimentConfig, parameter: str, values,
          out_dir: str | Path | None = None, quiet: bool = False) -> list[dict]:
    """Repeat the experiment across parameter values; returns sweep rows.

    Each row carries the trial-mean final aggregates for one (value,
    policy) pair plus the constraint-violation bound for that setting.
    Every value is checked before the first experiment runs.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    out_path = Path(out_dir) if out_dir is not None else None
    sub_cfgs = [_apply_sweep_value(cfg, parameter, value) for value in values]
    for value, sub_cfg in zip(values, sub_cfgs):
        sub_out = out_path / f"{parameter}_{value}" if out_path else None
        result = run_experiment(sub_cfg, sub_out, quiet=quiet)
        violation = sum(b["theorem1_rhs"] for b in result.bounds.values()) / len(result.bounds)
        for policy in sub_cfg.policies:
            rows.append({
                "param": parameter,
                "value": value,
                "policy": policy,
                "final_utility": result.policy_mean(policy, "final_utility"),
                "final_success": result.policy_mean(policy, "final_success"),
                "final_cost": result.policy_mean(policy, "final_cost"),
                "violation_bound": violation,
            })
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        with open(out_path / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in rows:
                writer.writerow([row[c] for c in SWEEP_COLUMNS])
    return rows
