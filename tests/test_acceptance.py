"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the pass/fail
lines.  Criteria 6 and 7 share a single default-configuration experiment
(five trials, three policies); criterion 8 runs the three parameter sweeps
and criterion 9 repeats the default run twice through the CLI, so the
module takes several minutes end to end.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from instances import (
    allocator_instance,
    chain_grid_optimum,
    integer_optimum,
    pair_grid_optimum,
    random_allocation_instance,
    random_graph,
    relaxed_solution,
    stationarity_root,
)
from qdnroute.allocation import (
    PerSlotObjectiveParams,
    allocate,
    delta_gap,
)
from qdnroute.cli import main as cli_main
from qdnroute.controller import theorem1_rhs
from qdnroute.harness import default_config, run_experiment, sweep
from qdnroute.model import (
    Allocation,
    EdgeSpec,
    QdnGraph,
    Route,
    SlotCapacities,
    channel_success_prob,
    edge_success_prob,
    monte_carlo_route_success,
    route_success_prob,
    slot_utility,
    verify_feasible,
)
from qdnroute.routes import RouteConfig, build_requests
from qdnroute.selection import (
    AllInfeasibleError,
    GibbsParams,
    exhaustive_select,
    gibbs_select,
)

CHANNEL_P_REFERENCE = 0.5507069855552713  # 1 - (1 - 2e-4)^4000, 60-digit eval


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    cfg = replace(default_config(), workers=2)
    start = time.perf_counter()
    result = run_experiment(cfg, tmp_path_factory.mktemp("default_run"), quiet=True)
    return cfg, result, time.perf_counter() - start


def test_criterion_1_formula_suite():
    start = time.perf_counter()
    ok = abs(channel_success_prob(2e-4, 4000) - CHANNEL_P_REFERENCE) <= 1e-12
    ok &= abs(channel_success_prob(2e-4, 4000) - 0.5507) <= 1e-4

    unit_checks = [
        (channel_success_prob(0.5, 1), 0.5),
        (channel_success_prob(0.1, 2), 0.19),
        (edge_success_prob(0.5, 1), 0.5),
        (edge_success_prob(0.5, 2), 0.75),
        (edge_success_prob(CHANNEL_P_REFERENCE, 2), 0.7981357871711688),
    ]
    g2 = QdnGraph((9, 9, 9), (EdgeSpec(0, 1, 9, 0.8, 1), EdgeSpec(1, 2, 9, 0.8, 1)))
    r2 = Route.from_nodes(g2, [0, 1, 2], request_id=0)
    a2 = Allocation({(0, 0): 1, (0, 1): 1})
    unit_checks.append((route_success_prob(g2, r2, a2), 0.64))
    g3 = QdnGraph((9,) * 4, (EdgeSpec(0, 1, 9, 0.9, 1), EdgeSpec(1, 2, 9, 0.8, 1),
                            EdgeSpec(2, 3, 9, 0.5, 1)))
    r3 = Route.from_nodes(g3, [0, 1, 2, 3], request_id=0)
    a3 = Allocation({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    unit_checks.append((route_success_prob(g3, r3, a3), 0.36))
    g1 = QdnGraph((9, 9), (EdgeSpec(0, 1, 9, 0.5, 1),))
    r1 = Route.from_nodes(g1, [0, 1], request_id=0)
    unit_checks.append((slot_utility(g1, [r1], Allocation({(0, 0): 1})), math.log(0.5)))
    exact = all(abs(got - want) <= 1e-12 for got, want in unit_checks)

    rng = np.random.default_rng(2024)
    samples = 100_000
    mc_ok = True
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(4, 7)), p_lo=0.2, p_hi=0.9, w_hi=5)
        caps = SlotCapacities.from_graph(g)
        start_node = int(rng.integers(g.node_count))
        nodes = [start_node]
        while len(nodes) < 4:
            nbrs = [x for x, _ in g.adjacency[nodes[-1]] if x not in nodes]
            if not nbrs or (len(nodes) >= 2 and rng.random() < 0.5):
                break
            nodes.append(int(rng.choice(nbrs)))
        if len(nodes) < 2:
            continue
        route = Route.from_nodes(g, nodes, request_id=0)
        alloc = Allocation({
            (0, eid): int(rng.integers(1, caps.w_caps[eid] + 1)) for eid in route.edges
        })
        analytic = route_success_prob(g, route, alloc)
        empirical = monte_carlo_route_success(g, route, alloc, samples,
                                              seed=int(rng.integers(2**31)))
        sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / samples)
        if abs(empirical - analytic) > 3 * sigma:
            mc_ok = False
    elapsed = time.perf_counter() - start
    report(1, ok and exact and mc_ok and elapsed < 10.0,
           f"formulas exact to 1e-12, MC within 3 sigma, {elapsed:.1f}s (< 10 s)")


def test_criterion_2_rounding_invariants():
    rng = np.random.default_rng(1002)
    violations = 0
    for i in range(1000):
        g, caps, routes, params = random_allocation_instance(
            rng, with_cost_cap=bool(rng.integers(2)))
        inst = allocator_instance(g, caps, routes, params)
        relaxed, _ = inst.solve_relaxed()
        counts = inst.round_down_and_fill(relaxed)
        alloc = Allocation(dict(zip(inst.keys, counts)))
        for key, x in zip(inst.keys, relaxed):
            n = alloc.get(*key)
            if n < 1 or x - n > 1.0:
                violations += 1
        if not verify_feasible(g, caps, routes, alloc).ok:
            violations += 1
        if params.cost_cap is not None and alloc.cost > params.cost_cap:
            violations += 1
    report(2, violations == 0,
           f"1000 instances, n>=1 and relaxed-n<=1 and feasible, {violations} violations")


def test_criterion_3_delta_gap_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    violations = 0
    done = 0
    while done < 200:
        g, caps, routes, params = random_allocation_instance(
            rng, max_requests=2, max_hops=3, w_hi=6, q_lo=2, q_hi=6)
        if sum(r.hops for r in routes) > 6:
            continue
        _, achieved = allocate(g, caps, routes, params)
        opt = integer_optimum(g, caps, routes, params)
        bound = delta_gap(params.V, len(routes), max(r.hops for r in routes),
                          min(g.p_edge))
        if opt - achieved > bound + 1e-9:
            violations += 1
        done += 1
    elapsed = time.perf_counter() - start
    report(3, violations == 0 and elapsed < 120.0,
           f"200 instances within delta_gap of the integer optimum, "
           f"{violations} violations, {elapsed:.1f}s (< 2 min)")


def test_criterion_4_relaxed_solver_accuracy():
    rng = np.random.default_rng(1004)
    worst_root = 0.0
    for _ in range(100):
        p = float(rng.uniform(0.2, 0.95))
        channels = int(rng.integers(2, 10))
        g = QdnGraph((20, 20), (EdgeSpec(0, 1, channels, p, 1),))
        caps = SlotCapacities.from_graph(g)
        route = Route.from_nodes(g, [0, 1], request_id=0)
        params = PerSlotObjectiveParams(V=float(rng.uniform(0.5, 100.0)),
                                        q=float(rng.uniform(0.0, 5.0)))
        values, _ = relaxed_solution(g, caps, [route], params)
        root = stationarity_root(p, params.V, params.q, hi=channels)
        worst_root = max(worst_root, abs(values[(0, 0)] - root))
    single_ok = worst_root <= 1e-5

    worst_rel = 0.0
    done = 0
    while done < 100:
        params = PerSlotObjectiveParams(V=float(rng.uniform(10.0, 40.0)),
                                        q=float(rng.uniform(0.2, 2.0)))
        if done % 3 == 2:
            # two requests coupled through one shared edge
            w = int(rng.integers(2, 7))
            qcap = int(rng.integers(2, 10))
            g = QdnGraph((qcap, qcap), (EdgeSpec(0, 1, w, float(rng.uniform(0.3, 0.9)), 1),))
            caps = SlotCapacities.from_graph(g)
            routes = [Route.from_nodes(g, [0, 1], request_id=0),
                      Route.from_nodes(g, [0, 1], request_id=1)]
            if min(w, qcap) < 2:
                continue
            oracle = pair_grid_optimum(g, caps, routes, params)
            _, objective = relaxed_solution(g, caps, routes, params)
        else:
            g = random_graph(rng, int(rng.integers(5, 9)), w_hi=6, q_lo=2, q_hi=8)
            caps = SlotCapacities.from_graph(g)
            start_node = int(rng.integers(g.node_count))
            nodes = [start_node]
            target = int(rng.integers(2, 5))
            while len(nodes) <= target:
                nbrs = [x for x, _ in g.adjacency[nodes[-1]] if x not in nodes]
                if not nbrs:
                    break
                nodes.append(int(rng.choice(nbrs)))
            if len(nodes) < 3:
                continue
            route = Route.from_nodes(g, nodes, request_id=0)
            oracle = chain_grid_optimum(g, caps, route, params)
            _, objective = relaxed_solution(g, caps, [route], params)
        worst_rel = max(worst_rel, abs(objective - oracle) / max(1.0, abs(oracle)))
        done += 1
    multi_ok = worst_rel <= 1e-4
    report(4, single_ok and multi_ok,
           f"single-var root error {worst_root:.2e} (<= 1e-5), "
           f"multi-var grid-relative error {worst_rel:.2e} (<= 1e-4)")


def test_criterion_5_gibbs_matches_exhaustive():
    rng = np.random.default_rng(1005)
    hits = 0
    feasible = 0
    total = 0
    while total < 50:
        g, caps, routes, params = random_allocation_instance(rng, max_requests=3,
                                                             max_hops=3)
        reqs = build_requests(g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                              RouteConfig(max_candidates=3, max_hops=3))
        if not all(r.servable for r in reqs):
            continue
        try:
            _, _, f_best = exhaustive_select(g, caps, reqs, params)
        except AllInfeasibleError:
            continue
        total += 1
        sel, alloc, f = gibbs_select(g, caps, reqs, params,
                                     GibbsParams(gamma=1.0, seed=50_000 + total))
        chosen = [r.candidates[sel[r.request_id]] for r in reqs]
        if alloc is not None and verify_feasible(g, caps, chosen, alloc).ok:
            feasible += 1
        if abs(f - f_best) <= 1e-9:
            hits += 1
    report(5, hits >= 45 and feasible == 50,
           f"{hits}/50 runs found the exhaustive optimum (>= 45), "
           f"{feasible}/50 feasible (= 50)")


@pytest.mark.slow
def test_criterion_6_default_run_reproduces_headline_rates(default_run):
    cfg, result, elapsed = default_run
    means = {p: result.policy_mean(p, "final_success") for p in cfg.policies}
    targets = {"OSCAR": 0.90, "MA": 0.875, "MF": 0.83}
    in_band = all(abs(means[p] - targets[p]) <= 0.03 for p in targets)
    ordered = means["OSCAR"] > means["MA"] > means["MF"]
    cost = result.policy_mean("OSCAR", "final_cost")
    C, T = cfg.budget.total_budget, cfg.budget.horizon
    rhs = float(np.mean([b["theorem1_rhs"] for b in result.bounds.values()]))
    cost_ok = 0.9 * C <= cost <= C + T * rhs
    report(6, in_band and ordered and cost_ok and elapsed < 600.0,
           f"success OSCAR={means['OSCAR']:.3f} MA={means['MA']:.3f} "
           f"MF={means['MF']:.3f} (targets 0.90/0.875/0.83 +-0.03), ordering strict, "
           f"OSCAR cost {cost:.0f} in [{0.9 * C:.0f}, {C + T * rhs:.0f}], "
           f"{elapsed:.0f}s (< 10 min)")


@pytest.mark.slow
def test_criterion_7_theorem1_bound_holds(default_run):
    cfg, result, _ = default_run
    C, T = cfg.budget.total_budget, cfg.budget.horizon
    violations = []
    for trial in range(cfg.trials):
        m = result.metrics[("OSCAR", trial)]
        overrun = sum(m.cost) / T - C / T
        rhs = theorem1_rhs(cfg.budget.q0, T, result.bounds[trial]["D"])
        if overrun > rhs:
            violations.append(trial)
    report(7, not violations,
           f"average budget overrun within theorem bound on all {cfg.trials} "
           f"OSCAR trials (violations: {violations})")


@pytest.mark.slow
@pytest.mark.parametrize("case", ["budget", "penalty_weight", "initial_queue"])
def test_criterion_8_sweep_trends(case):
    cfg = replace(default_config(), workers=2)
    if case == "budget":
        rows = sweep(cfg, "C", [2500, 5000, 10000], out_dir=None, quiet=True)
        ok = True
        for policy in cfg.policies:
            series = [r["final_success"] for r in rows if r["policy"] == policy]
            ok &= all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
        oscar = {r["value"]: r["final_success"] for r in rows if r["policy"] == "OSCAR"}
        mf = {r["value"]: r["final_success"] for r in rows if r["policy"] == "MF"}
        gaps = [oscar[v] - mf[v] for v in (2500, 5000, 10000)]
        ok &= all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        detail = (f"success nondecreasing in C for all policies, OSCAR-MF gap "
                  f"{[f'{g:.4f}' for g in gaps]} nonincreasing")
    elif case == "penalty_weight":
        cfg = replace(cfg, policies=("OSCAR",))
        rows = sweep(cfg, "V", [500, 2500, 10000], out_dir=None, quiet=True)
        utils = [r["final_utility"] for r in rows]
        costs = [r["final_cost"] for r in rows]
        ok = all(a <= b + 1e-12 for a, b in zip(utils, utils[1:]))
        ok &= all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))
        detail = (f"OSCAR utility {[f'{u:.3f}' for u in utils]} and cost "
                  f"{[f'{c:.0f}' for c in costs]} nondecreasing in V")
    else:
        cfg = replace(cfg, policies=("OSCAR",))
        rows = sweep(cfg, "q0", [0, 10, 100], out_dir=None, quiet=True)
        costs = [r["final_cost"] for r in rows]
        ok = all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
        detail = f"OSCAR cost {[f'{c:.0f}' for c in costs]} nonincreasing in q0"
    report(8, ok, detail)


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    for sub in ("first", "second"):
        code = cli_main(["run", "--config", "default", "--seed", "7",
                         "--out", str(tmp_path / sub)])
        assert code == 0
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("slots.csv", "summary.csv", "histogram.csv", "config.yaml")
    )
    report(9, identical, "two `run --config default --seed 7` runs byte-identical")
