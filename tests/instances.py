"""Randomized problem instances and independent oracles shared by tests.

The oracles deliberately avoid the allocator's code paths: the stationarity
root comes from plain bisection on the derivative, integer optima from
exhaustive enumeration, and fractional optima from dynamic programming over
a fixed 0.01 grid.  ``allocator_instance`` and ``relaxed_solution`` are not
oracles: they let a test run the allocator's stages one at a time.
``summation`` replays a test under the float summation of Python 3.12 and
later.
"""

import math
import sys
from contextlib import contextmanager
from itertools import product

import numpy as np

from qdnroute.allocation import PerSlotObjectiveParams, VariablePool, _Instance
from qdnroute.model import (
    Allocation,
    EdgeSpec,
    QdnGraph,
    SlotCapacities,
    slot_utility,
    verify_feasible,
)
from qdnroute.routes import RouteConfig, build_requests


def allocator_instance(graph, caps, routes, params, floor=-math.inf):
    """The instance ``allocate`` builds for ``routes``, from a fresh pool."""
    return _Instance(routes, VariablePool(graph, caps, params), floor)


def relaxed_solution(graph, caps, routes, params):
    """The relaxed stage alone: the relaxed point by (request, edge) key,
    and the relaxed objective."""
    inst = allocator_instance(graph, caps, routes, params)
    x, objective = inst.solve_relaxed()
    return dict(zip(inst.keys, x)), objective


def random_graph(rng, n, *, p_lo=0.25, p_hi=0.9, w_lo=1, w_hi=6, q_lo=2, q_hi=12):
    """Random spanning tree plus extra edges, random capacities and probs."""
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((min(u, v), max(u, v)))
    edges = tuple(
        EdgeSpec(u, v, int(rng.integers(w_lo, w_hi + 1)),
                 float(rng.uniform(p_lo, p_hi)), 1)
        for u, v in sorted(pairs)
    )
    qubits = tuple(int(x) for x in rng.integers(q_lo, q_hi + 1, n))
    return QdnGraph(qubits, edges)


def random_allocation_instance(rng, *, max_requests=3, max_hops=4, w_hi=6,
                               q_lo=2, q_hi=12, v_lo=1.0, v_hi=50.0, q_price_hi=3.0,
                               with_cost_cap=False):
    """A feasible (graph, caps, routes, params) tuple; resamples until the
    all-ones allocation fits."""
    for _ in range(500):
        g = random_graph(rng, int(rng.integers(4, 9)), w_hi=w_hi, q_lo=q_lo, q_hi=q_hi)
        caps = SlotCapacities.from_graph(g)
        count = int(rng.integers(1, max_requests + 1))
        pairs = [tuple(int(x) for x in rng.choice(g.node_count, size=2, replace=False))
                 for _ in range(count)]
        reqs = build_requests(g, pairs, RouteConfig(max_candidates=3, max_hops=max_hops))
        if not all(r.servable for r in reqs):
            continue
        routes = [r.candidates[int(rng.integers(len(r.candidates)))] for r in reqs]
        ones = Allocation({(r.request_id, eid): 1 for r in routes for eid in r.edges})
        if not verify_feasible(g, caps, routes, ones).ok:
            continue
        cost_cap = None
        if with_cost_cap:
            n_vars = sum(r.hops for r in routes)
            cost_cap = int(rng.integers(n_vars, 3 * n_vars + 1))
        params = PerSlotObjectiveParams(
            V=float(rng.uniform(v_lo, v_hi)),
            q=float(rng.uniform(0.0, q_price_hi)),
            cost_cap=cost_cap,
        )
        return g, caps, routes, params
    raise RuntimeError("could not build a feasible instance")


def random_infeasible_instance(rng, *, with_cost_cap=False):
    """A (graph, caps, routes, params) tuple whose all-ones allocation breaks
    a node or edge capacity; a cost cap, if any, admits the all-ones cost."""
    for _ in range(500):
        g = random_graph(rng, int(rng.integers(4, 8)), w_lo=1, w_hi=2, q_lo=1, q_hi=4)
        caps = SlotCapacities.from_graph(g)
        count = int(rng.integers(2, 5))
        pairs = [tuple(int(x) for x in rng.choice(g.node_count, size=2, replace=False))
                 for _ in range(count)]
        reqs = build_requests(g, pairs, RouteConfig(max_candidates=3, max_hops=4))
        if not all(r.servable for r in reqs):
            continue
        routes = [r.candidates[int(rng.integers(len(r.candidates)))] for r in reqs]
        ones = Allocation({(r.request_id, eid): 1 for r in routes for eid in r.edges})
        if verify_feasible(g, caps, routes, ones).ok:
            continue
        n_vars = sum(r.hops for r in routes)
        params = PerSlotObjectiveParams(
            V=float(rng.uniform(1.0, 50.0)),
            q=float(rng.uniform(0.0, 3.0)),
            cost_cap=int(rng.integers(n_vars, 3 * n_vars + 1)) if with_cost_cap else None,
        )
        return g, caps, routes, params
    raise RuntimeError("could not build an infeasible instance")


def instance_variables(graph, caps, routes, params):
    """Sorted (request, edge) keys with their success probs and box bounds."""
    keys, probs, boxes = [], {}, {}
    for route in routes:
        for eid in route.edges:
            key = (route.request_id, eid)
            keys.append(key)
            e = graph.edges[eid]
            probs[key] = graph.p_edge[eid]
            boxes[key] = min(caps.w_caps[eid], caps.q_caps[e.u], caps.q_caps[e.v])
    return sorted(keys), probs, boxes


def per_slot_objective(graph, routes, alloc, params):
    """Drift-plus-penalty objective ``V * utility - q * cost``."""
    return params.V * slot_utility(graph, routes, alloc) - params.q * alloc.cost


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 and later compute it (CPython's
    ``builtin_sum_impl``): a run of float terms is added with Neumaier's
    compensation, which earlier versions do not apply."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif type(item) is int:
                total += item
            else:
                if c and math.isfinite(c):
                    total += c
                total = total + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        total = total + item
    return total


SUMMATIONS = ("builtin", "compensated")


@contextmanager
def summation(kind):
    """Run the block with builtin ``sum``, or with ``compensated_sum``
    patched in for it in every loaded qdnroute module.  A test whose bits
    must not depend on the Python version runs its body under each kind of
    ``SUMMATIONS``."""
    modules = [module for name, module in list(sys.modules.items())
               if kind == "compensated" and name.split(".")[0] == "qdnroute"]
    for module in modules:
        module.sum = compensated_sum
    try:
        yield
    finally:
        for module in modules:
            del module.sum


def objective_of_counts(graph, routes, params, counts):
    """V * sum(ln P_e(n)) - q * sum(n), straight from the definitions."""
    total = 0.0
    for route in routes:
        for eid in route.edges:
            n = counts[(route.request_id, eid)]
            p = graph.p_edge[eid]
            total += params.V * math.log(-math.expm1(n * math.log1p(-p)))
            total -= params.q * n
    return total


def integer_optimum(graph, caps, routes, params, cap_per_var=6):
    """Exhaustive search over all feasible integer allocations."""
    keys, _, boxes = instance_variables(graph, caps, routes, params)
    ranges = [range(1, min(boxes[k], cap_per_var) + 1) for k in keys]
    best = -math.inf
    for combo in product(*ranges):
        counts = dict(zip(keys, combo))
        if params.cost_cap is not None and sum(combo) > params.cost_cap:
            continue
        alloc = Allocation(counts)
        if not verify_feasible(graph, caps, routes, alloc).ok:
            continue
        val = objective_of_counts(graph, routes, params, counts)
        if val > best:
            best = val
    return best


def stationarity_root(p_e, V, q, hi):
    """Bisection on V * d/dx ln(1 - (1-p)^x) = q over [1, hi]."""
    a = 1.0 - p_e
    lna = math.log(a)

    def slope(x):
        ax = math.exp(x * lna)
        return V * (-lna) * ax / (1.0 - ax) - q

    if q <= 0.0 or slope(hi) >= 0.0:
        return float(hi)
    if slope(1.0) <= 0.0:
        return 1.0
    lo, up = 1.0, float(hi)
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if slope(mid) > 0.0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


def grid_ticks(hi, step=0.01):
    """Grid 1, 1+step, ..., hi as exact tick indices over step units."""
    return np.arange(round(1 / step), round(hi / step) + 1) * step


def chain_grid_optimum(graph, caps, route, params, step=0.01):
    """Fine-grid DP oracle for a single-request chain.

    Variables sit on the route's edges; the only coupling constraints are
    the interior-node qubit caps between consecutive edges, so a forward
    pass with prefix maxima solves the grid problem exactly.
    """
    V, q = params.V, params.q
    per_step = round(1 / step)
    values = []
    ticks_list = []
    for eid in route.edges:
        e = graph.edges[eid]
        hi = min(caps.w_caps[eid], caps.q_caps[e.u], caps.q_caps[e.v])
        ticks = grid_ticks(hi, step)
        lna = math.log1p(-graph.p_edge[eid])
        vals = V * np.log(-np.expm1(ticks * lna)) - q * ticks
        ticks_list.append(ticks)
        values.append(vals)

    F = values[0].copy()
    for i in range(1, len(values)):
        shared_node = route.nodes[i]
        cap = caps.q_caps[shared_node]
        prefix = np.maximum.accumulate(F)
        prev_ticks = ticks_list[i - 1]
        F_next = np.full_like(values[i], -np.inf)
        for j, x in enumerate(ticks_list[i]):
            # largest allowed previous tick: x_prev <= cap - x
            limit = int(round(cap * per_step)) - int(round(x * per_step))
            idx = limit - int(round(prev_ticks[0] * per_step))
            idx = min(idx, len(prev_ticks) - 1)
            if idx >= 0:
                F_next[j] = values[i][j] + prefix[idx]
        F = F_next
    return float(F.max())


def pair_grid_optimum(graph, caps, routes, params, step=0.01):
    """Full-grid oracle for exactly two variables (any coupling)."""
    keys, probs, boxes = instance_variables(graph, caps, routes, params)
    assert len(keys) == 2
    g1 = grid_ticks(boxes[keys[0]], step)
    g2 = grid_ticks(boxes[keys[1]], step)
    lna1 = math.log1p(-probs[keys[0]])
    lna2 = math.log1p(-probs[keys[1]])
    v1 = params.V * np.log(-np.expm1(g1 * lna1)) - params.q * g1
    v2 = params.V * np.log(-np.expm1(g2 * lna2)) - params.q * g2
    total = v1[:, None] + v2[None, :]
    x1 = g1[:, None]
    x2 = g2[None, :]
    feasible = np.ones_like(total, dtype=bool)
    # shared node / edge / budget caps couple the two variables linearly
    (r1, e1), (r2, e2) = keys
    ea, eb = graph.edges[e1], graph.edges[e2]
    if e1 == e2:
        feasible &= x1 + x2 <= caps.w_caps[e1]
    for v in set((ea.u, ea.v)) & set((eb.u, eb.v)):
        feasible &= x1 + x2 <= caps.q_caps[v]
    if params.cost_cap is not None:
        feasible &= x1 + x2 <= params.cost_cap
    return float(np.where(feasible, total, -np.inf).max())
