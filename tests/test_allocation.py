"""Unit tests for the relax-and-round allocator.

Core claims:
    - the per_slot_objective oracle and delta_gap reproduce hand-computed
      values; delta_gap is 0 on a saturated link
    - on single-variable problems the relaxed solution matches an
      independent bisection root of the stationarity condition
    - on chains and two-variable instances the relaxed objective matches
      fine-grid oracles (DP and full enumeration, step 0.01)
    - rounding floors the relaxed point, counting a value just below an
      integer as that integer, fills surplus greedily, and always
      returns a feasible integer point within 1 of the relaxed one; an
      infeasible relaxed point raises instead of being returned
    - the end-to-end allocation is within the additive delta_gap bound of
      the exhaustive integer optimum
    - infeasible selections raise; budget caps are hard; raising the cost
      price never increases the returned cost
    - the one-pass projection returns exactly what repeated passes until
      none changes anything return, and leaves every constraint within cap
    - allocate() and relaxed-stage outputs on a fixed instance set match
      recorded digests bit for bit
    - the projection and both digests hold with builtin sum replaced by the
      compensated float sum of Python 3.12 and later
    - allocate(floor=...) either returns exactly what allocate() returns or
      raises DominatedError with a bound that is at least the objective and
      below the floor; on a selection that breaks a node or edge capacity
      it raises InfeasibleSelectionError, or DominatedError with a bound
      below the floor before the capacities or the all-ones budget are
      checked; the error's message names its bound and survives pickling;
      a pool whose kept table prices the budget cuts before the join a call
      that a fresh pool's zero-multiplier bound leaves to the dual solve
    - whenever the dual solve starts a Newton search, the members' x equal
      a fresh evaluation at their current prices bit for bit, and from a
      positive multiplier so do their slopes, also at a multiplier that a
      warm start took from the pool's table
    - a solve warm-started from a kept or random nonnegative table ends
      within the gap tolerance of a cold solve's relaxed objective, capped
      or uncapped, at q = 0 and q > 0; any cut's bound is at least the
      relaxed optimum, and against a floor outside that band both solves
      make the same cut decision
    - each block's zero-multiplier bound and its Lagrangian part at a
      random table match a per-edge sum at the bisection root, and the
      part names exactly the bits of the priced sites the block touches
    - when the safeguarded Newton search runs out of steps, the trial
      values it leaves are those at the multiplier it returns; a solve
      that ends on a sweep moving no multiplier returns the best projected
      point of its sweeps, feasible and near the converged objective
    - allocate(pool=...) with one VariablePool shared by every route
      combination of a slot gives the same kind of outcome as allocate()
      without a pool, floor or no floor: where the bits differ, both
      allocations are feasible and their relaxed objectives agree within
      the gap tolerance, or one call is cut by a bound that is at least the
      relaxed optimum, by a floor inside the gap band when the pooled call
      is not cut; on slots where warm and cold solves stop on either side
      of an integer, pooled calls without a floor give the same bits; slot
      capacities that do not fit the graph, or are negative on a route,
      are rejected
    - bad objective weights, unbound routes and routes that repeat an edge
      are rejected with a message; a route over a slot capacity of 0 is
      infeasible at q = 0 as at q > 0, before any floor cut
"""

import hashlib
import math
import pickle
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from instances import (
    SUMMATIONS,
    allocator_instance,
    chain_grid_optimum,
    instance_variables,
    integer_optimum,
    pair_grid_optimum,
    per_slot_objective,
    random_allocation_instance,
    random_graph,
    random_infeasible_instance,
    relaxed_solution,
    stationarity_root,
    summation,
)
from qdnroute import allocation
from qdnroute.allocation import (
    DominatedError,
    InfeasibleSelectionError,
    NoConvergenceError,
    PerSlotObjectiveParams,
    VariablePool,
    _GAP_TOL,
    _SNAP_TOL,
    _Instance,
    allocate,
    delta_gap,
)
from qdnroute.harness import default_config
from qdnroute.model import (
    Allocation,
    EdgeSpec,
    QdnGraph,
    Route,
    SlotCapacities,
    verify_feasible,
)
from qdnroute.routes import CandidateCache, RouteConfig, build_requests
from qdnroute.topology import generate_waxman, sample_requests, sample_slot_capacities


def single_edge_setup(p_e=0.5, channels=10, qubits=20):
    g = QdnGraph((qubits, qubits), (EdgeSpec(0, 1, channels, p_e, 1),))
    caps = SlotCapacities.from_graph(g)
    route = Route.from_nodes(g, [0, 1], request_id=0)
    return g, caps, route


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda g: PerSlotObjectiveParams(V=0.0), "V must be positive"),
        (lambda g: PerSlotObjectiveParams(V=-1.0), "V must be positive"),
        (lambda g: PerSlotObjectiveParams(V=1.0, q=-0.5), "q must be >= 0"),
        (lambda g: PerSlotObjectiveParams(V=1.0, cost_cap=-1), "cost_cap must be >= 0"),
        (lambda g: allocate(g, SlotCapacities.from_graph(g), [Route.from_nodes(g, [0, 1])],
                            PerSlotObjectiveParams(V=1.0)),
         "routes must be bound to a request id"),
        (lambda g: allocate(g, SlotCapacities.from_graph(g), [Route(0, (0, 0), (0, 1, 0))],
                            PerSlotObjectiveParams(V=1.0)),
         r"duplicate \(request, edge\) variable; one route per request"),
        (lambda g: allocate(g, SlotCapacities.from_graph(g), [Route(0, (), (0,))],
                            PerSlotObjectiveParams(V=1.0)),
         r"route \(0,\) of request 0 needs edges in 0..0, got \(\)"),
        (lambda g: allocate(g, SlotCapacities.from_graph(g), [Route(0, (5,), (0, 1))],
                            PerSlotObjectiveParams(V=1.0)),
         r"route \(0, 1\) of request 0 needs edges in 0..0, got \(5,\)"),
        (lambda g: allocate(g, SlotCapacities.from_graph(g), [Route(0, (-1,), (1, 0))],
                            PerSlotObjectiveParams(V=1.0)),
         r"route \(1, 0\) of request 0 needs edges in 0..0, got \(-1,\)"),
    ], ids=["V=0", "V<0", "q<0", "cost_cap<0", "unbound route", "repeated edge",
            "no edge", "edge past the graph", "negative edge"])
    def test_rejected_with_message(self, build, message):
        g = QdnGraph((20, 20), (EdgeSpec(0, 1, 10, 0.5, 1),))
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(g)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    @pytest.mark.parametrize("q_caps, w_caps, eid", [
        ((20, 20, 20), (10, 0), 1),
        ((20, 0, 20), (10, 10), 0),
    ])
    def test_zero_capacity_on_route_is_infeasible(self, q, q_caps, w_caps, eid):
        # At q = 0 the box maximizer of a variable whose box is 0 is 0, whose
        # log-success is undefined; the route is infeasible whatever q is,
        # and says so before any floor cut.
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        caps = SlotCapacities(q_caps, w_caps)
        params = PerSlotObjectiveParams(V=1.0, q=q)
        message = f"^edge {eid}: 1 channel exceeds its slot box of 0$"
        for floor in (-math.inf, 1e6):
            with pytest.raises(InfeasibleSelectionError, match=message):
                allocate(g, caps, [route], params, floor=floor)


class TestPerSlotObjective:
    def test_penalty_vanishes_at_zero_queue(self):
        g, caps, route = single_edge_setup()
        alloc = Allocation({(0, 0): 2})
        p0 = PerSlotObjectiveParams(V=3.0, q=0.0)
        assert per_slot_objective(g, [route], alloc, p0) == approx(
            3.0 * math.log(0.75), abs=1e-12)

    def test_hand_value(self):
        g, caps, route = single_edge_setup()
        alloc = Allocation({(0, 0): 2})
        params = PerSlotObjectiveParams(V=1.0, q=1.0)
        # V ln P(2) - q*2 with P(2) = 0.75
        assert per_slot_objective(g, [route], alloc, params) == approx(
            math.log(0.75) - 2.0, abs=1e-12)

    def test_single_channel_reference(self):
        g, caps, route = single_edge_setup()
        alloc = Allocation({(0, 0): 2})
        # ln 0.5 - 2 for an edge held at P = 0.5: use two channels of the
        # p that makes P(2) = 0.5, simpler to check linearity in V instead
        p1 = PerSlotObjectiveParams(V=1.0, q=0.0)
        p2 = PerSlotObjectiveParams(V=2.0, q=0.0)
        assert per_slot_objective(g, [route], alloc, p2) == approx(
            2 * per_slot_objective(g, [route], alloc, p1), rel=1e-12)


class TestDeltaGap:
    def test_values(self):
        assert delta_gap(1, 1, 1, 0.5) == approx(math.log(1.5), abs=1e-12)
        assert delta_gap(2, 1, 1, 0.5) == approx(2 * math.log(1.5), abs=1e-12)
        assert delta_gap(1, 1, 1, 1 - 1e-12) == approx(0.0, abs=1e-9)
        # A saturated link's success rounds to 1.0; ln(2 - 1) = 0.
        assert delta_gap(2500.0, 5, 6, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_gap(1, 1, 1, 0.0)
        with pytest.raises(ValueError):
            delta_gap(1, 1, 1, 1.5)


class TestSolveRelaxedSingleVariable:
    def test_interior_root(self):
        # stationarity: -(0.5)^x ln 0.5 / (1 - 0.5^x) = 0.1 at p=0.5, V=1;
        # 40-digit root frozen below
        g, caps, route = single_edge_setup(p_e=0.5)
        params = PerSlotObjectiveParams(V=1.0, q=0.1)
        values, _ = relaxed_solution(g, caps, [route], params)
        root = stationarity_root(0.5, 1.0, 0.1, hi=10)
        assert values[(0, 0)] == approx(root, abs=1e-6)
        assert values[(0, 0)] == approx(2.9875886048467517, abs=1e-6)

    def test_all_ones_when_price_dominates(self):
        g, caps, route = single_edge_setup(p_e=0.5)
        # V(ln P(2) - ln P(1)) = ln(1.5) ~ 0.405 < q
        params = PerSlotObjectiveParams(V=1.0, q=5.0)
        values, _ = relaxed_solution(g, caps, [route], params)
        assert values[(0, 0)] == approx(1.0, abs=1e-9)

    def test_saturates_cap_at_zero_price(self):
        g, caps, route = single_edge_setup(p_e=0.5, channels=7)
        params = PerSlotObjectiveParams(V=1.0, q=0.0)
        values, _ = relaxed_solution(g, caps, [route], params)
        assert values[(0, 0)] == approx(7.0, abs=1e-9)

    def test_random_instances_match_bisection(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = float(rng.uniform(0.2, 0.95))
            channels = int(rng.integers(2, 10))
            g, caps, route = single_edge_setup(p_e=p, channels=channels)
            params = PerSlotObjectiveParams(
                V=float(rng.uniform(0.5, 100.0)), q=float(rng.uniform(0.0, 5.0)))
            values, _ = relaxed_solution(g, caps, [route], params)
            root = stationarity_root(p, params.V, params.q, hi=channels)
            assert values[(0, 0)] == approx(root, abs=1e-5)


class TestSolveRelaxedMultiVariable:
    def test_chain_matches_grid_dp(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 60:
            g = random_graph(rng, int(rng.integers(5, 9)), w_hi=6, q_lo=2, q_hi=8)
            caps = SlotCapacities.from_graph(g)
            # random simple chain of 2-4 edges
            start = int(rng.integers(g.node_count))
            nodes = [start]
            target = int(rng.integers(2, 5))
            while len(nodes) <= target:
                nbrs = [n for n, _ in g.adjacency[nodes[-1]] if n not in nodes]
                if not nbrs:
                    break
                nodes.append(int(rng.choice(nbrs)))
            if len(nodes) < 3:
                continue
            route = Route.from_nodes(g, nodes, request_id=0)
            params = PerSlotObjectiveParams(
                V=float(rng.uniform(10.0, 40.0)), q=float(rng.uniform(0.2, 2.0)))
            _, objective = relaxed_solution(g, caps, [route], params)
            oracle = chain_grid_optimum(g, caps, route, params)
            assert abs(objective - oracle) <= 1e-4 * max(1.0, abs(oracle))
            done += 1

    def test_two_requests_sharing_an_edge(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = float(rng.uniform(0.3, 0.9))
            w = int(rng.integers(2, 7))
            qcap = int(rng.integers(2, 10))
            g = QdnGraph((qcap, qcap), (EdgeSpec(0, 1, w, p, 1),))
            caps = SlotCapacities.from_graph(g)
            routes = [Route.from_nodes(g, [0, 1], request_id=0),
                      Route.from_nodes(g, [0, 1], request_id=1)]
            if min(w, qcap) < 2:
                continue
            params = PerSlotObjectiveParams(
                V=float(rng.uniform(10.0, 40.0)), q=float(rng.uniform(0.2, 2.0)))
            _, objective = relaxed_solution(g, caps, routes, params)
            oracle = pair_grid_optimum(g, caps, routes, params)
            assert abs(objective - oracle) <= 1e-4 * max(1.0, abs(oracle))

    def test_relaxed_point_is_feasible(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            g, caps, routes, params = random_allocation_instance(rng)
            values, _ = relaxed_solution(g, caps, routes, params)
            keys, _, boxes = instance_variables(g, caps, routes, params)
            node_load = {}
            edge_load = {}
            for route in routes:
                for eid in route.edges:
                    x = values[(route.request_id, eid)]
                    assert 1.0 - 1e-9 <= x <= boxes[(route.request_id, eid)] + 1e-9
                    e = g.edges[eid]
                    node_load[e.u] = node_load.get(e.u, 0.0) + x
                    node_load[e.v] = node_load.get(e.v, 0.0) + x
                    edge_load[eid] = edge_load.get(eid, 0.0) + x
            for v, load in node_load.items():
                assert load <= caps.q_caps[v] + 1e-7
            for eid, load in edge_load.items():
                assert load <= caps.w_caps[eid] + 1e-7


def round_relaxed(g, caps, routes, params, values):
    """The rounding stage alone, on a relaxed point given by key."""
    inst = allocator_instance(g, caps, routes, params)
    counts = inst.round_down_and_fill([values[key] for key in inst.keys])
    return Allocation(dict(zip(inst.keys, counts)))


class TestRounding:
    def test_floor_when_price_kills_gains(self):
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        caps = SlotCapacities.from_graph(g)
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        params = PerSlotObjectiveParams(V=1.0, q=100.0)
        alloc = round_relaxed(g, caps, [route], params, {(0, 0): 2.7, (0, 1): 1.2})
        assert alloc.get(0, 0) == 2 and alloc.get(0, 1) == 1

    def test_integral_point_unchanged(self):
        g, caps, route = single_edge_setup()
        params = PerSlotObjectiveParams(V=1.0, q=100.0)
        alloc = round_relaxed(g, caps, [route], params, {(0, 0): 2.0})
        assert alloc.get(0, 0) == 2

    def test_snaps_just_below_an_integer(self):
        # A dual solve stops anywhere in its gap band, so a relaxed optimum
        # at 3 may come back as 2.99994; within _SNAP_TOL of 3 it floors to 3,
        # farther below to 2.
        g, caps, route = single_edge_setup()
        params = PerSlotObjectiveParams(V=1.0, q=100.0)
        for x, want in ((3.0 - 0.6 * _SNAP_TOL, 3), (3.0 - 2.0 * _SNAP_TOL, 2)):
            assert round_relaxed(g, caps, [route], params, {(0, 0): x}).get(0, 0) == want

    def test_surplus_fills_to_cap_at_zero_price(self):
        g, caps, route = single_edge_setup(p_e=0.5, channels=3)
        params = PerSlotObjectiveParams(V=1.0, q=0.0)
        alloc = round_relaxed(g, caps, [route], params, {(0, 0): 1.9})
        assert alloc.get(0, 0) == 3

    def test_rounding_invariants_random(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            g, caps, routes, params = random_allocation_instance(
                rng, with_cost_cap=bool(rng.integers(2)))
            inst = allocator_instance(g, caps, routes, params)
            x_relaxed, _ = inst.solve_relaxed()
            counts = inst.round_down_and_fill(x_relaxed)
            alloc = Allocation(dict(zip(inst.keys, counts)))
            for key, x in zip(inst.keys, x_relaxed):
                n = alloc.get(*key)
                assert n >= 1
                assert x - n <= 1.0 + 1e-9
            assert verify_feasible(g, caps, routes, alloc).ok
            if params.cost_cap is not None:
                assert alloc.cost <= params.cost_cap

    def test_infeasible_relaxed_point_raises(self):
        g = QdnGraph((10, 10), (EdgeSpec(0, 1, 3, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        routes = [Route.from_nodes(g, [0, 1], request_id=0),
                  Route.from_nodes(g, [0, 1], request_id=1)]
        params = PerSlotObjectiveParams(V=1.0, q=0.0)
        # floors to 2 + 2 channels on an edge that holds 3
        with pytest.raises(NoConvergenceError):
            round_relaxed(g, caps, routes, params, {(0, 0): 2.0, (1, 0): 2.5})
        # floors above the variable's own box
        with pytest.raises(NoConvergenceError):
            round_relaxed(g, caps, routes[:1], params, {(0, 0): 4.5})

    def test_failed_projection_is_not_returned(self, monkeypatch):
        # A projection that gives up leaves every variable at its box; the
        # allocator must refuse the result, not hand out an infeasible point.
        g = QdnGraph((10, 10), (EdgeSpec(0, 1, 3, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        routes = [Route.from_nodes(g, [0, 1], request_id=0),
                  Route.from_nodes(g, [0, 1], request_id=1)]
        monkeypatch.setattr(_Instance, "_project", lambda self, x: (list(self.hi), True))
        with pytest.raises(NoConvergenceError):
            allocate(g, caps, routes, PerSlotObjectiveParams(V=1.0, q=0.0))


def _project_by_passes(constraints, x):
    """Projection oracle: repeat passes over the constraints, scaling each
    overloaded one toward 1, until a pass changes nothing (at most 50)."""
    changed = False
    for _ in range(50):
        clean = True
        for members, cap in constraints:
            load = 0.0
            for i in members:
                load += x[i]
            if load > cap + 1e-12:
                k = len(members)
                rho = (cap - k) / (load - k) if load > k else 0.0
                rho = min(max(rho, 0.0), 1.0)
                for i in members:
                    x[i] = 1.0 + (x[i] - 1.0) * rho
                clean = False
                changed = True
        if clean:
            break
    return x, changed


class TestProjection:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(),
           top_share=st.floats(0.0, 1.0))
    def test_one_pass_matches_repeated_passes(self, seed, capped, top_share):
        rng = np.random.default_rng(seed)
        inst = allocator_instance(*random_allocation_instance(rng, with_cost_cap=capped))
        # Points inside the boxes [1, hi], a share of them at the top.
        x = [h if rng.random() < top_share else float(rng.uniform(1.0, h))
             for h in inst.hi]
        want, want_changed = _project_by_passes(inst.constraints, list(x))
        for kind in SUMMATIONS:
            with summation(kind):
                got, changed = inst._project(list(x))
            assert [v.hex() for v in got] == [v.hex() for v in want], kind
            assert changed == want_changed
        for members, cap in inst.constraints:
            assert sum(got[i] for i in members) <= cap + 1e-12


def _overloaded_instances(seed, count):
    """Random instances (with and without a budget) whose start, every
    variable at its box maximizer, overloads some coupling constraint."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        args = random_allocation_instance(rng, with_cost_cap=bool(found % 2))
        inst = allocator_instance(*args)
        if any(sum(inst.x0[i] for i in m) > cap for m, cap in inst.constraints):
            found += 1
            yield args


class TestFallbackExits:
    def test_newton_step_cap_leaves_trial_values_at_returned_price(self, monkeypatch):
        # With one step the search ends on a guess it has not evaluated; it
        # must evaluate it before returning, so the caller's trial values
        # are those of the multiplier it adopts.
        monkeypatch.setattr(allocation, "_NEWTON_STEPS", 1)
        for args in _overloaded_instances(83, 40):
            inst = allocator_instance(*args)
            n = len(inst.keys)
            theta = [inst.q] * n
            for members, cap in inst.constraints:
                trial_x, trial_slope = [0.0] * n, [0.0] * n
                nu = inst._meet_cap(members, cap, theta, 0.0, inst.x0, [0.0] * n,
                                    trial_x, trial_slope)
                want_x, want_slope = [0.0] * n, [0.0] * n
                inst._load(members, theta, nu, want_x, want_slope)
                assert trial_x == want_x and trial_slope == want_slope

    def test_stalled_sweep_returns_best_projected_point(self, monkeypatch):
        # A gap tolerance of 0 still lets a solve stop on the gap test when
        # the gap rounds to 0 or below; -inf leaves a sweep that moves no
        # multiplier as the only way out.
        expected = {}
        for k, args in enumerate(_overloaded_instances(89, 40)):
            expected[k] = allocator_instance(*args).solve_relaxed()[1]
        monkeypatch.setattr(allocation, "_GAP_TOL", -math.inf)
        project = _Instance._project
        points = []

        def recording_project(self, x):
            feas, changed = project(self, x)
            points.append(feas)
            return feas, changed

        monkeypatch.setattr(_Instance, "_project", recording_project)
        for k, args in enumerate(_overloaded_instances(89, 40)):
            inst = allocator_instance(*args)
            points.clear()
            x, f = inst.solve_relaxed()
            values = [inst._value(p, p)[0] for p in points]
            assert x is points[values.index(max(values))] and f == max(values)
            assert abs(f - expected[k]) <= 1e-3 * max(1.0, abs(expected[k]))
            assert all(1.0 <= xi <= hi for xi, hi in zip(x, inst.hi))
            for members, cap in inst.constraints:
                assert sum(x[i] for i in members) <= cap + 1e-9

    def test_update_cap_ends_a_sweep_midway(self, monkeypatch):
        # All three constraints of this instance start over their caps, so
        # without the mid-sweep exit the first sweep would price all three.
        inst = allocator_instance(*random_allocation_instance(np.random.default_rng(2)))
        assert [sum(inst.x0[i] for i in m) > cap for m, cap in inst.constraints] == [True] * 3
        monkeypatch.setattr(allocation, "_MAX_MULTIPLIER_UPDATES", 1)
        with pytest.raises(NoConvergenceError, match="after 1 multiplier updates"):
            inst.solve_relaxed()


class TestAllocate:
    def test_unique_feasible_point(self):
        g = QdnGraph((1, 1), (EdgeSpec(0, 1, 1, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        route = Route.from_nodes(g, [0, 1], request_id=0)
        alloc, f = allocate(g, caps, [route], PerSlotObjectiveParams(V=1.0, q=0.0))
        assert alloc.get(0, 0) == 1
        assert f == approx(math.log(0.5), abs=1e-12)

    def test_infeasible_raises(self):
        g = QdnGraph((1, 1), (EdgeSpec(0, 1, 1, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        routes = [Route.from_nodes(g, [0, 1], request_id=0),
                  Route.from_nodes(g, [0, 1], request_id=1)]
        with pytest.raises(InfeasibleSelectionError):
            allocate(g, caps, routes, PerSlotObjectiveParams(V=1.0, q=0.0))

    def test_budget_cap_is_hard(self):
        g, caps, route = single_edge_setup(p_e=0.5, channels=10)
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=4)
        alloc, _ = allocate(g, caps, [route], params)
        assert alloc.cost == 4
        with pytest.raises(InfeasibleSelectionError):
            allocate(g, caps, [route], PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=0))

    def test_delta_gap_bound_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g, caps, routes, params = random_allocation_instance(
                rng, max_requests=2, max_hops=3, w_hi=6, q_lo=2, q_hi=6)
            if sum(r.hops for r in routes) > 6:
                continue
            alloc, achieved = allocate(g, caps, routes, params)
            opt = integer_optimum(g, caps, routes, params)
            F = len(routes)
            L = max(r.hops for r in routes)
            p_min = min(g.p_edge)
            assert opt - achieved <= delta_gap(params.V, F, L, p_min) + 1e-9

    def test_achieved_matches_reported_objective(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            g, caps, routes, params = random_allocation_instance(rng)
            alloc, achieved = allocate(g, caps, routes, params)
            direct = per_slot_objective(g, routes, alloc, params)
            assert achieved == approx(direct, rel=1e-9, abs=1e-9)

    def test_cost_monotone_in_price(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            g, caps, routes, params = random_allocation_instance(rng, q_price_hi=0.0)
            prev_cost = None
            for q_price in (0.0, 0.3, 1.0, 3.0, 10.0):
                p = PerSlotObjectiveParams(V=params.V, q=q_price)
                alloc, _ = allocate(g, caps, routes, p)
                if prev_cost is not None:
                    assert alloc.cost <= prev_cost
                prev_cost = alloc.cost


# SHA-256 of every allocate() output, and of every relaxed-stage output,
# on the instance set below.  A change that moves any output bit (an
# allocation entry, a relaxed value, or an objective's last ulp) changes
# one; update it only for a change that alters allocator outputs on purpose.
# The relaxed digest also catches a change of the solve's path that rounding
# hides, such as a reordering of the coupling constraints.
PINNED_OUTPUTS_SHA256 = "156ccf48727b5d8952e60f8b1d27565cf94d5cc98b7eccab7c167a5a716654c6"
PINNED_RELAXED_SHA256 = "d091f4281f98d8f2383c1c21925a01bef35f98bd21c3cb6e65b922c983a0c0b8"


def _pinned_instances():
    """(key, graph, caps, routes, params) for each instance of the pinned set."""
    rng = np.random.default_rng(59)
    for k in range(200):
        yield (f"random{k}",
               *random_allocation_instance(rng, with_cost_cap=bool(k % 2)))

    # Every route combination of the first slots of the default config's
    # trial 0, priced by a queue (OSCAR) and under a hard slot cap (MA/MF).
    cfg = default_config()
    graph = generate_waxman(replace(cfg.topology, seed=cfg.seed), cfg.capacities)
    cache = CandidateCache(graph, cfg.route)
    budget = cfg.budget
    priced = PerSlotObjectiveParams(V=budget.V, q=budget.q0)
    capped = PerSlotObjectiveParams(
        V=budget.V, q=0.0, cost_cap=budget.total_budget // budget.horizon)
    for t in range(10):
        caps = sample_slot_capacities(graph, cfg.capacities, t, cfg.seed)
        reqs = build_requests(graph, sample_requests(graph, cfg.workload, t, cfg.seed),
                              cfg.route, cache)
        reqs = [r for r in reqs if r.servable]
        for choice in product(*(range(len(r.candidates)) for r in reqs)):
            routes = [r.candidates[c] for r, c in zip(reqs, choice)]
            for tag, params in (("priced", priced), ("capped", capped)):
                yield f"slot{t}{choice}{tag}", graph, caps, routes, params


def _pinned_digest(render):
    """SHA-256 over ``render(graph, caps, routes, params)`` of each pinned
    instance, or the name of the allocator error it raises."""
    h = hashlib.sha256()
    for key, *instance in _pinned_instances():
        try:
            line = render(*instance)
        except (InfeasibleSelectionError, NoConvergenceError) as exc:
            line = type(exc).__name__
        h.update(f"{key}:{line}\n".encode())
    return h.hexdigest()


def test_outputs_pinned():
    def render(*instance):
        alloc, f = allocate(*instance)
        return f"{sorted(alloc.items())!r}:{f.hex()}"

    for kind in SUMMATIONS:
        with summation(kind):
            assert _pinned_digest(render) == PINNED_OUTPUTS_SHA256, kind


def test_relaxed_pinned():
    def render(*instance):
        values, objective = relaxed_solution(*instance)
        values = ",".join(v.hex() for _, v in sorted(values.items()))
        return f"{values}:{objective.hex()}"

    for kind in SUMMATIONS:
        with summation(kind):
            assert _pinned_digest(render) == PINNED_RELAXED_SHA256, kind


def _margin(f):
    return 1e-9 * (1.0 + abs(f))


class TestFloor:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(),
           rel=st.floats(-1e-6, 1e-6) | st.floats(-0.5, 0.5) | st.floats(-50.0, 50.0))
    def test_exact_or_certified(self, seed, capped, rel):
        rng = np.random.default_rng(seed)
        g, caps, routes, params = random_allocation_instance(rng, with_cost_cap=capped)
        try:
            alloc, f = allocate(g, caps, routes, params)
        except NoConvergenceError:
            with pytest.raises((NoConvergenceError, DominatedError)):
                allocate(g, caps, routes, params, floor=0.0)
            return
        floor = f + rel * (1.0 + abs(f))
        try:
            alloc2, f2 = allocate(g, caps, routes, params, floor=floor)
        except DominatedError as exc:
            assert f - _margin(f) <= exc.bound < floor
        else:
            assert sorted(alloc2.items()) == sorted(alloc.items())
            assert f2.hex() == f.hex()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(),
           floor=st.floats(-400.0, 50.0))
    def test_infeasible_or_certified(self, seed, capped, floor):
        rng = np.random.default_rng(seed)
        g, caps, routes, params = random_infeasible_instance(rng, with_cost_cap=capped)
        with pytest.raises(InfeasibleSelectionError):
            allocate(g, caps, routes, params)
        with pytest.raises((DominatedError, InfeasibleSelectionError)) as info:
            allocate(g, caps, routes, params, floor=floor)
        if info.type is DominatedError:
            assert info.value.bound < floor

    def test_infeasible_cut_before_coupling(self):
        # The first bound needs no coupling constraint: a floor above it cuts
        # an infeasible selection, a floor far below it reaches the check.
        rng = np.random.default_rng(79)
        for k in range(50):
            g, caps, routes, params = random_infeasible_instance(
                rng, with_cost_cap=bool(k % 2))
            with pytest.raises(DominatedError):
                allocate(g, caps, routes, params, floor=1e6)
            with pytest.raises(InfeasibleSelectionError):
                allocate(g, caps, routes, params, floor=-1e6)
        # The bound from the routes' blocks also comes before the all-ones
        # budget check.
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        params = PerSlotObjectiveParams(V=1.0, cost_cap=1)
        caps = SlotCapacities.from_graph(g)
        with pytest.raises(DominatedError):
            allocate(g, caps, [route], params, floor=1e6)
        with pytest.raises(InfeasibleSelectionError,
                           match="^all-ones cost 2 exceeds slot budget 1$"):
            allocate(g, caps, [route], params, floor=-1e6)

    def test_floor_above_relaxed_optimum_cuts(self):
        # Both the pre-loop bound and the per-sweep dual values get used.
        rng = np.random.default_rng(71)
        for k in range(100):
            g, caps, routes, params = random_allocation_instance(
                rng, with_cost_cap=bool(k % 2))
            relaxed = relaxed_solution(g, caps, routes, params)[1]
            for floor in (relaxed + 1e-3 * (1.0 + abs(relaxed)), relaxed + 1e6):
                with pytest.raises(DominatedError) as info:
                    allocate(g, caps, routes, params, floor=floor)
                assert relaxed - _margin(relaxed) <= info.value.bound < floor

    def test_cut_message(self):
        # The message is built when it is shown, not on every cut.
        exc = DominatedError(0.1 + 0.2)
        assert str(exc) == "relaxed optimum is at most 0.30000000000000004, below the floor"
        again = pickle.loads(pickle.dumps(exc))
        assert (again.bound, str(again)) == (exc.bound, str(exc))

    @staticmethod
    def budget_squeeze():
        # At zero price the box maximizer sits at its cap of 10 channels, far
        # above the budget of 1, so the zero-multiplier bound is loose; the
        # floor lies halfway between the objective with and without the
        # budget.
        g, caps, route = single_edge_setup(p_e=0.5, channels=10)
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=1)
        f = allocate(g, caps, [route], params)[1]
        unbudgeted = allocate(g, caps, [route], PerSlotObjectiveParams(V=1.0, q=0.0))[1]
        return g, caps, route, params, f, 0.5 * (f + unbudgeted)

    def test_kept_budget_multiplier_cuts_before_join(self):
        g, caps, route, params, f, floor = self.budget_squeeze()
        pool = VariablePool(g, caps, params)
        allocate(g, caps, [route], params, pool=pool)
        assert set(pool._table[0]) == {(2, 0)}
        with pytest.raises(DominatedError) as info:
            allocation._Instance([route], pool, floor)
        assert f - _margin(f) <= info.value.bound < floor

    def test_zero_multiplier_bound_leaves_cut_to_dual_solve(self):
        # A fresh pool keeps no table: the instance is built, and the first
        # sweep's dual value cuts it.
        g, caps, route, params, f, floor = self.budget_squeeze()
        inst = allocator_instance(g, caps, [route], params, floor)
        with pytest.raises(DominatedError) as info:
            inst.solve_relaxed()
        assert f - _margin(f) <= info.value.bound < floor


def _outcome(call):
    """What an allocate() call gives, as bits: the allocation and the
    objective, or the error's name and a cut's certified bound."""
    try:
        alloc, f = call()
    except DominatedError as exc:
        return "DominatedError", exc.bound.hex()
    except (InfeasibleSelectionError, NoConvergenceError) as exc:
        return type(exc).__name__
    return sorted(alloc.items()), f.hex()


def slot_instance(rng, capped, free):
    """A random graph and 1-5 servable requests with 1-3 candidates each;
    some route combinations may break a capacity or the budget."""
    while True:
        g = random_graph(rng, int(rng.integers(4, 9)))
        pairs = [tuple(int(x) for x in rng.choice(g.node_count, size=2, replace=False))
                 for _ in range(int(rng.integers(1, 6)))]
        reqs = [r for r in build_requests(g, pairs, RouteConfig(max_candidates=3, max_hops=4))
                if r.servable]
        if reqs:
            break
    params = PerSlotObjectiveParams(
        V=float(rng.uniform(1.0, 50.0)),
        q=0.0 if free else float(rng.uniform(0.0, 3.0)),
        cost_cap=int(rng.integers(len(reqs), 12 * len(reqs) + 1)) if capped else None,
    )
    return g, SlotCapacities.from_graph(g), reqs, params


def _relaxed_objective(solve):
    """The relaxed objective ``solve()`` returns, or None if it raises."""
    try:
        return solve()
    except (DominatedError, InfeasibleSelectionError, NoConvergenceError):
        return None


class TestVariablePool:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(), free=st.booleans())
    # Three pooled calls warm-start from another combination's multipliers
    # and stop at a relaxed x of 2.99994 where the cold ones stop at 3.0;
    # without rounding's snap the warm calls return -140.060 against the
    # cold calls' -140.518.
    @example(seed=9, capped=False, free=False)
    def test_same_outcome_as_without_pool(self, seed, capped, free):
        g, caps, reqs, params = slot_instance(np.random.default_rng(seed), capped, free)
        combos = [[r.candidates[c] for r, c in zip(reqs, choice)]
                  for choice in product(*(range(len(r.candidates)) for r in reqs))]
        plain = [_outcome(lambda: allocate(g, caps, routes, params)) for routes in combos]
        fs = sorted(float.fromhex(out[1]) for out in plain
                    if isinstance(out, tuple) and out[0] != "DominatedError")
        mid = fs[len(fs) // 2] if fs else 0.0
        high = fs[-1] + 1.0 + abs(fs[-1]) if fs else 1e6
        # One pool for the whole slot, shared by every call as in a route
        # search; the routes' order does not matter.  Each pooled solve
        # starts from the multipliers the pool kept from its best solve, so
        # it ends within the duality gap of the relaxed optimum, as the
        # unpooled solve does, but not always at the same point.
        pool = VariablePool(g, caps, params)
        for floor in (-math.inf, mid, high):
            for routes, want in zip(combos, plain):
                if floor > -math.inf:
                    want = _outcome(lambda: allocate(g, caps, routes, params, floor=floor))
                warm = _relaxed_objective(
                    lambda: _Instance(routes[::-1], pool, floor).solve_relaxed()[1])
                got = _outcome(lambda: allocate(g, caps, routes[::-1], params, floor=floor,
                                                pool=pool))
                if got == want:
                    continue
                cold = _relaxed_objective(lambda: relaxed_solution(g, caps, routes, params)[1])
                if got[0] == "DominatedError":
                    # Cut by the kept table before the join or by a warm
                    # sweep: by weak duality the bound is at least the
                    # relaxed optimum.
                    bound = float.fromhex(got[1])
                    assert bound < floor
                    if cold is not None:
                        assert bound >= cold - _margin(cold)
                    continue
                assert isinstance(got[0], list) and warm is not None
                band = _GAP_TOL * max(1.0, abs(warm))
                if want[0] == "DominatedError":
                    # The cold solve cut by a floor inside the gap band.
                    assert warm - _margin(warm) <= float.fromhex(want[1]) < floor
                    assert floor <= warm + 2.0 * band
                    continue
                # The same kind of outcome: two feasible allocations whose
                # relaxed objectives agree within the gap tolerance.
                assert isinstance(want[0], list) and cold is not None
                assert abs(warm - cold) <= _GAP_TOL * max(1.0, abs(warm), abs(cold))
                for items in (got[0], want[0]):
                    alloc = Allocation(dict(items))
                    assert verify_feasible(g, caps, routes, alloc).ok
                    assert params.cost_cap is None or alloc.cost <= params.cost_cap

    @pytest.mark.parametrize("capped, free", list(product((False, True), repeat=2)))
    def test_warm_and_cold_round_alike(self, capped, free):
        # The slot of the example above: some warm solves stop just below an
        # integer that the cold solve reaches, and rounding's snap floors
        # both alike, so every pooled call gives the unpooled bits.
        g, caps, reqs, params = slot_instance(np.random.default_rng(9), capped, free)
        pool = VariablePool(g, caps, params)
        straddled = 0
        for choice in product(*(range(len(r.candidates)) for r in reqs)):
            routes = [r.candidates[c] for r, c in zip(reqs, choice)]
            try:
                inst = _Instance(routes, pool)
                warm = dict(zip(inst.keys, inst.solve_relaxed()[0]))
                cold = relaxed_solution(g, caps, routes, params)[0]
            except (InfeasibleSelectionError, NoConvergenceError):
                pass
            else:
                straddled += any(math.floor(warm[k] + 1e-9) != math.floor(cold[k] + 1e-9)
                                 for k in cold)
            assert (_outcome(lambda: allocate(g, caps, routes, params, pool=pool))
                    == _outcome(lambda: allocate(g, caps, routes, params)))
        assert straddled > 0

    def test_keeps_the_multipliers_of_its_best_solve(self):
        # Over edges 0-1-2 under a budget of 2 channels, every solve prices
        # the budget; one hop with two channels beats two hops with one.
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        caps = SlotCapacities.from_graph(g)
        params = PerSlotObjectiveParams(V=1.0, cost_cap=2)
        long = Route.from_nodes(g, [0, 1, 2], request_id=0)
        short = Route.from_nodes(g, [0, 1], request_id=0)
        pool = VariablePool(g, caps, params)
        assert (pool.best, pool._table) == (-math.inf, None)
        # A fresh pool's first feasible solve keeps its multipliers.
        f_long = allocate(g, caps, [long], params, pool=pool)[1]
        first = pool._table
        assert pool.best == f_long and set(first[0]) == {(2, 0)}
        # A better solve replaces them ...
        f_short = allocate(g, caps, [short], params, pool=pool)[1]
        assert f_short > f_long
        assert pool.best == f_short and pool._table is not first
        # ... and one that does not beat the best leaves them.
        kept = pool._table
        assert allocate(g, caps, [long], params, pool=pool)[1] == f_long
        assert pool.best == f_short and pool._table is kept

    def test_mismatched_pool_and_shared_request_rejected(self):
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        caps = SlotCapacities.from_graph(g)
        params = PerSlotObjectiveParams(V=1.0)
        pool = VariablePool(g, caps, params)
        first = Route.from_nodes(g, [0, 1], request_id=0)
        with pytest.raises(ValueError, match="pool was built for another"):
            allocate(g, caps, [first], PerSlotObjectiveParams(V=2.0), pool=pool)
        # Two routes of one request, even over different edges.
        second = Route.from_nodes(g, [1, 2], request_id=0)
        for kwargs in ({}, {"pool": pool}):
            with pytest.raises(ValueError, match="one route per request"):
                allocate(g, caps, [first, second], params, **kwargs)

    @pytest.mark.parametrize("q_caps, w_caps, message", [
        ((20, 20), (10, 10), "2 slot qubit caps for 3 nodes"),
        ((20, 20, 20), (10,), "1 slot channel caps for 2 edges"),
        ((20, 20, 20), (10, -1), "slot capacities must be >= 0"),
    ])
    def test_capacities_that_do_not_fit_the_graph_rejected(self, q_caps, w_caps, message):
        g = QdnGraph((20, 20, 20), (EdgeSpec(0, 1, 10, 0.5, 1), EdgeSpec(1, 2, 10, 0.5, 1)))
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            allocate(g, SlotCapacities(q_caps, w_caps), [route], PerSlotObjectiveParams(V=1.0))


class TestSolveState:
    @pytest.mark.parametrize("capped, free", list(product((False, True), repeat=2)))
    def test_meet_cap_reads_current_values(self, monkeypatch, capped, free):
        # Every search sees its members' x at their current prices and, when
        # it starts from a positive multiplier, their slopes there too: a
        # cold solve starts with zero slopes, a warm one computes x and the
        # slopes at the kept multipliers, and each multiplier move rewrites
        # its members' x and slopes.  Fresh pools and one slot-wide pool,
        # whose kept table and pricings carry across calls; no floor, then
        # the slot's best objective as an exhaustive search's incumbent.
        priced = []  # per search from a positive multiplier: any member sloped?
        warm_starts = []  # the same, for searches at the kept multiplier
        meet_cap = _Instance._meet_cap

        def checked(inst, members, cap, theta, old, x, slope, *trial):
            want_x, want_slope = [0.0] * len(x), [0.0] * len(x)
            inst._load(members, theta, 0.0, want_x, want_slope)
            assert [x[i].hex() for i in members] == [want_x[i].hex() for i in members]
            if old > 0.0:
                assert ([slope[i].hex() for i in members]
                        == [want_slope[i].hex() for i in members])
                priced.append(any(want_slope[i] for i in members))
                site = next(site for site, (m, _) in zip(inst.sites, inst.constraints)
                            if m is members)
                if site in inst.warm and inst.warm[site][1] == old:
                    warm_starts.append(priced[-1])
            return meet_cap(inst, members, cap, theta, old, x, slope, *trial)

        monkeypatch.setattr(_Instance, "_meet_cap", checked)
        rng = np.random.default_rng(101)
        kept_tables = 0
        for _ in range(12):
            g, caps, reqs, params = slot_instance(rng, capped, free)
            combos = [[r.candidates[c] for r, c in zip(reqs, choice)]
                      for choice in product(*(range(len(r.candidates)) for r in reqs))]
            pool = VariablePool(g, caps, params)
            floor = -math.inf
            for _ in range(2):
                for routes in combos:
                    _outcome(lambda: allocate(g, caps, routes, params, floor=floor))
                    kept_tables += pool._table is not None
                    _outcome(lambda: allocate(g, caps, routes, params, floor=floor,
                                              pool=pool))
                floor = pool.best
        assert kept_tables > 0 and sum(priced) >= 100 and sum(warm_starts) >= 20


def random_table(rng, g, caps, params):
    """A pool table over a random share of the nodes, the edges and, when
    capped, the budget, with nonnegative multipliers up to V."""
    caps_of = (caps.q_caps, caps.w_caps, (params.cost_cap,))
    sites = [(0, u) for u in range(g.node_count)] + [(1, e) for e in range(g.edge_count)]
    if params.cost_cap is not None:
        sites.append((2, 0))
    table, weights = {}, []
    for kind, j in sites:
        if rng.random() < 0.5:
            mu = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, params.V))
            table[kind, j] = (1 << len(weights), mu)
            weights.append(mu * caps_of[kind][j])
    return (table, weights) if table else None


class TestWarmStart:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(), free=st.booleans(),
           kept=st.booleans(),
           rel=st.floats(-1e-5, 1e-5) | st.floats(-0.5, 0.5) | st.floats(-50.0, 50.0))
    def test_within_gap_of_cold_and_same_cut(self, seed, capped, free, kept, rel):
        # A solve started from a table, the one a pool keeps after solving
        # some of the routes or a random one, against a cold solve.
        rng = np.random.default_rng(seed)
        g, caps, routes, params = random_allocation_instance(rng, with_cost_cap=capped)
        if free:
            params = replace(params, q=0.0)
        try:
            cold = relaxed_solution(g, caps, routes, params)[1]
        except NoConvergenceError:
            return
        pool = VariablePool(g, caps, params)
        if kept:
            allocate(g, caps, routes[:int(rng.integers(1, len(routes) + 1))], params,
                     pool=pool)
        else:
            pool._table = random_table(rng, g, caps, params)
        warm = _Instance(routes, pool).solve_relaxed()[1]
        # Both stop at a relative duality gap of _GAP_TOL below one relaxed
        # optimum, so they agree within it.
        band = _GAP_TOL * max(1.0, abs(warm), abs(cold))
        assert abs(warm - cold) <= band
        # Any cut's bound is at least the relaxed optimum, and against a
        # floor outside the band both solves make the same decision.
        top = max(warm, cold)
        floor = top + rel * (1.0 + abs(top))
        cuts = []
        for start in (VariablePool(g, caps, params), pool):
            try:
                _Instance(routes, start, floor).solve_relaxed()
            except DominatedError as exc:
                assert top - _margin(top) <= exc.bound < floor
                cuts.append(True)
            else:
                cuts.append(False)
        if not top - _margin(top) <= floor <= top + 2.0 * band:
            assert cuts[0] == cuts[1] == (floor > top)


class TestBlockParts:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(), free=st.booleans())
    def test_match_stationarity_oracle(self, seed, capped, free):
        # Each block's zero-multiplier bound and its Lagrangian part at a
        # random table, against the per-edge maximum at the bisection root.
        # The table prices a random share of the nodes, the edges and, when
        # capped, the budget, so some priced sites lie off the block.
        rng = np.random.default_rng(seed)
        g, caps, routes, params = random_allocation_instance(rng, with_cost_cap=capped)
        if free:
            params = replace(params, q=0.0)
        table = (random_table(rng, g, caps, params) or ({}, []))[0]
        pool = VariablePool(g, caps, params)

        def oracle(route, priced):
            value, bits = 0.0, 0
            for eid in route.edges:
                e = g.edges[eid]
                theta = params.q
                for site in ((0, e.u), (0, e.v), (1, eid), (2, 0)):
                    if site in priced:
                        bits |= priced[site][0]
                        theta += priced[site][1]
                p = g.p_edge[eid]
                hi = min(caps.w_caps[eid], caps.q_caps[e.u], caps.q_caps[e.v])
                x = stationarity_root(p, params.V, theta, hi)
                value += params.V * math.log1p(-(1.0 - p) ** x) - theta * x
            return value, bits

        for route in routes:
            block = pool.block(route)
            assert block.zero == approx(oracle(route, {})[0], rel=1e-9)
            part, touched = block.lagrangian_part(table)
            want, bits = oracle(route, table)
            assert part == approx(want, rel=1e-9)
            assert touched == bits
