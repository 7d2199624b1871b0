"""Unit tests for the policy layer and bound evaluators.

Core claims:
    - the virtual-queue recursion matches hand arithmetic and clamps at 0
    - queue-priced slots, fixed-cap slots, and adaptive-cap slots account
      cost and queue length exactly; caps are hard; exhausted budgets leave
      slots unserved at zero cost
    - with slack caps and zero queue, all three policies make the same
      first-slot decision
    - theorem bound evaluators reproduce hand values and limits, and stay
      finite on links whose success rounds to 1
    - the feasibility assumption check is exact arithmetic
    - run_slot rejects an unknown policy with a ValueError naming the
      known ones
    - run_slot refuses to commit an allocation that breaks a capacity or
      the slot's cost cap
"""

import math
from dataclasses import replace

import pytest
from pytest import approx

from qdnroute import controller
from qdnroute.allocation import delta_gap
from qdnroute.controller import (
    BudgetParams,
    ControllerState,
    bound_summary,
    check_assumption1,
    drift_penalty_constant,
    ma_slot,
    max_slot_cost,
    mf_slot,
    oscar_slot,
    queue_update,
    run_slot,
    theorem1_drift_bound,
    theorem1_rhs,
    theorem2_gap,
)
from qdnroute.model import Allocation, EdgeSpec, QdnGraph, SlotCapacities
from qdnroute.routes import RouteConfig, build_requests
from qdnroute.topology import (
    CapacityDistributions,
    WaxmanParams,
    WorkloadParams,
    generate_waxman,
    sample_requests,
)


class TestQueueUpdate:
    def test_direct_arithmetic(self):
        assert queue_update(10.0, 30, 5000, 200) == approx(15.0, abs=1e-12)

    def test_clamps_at_zero(self):
        assert queue_update(0.0, 10, 5000, 200) == 0.0

    def test_zero_drift(self):
        assert queue_update(5.0, 25, 5000, 200) == approx(5.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            queue_update(-1.0, 0, 100, 10)


def small_world():
    g = generate_waxman(WaxmanParams(node_count=8, seed=3), CapacityDistributions())
    caps = SlotCapacities.from_graph(g)
    pairs = sample_requests(g, WorkloadParams(sd_range=(2, 2), f_max=5), 0, seed=3)
    reqs = build_requests(g, pairs, RouteConfig(max_candidates=2, max_hops=4))
    return g, caps, reqs


class TestOscarSlot:
    def test_accounting(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0, q0=10.0)
        state = ControllerState(q=10.0, policy="OSCAR")
        sel, alloc, rec, new_state = oscar_slot(g, caps, reqs, state, budget)
        assert rec.cost == alloc.cost
        assert new_state.cumulative_cost == rec.cost
        assert new_state.slot == 1
        assert new_state.q == approx(queue_update(10.0, rec.cost, 5000, 200))
        assert rec.q_after == new_state.q
        assert len(rec.success_probs) == len([r for r in reqs if r.servable])
        assert all(0 < p <= 1 for p in rec.success_probs)
        assert rec.utility == approx(sum(math.log(p) for p in rec.success_probs))

    def test_empty_slot_decays_queue(self):
        g, caps, _ = small_world()
        budget = BudgetParams(5000, 200, V=2500.0, q0=10.0)
        state = ControllerState(q=40.0, policy="OSCAR")
        _, alloc, rec, new_state = oscar_slot(g, caps, [], state, budget)
        assert alloc is None
        assert rec.cost == 0
        assert repr(rec.utility) == "0.0"
        assert new_state.q == approx(40.0 - 25.0)

    def test_large_queue_forces_all_ones(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0, q0=10.0)
        state = ControllerState(q=1e7, policy="OSCAR")
        _, alloc, rec, _ = oscar_slot(g, caps, reqs, state, budget)
        # penalty dominates: one channel per route edge of the cheapest combo
        assert all(n == 1 for _, n in alloc.items())

    def test_policy_tag_checked(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        with pytest.raises(ValueError):
            oscar_slot(g, caps, reqs, ControllerState(q=0.0, policy="MF"), budget)

    def test_run_slot_rejects_unknown_policy(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        state = ControllerState(q=0.0, policy="OSCAR")
        with pytest.raises(ValueError, match="'oscar'; expected one of OSCAR, MF, MA"):
            run_slot("oscar", g, caps, reqs, state, budget)


class TestBaselineSlots:
    def test_mf_cap_arithmetic_and_hardness(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        # MF neither prices by nor updates a queue length it is handed
        state = ControllerState(q=7.0, policy="MF")
        _, alloc, rec, new_state = mf_slot(g, caps, reqs, state, budget)
        assert budget.total_budget // budget.horizon == 25
        assert rec.cost <= 25
        assert rec.q_after == 0.0 and new_state.q == 7.0

    def test_mf_unserved_when_cap_below_cheapest(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(1, 200, V=2500.0)  # per-slot cap 0
        state = ControllerState(q=0.0, policy="MF")
        _, alloc, rec, new_state = mf_slot(g, caps, reqs, state, budget)
        assert alloc is None
        assert rec.cost == 0
        assert rec.unserved == len(reqs)

    def test_ma_adapts_cap(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        # nothing spent through slot 100: cap grows to 5000/100 = 50
        state = ControllerState(q=0.0, cumulative_cost=0, slot=100, policy="MA")
        _, alloc, rec, _ = ma_slot(g, caps, reqs, state, budget)
        assert rec.cost <= 50

    def test_ma_exhausted_budget_unserved(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        state = ControllerState(q=0.0, cumulative_cost=5000, slot=100, policy="MA")
        _, alloc, rec, _ = ma_slot(g, caps, reqs, state, budget)
        assert alloc is None and rec.cost == 0

    def test_ma_equals_mf_at_steady_spending(self):
        g, caps, reqs = small_world()
        budget = BudgetParams(5000, 200, V=2500.0)
        # spending exactly C/T per slot keeps the adaptive cap at C/T
        state_ma = ControllerState(q=0.0, cumulative_cost=25 * 60, slot=60, policy="MA")
        state_mf = ControllerState(q=0.0, policy="MF")
        _, alloc_ma, _, _ = ma_slot(g, caps, reqs, state_ma, budget)
        _, alloc_mf, _, _ = mf_slot(g, caps, reqs, state_mf, budget)
        assert dict(alloc_ma.items()) == dict(alloc_mf.items())

    def test_policies_coincide_with_slack_budget(self):
        g, caps, reqs = small_world()
        huge = BudgetParams(10**9, 200, V=2500.0, q0=0.0)
        _, a_oscar, _, _ = oscar_slot(g, caps, reqs, ControllerState(q=0.0, policy="OSCAR"), huge)
        _, a_mf, _, _ = mf_slot(g, caps, reqs, ControllerState(q=0.0, policy="MF"), huge)
        _, a_ma, _, _ = ma_slot(g, caps, reqs, ControllerState(q=0.0, policy="MA"), huge)
        assert dict(a_oscar.items()) == dict(a_mf.items()) == dict(a_ma.items())


class TestCommitCheck:
    """A faulty selection layer must stop the run, not be recorded."""

    def test_over_capacity_allocation_raises(self, monkeypatch):
        g, caps, reqs = small_world()
        real = controller.select_routes

        def overfull(*args):
            sel, alloc, f = real(*args)
            return sel, Allocation({k: n + 100 for k, n in alloc.items()}), f

        monkeypatch.setattr(controller, "select_routes", overfull)
        budget = BudgetParams(5000, 200, V=2500.0)
        with pytest.raises(RuntimeError, match=r"OSCAR slot 0 committed an infeasible .*edge"):
            oscar_slot(g, caps, reqs, ControllerState(q=10.0, policy="OSCAR"), budget)

    def test_cost_over_cap_raises(self, monkeypatch):
        g, caps, reqs = small_world()
        real = controller.select_routes

        def uncapped(graph, caps, requests, params, *rest):
            return real(graph, caps, requests, replace(params, cost_cap=None), *rest)

        monkeypatch.setattr(controller, "select_routes", uncapped)
        mf = ControllerState(q=0.0, policy="MF")
        _, alloc, _, _ = mf_slot(g, caps, reqs, mf, BudgetParams(10**6, 200, V=2500.0))
        cap = alloc.cost - 1
        with pytest.raises(RuntimeError, match=f"cost {alloc.cost} against cap {cap}"):
            mf_slot(g, caps, reqs, mf, BudgetParams(200 * cap, 200, V=2500.0))


class TestBounds:
    def test_theorem1_values(self):
        assert theorem1_rhs(0.0, 100, 2.0) == approx(0.2, abs=1e-12)
        assert theorem1_rhs(0.0, 10, 5.0) == approx(1.0, abs=1e-12)

    def test_theorem1_large_queue_limit(self):
        small = theorem1_rhs(1e9, 200, 100.0)
        assert 0.0 <= small < 1e-6
        assert theorem1_rhs(1e12, 200, 100.0) < small

    def test_theorem1_zero_queue_specialization(self):
        D, T = 7.3, 50
        assert theorem1_rhs(0.0, T, D) == approx(math.sqrt(2 * D / T), rel=1e-12)

    def test_theorem2_values(self):
        assert theorem2_gap(2500.0, 10.0, 200, 10.0, 200.0) == approx(0.084 + 1e-4, abs=1e-12)
        assert theorem2_gap(10.0, 0.0, 100, 3.0, 7.0) == approx(1.0, abs=1e-12)
        # doubling V halves the gap at q0 = 0
        assert theorem2_gap(20.0, 0.0, 100, 3.0, 7.0) == approx(0.5, abs=1e-12)

    def test_drift_bound_composition(self):
        delta = delta_gap(2500.0, 5, 6, 0.5507069855552713)
        B = drift_penalty_constant(300, 5000, 200)
        D = theorem1_drift_bound(delta, B, 2500.0, 5, 6, 0.5507069855552713)
        assert D == approx(delta + B - 2500 * 30 * math.log(0.5507069855552713), rel=1e-12)
        assert D > 0

    def test_saturated_links_bound_finitely(self):
        # 100 attempts at p = 0.5 leave every link's success rounding to
        # 1.0; ln(2 - 1) = ln 1 = 0, so the rounding gap and the link term
        # of the drift bound vanish instead of raising.
        g = generate_waxman(WaxmanParams(node_count=8, seed=3),
                            CapacityDistributions(p_attempt=0.5, attempts=100))
        assert set(g.p_edge) == {1.0}
        info = bound_summary(g, BudgetParams(5000, 200, V=2500.0), 5, 6)
        B = drift_penalty_constant(max_slot_cost(g), 5000, 200)
        assert info["p_min"] == 1.0 and info["delta"] == 0.0
        assert info["D"] == B
        assert math.isfinite(info["theorem1_rhs"]) and math.isfinite(info["theorem2_gap"])
        with pytest.raises(ValueError, match=r"p_min must lie in \(0, 1\], got 1.5"):
            theorem1_drift_bound(0.0, B, 2500.0, 5, 6, 1.5)

    def test_assumption1(self):
        assert not check_assumption1(5000, 5, 6, 200)  # 5000 < 6000
        assert check_assumption1(6000, 5, 6, 200)
        assert check_assumption1(10**9, 5, 6, 200)

    def test_max_slot_cost(self):
        g = QdnGraph((5, 5, 5), (EdgeSpec(0, 1, 4, 0.5, 1), EdgeSpec(1, 2, 7, 0.5, 1)))
        assert max_slot_cost(g) == 11
