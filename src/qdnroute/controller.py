"""Long-horizon control: the online queue-driven policy and myopic baselines.

OSCAR prices each slot's channel usage with a virtual queue that tracks
accumulated budget overrun, so the per-slot solve needs no knowledge of
future requests or capacities.  The myopic baselines instead impose a hard
per-slot budget: MF splits the total budget evenly and forfeits leftovers,
MA re-spreads whatever remains over the remaining slots.  Evaluators for
the constraint-violation and optimality-gap bounds live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from .allocation import Allocation, PerSlotObjectiveParams, delta_gap
from .model import (
    QdnGraph,
    SlotCapacities,
    check_fields,
    route_success_prob,
    verify_feasible,
)
from .routes import SdRequest
from .selection import (
    DEFAULT_ENUMERATION_CAP,
    AllInfeasibleError,
    GibbsParams,
    RouteSelection,
    select_routes,
)

POLICIES = ("OSCAR", "MF", "MA")


@dataclass(frozen=True)
class BudgetParams:
    """Horizon-level budget contract and control weights."""

    total_budget: int
    horizon: int
    V: float
    q0: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.total_budget > 0:
            raise ValueError("total_budget must be positive")
        if not self.horizon >= 1:
            raise ValueError("horizon must be >= 1")
        if not self.V > 0:
            raise ValueError("V must be positive")
        if not self.q0 >= 0:
            raise ValueError("q0 must be >= 0")


@dataclass(frozen=True)
class ControllerState:
    """Virtual queue length, spend so far, and position in the horizon."""

    q: float
    cumulative_cost: int = 0
    slot: int = 0
    policy: str = "OSCAR"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not self.q >= 0:
            raise ValueError("queue length must be >= 0")


# Slotted: a run keeps every slot's record in memory.
@dataclass(frozen=True, slots=True)
class SlotRecord:
    """What one slot produced, as handed to the experiment harness."""

    t: int
    policy: str
    success_probs: tuple[float, ...]
    utility: float
    cost: int
    q_after: float
    unserved: int


def queue_update(q: float, cost: int, total_budget: int, horizon: int) -> float:
    """Virtual-queue recursion: ``max(0, q + cost - C/T)``."""
    if q < 0 or cost < 0:
        raise ValueError("queue length and cost must be >= 0")
    return max(0.0, q + cost - total_budget / horizon)


def run_slot(policy: str, graph: QdnGraph, caps: SlotCapacities,
             requests: Sequence[SdRequest], state: ControllerState,
             budget: BudgetParams, gibbs: GibbsParams | None = None,
             enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
             ) -> tuple[RouteSelection, Allocation | None, SlotRecord, ControllerState]:
    """One slot of ``policy``: select and allocate for the servable requests.

    OSCAR prices cost at the queue length q and then updates q; MF caps the
    slot's cost at ``floor(C/T)``; MA caps it at the leftover budget spread
    over the remaining slots.  Requests without candidates are unserved; if
    the joint problem is infeasible the whole slot goes unserved at zero cost.
    A committed allocation that breaks a capacity or the cap is a program
    defect and raises RuntimeError.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}")
    if state.policy != policy:
        raise ValueError(f"state carries policy {state.policy!r}, expected {policy}")
    if policy == "OSCAR":
        q, cost_cap = state.q, None
    elif policy == "MF":
        q, cost_cap = 0.0, budget.total_budget // budget.horizon
    else:
        remaining_slots = budget.horizon - state.slot
        if remaining_slots < 1:
            raise ValueError("controller ran past its horizon")
        remaining = budget.total_budget - state.cumulative_cost
        q, cost_cap = 0.0, max(0, remaining // remaining_slots)

    selection, alloc, probs = {}, None, ()
    servable = [r for r in requests if r.servable]
    if servable:
        params = PerSlotObjectiveParams(V=budget.V, q=q, cost_cap=cost_cap)
        try:
            selection, alloc, _ = select_routes(
                graph, caps, servable, params, gibbs, enumeration_cap
            )
        except AllInfeasibleError:
            pass
        else:
            routes = [r.candidates[selection[r.request_id]] for r in servable]
            report = verify_feasible(graph, caps, routes, alloc)
            if not report or (cost_cap is not None and alloc.cost > cost_cap):
                raise RuntimeError(
                    f"{policy} slot {state.slot} committed an infeasible allocation: "
                    f"node (id, load, cap) {report.node_violations}, edge (id, load, cap) "
                    f"{report.edge_violations}, cost {alloc.cost} against cap {cost_cap}")
            probs = tuple(route_success_prob(graph, route, alloc) for route in routes)
    cost = alloc.cost if alloc is not None else 0
    new_q, q_after = state.q, 0.0
    if policy == "OSCAR":
        new_q = q_after = queue_update(state.q, cost, budget.total_budget, budget.horizon)
    utility = sum(map(math.log, probs), 0.0)
    record = SlotRecord(state.slot, policy, probs, utility, cost, q_after,
                        len(requests) - len(probs))
    new_state = replace(state, q=new_q, cumulative_cost=state.cumulative_cost + cost,
                        slot=state.slot + 1)
    return selection, alloc, record, new_state


# One queue-priced slot; one slot under ``floor(C/T)``; one under the leftover
# budget over the remaining slots.
oscar_slot = partial(run_slot, "OSCAR")
mf_slot = partial(run_slot, "MF")
ma_slot = partial(run_slot, "MA")


# ---------------------------------------------------------------------------
# Bound evaluators.

def max_slot_cost(graph: QdnGraph) -> int:
    """Conservative over-bound on any slot's cost: total channel capacity."""
    return sum(e.channels for e in graph.edges)


def drift_penalty_constant(c_max: float, total_budget: int, horizon: int) -> float:
    """The finite constant bounding the per-slot squared queue drift."""
    return 0.5 * (c_max - total_budget / horizon) ** 2


def theorem1_drift_bound(delta: float, B: float, V: float,
                         F: int, L: int, p_min: float) -> float:
    """Per-slot drift bound ``delta + B - V*F*L*ln(p_min)``."""
    if not 0.0 < p_min < 1.0:
        raise ValueError(f"p_min must lie in (0, 1), got {p_min}")
    return delta + B - V * F * L * math.log(p_min)


def theorem1_rhs(q0: float, horizon: int, drift_bound: float) -> float:
    """Bound on average budget overrun: ``sqrt(q0^2/T^2 + 2D/T) - q0/T``.

    Evaluated as ``(2D/T) / (sqrt(q0^2/T^2 + 2D/T) + q0/T)`` so that large
    initial queue lengths do not cancel catastrophically.
    """
    if q0 < 0 or horizon < 1 or drift_bound < 0:
        raise ValueError("q0, horizon, and drift bound must be nonnegative")
    a = q0 / horizon
    b = 2.0 * drift_bound / horizon
    if b == 0.0:
        return 0.0
    return b / (math.sqrt(a * a + b) + a)


def theorem2_gap(V: float, q0: float, horizon: int,
                 delta: float, B: float) -> float:
    """Optimality-gap bound ``(delta + B)/V + q0^2/(2VT)``; shrinks with V."""
    if V <= 0:
        raise ValueError("V must be positive")
    return (delta + B) / V + q0 * q0 / (2.0 * V * horizon)


def check_assumption1(total_budget: int, F: int, L: int, horizon: int) -> bool:
    """Whether the budget covers one channel per edge of every worst-case route."""
    return total_budget >= F * L * horizon


def bound_summary(graph: QdnGraph, budget: BudgetParams, F: int, L: int) -> dict:
    """All bound quantities for one configuration, for reporting."""
    p_min = min(graph.p_edge)
    delta = delta_gap(budget.V, F, L, p_min)
    c_max = max_slot_cost(graph)
    B = drift_penalty_constant(c_max, budget.total_budget, budget.horizon)
    D = theorem1_drift_bound(delta, B, budget.V, F, L, p_min)
    return {
        "p_min": p_min,
        "c_max": c_max,
        "delta": delta,
        "B": B,
        "D": D,
        "theorem1_rhs": theorem1_rhs(budget.q0, budget.horizon, D),
        "theorem2_gap": theorem2_gap(budget.V, budget.q0, budget.horizon, delta, B),
        "assumption1": check_assumption1(budget.total_budget, F, L, budget.horizon),
    }
