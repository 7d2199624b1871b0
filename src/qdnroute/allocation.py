"""Per-slot channel allocation for a fixed route selection.

The per-slot problem maximizes ``V * sum(log route success) - q * cost``
over positive integer channel counts under node-qubit, edge-channel, and
optional per-slot budget constraints.  It is solved as in the two-stage
scheme: relax integrality to ``n >= 1`` (the relaxed program is concave with
linear constraints), solve the relaxation by dual decomposition, then
down-round and greedily hand out surplus.  The rounded point is guaranteed
to be feasible, component-wise within 1 of the relaxed optimum, and within
an additive gap ``delta_gap(V, F, L, p_min)`` of the integer optimum.

Each coupling constraint is a site priced by one multiplier: a node
``(0, u)``, an edge ``(1, e)`` or the budget ``(2, 0)``.  A route search
calls ``allocate`` for many combinations of the same few candidate routes.
A ``VariablePool`` builds each route's block of per-variable arrays once
per slot.  Every instance joins its routes' blocks from a pool, which
``allocate`` builds for a call that passes none.

The pool also keeps the node, edge and budget multipliers of its best
solve so far: ``allocate`` replaces them after each solve whose objective
beats every earlier one through the pool.  Capped or uncapped, a call with
a floor first bounds its relaxed optimum from per-block parts: the
Lagrangian at zero multipliers, or the smaller of that and the Lagrangian
at the kept multipliers (by weak duality, each bounds every combination).
A combination whose bound lies below the floor is cut before its blocks
are joined; this is the one bound checked before the dual solve, whose
sweeps then check their own.

Each dual solve starts from the pool's start: the positive final
multipliers of the last solve that finished through the pool, whatever its
objective.  A constraint whose site the start prices begins at that value,
every other one at zero; a solve that is cut or raises leaves the start as
it was.  A warm solve stops by the same duality-gap rule as a cold one, so
both end within that gap of the relaxed optimum, though not always at the
same point.  Rounding counts a relaxed value within ``_SNAP_TOL`` below an
integer as that integer, so the two round alike unless the two values of
some variable stop on opposite sides of such a threshold.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .model import (
    Allocation,
    QdnGraph,
    Route,
    SlotCapacities,
    check_fields,
)

_GAP_TOL = 1e-6
_SNAP_TOL = 1e-4
_MAX_MULTIPLIER_UPDATES = 10_000
_NEWTON_STEPS = 60

_request_id = attrgetter("request_id")


class InfeasibleSelectionError(RuntimeError):
    """Even the all-ones allocation violates a capacity or budget cap."""


class NoConvergenceError(RuntimeError):
    """The dual solve hit its iteration cap far from optimality."""


class DominatedError(RuntimeError):
    """The relaxed optimum is certified to lie below the caller's floor.

    ``bound`` is a dual value, an upper bound on the relaxed optimum and so
    on the objective ``allocate`` would have returned.
    """

    def __init__(self, bound: float):
        super().__init__(bound)
        self.bound = bound

    def __str__(self) -> str:
        return f"relaxed optimum is at most {self.bound!r}, below the floor"


@dataclass(frozen=True)
class PerSlotObjectiveParams:
    """Weights of the per-slot objective and an optional hard budget.

    ``V`` scales the utility term, ``q`` prices every allocated channel
    (the virtual-queue length under drift-plus-penalty control), and
    ``cost_cap`` — used by the myopic baselines — caps the slot's total
    channel count outright.
    """

    V: float
    q: float = 0.0
    cost_cap: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.V > 0:
            raise ValueError("V must be positive")
        if not self.q >= 0:
            raise ValueError("q must be >= 0")
        if self.cost_cap is not None and not self.cost_cap >= 0:
            raise ValueError("cost_cap must be >= 0")


def delta_gap(V: float, F: int, L: int, p_min: float) -> float:
    """Additive bound on the rounding loss: ``V * F * L * ln(2 - p_min)``."""
    if not 0.0 < p_min <= 1.0:
        raise ValueError(f"p_min must lie in (0, 1], got {p_min}")
    return V * F * L * math.log(2.0 - p_min)


class _Variables:
    """Per-variable arrays of (request, edge) pairs, in sorted key order.

    ``ends`` holds each variable's edge endpoints, ``hi`` its box, and
    ``theta_one`` the price above which its unclamped stationary point
    drops to 1.  ``x0`` is its box-clamped maximizer at price ``q`` (all
    multipliers zero): a cold dual solve's start, which needs no slopes.
    """

    __slots__ = ("V", "q", "keys", "ends", "lna", "vlna", "hi", "theta_one", "x0")

    def _load(self, members: Sequence[int], theta: list[float], shift: float,
              x: list[float], slope: list[float]) -> tuple[float, float]:
        """Load of a constraint and its derivative in the shared price shift.

        Writes each member's box-clamped maximizer of ``V*ln(1-a^x) - th*x``
        at ``th = theta + shift`` to ``x`` and its derivative in ``th`` to
        ``slope``: zero when clamped, ``-V / (th * (th - V * lna))`` inside.
        """
        minus_v, lna_all, vlna_all, hi_all = -self.V, self.lna, self.vlna, self.hi
        log = math.log
        load = total = 0.0
        for i in members:
            th = theta[i] + shift
            xi = hi_all[i]
            si = 0.0
            if th > 0.0:
                d = th - vlna_all[i]
                xi = log(th / d) / lna_all[i]
                if xi <= 1.0:
                    xi = 1.0
                elif xi >= hi_all[i]:
                    xi = hi_all[i]
                else:
                    si = minus_v / (th * d)
                    total += si
            x[i] = xi
            slope[i] = si
            load += xi
        return load, total

    def _value(self, x: Sequence[float], theta: Sequence[float]) -> tuple[float, float]:
        """Objective ``V*sum(ln P(x)) - q*sum(x)`` at ``x``, and that minus
        ``sum((theta - q) * x)``: the Lagrangian's per-variable part at
        prices ``theta``.  Every objective and Lagrangian value of the
        allocator comes from this one loop."""
        V, lna_all, q = self.V, self.lna, self.q
        log, expm1 = math.log, math.expm1
        common = price_term = cost_term = 0.0
        for i, xi in enumerate(x):
            common += V * log(-expm1(xi * lna_all[i]))
            price_term += (theta[i] - q) * xi
            cost_term += xi
        f = common - q * cost_term
        return f, f - price_term


class _Block(_Variables):
    """The variables of one route: its edges in id order.

    ``zero`` is the block's share of the Lagrangian at zero multipliers:
    its objective at ``x0``, ``V*sum(ln(1-a^x0)) - q*sum(x0)``.  A box that
    holds no channel raises InfeasibleSelectionError.
    """

    __slots__ = ("route", "request_id", "zero")

    def __init__(self, graph: QdnGraph, caps: SlotCapacities, route: Route,
                 params: PerSlotObjectiveParams):
        if route.request_id is None:
            raise ValueError("routes must be bound to a request id")
        eids = sorted(route.edges)
        if not eids or eids[0] < 0 or eids[-1] >= graph.edge_count:
            raise ValueError(f"route {route.nodes} of request {route.request_id} needs "
                             f"edges in 0..{graph.edge_count - 1}, got {route.edges}")
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate (request, edge) variable; one route per request")
        V = self.V = params.V
        self.q = params.q
        self.route = route
        self.request_id = route.request_id
        self.keys = [(route.request_id, eid) for eid in eids]
        edges, q_caps, w_caps = graph.edges, caps.q_caps, caps.w_caps
        self.ends = [(edges[eid].u, edges[eid].v) for eid in eids]
        self.lna = [graph.log_fail[eid] for eid in eids]
        self.vlna = [V * lna for lna in self.lna]
        self.hi = [float(min(w_caps[eid], q_caps[u], q_caps[v]))
                   for eid, (u, v) in zip(eids, self.ends)]
        if min(self.hi) < 1.0:
            h, eid = min(zip(self.hi, eids))
            if h < 0.0:
                raise ValueError("slot capacities must be >= 0")
            raise InfeasibleSelectionError(f"edge {eid}: 1 channel exceeds its slot box of {h:g}")
        self.theta_one = []
        for eid, lna in zip(eids, self.lna):
            a = 1.0 - graph.p_edge[eid]
            self.theta_one.append(-V * lna * a / (1.0 - a))
        n = len(eids)
        theta = [self.q] * n
        self.x0 = [0.0] * n
        self._load(range(n), theta, 0.0, self.x0, [0.0] * n)
        self.zero = self._value(self.x0, theta)[0]

    def lagrangian_part(self, table: dict[tuple[int, int], tuple[int, float]]
                        ) -> tuple[float, int]:
        """The block's share of the Lagrangian at the multipliers of ``table``.

        ``table`` maps each priced node ``(0, u)``, edge ``(1, e)`` and
        budget ``(2, 0)`` to its bit and multiplier.  A variable on edge
        ``e`` between ``u`` and ``v`` is priced at ``th = q + mu_u + mu_v +
        mu_e + lam``, and the share is the sum of ``max over [1, hi] of
        V*ln(1-a^x) - th*x``.  Also returns the touched sites' bits.
        """
        n = len(self.keys)
        theta, touched = [], 0
        for (_, eid), (u, v) in zip(self.keys, self.ends):
            th = self.q
            for site in ((0, u), (0, v), (1, eid), (2, 0)):
                if site in table:
                    bit, mu = table[site]
                    th += mu
                    touched |= bit
            theta.append(th)
        x = [0.0] * n
        self._load(range(n), theta, 0.0, x, [0.0] * n)
        return self._value(x, theta)[1], touched


class VariablePool:
    """One slot's route blocks, each built once and shared by every call.

    A route search calls ``allocate`` once per route combination or Gibbs
    proposal, under one slot's graph, capacities and objective, while the
    same few candidate routes recur across those calls.  The pool builds a
    route's block of per-variable arrays on its first use and keeps it, and
    every instance is assembled from its pool's blocks.  Blocks are keyed
    by route identity (the searches pass the requests' own candidate
    objects); each block holds its route, so no key is reused while the
    pool lives.

    ``lagrangian_bound`` bounds the relaxed optimum of any combination from
    its blocks alone, by the Lagrangian at zero multipliers and, once a call
    has solved through the pool, at the table of node, edge and budget
    multipliers of the pool's best solve so far: by weak duality, the
    Lagrangian at any nonnegative multipliers bounds it, whichever
    combination they were solved for.  ``best`` is that solve's objective,
    -inf before the first.

    The pool also keeps its start: the positive final multipliers of the
    last solve that finished through it, best or not, empty before the
    first.  Every solve through the pool starts there, so each call of a
    search warm-starts from the last one solved in full, which in an
    exhaustive search usually differs from it in one route.
    """

    __slots__ = ("graph", "caps", "params", "_blocks", "best", "_table",
                 "_parts", "_start")

    def __init__(self, graph: QdnGraph, caps: SlotCapacities,
                 params: PerSlotObjectiveParams):
        if len(caps.q_caps) != graph.node_count:
            raise ValueError(f"{len(caps.q_caps)} slot qubit caps for "
                             f"{graph.node_count} nodes")
        if len(caps.w_caps) != graph.edge_count:
            raise ValueError(f"{len(caps.w_caps)} slot channel caps for "
                             f"{graph.edge_count} edges")
        self.graph, self.caps, self.params = graph, caps, params
        self._blocks: dict[int, _Block] = {}
        self.best = -math.inf
        # The bit and positive multiplier of each priced node (0, u), edge
        # (1, e) and budget (2, 0), and each one's multiplier times its
        # cap, in bit order; None until kept.
        self._table: tuple[dict, list[float]] | None = None
        # Each block's (Lagrangian part, touched sites) at the table.
        self._parts: dict[int, tuple[float, int]] = {}
        # The positive final multiplier of each priced site of the last
        # solve that finished through the pool: where every solve starts.
        self._start: dict[tuple[int, int], float] = {}

    def block(self, route: Route) -> _Block:
        found = self._blocks.get(id(route))
        if found is None:
            found = self._blocks[id(route)] = _Block(self.graph, self.caps, route,
                                                     self.params)
        return found

    def _keep_multipliers(self, inst: _Instance) -> None:
        """Make the positive final multipliers of ``inst``'s solve, node,
        edge and budget alike, the table; with none positive the table would
        repeat the zero-multiplier bound, so there is none."""
        table: dict[tuple[int, int], tuple[int, float]] = {}
        weights: list[float] = []
        caps_of = (self.caps.q_caps, self.caps.w_caps, (self.params.cost_cap,))
        for (kind, j), mu in zip(inst.sites, inst.nu):
            if mu > 0.0:
                table[kind, j] = (1 << len(weights), mu)
                weights.append(mu * caps_of[kind][j])
        self._table = (table, weights) if table else None
        self._parts = {}

    def lagrangian_bound(self, blocks: Sequence[_Block],
                         floor: float = -math.inf) -> float:
        """An upper bound on the relaxed optimum of the combination of
        ``blocks``: the Lagrangian at zero multipliers, the sum of the
        blocks' ``zero``, or with a table the smaller of that and the
        Lagrangian at the table, the blocks' parts plus multiplier times cap
        of every priced site they touch.  A zero-multiplier bound
        already below ``floor`` is returned without pricing the blocks at
        the table."""
        zero = 0.0
        for b in blocks:
            zero += b.zero
        if self._table is None or zero < floor:
            return zero
        table, weights = self._table
        parts = self._parts
        total, touched = 0.0, 0
        for b in blocks:
            found = parts.get(id(b))
            if found is None:
                found = parts[id(b)] = b.lagrangian_part(table)
            total += found[0]
            touched |= found[1]
        for k, weight in enumerate(weights):
            if touched >> k & 1:
                total += weight
        return min(zero, total)


class _Instance(_Variables):
    """One slot's allocation problem in flat-array form, built from ``pool``.

    Variables are the (request, edge) pairs of the selected routes, in
    sorted key order: the routes' blocks from the pool, joined in
    request-id order.  Constraints couple them through the loads of nodes
    ``(0, u)``, edges ``(1, e)`` and the optional budget ``(2, 0)``, the
    sites that ``sites`` names; constraints that cannot bind under the
    boxes are dropped.  ``warm`` is the pool's start when the instance was
    built, a ``{site: multiplier}`` dict of the last finished solve's
    positive multipliers (empty before the first): ``solve_relaxed`` starts
    each constraint whose site it prices at that multiplier.  ``nu`` holds
    the multipliers once ``solve_relaxed`` has run.

    With a ``floor``, capped or uncapped, an instance whose bound from the
    pool's ``lagrangian_bound`` lies below it raises DominatedError before
    the blocks are joined: a cut combination never builds its per-variable
    arrays or its coupling constraints.
    """

    __slots__ = ("constraints", "sites", "nu", "floor", "warm")

    def __init__(self, routes: Sequence[Route], pool: VariablePool,
                 floor: float = -math.inf):
        blocks = sorted(map(pool.block, routes), key=_request_id)
        last = None
        for b in blocks:
            if b.request_id == last:
                raise ValueError("duplicate (request, edge) variable; one route per request")
            last = b.request_id
        self.warm = pool._start
        self.V, self.q = pool.params.V, pool.params.q
        self.floor = floor
        if floor > -math.inf:
            bound = pool.lagrangian_bound(blocks, floor)
            if bound < floor:
                raise DominatedError(bound)

        self.keys, self.ends, self.lna, self.vlna, self.hi = [], [], [], [], []
        self.theta_one, self.x0 = [], []
        for b in blocks:
            self.keys += b.keys
            self.ends += b.ends
            self.lna += b.lna
            self.vlna += b.vlna
            self.hi += b.hi
            self.theta_one += b.theta_one
            self.x0 += b.x0

        cost_cap = pool.params.cost_cap
        if cost_cap is not None and len(self.keys) > cost_cap:
            raise InfeasibleSelectionError(
                f"all-ones cost {len(self.keys)} exceeds slot budget {cost_cap}"
            )
        self._couple(pool.caps, cost_cap)

    def _couple(self, caps: SlotCapacities, cost_cap: int | None) -> None:
        """Node constraints, then edge constraints, then the budget."""
        node_members: defaultdict[int, list[int]] = defaultdict(list)
        edge_members: defaultdict[int, list[int]] = defaultdict(list)
        for i, ((_, eid), (u, v)) in enumerate(zip(self.keys, self.ends)):
            node_members[u].append(i)
            node_members[v].append(i)
            edge_members[eid].append(i)
        hi = self.hi

        constraints: list[tuple[tuple[int, ...], float]] = []
        sites: list[tuple[int, int]] = []
        for kind, (name, members_of, caps_of, what, unit) in enumerate((
                ("node", node_members, caps.q_caps, "allocated edges", "qubits"),
                ("edge", edge_members, caps.w_caps, "requests", "channels"))):
            for j in sorted(members_of):
                members, cap = members_of[j], caps_of[j]
                if len(members) > cap:
                    raise InfeasibleSelectionError(
                        f"{name} {j}: {len(members)} {what} exceed {cap} {unit}"
                    )
                # A lone member's box already lies within the cap.
                if len(members) > 1 and sum([hi[i] for i in members]) > cap:
                    constraints.append((tuple(members), float(cap)))
                    sites.append((kind, j))
        if cost_cap is not None and sum(hi) > cost_cap:
            constraints.append((tuple(range(len(hi))), float(cost_cap)))
            sites.append((2, 0))
        self.constraints = constraints
        self.sites = sites

    # -- relaxed program ----------------------------------------------------

    def _project(self, x: list[float]) -> tuple[list[float], bool]:
        """Scale the variables of overloaded constraints toward 1, in place.

        Scaling one constraint's members toward 1 only lowers the loads of
        the others, so one pass in constraint order meets every cap whenever
        the all-ones point is feasible (checked at build time).
        """
        changed = False
        for members, cap in self.constraints:
            load = 0.0
            for i in members:
                load += x[i]
            if load > cap + 1e-12:
                k = len(members)
                rho = (cap - k) / (load - k) if load > k else 0.0
                rho = min(max(rho, 0.0), 1.0)
                for i in members:
                    x[i] = 1.0 + (x[i] - 1.0) * rho
                changed = True
        return x, changed

    def _meet_cap(self, members: Sequence[int], cap: float, theta: list[float],
                  old: float, x: list[float], slope: list[float],
                  trial_x: list[float], trial_slope: list[float]) -> float:
        """Multiplier at which an overloaded constraint's load meets ``cap``.

        Safeguarded Newton on the monotone load curve over [0, the price
        that floors every member].  ``theta`` includes the multiplier at
        ``old``, where ``x`` holds the members' values and, read only if
        ``old > 0``, ``slope`` their slopes.  When the returned multiplier
        differs from ``old``, ``trial_x`` and ``trial_slope`` hold the
        members' values and slopes at it.
        """
        lo = 0.0
        hi_nu = -math.inf
        theta_one = self.theta_one
        for i in members:
            top = theta_one[i] - (theta[i] - old)
            if top > hi_nu:
                hi_nu = top
        hi_nu += 1.0
        guess = old if 0.0 < old < hi_nu else 0.5 * hi_nu
        tol_load = 1e-10 * (1.0 + cap)
        for _ in range(_NEWTON_STEPS):
            if guess == old:
                load = 0.0
                d_load = 0.0
                for i in members:
                    load += x[i]
                    d_load += slope[i]
            else:
                load, d_load = self._load(members, theta, guess - old, trial_x, trial_slope)
            err = load - cap
            if abs(err) <= tol_load:
                break
            if err > 0.0:
                lo = guess
            else:
                hi_nu = guess
            step = guess - err / d_load if d_load < 0.0 else math.inf
            guess = step if lo < step < hi_nu else 0.5 * (lo + hi_nu)
        else:
            if guess != old:  # the last guess was never evaluated
                self._load(members, theta, guess - old, trial_x, trial_slope)
        return guess

    def solve_relaxed(self) -> tuple[list[float], float]:
        """Maximize the relaxed objective by dual decomposition.

        One nonnegative multiplier per coupling constraint, starting at
        ``warm``'s value for a site it prices and at zero otherwise; the
        Lagrangian separates into per-variable concave problems with
        closed-form solutions.  The dual is minimized by cyclic exact
        updates: each multiplier moves to where its constraint's load meets
        its cap (or to zero when slack at zero price), via safeguarded
        Newton steps on the monotone load curve.  A priced constraint whose
        load exceeds its cap by more than a relative 1e-9 searches at once:
        its load at zero price is higher still, so it is not computed.
        Terminates when the relative duality gap of the
        feasibility-projected primal drops below ``_GAP_TOL``.  A sweep that moves no multiplier, or
        ``_MAX_MULTIPLIER_UPDATES`` updates, end the solve with the best
        projected point seen, or with NoConvergenceError when the last gap
        exceeds a relative 1e-3.

        State: ``x`` holds every variable's maximizer at its price ``theta``,
        so a load at a multiplier's current value sums it.  A cold start
        copies ``x0`` and needs no slopes; a warm one computes ``x`` and
        the slopes at the warm prices.  A multiplier move rewrites its
        members' ``x`` and slope, so a member's slope is current wherever
        ``_meet_cap`` reads it, at a multiplier above 0.

        Raises DominatedError as soon as the dual value at the end of a
        sweep, a certified upper bound on the relaxed optimum, falls below
        the instance's floor (the bounds before the first sweep were checked
        at build time).  The bounds are computed beside the solve and leave
        its path unchanged.
        """
        update_cap = _MAX_MULTIPLIER_UPDATES
        n = len(self.keys)
        theta = [self.q] * n
        x, slope = self.x0[:], [0.0] * n
        nu = self.nu = [0.0] * len(self.constraints)
        warm = self.warm
        for ci, site in enumerate(self.sites):
            if site in warm:  # start at the last finished solve's multiplier
                mu = nu[ci] = warm[site]
                for i in self.constraints[ci][0]:
                    theta[i] += mu
        if any(nu):  # x and the slopes at the warm prices
            self._load(range(n), theta, 0.0, x, slope)
        # Member values at a constraint's new multiplier.
        trial_x, trial_slope = [0.0] * n, [0.0] * n
        floor = self.floor
        updates = 0
        best_x: list[float] | None = None
        best_f = -math.inf
        gap = math.inf
        while updates < update_cap:
            moved = False
            for ci, (members, cap) in enumerate(self.constraints):
                old = nu[ci]
                load = 0.0
                for i in members:
                    load += x[i]
                if old == 0.0:
                    if load <= cap:
                        continue  # slack and unpriced: nothing to update
                elif load <= cap + 1e-9 * cap:
                    # Loads fall as prices rise, so a load further above the
                    # cap is above it at zero price too: the multiplier must
                    # rise.  The margin covers ulp-level non-monotonicity.
                    load, _ = self._load(members, theta, -old, trial_x, trial_slope)
                updates += 1
                new = 0.0 if load <= cap else self._meet_cap(
                    members, cap, theta, old, x, slope, trial_x, trial_slope)
                if new != old:
                    nu[ci] = new
                    delta = new - old
                    for i in members:
                        theta[i] += delta
                        x[i] = trial_x[i]
                        slope[i] = trial_slope[i]
                    if abs(delta) > 1e-12 * (1.0 + abs(old)):
                        moved = True
                if updates >= update_cap:
                    break
            f_feas, dual = self._value(x, theta)
            for nu_c, (_, cap) in zip(nu, self.constraints):
                dual += nu_c * cap
            if dual < floor:
                raise DominatedError(dual)
            feas, shrunk = self._project(list(x))
            if shrunk:
                f_feas = self._value(feas, theta)[0]
            if f_feas > best_f:
                best_f, best_x = f_feas, feas
            gap = dual - f_feas
            if gap <= _GAP_TOL * max(1.0, abs(f_feas)):
                return feas, f_feas
            if not moved:
                break

        if best_x is None or gap > 1e-3 * max(1.0, abs(best_f)):
            raise NoConvergenceError(
                f"duality gap {gap:.3e} after {updates} multiplier updates"
            )
        return best_x, best_f

    # -- rounding -----------------------------------------------------------

    def _gain(self, i: int, ni: int) -> float:
        """Objective change of one more channel on variable ``i`` (-inf at its box)."""
        if ni + 1 > self.hi[i]:
            return -math.inf
        li, log, expm1 = self.lna[i], math.log, math.expm1
        return self.V * (log(-expm1((ni + 1) * li)) - log(-expm1(ni * li))) - self.q

    def round_down_and_fill(self, x: Sequence[float]) -> list[int]:
        """Floor the relaxed point, then add +1 surplus greedily.

        A value within ``_SNAP_TOL`` below an integer floors to that
        integer: a dual solve, warm or cold, stops anywhere in its gap band,
        and a relaxed optimum at an integer, as at a binding cap, would
        otherwise floor to it or to one less by where the solve stopped.
        Caps are integers, so a feasible relaxed point stays feasible while
        no constraint has ``1 / _SNAP_TOL`` members.

        Each increment goes to the feasible variable with the largest
        positive marginal gain ``V*(ln P(n+1) - ln P(n)) - q``; ties break
        toward the smallest (request, edge) key.  Increments stop when no
        feasible one improves the objective, so the rounded-within-1
        relation to the relaxed point is preserved.  Raises
        NoConvergenceError when the floored point is already infeasible,
        which happens only if the relaxed point was.
        """
        n_vars = len(self.keys)
        cons_of_var: list[list[int]] = [[] for _ in range(n_vars)]
        for ci, (members, _) in enumerate(self.constraints):
            for i in members:
                cons_of_var[i].append(ci)
        caps = [cap for _, cap in self.constraints]
        counts = [max(1, math.floor(xi + _SNAP_TOL)) for xi in x]
        loads = [sum(counts[i] for i in members) for members, _ in self.constraints]
        if (any(load > cap for load, cap in zip(loads, caps))
                or any(c > h for c, h in zip(counts, self.hi))):
            raise NoConvergenceError("relaxed point rounds to an infeasible allocation")
        gains = [self._gain(i, counts[i]) for i in range(n_vars)]
        while True:
            best_i = -1
            best_gain = 0.0
            for i in range(n_vars):
                gain = gains[i]
                if gain > best_gain:
                    for ci in cons_of_var[i]:
                        if loads[ci] + 1 > caps[ci]:
                            break
                    else:
                        best_gain, best_i = gain, i
            if best_i < 0:
                return counts
            counts[best_i] += 1
            gains[best_i] = self._gain(best_i, counts[best_i])
            for ci in cons_of_var[best_i]:
                loads[ci] += 1


def allocate(graph: QdnGraph, caps: SlotCapacities, routes: Sequence[Route],
             params: PerSlotObjectiveParams,
             floor: float = -math.inf,
             pool: VariablePool | None = None) -> tuple[Allocation, float]:
    """Relaxed solve plus rounding; returns the allocation and its objective.

    The entry point of every allocation; builds a ``VariablePool`` for a
    call that passes none.  Raises InfeasibleSelectionError when the routes
    cannot even hold one channel per edge under the slot's capacities, and
    NoConvergenceError when the solve ends without a feasible point.
    Raises DominatedError, without finishing the solve, as soon as a
    certified upper bound on the relaxed optimum (and so on the returned
    objective) falls below ``floor``; a call that is not cut returns what
    it would without one.  An edge whose box holds no channel raises
    InfeasibleSelectionError before any cut.  The first bound needs only
    the routes' blocks, so with a floor a selection whose bound is below
    it raises DominatedError even when its node or edge capacities or the
    all-ones budget check would make it infeasible.

    A ``pool`` built for the same graph, capacities and objective lets the
    calls of one route search share the routes' variable blocks.  A call
    whose objective beats every earlier one through the pool leaves its
    final multipliers there as the table; a later call whose bound at them
    is below ``floor`` raises DominatedError with that bound, before its
    capacities are checked.  Every call whose dual solve finishes leaves
    its positive final multipliers as the pool's start, and every later
    call starts its dual solve there.  So a
    pooled call may be cut where an unpooled one is not, by a bound that is
    still at least the relaxed optimum, or, against a floor within the
    duality gap of that optimum, not cut where an unpooled one is.
    Otherwise both give the same kind of outcome; where both return, their
    relaxed objectives agree within the gap, and rounding's snap gives
    them the same bits unless the two values of some variable stop on
    opposite sides of a snap threshold.
    """
    if pool is None:
        pool = VariablePool(graph, caps, params)
    elif (pool.graph, pool.caps, pool.params) != (graph, caps, params):
        raise ValueError("pool was built for another graph, capacities or objective")
    inst = _Instance(routes, pool, floor)
    x, _ = inst.solve_relaxed()
    pool._start = {site: mu for site, mu in zip(inst.sites, inst.nu) if mu > 0.0}
    counts = inst.round_down_and_fill(x)
    f = inst._value(counts, [inst.q] * len(counts))[0]
    if f > pool.best:
        pool.best = f
        pool._keep_multipliers(inst)
    return Allocation(dict(zip(inst.keys, counts))), f
