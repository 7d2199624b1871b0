"""Per-slot route selection over the candidate product space.

Two searchers share the allocator as their evaluation oracle: exhaustive
enumeration for small product spaces, and a Gibbs sampler whose proposals
flip one request's route at a time and are accepted with a logistic
probability in the objective difference.  Infeasible joint selections score
negative infinity so either searcher simply avoids them; so does a selection
whose allocation solve fails to converge, so one bad combination cannot
abort a run.  The Gibbs sampler draws each proposal's acceptance variate
first and rejects a proposal whose certified allocator bound already loses
at that draw, without finishing its solve; exhaustive search under an
uncapped objective cuts a combination whose bound loses to its incumbent,
and keeps the incumbent's multipliers in the pool, so that most
combinations are cut by a bound summed from their routes' blocks.
Each search builds one ``VariablePool`` and hands it to every allocator
call, so a candidate route's variables are built, and a recurring
constraint pricing is solved, once per search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .allocation import (
    DominatedError,
    InfeasibleSelectionError,
    NoConvergenceError,
    PerSlotObjectiveParams,
    VariablePool,
    allocate,
)
from .model import Allocation, QdnGraph, SlotCapacities, check_fields
from .routes import SdRequest

DEFAULT_ENUMERATION_CAP = 10_000

# Iteration budget and stability window scale with the request count.
_MAX_ITERS_PER_REQUEST = 200
_STABLE_WINDOW_PER_REQUEST = 5
_INIT_RETRIES = 100

# RouteSelection: chosen candidate index per request id.
RouteSelection = dict[int, int]


class EnumerationCapError(RuntimeError):
    """The candidate product space is too large for exhaustive search."""


class AllInfeasibleError(RuntimeError):
    """No joint route selection admits even the all-ones allocation."""


@dataclass(frozen=True)
class GibbsParams:
    """Sampler controls: the temperature and the RNG seed.

    The chain stops after ``_STABLE_WINDOW_PER_REQUEST`` (5) proposals per
    request without an accepted change, or after ``_MAX_ITERS_PER_REQUEST``
    (200) proposals per request.
    """

    gamma: float = 500.0
    seed: int | Sequence[int] = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


def gibbs_accept_prob(f_new: float, f_old: float, gamma: float) -> float:
    """Probability of moving to the proposed selection.

    Logistic in the objective difference: 1 / (1 + exp((f_old - f_new) /
    gamma)).  Equal objectives give 1/2; large improvements are accepted
    almost surely.  Infinite arguments resolve to the corresponding limit.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if f_new == f_old:
        return 0.5
    if f_new == -math.inf:
        return 0.0
    if f_old == -math.inf:
        return 1.0
    z = (f_old - f_new) / gamma
    if z > 700.0:
        return 0.0
    if z < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(z))


def _rejection_floor(u: float, f_old: float, gamma: float) -> float:
    """Objective below which ``gibbs_accept_prob`` falls under the draw ``u``,
    lowered by a relative 2e-9 so that a bound below it passes the exact
    test in ``gibbs_select``."""
    if u <= 0.0:
        return -math.inf
    edge = f_old + gamma * math.log(u / (1.0 - u))
    return edge - 2e-9 * (1.0 + abs(edge))


def _space(requests: Sequence[SdRequest]) -> list[int]:
    """Candidate count per request; raises ValueError when there is no
    request or a request has no candidate."""
    if not requests:
        raise ValueError("no requests to select routes for")
    sizes = [len(req.candidates) for req in requests]
    if any(s == 0 for s in sizes):
        raise ValueError("every request needs at least one candidate route")
    return sizes


def _evaluate(pool: VariablePool, requests: Sequence[SdRequest], choice: tuple[int, ...],
              floor: float = -math.inf) -> tuple[Allocation | None, float]:
    routes = [req.candidates[c] for req, c in zip(requests, choice)]
    try:
        return allocate(pool.graph, pool.caps, routes, pool.params, floor=floor, pool=pool)
    except (InfeasibleSelectionError, NoConvergenceError):
        return None, -math.inf


def exhaustive_select(graph: QdnGraph, caps: SlotCapacities,
                      requests: Sequence[SdRequest],
                      params: PerSlotObjectiveParams,
                      enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
                      ) -> tuple[RouteSelection, Allocation, float]:
    """Search every route combination and return the best.

    Combinations are visited in lexicographic index order and ties break
    toward the first.  Under an uncapped objective, each combination after
    the first feasible one is handed to ``allocate`` with the incumbent's
    objective, lowered by a relative 1e-9, as its floor; a combination
    whose certified bound falls below it could not beat the incumbent and
    is cut without a full solve.  Each new incumbent's final node and edge
    multipliers go into the pool (``VariablePool.keep_multipliers``), so a
    combination whose Lagrangian at them is below the floor is cut before
    its instance is built.  The result is the same as solving every
    combination, with one ``allocate`` call per combination.  Raises
    EnumerationCapError when the product space exceeds the cap, and
    AllInfeasibleError when no combination is feasible.
    """
    sizes = _space(requests)
    space = math.prod(sizes)
    if space > enumeration_cap:
        raise EnumerationCapError(
            f"{space} combinations exceed the cap of {enumeration_cap}; "
            "use gibbs_select"
        )
    # Capped objectives (MF, MA) pass no floor, though the floor is exact
    # for them too.  Passing it (perfbench paper-default, seed 0, one 36 s
    # run per side on 2 CPUs, same records digest f1625de79a70...) took
    # combos_per_s.MA from 2,075 to 24,256 and MF from 2,315 to 26,490, but
    # peak_rss_mb rose from 42.30 to 56.32 MB (x1.33, over that gate's 10%
    # bound): perfbench keeps every replay pass in memory, and the faster
    # code replayed 41 passes instead of 5, close to its MAX_PASSES of 50.
    # The floor waits for a benchmark that does not keep them.
    prune = params.cost_cap is None
    pool = VariablePool(graph, caps, params)
    best_choice = None
    best_alloc = None
    best_f = -math.inf
    floor = -math.inf
    for choice in product(*(range(s) for s in sizes)):
        try:
            alloc, f = _evaluate(pool, requests, choice, floor)
        except DominatedError:
            continue  # certified to score below the incumbent
        if alloc is not None and f > best_f:
            best_choice, best_alloc, best_f = choice, alloc, f
            if prune:
                floor = best_f - 1e-9 * (1.0 + abs(best_f))
                pool.keep_multipliers()
    if best_choice is None:
        raise AllInfeasibleError("every route combination is infeasible")
    selection = {req.request_id: c for req, c in zip(requests, best_choice)}
    return selection, best_alloc, best_f


def gibbs_select(graph: QdnGraph, caps: SlotCapacities,
                 requests: Sequence[SdRequest],
                 params: PerSlotObjectiveParams,
                 gibbs: GibbsParams,
                 trace: list | None = None,
                 ) -> tuple[RouteSelection, Allocation, float]:
    """Gibbs-sampling route search; returns the best selection visited.

    Starts from a uniformly random feasible selection, then repeatedly
    proposes an alternative candidate for one uniformly random request and
    accepts with ``gibbs_accept_prob``.  Stops after 5 consecutive proposals
    per request without an accepted change, or after 200 proposals per
    request.  Deterministic given the seed.

    The acceptance variate ``u`` is drawn before the proposal is evaluated.
    A proposal not solved yet is handed to ``allocate`` with the objective
    below which it would be rejected at ``u`` as its floor; when the
    allocator certifies an upper bound ``B`` on its objective with
    ``u >= gibbs_accept_prob(B + 1e-9*(1+|B|), f_cur, gamma)``, it is
    rejected without a full solve.  The tightest bound per proposal is
    kept, so a re-proposal may be rejected without a call.  The outcome is
    the same as solving every proposal.  ``trace`` receives
    ``(iteration, proposal, f_cur, f_new, accepted)`` per proposal, with
    ``f_new = None`` for a proposal rejected by its bound.
    """
    sizes = _space(requests)
    count = len(sizes)
    window = _STABLE_WINDOW_PER_REQUEST * count
    rng = np.random.default_rng(gibbs.seed)
    pool = VariablePool(graph, caps, params)

    # A solved choice maps to its (allocation, objective), a cut one to the
    # tightest upper bound certified on its objective.
    seen: dict[tuple[int, ...], tuple[Allocation | None, float] | float] = {}

    def loses(bound: float, u: float) -> bool:
        return u >= gibbs_accept_prob(bound + 1e-9 * (1.0 + abs(bound)), f_cur, gibbs.gamma)

    def score(choice: tuple[int, ...],
              u: float | None = None) -> tuple[Allocation | None, float | None]:
        # (None, None) when the choice's certified bound rejects it at u.
        known = seen.get(choice, math.inf)
        if isinstance(known, tuple):
            return known
        if u is not None:
            if loses(known, u):
                return None, None
            try:
                seen[choice] = _evaluate(pool, requests, choice,
                                         _rejection_floor(u, f_cur, gibbs.gamma))
                return seen[choice]
            except DominatedError as exc:
                seen[choice] = min(known, exc.bound)
                if loses(seen[choice], u):
                    return None, None
        seen[choice] = _evaluate(pool, requests, choice)
        return seen[choice]

    for _ in range(_INIT_RETRIES):
        current = tuple(int(rng.integers(s)) for s in sizes)
        best_alloc, f_cur = score(current)
        if best_alloc is not None:
            break
    else:
        raise AllInfeasibleError(f"no feasible initial selection in {_INIT_RETRIES} draws")

    best_choice, best_f = current, f_cur
    stable = 0
    for it in range(_MAX_ITERS_PER_REQUEST * count):
        if stable >= window:
            break
        idx = int(rng.integers(count))
        if sizes[idx] < 2:
            stable += 1
            continue
        alt = int(rng.integers(sizes[idx] - 1))
        if alt >= current[idx]:
            alt += 1
        proposal = current[:idx] + (alt,) + current[idx + 1:]
        u = rng.random()
        alloc, f_new = score(proposal, u)
        accepted = f_new is not None and u < gibbs_accept_prob(f_new, f_cur, gibbs.gamma)
        if trace is not None:
            trace.append((it, proposal, f_cur, f_new, accepted))
        if accepted and alloc is not None:
            current, f_cur = proposal, f_new
            stable = 0
            if f_new > best_f:
                best_choice, best_alloc, best_f = proposal, alloc, f_new
        else:
            stable += 1

    selection = {req.request_id: c for req, c in zip(requests, best_choice)}
    return selection, best_alloc, best_f


def select_routes(graph: QdnGraph, caps: SlotCapacities,
                  requests: Sequence[SdRequest],
                  params: PerSlotObjectiveParams,
                  gibbs: GibbsParams | None = None,
                  enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
                  ) -> tuple[RouteSelection, Allocation, float]:
    """Exhaustive search when the product space fits the cap, Gibbs otherwise."""
    if math.prod(_space(requests)) <= enumeration_cap:
        return exhaustive_select(graph, caps, requests, params, enumeration_cap)
    return gibbs_select(graph, caps, requests, params, gibbs or GibbsParams())
