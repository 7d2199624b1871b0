"""Per-slot route selection over the candidate product space.

Two searchers share the allocator as their evaluation oracle: exhaustive
enumeration of whatever product space it is given, and a Gibbs sampler
whose proposals flip one request's route at a time and are accepted with a
logistic probability in the objective difference; ``select_routes`` alone
compares the space with the enumeration cap to pick one.  Infeasible joint
selections score negative infinity so either searcher simply avoids them;
so does a selection whose allocation solve fails to converge, so one bad
combination cannot abort a run.  Both searches cut with one rule.  A
combination must exceed a threshold: in exhaustive search under an uncapped
objective, the incumbent's objective; for a Gibbs proposal, ``f_cur + gamma
* ln(u / (1 - u))`` at its acceptance draw ``u``, which it exceeds with
exactly the logistic probability.  ``allocate`` gets the threshold, lowered
by a relative 1e-9, as its floor, and a combination whose certified bound
lies below the floor is rejected without finishing its solve.  Each search
builds one ``VariablePool`` and hands it to every allocator call, so a
candidate route's block is built once per search.  The pool keeps the
multipliers of its best solve so far, and most losing combinations are cut
by a bound summed from their routes' blocks at them.  Every solve starts
from the multipliers of the search's last solve that finished, best or
not.
"""

from __future__ import annotations

import math
import numbers
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


class AllInfeasibleError(RuntimeError):
    """No joint route selection admits even the all-ones allocation."""


@dataclass(frozen=True)
class GibbsParams:
    """Sampler controls: the temperature and the RNG seed, an int >= 0 or a
    non-empty list or tuple of them.

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
        words = self.seed if isinstance(self.seed, (list, tuple)) else [self.seed]
        if not words or not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
                                and w >= 0 for w in words):
            raise ValueError("seed must be an int >= 0 or a non-empty list of them, "
                             f"got {self.seed!r}")


def _threshold(u: float, f_cur: float, gamma: float) -> float:
    """Objective a proposal must exceed to be kept at the draw ``u``, which
    it does with probability ``1 / (1 + exp((f_cur - f_new) / gamma))``."""
    return f_cur + gamma * math.log(u / (1.0 - u)) if u > 0.0 else -math.inf


def _floor(threshold: float) -> float:
    """Both searches' allocator floor: a certified bound below it leaves
    the objective below ``threshold`` despite rounding."""
    return threshold - 1e-9 * (1.0 + abs(threshold))


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
              floor: float) -> tuple[Allocation | None, float]:
    """Allocate ``choice``'s routes through ``pool``; an infeasible or
    unconverged combination scores -inf."""
    routes = [req.candidates[c] for req, c in zip(requests, choice)]
    try:
        return allocate(pool.graph, pool.caps, routes, pool.params, floor=floor, pool=pool)
    except (InfeasibleSelectionError, NoConvergenceError):
        return None, -math.inf


def exhaustive_select(graph: QdnGraph, caps: SlotCapacities,
                      requests: Sequence[SdRequest],
                      params: PerSlotObjectiveParams,
                      ) -> tuple[RouteSelection, Allocation, float]:
    """Search every route combination, however many, and return the best.

    ``select_routes`` alone weighs the space against the enumeration cap.
    Combinations are visited in lexicographic index order and ties break
    toward the first.  Under an uncapped objective, each combination after
    the first feasible one is handed to ``allocate`` with ``_floor`` of the
    incumbent's objective as its floor, the rule ``gibbs_select`` applies
    to its threshold; a combination whose certified bound falls below it
    could not beat the incumbent and is cut without a full solve.  The
    search's pool keeps the final node, edge and budget multipliers of its
    best solve, which is the incumbent, so a floored combination whose
    Lagrangian at them is below the floor is cut before its instance is
    built.  Every solve starts from the multipliers of the last solve that
    finished, under MA and MF the previous combination's, which usually
    differs in one route.  The result is the same as solving every
    combination on its own (rounding snaps relaxed values near an integer,
    so a warm start does not change the bits; see ``allocate``), with one
    ``allocate`` call per combination.  Raises
    AllInfeasibleError when no combination is feasible.
    """
    sizes = _space(requests)
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
                floor = _floor(best_f)
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
    proposes an alternative candidate for one uniformly random request,
    draws ``u`` uniform in [0, 1), and keeps the proposal when its objective
    exceeds the threshold ``f_cur + gamma * ln(u / (1 - u))``, as it does
    with probability ``1 / (1 + exp((f_cur - f_new) / gamma))``.  Stops
    after 5 consecutive proposals per request without an accepted change,
    or after 200 proposals per request.  Deterministic given the seed.

    The threshold is drawn before the proposal is evaluated.  A proposal
    not solved yet is handed to ``allocate`` with ``_floor`` of the
    threshold as its floor, the rule ``exhaustive_select`` applies to its
    incumbent; one whose certified bound falls below it scores below the
    threshold and is rejected without a full solve.  Its bound is kept, so
    a re-proposal whose bound is below a later floor is rejected without a
    call.  The search's pool keeps the multipliers of its best solve so far,
    initial draws included, and a later proposal whose Lagrangian at them
    loses is cut before its instance is built.  Every solve starts from the
    multipliers of the last proposal or initial draw solved in full.  The
    outcome is the same as solving every proposal on its own, as in
    ``exhaustive_select``.  ``trace`` receives ``(iteration, proposal,
    f_cur, f_new, accepted)`` per proposal, with ``f_new = None`` for a
    proposal rejected by its bound.
    """
    sizes = _space(requests)
    count = len(sizes)
    window = _STABLE_WINDOW_PER_REQUEST * count
    rng = np.random.default_rng(gibbs.seed)
    pool = VariablePool(graph, caps, params)

    # A solved choice maps to its (allocation, objective), a cut one to the
    # upper bound certified on its objective.
    seen: dict[tuple[int, ...], tuple[Allocation | None, float] | float] = {}

    def score(choice: tuple[int, ...],
              floor: float = -math.inf) -> tuple[Allocation | None, float | None]:
        # (None, None) when the choice's certified bound lies below floor.
        known = seen.get(choice, math.inf)
        if isinstance(known, tuple):
            return known
        if known < floor:
            return None, None
        try:
            seen[choice] = _evaluate(pool, requests, choice, floor)
        except DominatedError as exc:
            seen[choice] = exc.bound
            return None, None
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
        threshold = _threshold(rng.random(), f_cur, gibbs.gamma)
        alloc, f_new = score(proposal, _floor(threshold))
        accepted = f_new is not None and f_new > threshold
        if trace is not None:
            trace.append((it, proposal, f_cur, f_new, accepted))
        if accepted:
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
    """Exhaustive search when the product space of candidate counts holds at
    most ``enumeration_cap`` combinations, Gibbs otherwise; the only place
    a route space is compared with the cap."""
    if math.prod(_space(requests)) <= enumeration_cap:
        return exhaustive_select(graph, caps, requests, params)
    return gibbs_select(graph, caps, requests, params, gibbs or GibbsParams())
