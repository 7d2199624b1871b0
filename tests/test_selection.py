"""Unit tests for route selection.

Core claims:
    - the acceptance probability is logistic, symmetric, and saturates at
      its limits; accept(a,b) + accept(b,a) = 1
    - exhaustive search returns the true maximizer with lexicographic ties
      and raises on oversized spaces or fully infeasible instances
    - Gibbs search is deterministic per seed, always returns a feasible
      allocation, and at low temperature finds the exhaustive optimum on
      enumerable instances
    - the auto selector dispatches on the product-space size
    - a zero sampler temperature, an empty request list and a request with
      no candidate are rejected with a message; a zero acceptance draw
      rejects at no floor; a route over a slot capacity of 0 scores as
      infeasible at zero price, so the search picks another
    - a combination whose allocation solve fails to converge scores as
      infeasible in both searchers instead of aborting the search
    - Gibbs search that rejects proposals by the allocator's certified
      bound returns exactly what it returns when every proposal is solved
    - exhaustive search that cuts combinations at the incumbent returns
      exactly what it returns when every combination is solved, ties
      included; capped objectives pass no floor
    - capped or uncapped, the Lagrangian at any solved combination's node,
      edge and budget multipliers bounds every combination's relaxed
      optimum, and some capped incumbents' kept tables price the budget
    - exhaustive OSCAR over the default config's first slots makes one
      allocate call per combination, and cuts, couples and solves pinned
      counts of them
    - Gibbs and exhaustive slots of the default config's trial 0 match
      recorded digests bit for bit, and so does every allocator call the
      Gibbs slots make, with its floor and outcome
"""

import hashlib
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from instances import random_allocation_instance, relaxed_solution
from qdnroute import allocation, selection
from qdnroute.allocation import (
    DominatedError,
    InfeasibleSelectionError,
    NoConvergenceError,
    PerSlotObjectiveParams,
    VariablePool,
    allocate,
)
from qdnroute.controller import POLICIES, ControllerState, run_slot
from qdnroute.harness import default_config
from qdnroute.model import (
    EdgeSpec,
    QdnGraph,
    Route,
    SlotCapacities,
    verify_feasible,
)
from qdnroute.routes import CandidateCache, RouteConfig, SdRequest, build_requests
from qdnroute.selection import (
    AllInfeasibleError,
    EnumerationCapError,
    GibbsParams,
    exhaustive_select,
    gibbs_accept_prob,
    gibbs_select,
    select_routes,
)
from qdnroute.topology import (
    STREAM_GIBBS,
    generate_waxman,
    sample_requests,
    sample_slot_capacities,
)


class TestAcceptProb:
    def test_symmetry_at_equal_objectives(self):
        assert gibbs_accept_prob(5.0, 5.0, 1.0) == 0.5

    def test_unit_gap_value(self):
        assert gibbs_accept_prob(1.0, 0.0, 1.0) == approx(1 / (1 + math.exp(-1)), abs=1e-12)
        assert gibbs_accept_prob(1.0, 0.0, 1.0) == approx(0.7311, abs=1e-4)

    def test_limits(self):
        assert gibbs_accept_prob(1e9, 0.0, 1.0) == 1.0
        assert gibbs_accept_prob(-1e9, 0.0, 1.0) == 0.0
        assert gibbs_accept_prob(-math.inf, 0.0, 1.0) == 0.0
        assert gibbs_accept_prob(0.0, -math.inf, 1.0) == 1.0

    def test_complementarity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.normal(size=2) * 100
            gamma = float(rng.uniform(0.1, 500))
            total = gibbs_accept_prob(a, b, gamma) + gibbs_accept_prob(b, a, gamma)
            assert total == approx(1.0, abs=1e-12)

    def test_increasing_in_gap(self):
        probs = [gibbs_accept_prob(d, 0.0, 2.0) for d in (-5, -1, 0, 1, 5)]
        assert all(x < y for x, y in zip(probs, probs[1:]))

    def test_high_temperature_is_random_walk(self):
        assert gibbs_accept_prob(1000.0, 0.0, 1e12) == approx(0.5, abs=1e-6)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            gibbs_accept_prob(1.0, 0.0, 0.0)


def two_route_request(p_direct=0.9, p_detour=0.9):
    """One request with a 1-edge candidate and a 2-edge candidate."""
    g = QdnGraph(
        (10, 10, 10),
        (EdgeSpec(0, 1, 5, p_direct, 1), EdgeSpec(0, 2, 5, p_detour, 1),
         EdgeSpec(2, 1, 5, p_detour, 1)),
    )
    caps = SlotCapacities.from_graph(g)
    direct = Route.from_nodes(g, [0, 1], request_id=0)
    detour = Route.from_nodes(g, [0, 2, 1], request_id=0)
    req = SdRequest(0, 0, 1, (direct, detour))
    return g, caps, [req]


class TestExhaustive:
    def test_prefers_short_route_at_zero_price(self):
        g, caps, reqs = two_route_request()
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=2)
        # with at most 2 channels total, ln 0.9 beats 2 ln 0.9
        sel, alloc, f = exhaustive_select(g, caps, reqs, params)
        assert sel == {0: 0}

    def test_singleton_space(self):
        g, caps, reqs = two_route_request()
        only = SdRequest(0, 0, 1, (reqs[0].candidates[0],))
        sel, alloc, f = exhaustive_select(g, caps, [only], PerSlotObjectiveParams(V=1.0))
        assert sel == {0: 0}
        assert verify_feasible(g, caps, [only.candidates[0]], alloc).ok

    def test_collision_is_all_infeasible(self):
        g = QdnGraph((4, 4), (EdgeSpec(0, 1, 1, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        route0 = Route.from_nodes(g, [0, 1], request_id=0)
        route1 = Route.from_nodes(g, [0, 1], request_id=1)
        reqs = [SdRequest(0, 0, 1, (route0,)), SdRequest(1, 0, 1, (route1,))]
        with pytest.raises(AllInfeasibleError):
            exhaustive_select(g, caps, reqs, PerSlotObjectiveParams(V=1.0))

    def test_enumeration_cap(self):
        g, caps, reqs = two_route_request()
        with pytest.raises(EnumerationCapError):
            exhaustive_select(g, caps, reqs, PerSlotObjectiveParams(V=1.0),
                              enumeration_cap=1)

    def test_matches_brute_force_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g, caps, routes, params = random_allocation_instance(rng, max_requests=2)
            reqs = build_requests(
                g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                RouteConfig(max_candidates=2, max_hops=4))
            if not all(r.servable for r in reqs):
                continue
            try:
                sel, alloc, f = exhaustive_select(g, caps, reqs, params)
            except AllInfeasibleError:
                continue
            # best over the explicit product space, evaluated independently
            best = -math.inf
            for combo in product(*(range(len(r.candidates)) for r in reqs)):
                chosen = [r.candidates[c] for r, c in zip(reqs, combo)]
                try:
                    _, val = allocate(g, caps, chosen, params)
                except Exception:
                    continue
                best = max(best, val)
            assert f == approx(best, rel=1e-9, abs=1e-9)


class TestGibbs:
    def test_single_candidate_stable(self):
        g, caps, reqs = two_route_request()
        only = [SdRequest(0, 0, 1, (reqs[0].candidates[0],))]
        sel, alloc, f = gibbs_select(g, caps, only, PerSlotObjectiveParams(V=1.0),
                                     GibbsParams(gamma=1.0, seed=5))
        assert sel == {0: 0}
        assert alloc is not None

    def test_deterministic_trace(self):
        rng = np.random.default_rng(13)
        g, caps, routes, params = random_allocation_instance(rng, max_requests=3)
        reqs = build_requests(g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                              RouteConfig(max_candidates=3, max_hops=4))
        if not all(r.servable for r in reqs):
            pytest.skip("unservable draw")
        trace_a, trace_b = [], []
        out_a = gibbs_select(g, caps, reqs, params, GibbsParams(gamma=5.0, seed=21),
                             trace=trace_a)
        out_b = gibbs_select(g, caps, reqs, params, GibbsParams(gamma=5.0, seed=21),
                             trace=trace_b)
        assert out_a[0] == out_b[0]
        assert out_a[2] == out_b[2]
        assert trace_a == trace_b

    def test_low_temperature_matches_exhaustive(self):
        rng = np.random.default_rng(29)
        hits = 0
        total = 0
        while total < 50:
            g, caps, routes, params = random_allocation_instance(
                rng, max_requests=3, max_hops=3)
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
                                         GibbsParams(gamma=1.0, seed=1000 + total))
            assert alloc is not None
            chosen = [r.candidates[sel[r.request_id]] for r in reqs]
            assert verify_feasible(g, caps, chosen, alloc).ok
            assert f <= f_best + 1e-9
            if abs(f - f_best) <= 1e-9:
                hits += 1
        assert hits >= 45  # >= 90 percent of seeded runs find the optimum

    def test_all_infeasible_raises(self):
        g = QdnGraph((4, 4), (EdgeSpec(0, 1, 1, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        route0 = Route.from_nodes(g, [0, 1], request_id=0)
        route1 = Route.from_nodes(g, [0, 1], request_id=1)
        reqs = [SdRequest(0, 0, 1, (route0,)), SdRequest(1, 0, 1, (route1,))]
        with pytest.raises(AllInfeasibleError):
            gibbs_select(g, caps, reqs, PerSlotObjectiveParams(V=1.0),
                         GibbsParams(gamma=1.0, seed=3))


class TestAutoSelect:
    def test_dispatches_to_exhaustive_when_small(self):
        g, caps, reqs = two_route_request()
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=2)
        sel, _, f = select_routes(g, caps, reqs, params, enumeration_cap=10)
        sel2, _, f2 = exhaustive_select(g, caps, reqs, params)
        assert sel == sel2 and f == f2

    def test_dispatches_to_gibbs_when_large(self):
        g, caps, reqs = two_route_request()
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=2)
        sel, alloc, f = select_routes(g, caps, reqs, params,
                                      gibbs=GibbsParams(gamma=0.5, seed=2),
                                      enumeration_cap=1)
        assert alloc is not None


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda g, caps, reqs, params: GibbsParams(gamma=0.0), "gamma must be positive"),
        (lambda g, caps, reqs, params: select_routes(g, caps, [], params),
         "no requests to select routes for"),
        (lambda g, caps, reqs, params: select_routes(
            g, caps, reqs + [SdRequest(1, 0, 2, ())], params),
         "every request needs at least one candidate route"),
    ], ids=["gamma=0", "no request", "no candidate"])
    def test_rejected_with_message(self, call, message):
        g, caps, reqs = two_route_request()
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(g, caps, reqs, PerSlotObjectiveParams(V=1.0))

    def test_zero_draw_rejects_nothing(self):
        assert selection._rejection_floor(0.0, 1.0, 500.0) == -math.inf

    def test_zero_capacity_route_avoided_at_zero_price(self):
        # The direct route is the better one at full capacity, but its edge
        # has no channel in this slot: the search scores it infeasible and
        # picks the detour.
        g, caps, reqs = two_route_request()
        params = PerSlotObjectiveParams(V=1.0, q=0.0)
        assert exhaustive_select(g, caps, reqs, params)[0] == {0: 0}
        empty = SlotCapacities(caps.q_caps, (0,) + caps.w_caps[1:])
        sel, alloc, _ = exhaustive_select(g, empty, reqs, params)
        assert sel == {0: 1}
        assert verify_feasible(g, empty, [reqs[0].candidates[1]], alloc).ok


def fail_on(monkeypatch, bad_routes):
    """Make the selectors' allocator raise NoConvergenceError on one combination."""
    bad = [r.edges for r in bad_routes]

    def flaky(graph, caps, routes, params, **kwargs):
        if [r.edges for r in routes] == bad:
            raise NoConvergenceError("injected")
        return allocate(graph, caps, routes, params, **kwargs)

    monkeypatch.setattr(selection, "allocate", flaky)


def unfloored(graph, caps, routes, params, floor=-math.inf, pool=None):
    """The allocator as a selector sees it, ignoring any floor and the
    selector's variable pool."""
    return allocate(graph, caps, routes, params)


def multi_request_instance(rng):
    """Requests with at least two route combinations, at least two feasible."""
    while True:
        g, caps, routes, params = random_allocation_instance(rng, max_requests=3)
        reqs = build_requests(g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                              RouteConfig(max_candidates=3, max_hops=4))
        if not all(r.servable for r in reqs):
            continue
        feasible = 0
        for combo in product(*(range(len(r.candidates)) for r in reqs)):
            try:
                allocate(g, caps, [r.candidates[c] for r, c in zip(reqs, combo)], params)
                feasible += 1
            except InfeasibleSelectionError:
                pass
        if feasible >= 2:
            return g, caps, reqs, params


class TestNoConvergencePolicy:
    def test_exhaustive_skips_failed_combination(self, monkeypatch):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g, caps, reqs, params = multi_request_instance(rng)
            sel, _, f = exhaustive_select(g, caps, reqs, params)
            bad = tuple(sel[r.request_id] for r in reqs)
            # the best of the remaining combinations, evaluated unpatched
            best = -math.inf
            for combo in product(*(range(len(r.candidates)) for r in reqs)):
                if combo == bad:
                    continue
                try:
                    _, val = allocate(
                        g, caps, [r.candidates[c] for r, c in zip(reqs, combo)], params)
                except InfeasibleSelectionError:
                    continue
                best = max(best, val)
            with monkeypatch.context() as m:
                fail_on(m, [r.candidates[c] for r, c in zip(reqs, bad)])
                sel2, alloc2, f2 = exhaustive_select(g, caps, reqs, params)
            assert tuple(sel2[r.request_id] for r in reqs) != bad
            assert f2 == best <= f
            chosen = [r.candidates[sel2[r.request_id]] for r in reqs]
            assert verify_feasible(g, caps, chosen, alloc2).ok

    def test_exhaustive_all_failed_is_all_infeasible(self, monkeypatch):
        g, caps, reqs = two_route_request()

        def always(*args, **kwargs):
            raise NoConvergenceError("injected")

        monkeypatch.setattr(selection, "allocate", always)
        with pytest.raises(AllInfeasibleError):
            exhaustive_select(g, caps, reqs, PerSlotObjectiveParams(V=1.0))

    def test_gibbs_avoids_failed_combination(self, monkeypatch):
        g, caps, reqs = two_route_request()
        params = PerSlotObjectiveParams(V=1.0, q=0.0, cost_cap=2)
        assert exhaustive_select(g, caps, reqs, params)[0] == {0: 0}
        fail_on(monkeypatch, [reqs[0].candidates[0]])
        for seed in range(5):
            sel, alloc, f = gibbs_select(g, caps, reqs, params,
                                         GibbsParams(gamma=0.5, seed=seed))
            assert sel == {0: 1}
            assert verify_feasible(g, caps, [reqs[0].candidates[1]], alloc).ok

    def test_gibbs_multi_request(self, monkeypatch):
        rng = np.random.default_rng(67)
        for seed in range(5):
            g, caps, reqs, params = multi_request_instance(rng)
            sel, _, _ = exhaustive_select(g, caps, reqs, params)
            bad = tuple(sel[r.request_id] for r in reqs)
            with monkeypatch.context() as m:
                fail_on(m, [r.candidates[c] for r, c in zip(reqs, bad)])
                sel2, alloc2, _ = gibbs_select(g, caps, reqs, params,
                                               GibbsParams(gamma=1.0, seed=seed))
            assert tuple(sel2[r.request_id] for r in reqs) != bad
            chosen = [r.candidates[sel2[r.request_id]] for r in reqs]
            assert verify_feasible(g, caps, chosen, alloc2).ok


class TestBoundRejection:
    def test_same_result_as_solving_every_proposal(self, monkeypatch):
        rng = np.random.default_rng(73)
        cut = []

        def counting(*args, **kwargs):
            try:
                return allocate(*args, **kwargs)
            except DominatedError:
                cut.append(1)
                raise

        def outcome(gibbs_params):
            trace = []
            try:
                sel, alloc, f = gibbs_select(g, caps, reqs, params, gibbs_params, trace)
            except AllInfeasibleError:
                return None, trace
            return (sel, sorted(alloc.items()), f.hex()), trace

        pairs = 0
        while pairs < 240:
            g, caps, routes, params = random_allocation_instance(
                rng, max_requests=4, with_cost_cap=pairs % 3 == 1)
            reqs = build_requests(g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                                  RouteConfig(max_candidates=3, max_hops=4))
            if not all(r.servable for r in reqs):
                continue
            gibbs_params = GibbsParams(gamma=float(10 ** rng.uniform(-1, 1.5)), seed=pairs)
            with monkeypatch.context() as m:
                m.setattr(selection, "allocate", counting)
                got, trace = outcome(gibbs_params)
            with monkeypatch.context() as m:
                m.setattr(selection, "allocate", unfloored)
                want, ref_trace = outcome(gibbs_params)
            assert got == want
            # Same proposals and decisions; a bound-rejected one has no value.
            assert len(trace) == len(ref_trace)
            for entry, ref in zip(trace, ref_trace):
                assert entry[:3] + entry[4:] == ref[:3] + ref[4:]
                assert entry[3] is None or entry[3] == ref[3]
            pairs += 1
        assert len(cut) > 100


def floor_instance(rng, capped, free, duplicate):
    """Requests over a random instance; ``free`` zeroes the price, and
    ``duplicate`` repeats each request's first candidate so that exact ties
    occur."""
    while True:
        g, caps, routes, params = random_allocation_instance(
            rng, max_requests=4, with_cost_cap=capped)
        reqs = build_requests(g, [(r.nodes[0], r.nodes[-1]) for r in routes],
                              RouteConfig(max_candidates=3, max_hops=4))
        if all(r.servable for r in reqs):
            break
    if duplicate:
        reqs = [replace(r, candidates=r.candidates + r.candidates[:1]) for r in reqs]
    return g, caps, reqs, replace(params, q=0.0) if free else params


def exhaustive_outcome(g, caps, reqs, params, allocator):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(selection, "allocate", allocator)
        try:
            sel, alloc, f = exhaustive_select(g, caps, reqs, params)
        except AllInfeasibleError:
            return None
    return sel, sorted(alloc.items()), f.hex()


class TestIncumbentFloor:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(), free=st.booleans(),
           duplicate=st.booleans())
    def test_same_result_as_solving_every_combination(self, seed, capped, free, duplicate):
        g, caps, reqs, params = floor_instance(np.random.default_rng(seed), capped,
                                               free, duplicate)
        want = exhaustive_outcome(g, caps, reqs, params, unfloored)
        assert exhaustive_outcome(g, caps, reqs, params, allocate) == want

    def test_uncapped_cuts_and_capped_passes_no_floor(self):
        rng = np.random.default_rng(83)
        floors = {False: [], True: []}
        cut = []

        def recording(graph, caps, routes, params, floor=-math.inf, pool=None):
            floors[params.cost_cap is not None].append(floor)
            try:
                return allocate(graph, caps, routes, params, floor=floor, pool=pool)
            except DominatedError:
                cut.append(1)
                raise

        for k in range(120):
            g, caps, reqs, params = floor_instance(rng, k % 2 == 1, k % 4 < 2, k % 3 == 0)
            want = exhaustive_outcome(g, caps, reqs, params, unfloored)
            assert exhaustive_outcome(g, caps, reqs, params, recording) == want
        assert all(f == -math.inf for f in floors[True])
        assert sum(f > -math.inf for f in floors[False]) > 200
        assert len(cut) > 100


def kept_tables(g, caps, reqs, params):
    """Keep each solved combination's final multipliers in the pool, in
    turn, as a search keeps its incumbent's; check that the pool's bound
    then lies above every combination's relaxed optimum, and return the
    sites of each kept table."""
    combos = [[r.candidates[c] for r, c in zip(reqs, choice)]
              for choice in product(*(range(len(r.candidates)) for r in reqs))]
    optima = []
    for routes in combos:
        try:
            optima.append(relaxed_solution(g, caps, routes, params)[1])
        except (InfeasibleSelectionError, NoConvergenceError):
            optima.append(None)
    pool = VariablePool(g, caps, params)
    kept = []
    for incumbent, f in zip(combos, optima):
        if f is None:
            continue
        allocate(g, caps, incumbent, params, pool=pool)
        pool.keep_multipliers()
        for routes, opt in zip(combos, optima):
            if opt is not None:
                bound = pool.lagrangian_bound([pool.block(r) for r in routes])
                assert bound >= opt - 1e-9 * (1.0 + abs(opt))
        kept.append(set(pool._table[0]) if pool._table else set())
    return kept


class TestMultiplierTable:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capped=st.booleans(), free=st.booleans(),
           duplicate=st.booleans())
    def test_bound_holds_and_search_is_exact(self, seed, capped, free, duplicate):
        # Capped and uncapped, at q = 0 and q > 0: the node, edge and budget
        # multipliers of any solved combination, taken as the incumbent's,
        # bound every combination's relaxed optimum, and the search that
        # cuts by them is exact.
        g, caps, reqs, params = floor_instance(np.random.default_rng(seed), capped,
                                               free, duplicate)
        kept_tables(g, caps, reqs, params)
        want = exhaustive_outcome(g, caps, reqs, params, unfloored)
        assert exhaustive_outcome(g, caps, reqs, params, allocate) == want

    def test_kept_table_holds_the_budget_multiplier(self):
        # Over fixed capped instances, some incumbents' solves price the
        # budget, so their kept tables hold the site (2, 0); the bound with
        # its multiplier still holds (checked by kept_tables).
        tables = budget = 0
        for seed in range(300):
            g, caps, reqs, params = floor_instance(np.random.default_rng(seed), True,
                                                   seed % 2 == 0, False)
            for sites in kept_tables(g, caps, reqs, params):
                tables += 1
                budget += (2, 0) in sites
        assert tables > 1000 and budget > 300


# SHA-256 of every slot, and of every Gibbs allocator call, of the tests
# below; update one only for a change that alters selections, allocations or
# the calls that find them on purpose.
PINNED_GIBBS_SHA256 = "1cc65a3ef29950ff1c0aef3890fdbbe772b5269f7294589b0affa2c90d5c98be"
PINNED_EXHAUSTIVE_SHA256 = "0b6acd8b7e27cfaf1b59bdb3238de53e4fd56b69b9c9bf283913cd634d4fd901"
PINNED_CALLS_SHA256 = "95413888557fb9d8b71dc289b522af9b475b481443832afdd32f068a000558f7"


def _slots_digest(slots, enumeration_cap, policies=None):
    # The first slots of the default config's trial 0 under every policy.
    cfg = default_config()
    seed = cfg.seed
    graph = generate_waxman(replace(cfg.topology, seed=seed), cfg.capacities)
    cache = CandidateCache(graph, cfg.route)
    h = hashlib.sha256()
    for policy in policies or cfg.policies:
        state = ControllerState(q=cfg.budget.q0 if policy == "OSCAR" else 0.0,
                                policy=policy)
        for t in range(slots):
            caps = sample_slot_capacities(graph, cfg.capacities, t, seed)
            reqs = build_requests(graph, sample_requests(graph, cfg.workload, t, seed),
                                  cfg.route, cache)
            gibbs = replace(cfg.gibbs, seed=[seed, STREAM_GIBBS, POLICIES.index(policy), t])
            sel, alloc, record, state = run_slot(policy, graph, caps, reqs, state,
                                                 cfg.budget, gibbs, enumeration_cap)
            items = sorted(alloc.items()) if alloc is not None else None
            h.update(f"{policy}{t}:{sorted(sel.items())}:{items}:{record!r}\n".encode())
    return h.hexdigest()


def test_gibbs_slots_pinned():
    # An enumeration cap of 2 makes every slot run the Gibbs sampler.
    assert _slots_digest(20, 2) == PINNED_GIBBS_SHA256


def test_exhaustive_slots_pinned():
    # At the stock cap every slot of the default config is exhaustive.
    assert _slots_digest(10, selection.DEFAULT_ENUMERATION_CAP) == PINNED_EXHAUSTIVE_SHA256


def test_gibbs_calls_pinned(monkeypatch):
    # Every allocator call of the Gibbs slots above: the chosen routes, the
    # floor, and the objective, the certified bound of a cut, or the error.
    h = hashlib.sha256()

    def recording(graph, caps, routes, params, floor=-math.inf, pool=None):
        call = f"{[r.edges for r in routes]}:{floor.hex()}"
        try:
            alloc, f = allocate(graph, caps, routes, params, floor=floor, pool=pool)
        except DominatedError as exc:
            h.update(f"{call}:cut:{exc.bound.hex()}\n".encode())
            raise
        except (InfeasibleSelectionError, NoConvergenceError) as exc:
            h.update(f"{call}:{type(exc).__name__}\n".encode())
            raise
        h.update(f"{call}:{f.hex()}\n".encode())
        return alloc, f

    monkeypatch.setattr(selection, "allocate", recording)
    _slots_digest(20, 2)
    assert h.hexdigest() == PINNED_CALLS_SHA256


def test_exhaustive_work_pinned(monkeypatch):
    # Exhaustive OSCAR over the first slots of the default config's trial 0:
    # one allocate call per route combination (perfbench's traced check
    # counts them), and how far the calls get: cut before their coupling
    # constraints are built, coupled, and solved in full.
    spaces, calls = [], []
    work = {"cut before coupling": 0, "coupled": 0, "solved": 0}

    def searching(graph, caps, requests, params, *args):
        spaces.append(math.prod(len(r.candidates) for r in requests))
        calls.append(0)
        return exhaustive_select(graph, caps, requests, params, *args)

    def counting(graph, caps, routes, params, floor=-math.inf, pool=None):
        calls[-1] += 1
        coupled = work["coupled"]
        try:
            result = allocate(graph, caps, routes, params, floor=floor, pool=pool)
        except DominatedError:
            work["cut before coupling"] += work["coupled"] == coupled
            raise
        work["solved"] += 1
        return result

    couple = allocation._Instance._couple

    def coupling(self, caps, cost_cap):
        work["coupled"] += 1
        return couple(self, caps, cost_cap)

    monkeypatch.setattr(selection, "exhaustive_select", searching)
    monkeypatch.setattr(selection, "allocate", counting)
    monkeypatch.setattr(allocation._Instance, "_couple", coupling)
    _slots_digest(10, selection.DEFAULT_ENUMERATION_CAP, ("OSCAR",))
    assert calls == spaces and sum(calls) == 1092
    assert work == {"cut before coupling": 1030, "coupled": 62, "solved": 34}
