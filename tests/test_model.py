"""Unit tests for the link model and core types.

Core claims:
    - channel_success_prob matches a frozen high-precision evaluation and
      the closed-form expansion for small attempt counts
    - edge_success_prob and route_success_prob reproduce hand-computed values
    - both probabilities are strictly increasing, concave in the channel
      count, and log-concave (nonincreasing log differences)
    - slot_utility is the sum of natural-log success probabilities
    - verify_feasible agrees with an independent load counter and flags the
      exact violated nodes/edges
    - Monte-Carlo estimates agree with the analytic probabilities within
      3-sigma binomial bounds
    - graph construction rejects malformed inputs and normalizes endpoints
    - a graph without nodes or with negative capacities, a one-node route,
      a link probability outside (0, 1] and fewer than one Monte-Carlo
      sample are rejected with a message; a saturated link succeeds with
      probability 1
    - an allocation takes integral counts of at least 1, numpy integers
      included, and rejects a bool, a fraction, a NaN or an infinity with
      its own ValueError
"""

import math
import re

import numpy as np
import pytest
from pytest import approx

from qdnroute.model import (
    Allocation,
    EdgeSpec,
    MissingAllocationError,
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

# 60-digit evaluation of 1 - (1 - 2e-4)**4000, frozen.
CHANNEL_P_REFERENCE = 0.5507069855552713


def path_graph(probs, channels=10, qubits=20, attempts=1):
    """Chain 0-1-2-... with edge i having per-channel success probs[i]."""
    edges = tuple(
        EdgeSpec(i, i + 1, channels, p, attempts) for i, p in enumerate(probs)
    )
    return QdnGraph(tuple([qubits] * (len(probs) + 1)), edges)


class TestChannelSuccessProb:
    def test_reference_value(self):
        assert channel_success_prob(2e-4, 4000) == approx(CHANNEL_P_REFERENCE, abs=1e-12)
        assert abs(channel_success_prob(2e-4, 4000) - 0.5507) < 1e-4

    def test_single_attempt_is_identity(self):
        assert channel_success_prob(0.5, 1) == approx(0.5, abs=1e-12)

    def test_two_attempts_expansion(self):
        # 1 - (1-p)^2 = 2p - p^2
        assert channel_success_prob(0.1, 2) == approx(0.19, abs=1e-12)
        for p in (1e-6, 0.3, 0.9):
            assert channel_success_prob(p, 2) == approx(2 * p - p * p, rel=1e-12)

    def test_monotone_in_both_arguments(self):
        assert channel_success_prob(0.2, 3) > channel_success_prob(0.1, 3)
        assert channel_success_prob(0.1, 4) > channel_success_prob(0.1, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            channel_success_prob(0.0, 5)
        with pytest.raises(ValueError):
            channel_success_prob(1.0, 5)
        with pytest.raises(ValueError):
            channel_success_prob(0.5, 0)


class TestEdgeSuccessProb:
    def test_unit_values(self):
        assert edge_success_prob(0.5, 1) == approx(0.5, abs=1e-12)
        assert edge_success_prob(0.5, 2) == approx(0.75, abs=1e-12)
        assert edge_success_prob(CHANNEL_P_REFERENCE, 2) == approx(0.7981357871711688, abs=1e-12)
        assert abs(edge_success_prob(CHANNEL_P_REFERENCE, 2) - 0.7981) < 1e-4

    def test_real_channel_counts(self):
        # relaxed-solver extension: same closed form at fractional n
        assert edge_success_prob(0.5, 1.5) == approx(1 - 0.5 ** 1.5, rel=1e-12)

    def test_strictly_increasing_in_n(self):
        # restricted to where 1 - (1-p)^n stays below double-precision 1.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(0.01, 0.9)
            n = rng.uniform(1.0, 10.0)
            assert edge_success_prob(p, n + 0.5) > edge_success_prob(p, n)

    def test_concave_in_n(self):
        # P(n+1) - P(n) <= P(n) - P(n-1) for n >= 2, over a probability grid
        for p in np.linspace(0.05, 0.95, 19):
            for n in range(2, 12):
                d_up = edge_success_prob(p, n + 1) - edge_success_prob(p, n)
                d_dn = edge_success_prob(p, n) - edge_success_prob(p, n - 1)
                assert d_up <= d_dn + 1e-15

    def test_log_concave_in_n(self):
        for p in np.linspace(0.05, 0.95, 19):
            diffs = [
                math.log(edge_success_prob(p, n + 1)) - math.log(edge_success_prob(p, n))
                for n in range(1, 12)
            ]
            assert all(b <= a + 1e-15 for a, b in zip(diffs, diffs[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            edge_success_prob(0.5, 0.5)

    def test_saturated_link(self):
        assert edge_success_prob(1.0, 1) == 1.0
        assert edge_success_prob(1.0, 2.5) == 1.0


class TestRouteSuccessProb:
    def test_products(self):
        g = path_graph([0.8, 0.8])
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        alloc = Allocation({(0, 0): 1, (0, 1): 1})
        assert route_success_prob(g, route, alloc) == approx(0.64, abs=1e-12)

        g1 = path_graph([0.9])
        r1 = Route.from_nodes(g1, [0, 1], request_id=0)
        assert route_success_prob(g1, r1, Allocation({(0, 0): 1})) == approx(0.9, abs=1e-12)

        g3 = path_graph([0.9, 0.8, 0.5])
        r3 = Route.from_nodes(g3, [0, 1, 2, 3], request_id=0)
        a3 = Allocation({(0, 0): 1, (0, 1): 1, (0, 2): 1})
        assert route_success_prob(g3, r3, a3) == approx(0.36, abs=1e-12)

    def test_missing_allocation(self):
        g = path_graph([0.8, 0.8])
        route = Route.from_nodes(g, [0, 1, 2], request_id=0)
        with pytest.raises(MissingAllocationError):
            route_success_prob(g, route, Allocation({(0, 0): 1}))

    def test_never_increases_when_any_count_drops(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            probs = rng.uniform(0.1, 0.9, size=3)
            g = path_graph(list(probs))
            route = Route.from_nodes(g, [0, 1, 2, 3], request_id=0)
            counts = rng.integers(2, 6, size=3)
            base = Allocation({(0, i): int(c) for i, c in enumerate(counts)})
            drop = int(rng.integers(3))
            lowered = dict(base.items())
            lowered[(0, drop)] -= 1
            assert route_success_prob(g, route, Allocation(lowered)) < route_success_prob(g, route, base)


class TestSlotUtility:
    def test_values(self):
        g = path_graph([0.5])
        r = Route.from_nodes(g, [0, 1], request_id=0)
        a = Allocation({(0, 0): 1})
        assert slot_utility(g, [r], a) == approx(math.log(0.5), abs=1e-12)

        r2 = Route.from_nodes(g, [0, 1], request_id=1)
        a2 = Allocation({(0, 0): 1, (1, 0): 1})
        assert slot_utility(g, [r, r2], a2) == approx(2 * math.log(0.5), abs=1e-12)

    def test_empty_request_set(self):
        g = path_graph([0.5])
        assert slot_utility(g, [], Allocation({})) == 0.0

    def test_nonpositive(self):
        g = path_graph([0.99, 0.99])
        r = Route.from_nodes(g, [0, 1, 2], request_id=0)
        a = Allocation({(0, 0): 9, (0, 1): 9})
        assert slot_utility(g, [r], a) <= 0.0


def brute_force_loads(graph, routes, alloc):
    """Independent load counter walking node pairs instead of edge ids."""
    node_load = {}
    edge_load = {}
    by_pair = {}
    for eid, e in enumerate(graph.edges):
        by_pair[(e.u, e.v)] = eid
        by_pair[(e.v, e.u)] = eid
    for route in routes:
        for a, b in zip(route.nodes, route.nodes[1:]):
            eid = by_pair[(a, b)]
            n = alloc.get(route.request_id, eid)
            node_load[a] = node_load.get(a, 0) + n
            node_load[b] = node_load.get(b, 0) + n
            edge_load[eid] = edge_load.get(eid, 0) + n
    return node_load, edge_load


class TestVerifyFeasible:
    def test_exact_fit(self):
        g = QdnGraph((3, 3), (EdgeSpec(0, 1, 3, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        r = Route.from_nodes(g, [0, 1], request_id=0)
        assert verify_feasible(g, caps, [r], Allocation({(0, 0): 3})).ok

    def test_edge_violation_reported(self):
        g = QdnGraph((3, 3), (EdgeSpec(0, 1, 2, 0.5, 1),))
        caps = SlotCapacities.from_graph(g)
        r = Route.from_nodes(g, [0, 1], request_id=0)
        report = verify_feasible(g, caps, [r], Allocation({(0, 0): 3}))
        assert not report
        assert report.edge_violations == ((0, 3, 2),)

    def test_shared_middle_node(self):
        # request 0 crosses the middle node on both its edges (n=2 each),
        # request 1 touches it through one edge (n=2): load 6 at node 1
        g = path_graph([0.5, 0.5], channels=10, qubits=7)
        r0 = Route.from_nodes(g, [0, 1, 2], request_id=0)
        r1 = Route.from_nodes(g, [0, 1], request_id=1)
        alloc = Allocation({(0, 0): 2, (0, 1): 2, (1, 0): 2})
        caps = SlotCapacities.from_graph(g)
        assert verify_feasible(g, caps, [r0, r1], alloc).ok
        tight = SlotCapacities((7, 3, 7), caps.w_caps)
        report = verify_feasible(g, tight, [r0, r1], alloc)
        assert not report.ok
        assert report.node_violations == ((1, 6, 3),)

    def test_matches_brute_force_counter(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            probs = rng.uniform(0.2, 0.8, size=3)
            g = path_graph(list(probs), channels=6, qubits=9)
            routes = []
            entries = {}
            for rid in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, 3))
                end = int(rng.integers(start + 1, 4))
                route = Route.from_nodes(g, list(range(start, end + 1)), request_id=rid)
                routes.append(route)
                for eid in route.edges:
                    entries[(rid, eid)] = int(rng.integers(1, 4))
            alloc = Allocation(entries)
            caps = SlotCapacities(
                tuple(int(c) for c in rng.integers(2, 12, size=4)),
                tuple(int(c) for c in rng.integers(2, 9, size=3)),
            )
            report = verify_feasible(g, caps, routes, alloc)
            node_load, edge_load = brute_force_loads(g, routes, alloc)
            expect_ok = all(load <= caps.q_caps[v] for v, load in node_load.items()) and all(
                load <= caps.w_caps[e] for e, load in edge_load.items()
            )
            assert report.ok == expect_ok
            # every violation, in id order
            assert report.node_violations == tuple(
                (v, load, caps.q_caps[v]) for v, load in sorted(node_load.items())
                if load > caps.q_caps[v])
            assert report.edge_violations == tuple(
                (e, load, caps.w_caps[e]) for e, load in sorted(edge_load.items())
                if load > caps.w_caps[e])


class TestMonteCarlo:
    def test_near_certain_success(self):
        g = path_graph([0.999999], attempts=10)
        r = Route.from_nodes(g, [0, 1], request_id=0)
        got = monte_carlo_route_success(g, r, Allocation({(0, 0): 2}), 2000, seed=3)
        assert got == approx(1.0, abs=1e-3)

    def test_single_edge_half(self):
        g = path_graph([0.5])
        r = Route.from_nodes(g, [0, 1], request_id=0)
        samples = 100_000
        got = monte_carlo_route_success(g, r, Allocation({(0, 0): 1}), samples, seed=11)
        sigma = math.sqrt(0.25 / samples)
        assert abs(got - 0.5) <= 3 * sigma

    def test_two_edge_route(self):
        g = path_graph([0.8, 0.8])
        r = Route.from_nodes(g, [0, 1, 2], request_id=0)
        samples = 100_000
        got = monte_carlo_route_success(g, r, Allocation({(0, 0): 1, (0, 1): 1}), samples, seed=12)
        sigma = math.sqrt(0.64 * 0.36 / samples)
        assert abs(got - 0.64) <= 3 * sigma

    def test_deterministic_given_seed(self):
        g = path_graph([0.6, 0.7])
        r = Route.from_nodes(g, [0, 1, 2], request_id=0)
        a = Allocation({(0, 0): 2, (0, 1): 1})
        first = monte_carlo_route_success(g, r, a, 5000, seed=42)
        second = monte_carlo_route_success(g, r, a, 5000, seed=42)
        assert first == second


class TestTypes:
    def test_graph_normalizes_endpoints(self):
        g = QdnGraph((1, 1, 1), (EdgeSpec(1, 0, 2, 0.5, 1), EdgeSpec(2, 1, 2, 0.5, 1)))
        assert g.edges[0].u == 0 and g.edges[0].v == 1
        assert g.edge_id(0, 1) == g.edge_id(1, 0) == 0
        assert g.edge_id(2, 1) == 1
        with pytest.raises(KeyError):
            g.edge_id(0, 2)

    def test_neighbors_sorted_and_built_once(self):
        # edges listed out of neighbor order at node 2
        g = QdnGraph((1,) * 4, (EdgeSpec(2, 3, 1, 0.5, 1), EdgeSpec(0, 2, 1, 0.5, 1),
                                EdgeSpec(2, 1, 1, 0.5, 1)))
        assert g.adjacency[2] == ((0, 1), (1, 2), (3, 0))
        assert g.adjacency[0] == ((2, 1),)
        # one immutable tuple per node, stored with the graph
        assert g.adjacency == (((2, 1),), ((2, 2),), ((0, 1), (1, 2), (3, 0)), ((2, 0),))

    def test_graph_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            QdnGraph((1, 1), (EdgeSpec(0, 0, 2, 0.5, 1),))
        with pytest.raises(ValueError):
            QdnGraph((1, 1), (EdgeSpec(0, 1, 2, 0.5, 1), EdgeSpec(1, 0, 2, 0.5, 1)))
        with pytest.raises(ValueError):
            QdnGraph((1, 1), (EdgeSpec(0, 2, 2, 0.5, 1),))

    def test_route_requires_simple_adjacent_nodes(self):
        g = path_graph([0.5, 0.5])
        with pytest.raises(ValueError):
            Route.from_nodes(g, [0, 2])
        with pytest.raises(ValueError):
            Route.from_nodes(g, [0, 1, 0])

    def test_allocation_rejects_nonpositive(self):
        # a bool used to count as 1, an infinity to escape as OverflowError
        for count in (0, -1, 1.5, True, False, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"allocation for (0, 0) must be a positive integer, got {count}")):
                Allocation({(0, 0): count})

    def test_allocation_cost(self):
        a = Allocation({(0, 0): 2, (1, 0): 3})
        assert a.cost == 5
        # numpy integers and integral floats are counts too, stored as int
        a = Allocation({(0, 0): np.int64(3), (0, 1): np.int32(1), (0, 2): 2.0})
        assert [type(n) for _, n in a.items()] == [int] * 3 and a.cost == 6


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: QdnGraph((), ()), "graph needs at least one node"),
        (lambda: QdnGraph((1, -1), ()), "qubit capacities must be >= 0"),
        (lambda: QdnGraph((1, 1), (EdgeSpec(0, 1, -1, 0.5, 1),)),
         "channel capacity must be >= 0"),
        (lambda: Route.from_nodes(path_graph([0.5]), [0]), "a route needs at least two nodes"),
        (lambda: edge_success_prob(0.0, 1), "p_e must lie in (0, 1], got 0.0"),
        (lambda: edge_success_prob(1.5, 1), "p_e must lie in (0, 1], got 1.5"),
        (lambda: monte_carlo_route_success(
            path_graph([0.5]), Route.from_nodes(path_graph([0.5]), [0, 1], request_id=0),
            Allocation({(0, 0): 1}), 0, seed=0), "samples must be >= 1"),
    ], ids=["no node", "negative qubits", "negative channels", "one-node route",
            "p_e=0", "p_e>1", "samples=0"])
    def test_rejected_with_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
