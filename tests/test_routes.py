"""Unit tests for candidate route precomputation.

Core claims:
    - hand-checkable graphs (path, triangle) give the expected candidate
      sets in (hop count, node sequence) order
    - on random graphs small enough to enumerate, the result equals the
      top-R of the full simple-path enumeration under the same ordering
    - every returned route is simple, endpoint-correct, and within the hop
      bound; unreachable pairs give an empty list
    - output is deterministic and the cache binds request ids correctly
    - candidate sets on the default topologies and a 100-node one match a
      recorded digest, and every candidate's edge ids, built in the walk,
      are the ones ``Route.from_nodes`` finds for its nodes
    - an endpoint outside the graph's nodes raises ValueError, and a
      candidate or hop limit below 1 is rejected with a message
    - the cache looks up ``routes.candidate_routes`` once per new pair and
      never on a hit, through the module attribute a tracer can wrap
"""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from qdnroute import routes
from qdnroute.harness import calibrate_beta, default_config
from qdnroute.model import EdgeSpec, QdnGraph, Route
from qdnroute.routes import (
    CandidateCache,
    RouteConfig,
    build_requests,
    candidate_routes,
)
from qdnroute.topology import generate_waxman


def graph_from_pairs(n, pairs):
    return QdnGraph(tuple([10] * n), tuple(EdgeSpec(u, v, 5, 0.5, 1) for u, v in pairs))


def enumerate_simple_paths(graph, s, d, max_hops):
    """Brute-force DFS over all simple paths, the oracle ordering applied."""
    found = []

    def walk(path):
        tail = path[-1]
        if tail == d:
            found.append(tuple(path))
            return
        if len(path) - 1 >= max_hops:
            return
        for nbr, _ in graph.adjacency[tail]:
            if nbr not in path:
                walk(path + [nbr])

    walk([s])
    return sorted(found, key=lambda p: (len(p) - 1, p))


def test_path_graph_single_route():
    g = graph_from_pairs(3, [(0, 1), (1, 2)])
    routes = candidate_routes(g, 0, 2, RouteConfig(max_candidates=3, max_hops=5))
    assert [r.nodes for r in routes] == [(0, 1, 2)]


def test_triangle_orders_by_hops():
    g = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    routes = candidate_routes(g, 0, 1, RouteConfig(max_candidates=3, max_hops=2))
    assert [r.nodes for r in routes] == [(0, 1), (0, 2, 1)]


def test_triangle_hop_bound_excludes_detour():
    g = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    routes = candidate_routes(g, 0, 1, RouteConfig(max_candidates=3, max_hops=1))
    assert [r.nodes for r in routes] == [(0, 1)]


def test_unreachable_within_bound_is_empty():
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert candidate_routes(g, 0, 3, RouteConfig(max_candidates=2, max_hops=2)) == []


def test_same_endpoints_rejected():
    g = graph_from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        candidate_routes(g, 1, 1, RouteConfig())


@pytest.mark.parametrize("s, d", [(0, 4), (0, 99), (0, -1), (-1, 0), (4, 0)])
def test_endpoint_outside_graph_rejected(s, d):
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"0\.\.3"):
        candidate_routes(g, s, d, RouteConfig())


@pytest.mark.parametrize("fields", [{"max_candidates": 0}, {"max_hops": 0}],
                         ids=["max_candidates=0", "max_hops=0"])
def test_bad_route_config_rejected(fields):
    message = "max_candidates and max_hops must be >= 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RouteConfig(**fields)


def random_graph(rng, n):
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}  # random spanning tree
    extra = rng.integers(0, n)
    for _ in range(int(extra)):
        u, v = rng.choice(n, size=2, replace=False)
        u, v = (int(u), int(v)) if u < v else (int(v), int(u))
        pairs.add((u, v))
    return graph_from_pairs(n, sorted(pairs))


def test_matches_enumeration_oracle_on_random_graphs():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n)
        s, d = (int(x) for x in rng.choice(n, size=2, replace=False))
        R = int(rng.integers(1, 9))
        L = int(rng.integers(1, 9))
        cfg = RouteConfig(max_candidates=R, max_hops=L)
        got = [r.nodes for r in candidate_routes(g, s, d, cfg)]
        expect = enumerate_simple_paths(g, s, d, L)[:R]
        assert got == expect, (n, s, d, R, L, sorted(g.edges))
        checked += 1
    assert checked == 400


def test_route_invariants_hold():
    rng = np.random.default_rng(5)
    cfg = RouteConfig(max_candidates=3, max_hops=4)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(5, 10)))
        s, d = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        for route in candidate_routes(g, s, d, cfg):
            assert route.nodes[0] == s and route.nodes[-1] == d
            assert len(set(route.nodes)) == len(route.nodes)
            assert 1 <= route.hops <= cfg.max_hops
            for eid, (a, b) in zip(route.edges, zip(route.nodes, route.nodes[1:])):
                e = g.edges[eid]
                assert {e.u, e.v} == {a, b}


def test_deterministic():
    g = graph_from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    cfg = RouteConfig(max_candidates=4, max_hops=5)
    first = [r.nodes for r in candidate_routes(g, 0, 3, cfg)]
    second = [r.nodes for r in candidate_routes(g, 0, 3, cfg)]
    assert first == second


def test_build_requests_binds_ids_and_caches():
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cache = CandidateCache(g, RouteConfig(max_candidates=2, max_hops=3))
    reqs = build_requests(g, [(0, 2), (0, 2), (1, 3)], RouteConfig(2, 3), cache)
    assert [r.request_id for r in reqs] == [0, 1, 2]
    assert reqs[0].candidates[0].nodes == reqs[1].candidates[0].nodes
    assert reqs[0].candidates[0].request_id == 0
    assert reqs[1].candidates[0].request_id == 1
    assert all(r.servable for r in reqs)


def test_cache_looks_up_each_new_pair_once(monkeypatch):
    calls = []
    inner = routes.candidate_routes

    def counting(graph, s, d, config):
        calls.append((s, d))
        return inner(graph, s, d, config)

    monkeypatch.setattr(routes, "candidate_routes", counting)
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cfg = RouteConfig(max_candidates=2, max_hops=3)
    cache = CandidateCache(g, cfg)
    build_requests(g, [(0, 2), (0, 2), (1, 3), (2, 0)], cfg, cache)
    assert calls == [(0, 2), (1, 3), (2, 0)]
    cache.get(1, 3)
    build_requests(g, [(2, 0), (0, 2)], cfg, cache)
    assert calls == [(0, 2), (1, 3), (2, 0)]


# SHA-256 of the candidate sets below; update it only for a change that alters
# candidate routes on purpose.
PINNED_CANDIDATES_SHA256 = "a0418094923040eebbef6b1742a72941f37c7bae776ca9781f1e808bbe4190ca"


def _pinned_cases():
    # Every ordered pair of the default config's trial 0 and 1 topologies, and
    # the pairs from every fifth source of a 100-node topology with beta
    # calibrated to mean degree 4, as ``qdnroute sweep --param node_count``
    # builds it.
    cfg = default_config()
    topo = cfg.topology
    graphs = [generate_waxman(replace(topo, seed=cfg.seed + k), cfg.capacities)
              for k in (0, 1)]
    wide = replace(topo, node_count=100, seed=cfg.seed,
                   beta=calibrate_beta(100, topo.alpha, topo.side))
    graphs.append(generate_waxman(wide, cfg.capacities))
    for k, g in enumerate(graphs):
        n = g.node_count
        for rc in (RouteConfig(3, 6), RouteConfig(10, 8)):
            for s in range(0, n, n // 20):
                for d in range(n):
                    if s != d:
                        yield k, g, rc, s, d, candidate_routes(g, s, d, rc)


def test_candidates_pinned():
    h = hashlib.sha256()
    for k, _, rc, s, d, found in _pinned_cases():
        nodes = [r.nodes for r in found]
        h.update(f"{k}:{rc}:{s},{d}:{nodes}\n".encode())
    assert h.hexdigest() == PINNED_CANDIDATES_SHA256


def test_candidate_edges_match_from_nodes():
    # the digest above hashes node sequences only; from_nodes also checks
    # that each route is simple and each step joins adjacent nodes
    for _, g, _, _, _, found in _pinned_cases():
        for r in found:
            assert r == Route.from_nodes(g, r.nodes)
