"""Candidate route precomputation: k-shortest loopless paths by hop count.

Each SD pair gets at most ``max_candidates`` simple paths of at most
``max_hops`` hops, ordered by (hop count, node sequence).  The search walks
``QdnGraph.adjacency`` and builds every route, node ids and edge ids, as it
steps, so no route is rebuilt or looked up afterwards.  Candidates are a
function of the graph alone; whether they fit the slot's capacities is the
allocator's problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import QdnGraph, Route, check_fields


@dataclass(frozen=True)
class RouteConfig:
    """Candidate-set bounds: at most R routes of at most L hops per pair."""

    max_candidates: int = 3
    max_hops: int = 6

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.max_candidates >= 1 and self.max_hops >= 1):
            raise ValueError("max_candidates and max_hops must be >= 1")


@dataclass(frozen=True)
class SdRequest:
    """One source-destination request with its bound candidate routes."""

    request_id: int
    source: int
    dest: int
    candidates: tuple[Route, ...]

    @property
    def servable(self) -> bool:
        return bool(self.candidates)


def candidate_routes(graph: QdnGraph, s: int, d: int,
                     config: RouteConfig) -> list[Route]:
    """Up to R loopless s->d paths of <= L hops, in (hops, nodes) order.

    Iterative-deepening DFS: for each hop count h from the s-d distance up
    to L, walk simple paths from s in neighbor-id order and accept d only
    at exactly h hops, so paths come out in (hops, nodes) order and the
    first R found are exactly the top R of the full simple-path enumeration.
    The walk builds each route as it goes, node ids and edge ids from
    ``graph.adjacency`` side by side, and only ever steps to an adjacent
    node not yet on the path.  A BFS from d, stopped at the layer that
    reaches s, labels each node it reaches with its hop distance to d and
    every other node with one more than the last layer: either is a lower
    bound on the hops a path from the node still needs, which prunes every
    branch that cannot reach d in the hops left.  An empty list means the
    pair is not servable within L hops.
    """
    n = graph.node_count
    if not (0 <= s < n and 0 <= d < n):
        raise ValueError(f"endpoints ({s}, {d}) must be nodes in 0..{n - 1}")
    if s == d:
        raise ValueError("source and destination must differ")
    R, L = config.max_candidates, config.max_hops
    adjacency = graph.adjacency
    far = L + 1  # not reached by the BFS (yet)
    dist = [far] * n
    dist[d] = 0
    frontier, depth = [d], 0
    while dist[s] == far and depth < L:
        depth += 1
        reached = []
        for v in frontier:
            for nbr, _ in adjacency[v]:
                if dist[nbr] == far:
                    dist[nbr] = depth
                    reached.append(nbr)
        frontier = reached
    if dist[s] == far:
        return []
    bound = depth + 1  # every node the BFS did not reach is at least this far
    dist = [k if k < bound else bound for k in dist]

    found: list[Route] = []

    def walk(nodes: tuple[int, ...], eids: tuple[int, ...], left: int) -> None:
        for nbr, eid in adjacency[nodes[-1]]:
            if len(found) == R:
                return
            if nbr == d:
                if left == 1:
                    found.append(Route(None, eids + (eid,), nodes + (d,)))
            elif dist[nbr] < left and nbr not in nodes:
                walk(nodes + (nbr,), eids + (eid,), left - 1)

    for h in range(depth, L + 1):
        walk((s,), (), h)
    return found


class CandidateCache:
    """Per-graph memo of candidate sets, keyed by (source, dest)."""

    def __init__(self, graph: QdnGraph, config: RouteConfig):
        self.graph = graph
        self.config = config
        self._cache: dict[tuple[int, int], tuple[Route, ...]] = {}

    def get(self, s: int, d: int) -> tuple[Route, ...]:
        key = (s, d)
        if key not in self._cache:
            self._cache[key] = tuple(candidate_routes(self.graph, s, d, self.config))
        return self._cache[key]


def build_requests(graph: QdnGraph, pairs: list[tuple[int, int]],
                   config: RouteConfig,
                   cache: CandidateCache | None = None) -> list[SdRequest]:
    """Turn raw SD pairs into requests with request-id-bound candidates."""
    if cache is None:
        cache = CandidateCache(graph, config)
    requests = []
    for rid, (s, d) in enumerate(pairs):
        bound = tuple(Route(rid, r.edges, r.nodes) for r in cache.get(s, d))
        requests.append(SdRequest(rid, s, d, bound))
    return requests
