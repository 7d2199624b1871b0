"""Candidate route precomputation: k-shortest loopless paths by hop count.

Each SD pair gets at most ``max_candidates`` simple paths of at most
``max_hops`` hops, ordered by (hop count, node sequence).  Candidates are a
function of the graph alone; whether they fit the slot's capacities is the
allocator's problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    A BFS from d gives each node's hop distance to d, a lower bound on the
    hops a path from it still needs, which prunes every branch that cannot
    reach d in the hops left.  An empty list means the pair is not servable
    within L hops.
    """
    n = graph.node_count
    if not (0 <= s < n and 0 <= d < n):
        raise ValueError(f"endpoints ({s}, {d}) must be nodes in 0..{n - 1}")
    if s == d:
        raise ValueError("source and destination must differ")
    R, L = config.max_candidates, config.max_hops
    dist = [L + 1] * n  # L + 1: not within L hops of d
    dist[d] = 0
    frontier = [d]
    for hops in range(1, L + 1):
        reached = []
        for v in frontier:
            for nbr, _ in graph.neighbors(v):
                if dist[nbr] > L:
                    dist[nbr] = hops
                    reached.append(nbr)
        frontier = reached

    found: list[tuple[int, ...]] = []

    def walk(path: tuple[int, ...], left: int) -> None:
        for nbr, _ in graph.neighbors(path[-1]):
            if len(found) == R:
                return
            if nbr == d:
                if left == 1:
                    found.append(path + (d,))
            elif dist[nbr] < left and nbr not in path:
                walk(path + (nbr,), left - 1)

    for h in range(dist[s], L + 1):
        walk((s,), h)
    return [Route.from_nodes(graph, nodes) for nodes in found]


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
        bound = tuple(replace(r, request_id=rid) for r in cache.get(s, d))
        requests.append(SdRequest(rid, s, d, bound))
    return requests
