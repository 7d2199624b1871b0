"""Candidate route precomputation: k-shortest loopless paths by hop count.

Each SD pair gets at most ``max_candidates`` simple paths of at most
``max_hops`` hops, ordered by (hop count, node sequence).  Candidates are a
function of the graph alone; whether they fit the slot's capacities is the
allocator's problem.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .model import QdnGraph, Route

# Hard ceiling on paths enumerated while flushing a hop-count tie class.
_ENUMERATION_SAFETY_CAP = 20000


@dataclass(frozen=True)
class RouteConfig:
    """Candidate-set bounds: at most R routes of at most L hops per pair."""

    max_candidates: int = 3
    max_hops: int = 6

    def __post_init__(self) -> None:
        if self.max_candidates < 1 or self.max_hops < 1:
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


def _lex_shortest(graph: QdnGraph, src: int, dst: int,
                  banned_nodes: frozenset[int],
                  banned_edges: frozenset[int]) -> tuple[int, ...] | None:
    """Minimum-hop simple path, lexicographically smallest among ties.

    Heap keys are (hops, node sequence); the first time the destination is
    popped its label is final for that ordering.
    """
    if src in banned_nodes or dst in banned_nodes:
        return None
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (src,))]
    done: set[int] = set()
    while heap:
        hops, path = heapq.heappop(heap)
        tail = path[-1]
        if tail == dst:
            return path
        if tail in done:
            continue
        done.add(tail)
        for nbr, eid in graph.neighbors(tail):
            if nbr in done or nbr in banned_nodes or eid in banned_edges:
                continue
            heapq.heappush(heap, (hops + 1, path + (nbr,)))
    return None


def candidate_routes(graph: QdnGraph, s: int, d: int,
                     config: RouteConfig) -> list[Route]:
    """Up to R loopless s->d paths of <= L hops, in (hops, nodes) order.

    Yen-style deviation search over the lexicographic BFS core.  Because
    equal-hop candidates can surface out of lexicographic order, the search
    keeps accepting paths until the hop count strictly exceeds that of the
    R-th best found so far, then sorts and truncates; the returned list is
    exactly the top R of the full simple-path enumeration under the same
    ordering.  An empty list means the pair is not servable within L hops.
    """
    if s == d:
        raise ValueError("source and destination must differ")
    R, L = config.max_candidates, config.max_hops
    first = _lex_shortest(graph, s, d, frozenset(), frozenset())
    if first is None or len(first) - 1 > L:
        return []

    accepted: list[tuple[int, ...]] = [first]
    accepted_set = {first}
    candidates: list[tuple[int, tuple[int, ...]]] = []
    in_candidates: set[tuple[int, ...]] = set()

    while len(accepted) < _ENUMERATION_SAFETY_CAP:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_edges = set()
            for path in accepted:
                if path[: i + 1] == root and len(path) > i + 1:
                    banned_edges.add(graph.edge_id(path[i], path[i + 1]))
            banned_nodes = frozenset(root[:-1])
            spur = _lex_shortest(graph, root[-1], d, banned_nodes,
                                 frozenset(banned_edges))
            if spur is None:
                continue
            total = root[:-1] + spur
            if len(total) - 1 > L:
                continue
            if total in accepted_set or total in in_candidates:
                continue
            heapq.heappush(candidates, (len(total) - 1, total))
            in_candidates.add(total)
        if not candidates:
            break
        hops, best = heapq.heappop(candidates)
        in_candidates.discard(best)
        # Stop once past the hop count of the current R-th choice: every
        # remaining path is strictly worse under the ordering.
        if len(accepted) >= R:
            cutoff = sorted((len(p) - 1, p) for p in accepted)[R - 1][0]
            if hops > cutoff:
                break
        accepted.append(best)
        accepted_set.add(best)

    ordered = sorted((len(p) - 1, p) for p in accepted)[:R]
    return [Route.from_nodes(graph, nodes) for _, nodes in ordered]


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
