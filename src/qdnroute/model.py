"""Core QDN data types and the probabilistic entanglement-link model.

A quantum data network is an undirected graph whose nodes hold a limited
number of qubits and whose edges bundle a limited number of lossy quantum
channels.  Establishing a link on one channel is a Bernoulli trial repeated
over many attempts per time slot; routes succeed only if every edge on them
succeeds.  Everything downstream (allocation, selection, control) is built
on the closed-form success probabilities defined here.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np


class MissingAllocationError(KeyError):
    """A route edge has no channel-count entry in the allocation."""


@functools.cache
def _annotation_type(annotation: str) -> tuple[type | tuple | None, bool, int | None, bool]:
    # (accepted type, tuple?, tuple length or None for any, None allowed?) of
    # an int, float or str annotation, bare or in a tuple, maybe optional; no
    # type for any other annotation.
    m = re.fullmatch(r"(?P<tuple>tuple\[)?(?P<name>int|float|str)"
                     r"(?:, (?:(?P=name)|\.\.\.))*\]?(?P<none> \| None)?", annotation)
    if m is None:
        return None, False, None, False
    # The builtin types come first: they match at a tenth of an ABC check's cost.
    kinds = {"int": (int, numbers.Integral), "float": (float, int, numbers.Real), "str": str}
    length = annotation.count(",") + 1 if m["tuple"] and "..." not in annotation else None
    return kinds[m["name"]], bool(m["tuple"]), length, bool(m["none"])


def check_fields(params) -> None:
    """Raise ValueError naming the first field of a parameter dataclass whose
    value does not fit its ``int``, ``float`` or ``str`` annotation (bare, in
    a tuple of the annotated length, or ``| None``; a bool is no number), or
    is a NaN or an infinity, itself or in a tuple."""
    for f in fields(params):
        value = getattr(params, f.name)
        kind, is_tuple, length, optional = _annotation_type(f.type)
        if value is None and optional:
            continue
        if kind and (isinstance(value, tuple) != is_tuple
                     or length is not None and len(value) != length):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        for v in value if isinstance(value, tuple) else (value,):
            if kind and (not isinstance(v, kind) or isinstance(v, bool)):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


def channel_success_prob(p_tilde: float, attempts: int) -> float:
    """Success probability of a single channel after repeated attempts.

    A channel whose per-attempt success probability is ``p_tilde`` and which
    is tried ``attempts`` times within a slot succeeds with probability
    ``1 - (1 - p_tilde)**attempts``.  Evaluated in log domain: per-attempt
    probabilities around 2e-4 with thousands of attempts would otherwise
    lose precision.
    """
    if not 0.0 < p_tilde < 1.0:
        raise ValueError(f"p_tilde must lie in (0, 1), got {p_tilde}")
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    return -math.expm1(attempts * math.log1p(-p_tilde))


def edge_success_prob(p_e: float, n_e: float) -> float:
    """Probability that at least one of ``n_e`` parallel channels succeeds.

    ``n_e`` may be fractional (>= 1): the continuous-relaxed allocator
    evaluates the same closed form ``1 - (1 - p_e)**n_e`` at real arguments.
    ``p_e`` may round to exactly 1.0 when many attempts saturate double
    precision; the limit value 1.0 is returned.
    """
    if not 0.0 < p_e <= 1.0:
        raise ValueError(f"p_e must lie in (0, 1], got {p_e}")
    if n_e < 1:
        raise ValueError(f"n_e must be >= 1, got {n_e}")
    if p_e == 1.0:
        return 1.0
    return -math.expm1(n_e * math.log1p(-p_e))


@dataclass(frozen=True)
class EdgeSpec:
    """One undirected edge: endpoints, channel capacity, link model."""

    u: int
    v: int
    channels: int
    p_attempt: float
    attempts: int


@dataclass(frozen=True)
class QdnGraph:
    """Undirected QDN graph with per-node qubit and per-edge channel capacity.

    Nodes are dense integers ``0..node_count-1``; edges are dense integers
    indexing ``edges``.  Construction normalizes endpoints to ``u < v``,
    rejects self-loops and duplicates, and precomputes the per-channel
    success probability of every edge.  Instances are immutable and safe to
    share across concurrent trials.
    """

    qubit_caps: tuple[int, ...]
    edges: tuple[EdgeSpec, ...]
    p_edge: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # log of per-channel failure probability, cached for the allocator
    log_fail: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # adjacency[v]: node v's (neighbor, edge id) pairs sorted by neighbor id,
    # built once here; the candidate search walks neighbors in this order
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False)
    # (u, v) with u < v -> edge id
    edge_index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.qubit_caps)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if any(q < 0 for q in self.qubit_caps):
            raise ValueError("qubit capacities must be >= 0")
        normalized = []
        edge_index: dict[tuple[int, int], int] = {}
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            u, v = key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({e.u}, {e.v}) references unknown node")
            if key in edge_index:
                raise ValueError(f"duplicate edge ({u}, {v})")
            edge_index[key] = eid
            if e.channels < 0:
                raise ValueError("channel capacity must be >= 0")
            if u != e.u:  # an edge that already has u < v is kept as it is
                e = EdgeSpec(u, v, e.channels, e.p_attempt, e.attempts)
            normalized.append(e)
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
        object.__setattr__(self, "edges", tuple(normalized))
        # One (p_edge, log_fail) pair per link model, which edges mostly
        # share.  The log is clamped so near-certain links (p_edge rounding
        # to 1.0) keep the allocator's log-domain arithmetic finite.
        links: dict[tuple[float, int], tuple[float, float]] = {}
        for key in dict.fromkeys((e.p_attempt, e.attempts) for e in normalized):
            p = channel_success_prob(*key)
            links[key] = p, -700.0 if p == 1.0 else max(math.log1p(-p), -700.0)
        per_edge = [links[e.p_attempt, e.attempts] for e in normalized]
        object.__setattr__(self, "p_edge", tuple(p for p, _ in per_edge))
        object.__setattr__(self, "log_fail", tuple(lf for _, lf in per_edge))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adjacency))
        object.__setattr__(self, "edge_index", edge_index)

    @property
    def node_count(self) -> int:
        return len(self.qubit_caps)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_id(self, a: int, b: int) -> int:
        """Id of the edge joining nodes ``a`` and ``b``; KeyError if none does."""
        return self.edge_index[(a, b) if a < b else (b, a)]


@dataclass(frozen=True)
class SlotCapacities:
    """Qubits and channels actually available in one slot.

    Exogenous occupancy by other users may leave fewer resources than the
    base capacities; entries never exceed them.
    """

    q_caps: tuple[int, ...]
    w_caps: tuple[int, ...]

    @classmethod
    def from_graph(cls, graph: QdnGraph) -> "SlotCapacities":
        return cls(tuple(graph.qubit_caps), tuple(e.channels for e in graph.edges))


@dataclass(frozen=True)
class Route:
    """A simple path, stored both as an edge sequence and a node sequence.

    ``request_id`` identifies which request the route serves; candidate
    routes are built unbound (``request_id=None``) and bound on assignment.
    """

    request_id: int | None
    edges: tuple[int, ...]
    nodes: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.edges)

    @classmethod
    def from_nodes(cls, graph: QdnGraph, nodes: Sequence[int],
                   request_id: int | None = None) -> "Route":
        """Build and validate a route from its node sequence."""
        if len(nodes) < 2:
            raise ValueError("a route needs at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"route revisits a node: {nodes}")
        edge_ids = []
        for a, b in zip(nodes, nodes[1:]):
            try:
                edge_ids.append(graph.edge_id(a, b))
            except KeyError:
                raise ValueError(f"nodes {a} and {b} are not adjacent") from None
        return cls(request_id, tuple(edge_ids), tuple(nodes))


class Allocation:
    """Per-(request, edge) positive channel counts for one slot, frozen."""

    __slots__ = ("_entries", "_cost")

    def __init__(self, entries: Mapping[tuple[int, int], int]):
        checked = {}
        for key, n in entries.items():
            # A builtin int skips the checks that turn away a bool, a NaN and
            # an infinity: allocate builds one Allocation per solved selection.
            if ((type(n) is not int and (isinstance(n, bool) or not math.isfinite(n)))
                    or n < 1 or n != int(n)):
                raise ValueError(f"allocation for {key} must be a positive integer, got {n}")
            checked[key] = int(n)
        self._entries = MappingProxyType(checked)
        self._cost = sum(checked.values())

    @property
    def cost(self) -> int:
        """Total channels (equivalently qubit pairs) consumed this slot."""
        return self._cost

    def get(self, request_id: int, edge_id: int) -> int:
        try:
            return self._entries[(request_id, edge_id)]
        except KeyError:
            raise MissingAllocationError(
                f"no allocation for request {request_id} on edge {edge_id}"
            ) from None

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and dict(self._entries) == dict(other._entries)

    def __repr__(self) -> str:
        return f"Allocation({dict(self._entries)!r})"


def route_success_prob(graph: QdnGraph, route: Route, alloc: Allocation) -> float:
    """End-to-end success probability of a route: product over its edges."""
    prob = 1.0
    for eid in route.edges:
        n = alloc.get(route.request_id, eid)
        prob *= edge_success_prob(graph.p_edge[eid], n)
    return prob


def slot_utility(graph: QdnGraph, routes: Iterable[Route], alloc: Allocation) -> float:
    """Proportional-fairness utility: sum of log success probabilities.

    Natural logs; empty request sets score 0.  Always <= 0.
    """
    total = 0.0
    for route in routes:
        total += math.log(route_success_prob(graph, route, alloc))
    return total


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a capacity check, listing each overloaded node and edge."""

    ok: bool
    node_violations: tuple[tuple[int, int, int], ...]  # (node, load, cap)
    edge_violations: tuple[tuple[int, int, int], ...]  # (edge, load, cap)

    def __bool__(self) -> bool:
        return self.ok


def verify_feasible(graph: QdnGraph, caps: SlotCapacities,
                    routes: Iterable[Route], alloc: Allocation) -> FeasibilityReport:
    """Check the qubit and channel capacity constraints for one slot.

    A node's load counts the channels of every allocated edge incident to
    it, summed across requests; an edge's load sums the channels that all
    requests place on it.
    """
    # Loads of touched nodes and edges only: the controller runs this every slot.
    node_load: dict[int, int] = {}
    edge_load: dict[int, int] = {}
    for route in routes:
        for eid in route.edges:
            n = alloc.get(route.request_id, eid)
            e = graph.edges[eid]
            node_load[e.u] = node_load.get(e.u, 0) + n
            node_load[e.v] = node_load.get(e.v, 0) + n
            edge_load[eid] = edge_load.get(eid, 0) + n
    node_bad = tuple((v, load, caps.q_caps[v]) for v, load in sorted(node_load.items())
                     if load > caps.q_caps[v])
    edge_bad = tuple((eid, load, caps.w_caps[eid]) for eid, load in sorted(edge_load.items())
                     if load > caps.w_caps[eid])
    return FeasibilityReport(not node_bad and not edge_bad, node_bad, edge_bad)


def monte_carlo_route_success(graph: QdnGraph, route: Route, alloc: Allocation,
                              samples: int, seed) -> float:
    """Empirical route success rate from channel-level Bernoulli sampling.

    Each sample draws every allocated channel independently; an edge
    succeeds if any of its channels does, the route if every edge does.
    Validation oracle for the closed-form probabilities.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    ok = np.ones(samples, dtype=bool)
    for eid in route.edges:
        n = alloc.get(route.request_id, eid)
        p = graph.p_edge[eid]
        hits = rng.random((samples, n)) < p
        ok &= hits.any(axis=1)
    return float(ok.mean())
