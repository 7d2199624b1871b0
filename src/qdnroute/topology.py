"""Random QDN generation, per-slot capacity fluctuation, request arrivals,
and graph documents.

Topologies follow the Waxman model: nodes placed uniformly in a square,
each pair connected with probability ``beta * exp(-d / (alpha * d_max))``.
All sampling is keyed by ``(seed, stream, t)`` through numpy's seed
sequences, so a run is fully reproducible and the workload stream does not
shift when unrelated parameters change.  A graph saves to a JSON document.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import EdgeSpec, QdnGraph, SlotCapacities, check_fields

# Sub-stream tags keeping topology, capacity, workload, and sampler draws
# independent of each other for a given seed.
STREAM_TOPOLOGY = 0
STREAM_CAPACITY = 1
STREAM_WORKLOAD = 2
STREAM_GIBBS = 3

_MAX_GENERATION_RETRIES = 100


class GenerationError(RuntimeError):
    """Random topology generation could not produce a usable graph."""


@dataclass(frozen=True)
class WaxmanParams:
    """Waxman random-graph parameters over a square placement area.

    ``degree_band``, when set, rejects draws whose mean node degree falls
    outside the interval, the same way disconnected draws are rejected; the
    benchmark setup pins its topologies near degree 4.  A band that no
    connected graph on ``node_count`` nodes can meet is a ``ValueError``:
    one outside the mean degrees such graphs have, or one that holds none
    of the values ``2m/n`` they take.
    """

    node_count: int = 20
    alpha: float = 0.5
    beta: float = 0.5
    side: float = 100.0
    seed: int = 0
    degree_band: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.node_count >= 2:
            raise ValueError("node_count must be >= 2")
        if not 0.0 < self.alpha <= 1.0 or not 0.0 < self.beta <= 1.0:
            raise ValueError("alpha and beta must lie in (0, 1]")
        if not self.side > 0:
            raise ValueError("side must be positive")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        band = self.degree_band
        if band is None:
            return
        if not band[0] <= band[1]:
            raise ValueError(f"degree_band must be null or (lo, hi) with lo <= hi, got {band}")
        # A connected simple graph has between n-1 and n(n-1)/2 edges.
        n = self.node_count
        least, most = 2 * (n - 1) / n, n - 1
        if band[0] > most or band[1] < least:
            raise ValueError(f"degree_band {band} misses [{least:g}, {most}], the mean "
                             f"degrees a connected graph on {n} nodes can have")
        # The least edge count m whose mean degree 2m/n, computed as
        # generate_waxman computes it, reaches the band's low end.
        m = max(n - 1, math.ceil(max(band[0], least) * n / 2) - 2)
        while 2 * m / n < band[0]:
            m += 1
        if 2 * m / n > band[1]:
            raise ValueError(f"degree_band {band} holds no mean degree 2m/{n} of a connected "
                             f"graph on {n} nodes (m whole, {n - 1} <= m <= "
                             f"{n * (n - 1) // 2})")


@dataclass(frozen=True)
class CapacityDistributions:
    """Capacity ranges and the per-edge link model.

    ``fluctuation`` selects whether slot capacities stay at the values drawn
    at generation time (``static``) or are redrawn uniformly every slot
    (``redraw``).  In redraw mode the graph's base capacities are pinned to
    the range maxima so per-slot draws never exceed them.
    """

    qubit_range: tuple[int, int] = (10, 16)
    channel_range: tuple[int, int] = (5, 8)
    fluctuation: str = "static"
    p_attempt: float = 2e-4
    attempts: int = 4000

    def __post_init__(self) -> None:
        check_fields(self)
        for lo, hi in (self.qubit_range, self.channel_range):
            if not 1 <= lo <= hi:
                raise ValueError(f"capacity range [{lo}, {hi}] must satisfy 1 <= lo <= hi")
        if self.fluctuation not in ("static", "redraw"):
            raise ValueError(f"unknown fluctuation mode {self.fluctuation!r}")
        if not 0.0 < self.p_attempt < 1.0:
            raise ValueError("p_attempt must lie in (0, 1)")
        if not self.attempts >= 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class WorkloadParams:
    """Per-slot request process: a uniform number of random SD pairs."""

    sd_range: tuple[int, int] = (1, 5)
    f_max: int = 5

    def __post_init__(self) -> None:
        check_fields(self)
        lo, hi = self.sd_range
        if not 0 <= lo <= hi:
            raise ValueError(f"sd_range [{lo}, {hi}] must satisfy 0 <= lo <= hi")
        if not hi <= self.f_max:
            raise ValueError("sd_range upper bound exceeds f_max")


def _place_nodes(rng: np.random.Generator, count: int, side: float) -> np.ndarray:
    return rng.uniform(0.0, side, size=(count, 2))


@functools.lru_cache(maxsize=8)
def _pair_indices(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    # Read-only: every draw on this node count shares the arrays.
    u, v = np.triu_indices(node_count, k=1)
    u.flags.writeable = v.flags.writeable = False
    return u, v


def pair_factors(points: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every unordered pair ``u < v`` in row-major order, with its Waxman
    factor ``exp(-d / (alpha * d_max))``; coincident points get factor 1.
    The pair index arrays are cached per node count and read-only."""
    u, v = _pair_indices(len(points))
    x, y = points[:, 0], points[:, 1]
    dx, dy = x[u] - x[v], y[u] - y[v]
    dist = np.sqrt(dx * dx + dy * dy)
    d_max = dist.max(initial=0.0)
    factors = np.exp(-dist / (alpha * d_max)) if d_max > 0 else np.ones_like(dist)
    return u, v, factors


def _draw_edges(rng: np.random.Generator, points: np.ndarray,
                alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Test each unordered pair once with the Waxman probability: one array
    draw, equal to one scalar ``rng.random()`` per pair in ``pair_factors``
    order.  Returns the endpoint arrays of the pairs kept."""
    u, v, factors = pair_factors(points, alpha)
    keep = rng.random(len(factors)) < beta * factors
    return u[keep], v[keep]


def _connected(node_count: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges ``u[i]``-``v[i]`` join all ``node_count >= 2`` nodes.

    A node without an edge fails the draw before any adjacency is built:
    on sparse draws that is the usual way to be disconnected.
    """
    touched = np.zeros(node_count, dtype=bool)
    touched[u] = touched[v] = True
    if not touched.all():
        return False
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * node_count
    seen[0] = True
    stack, reached = [0], 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == node_count


def generate_waxman(params: WaxmanParams, caps: CapacityDistributions) -> QdnGraph:
    """Draw a connected Waxman QDN with randomized capacities.

    Draws that are disconnected, or that miss the configured degree band,
    are resampled wholesale (placements included) rather than patched, to
    avoid biasing the edge distribution; after 100 failures a
    GenerationError is raised.  Deterministic given the seed.
    """
    q_lo, q_hi = caps.qubit_range
    w_lo, w_hi = caps.channel_range
    lo, hi = params.degree_band or (0.0, math.inf)
    for attempt in range(_MAX_GENERATION_RETRIES):
        rng = np.random.default_rng([params.seed, STREAM_TOPOLOGY, attempt])
        points = _place_nodes(rng, params.node_count, params.side)
        u, v = _draw_edges(rng, points, params.alpha, params.beta)
        degree = 2 * len(u) / params.node_count
        if not (lo <= degree <= hi and _connected(params.node_count, u, v)):
            continue  # the O(1) band check first: both are rejections
        if caps.fluctuation == "redraw":
            qubit_caps = tuple([q_hi] * params.node_count)
            channel_caps = [w_hi] * len(u)
        else:
            qubit_caps = tuple(rng.integers(q_lo, q_hi + 1, params.node_count).tolist())
            channel_caps = rng.integers(w_lo, w_hi + 1, len(u)).tolist()
        edges = tuple(
            EdgeSpec(a, b, w, caps.p_attempt, caps.attempts)
            for a, b, w in zip(u.tolist(), v.tolist(), channel_caps)
        )
        return QdnGraph(qubit_caps, edges)
    band = params.degree_band
    within = "" if band is None else f" with mean degree in [{band[0]}, {band[1]}]"
    raise GenerationError(
        f"no connected Waxman graph{within} in {_MAX_GENERATION_RETRIES} draws "
        f"(n={params.node_count}, alpha={params.alpha}, beta={params.beta})"
    )


def sample_slot_capacities(graph: QdnGraph, caps: CapacityDistributions,
                           t: int, seed: int) -> SlotCapacities:
    """Available capacities for slot ``t``; deterministic given (seed, t)."""
    if caps.fluctuation == "static":
        return SlotCapacities.from_graph(graph)
    rng = np.random.default_rng([seed, STREAM_CAPACITY, t])
    q_lo, q_hi = caps.qubit_range
    w_lo, w_hi = caps.channel_range
    q = tuple(rng.integers(q_lo, q_hi + 1, graph.node_count).tolist())
    w = tuple(rng.integers(w_lo, w_hi + 1, graph.edge_count).tolist())
    return SlotCapacities(q, w)


def sample_requests(graph: QdnGraph, workload: WorkloadParams,
                    t: int, seed: int) -> list[tuple[int, int]]:
    """Random (source, destination) pairs for slot ``t``.

    The pair count is uniform over ``sd_range``; each pair is a uniformly
    random ordered pair of distinct nodes.  Pairs may repeat within a slot
    (repeat requests are separate SD pairs).  Deterministic given (seed, t).
    """
    if graph.node_count < 2:
        raise ValueError("need at least 2 nodes to sample SD pairs")
    rng = np.random.default_rng([seed, STREAM_WORKLOAD, t])
    lo, hi = workload.sd_range
    count = int(rng.integers(lo, hi + 1))
    pairs = []
    for _ in range(count):
        s, d = rng.choice(graph.node_count, size=2, replace=False)
        pairs.append((int(s), int(d)))
    return pairs


# ---------------------------------------------------------------------------
# Graph documents: the JSON that ``qdnroute topology --out`` writes.

def graph_to_dict(graph: QdnGraph) -> dict:
    attempts = {e.attempts for e in graph.edges}
    doc: dict = {
        "nodes": [{"id": i, "qubits": q} for i, q in enumerate(graph.qubit_caps)],
        "edges": [
            {"id": i, "u": e.u, "v": e.v, "channels": e.channels, "p_attempt": e.p_attempt}
            for i, e in enumerate(graph.edges)
        ],
    }
    if len(attempts) == 1:
        doc["attempts"] = attempts.pop()
    else:
        for entry, e in zip(doc["edges"], graph.edges):
            entry["attempts"] = e.attempts
    return doc


def save_graph(graph: QdnGraph, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(graph_to_dict(graph), indent=2) + "\n")

