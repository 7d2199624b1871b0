"""Unit tests for topology generation, slot sampling, and serialization.

Core claims:
    - Waxman generation is deterministic per seed, connected, and respects
      capacity ranges; the empirical edge rate matches the pair probability
    - the vectorised edge draw takes the same uniforms as a per-pair loop
      and leaves the stream in the same state; pinned digests guard the
      generated graphs, redraw capacities and calibrated beta
    - the default setup lands near mean degree 4, and the degree band
      rejects draws outside it
    - slot capacities are the base values in static mode and per-slot
      uniform redraws otherwise, deterministic in (seed, t)
    - request sampling gives distinct ordered pairs with the configured
      count distribution, deterministic in (seed, t)
    - the generation error names the degree band when one is set
    - a written graph document holds every node and edge field, with one
      top-level attempts value when all edges share it and a per-edge one
      otherwise
"""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdnroute.harness import calibrate_beta
from qdnroute.model import QdnGraph, SlotCapacities
from qdnroute.topology import (
    CapacityDistributions,
    GenerationError,
    WaxmanParams,
    WorkloadParams,
    _draw_edges,
    _place_nodes,
    generate_waxman,
    graph_to_dict,
    pair_factors,
    sample_requests,
    sample_slot_capacities,
    save_graph,
)

CAPS = CapacityDistributions()

PINNED_TOPOLOGIES_SHA256 = "854d03a09dfe661d6f2430cfedbe3ee385ff911e5f31f04ab399f98490c8c993"


def test_deterministic_per_seed():
    a = generate_waxman(WaxmanParams(seed=5), CAPS)
    b = generate_waxman(WaxmanParams(seed=5), CAPS)
    assert a.qubit_caps == b.qubit_caps
    assert a.edges == b.edges
    c = generate_waxman(WaxmanParams(seed=6), CAPS)
    assert c.edges != a.edges


def test_connected_and_in_range():
    for seed in range(20):
        g = generate_waxman(WaxmanParams(node_count=15, seed=seed), CAPS)
        # connectivity via reachability from node 0
        seen = {0}
        stack = [0]
        while stack:
            for nbr, _ in g.neighbors(stack.pop()):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        assert len(seen) == g.node_count
        assert all(10 <= q <= 16 for q in g.qubit_caps)
        assert all(5 <= e.channels <= 8 for e in g.edges)
        assert all(e.p_attempt == 2e-4 and e.attempts == 4000 for e in g.edges)


def test_edge_probability_matches_waxman_form():
    # fixed placements, many edge redraws: per-pair frequency ~ beta*exp(-d/(alpha*dmax))
    rng = np.random.default_rng(123)
    points = _place_nodes(rng, 12, 100.0)
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    d_max = dist.max()
    alpha, beta = 0.5, 0.5
    trials = 3000
    counts = np.zeros((12, 12))
    for _ in range(trials):
        for u, v in _draw_edges(rng, points, alpha, beta):
            counts[u, v] += 1
    for u in range(12):
        for v in range(u + 1, 12):
            p = beta * math.exp(-dist[u, v] / (alpha * d_max))
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[u, v] / trials - p) <= 4 * sigma + 1e-9


def test_mean_degree_near_four():
    degs = [
        2 * generate_waxman(WaxmanParams(seed=s), CAPS).edge_count / 20
        for s in range(60)
    ]
    assert 3.4 <= float(np.mean(degs)) <= 4.6


def test_degree_band_enforced():
    band = (3.5, 4.5)
    for seed in range(30):
        g = generate_waxman(WaxmanParams(seed=seed, degree_band=band), CAPS)
        assert band[0] <= 2 * g.edge_count / g.node_count <= band[1]


@pytest.mark.parametrize("params, message", [
    # band rejections come before the connectivity check, so the band is named
    (WaxmanParams(degree_band=(9.0, 9.5)),
     "no connected Waxman graph with mean degree in [9.0, 9.5] in 100 draws "
     "(n=20, alpha=0.5, beta=0.5)"),
    (WaxmanParams(beta=0.01),
     "no connected Waxman graph in 100 draws (n=20, alpha=0.5, beta=0.01)"),
])
def test_generation_error_message(params, message):
    with pytest.raises(GenerationError, match=re.escape(message)):
        generate_waxman(params, CAPS)


@pytest.mark.parametrize("band", [(), (4.0,), (3.0, 4.0, 5.0), (4.5, 3.5)])
def test_malformed_degree_band_rejected(band):
    # an empty band used to switch the band off silently
    with pytest.raises(ValueError, match="degree_band"):
        WaxmanParams(degree_band=band)


@pytest.mark.parametrize("node_count, band, achievable", [
    (4, (3.5, 4.5), "[1.5, 3]"),    # above the complete graph's degree
    (20, (0.5, 1.5), "[1.9, 19]"),  # below a spanning tree's degree
])
def test_unreachable_degree_band_rejected(node_count, band, achievable):
    # these used to burn every generation draw before failing
    with pytest.raises(ValueError, match=re.escape(f"degree_band {band} misses {achievable}")):
        WaxmanParams(node_count=node_count, degree_band=band)


def test_zero_distance_probability_is_beta():
    # d_max = 0: every pair's factor is 1, so beta = 1 connects every pair
    points = np.full((6, 2), 37.5)
    _, _, factors = pair_factors(points, alpha=0.5)
    assert factors.tolist() == [1.0] * 15
    edges = _draw_edges(np.random.default_rng(0), points, alpha=0.5, beta=1.0)
    assert edges == [(a, b) for a in range(6) for b in range(a + 1, 6)]


def test_waxman_tail_probability_value():
    # the pair at d = d_max has factor exp(-1 / alpha), the smallest of all;
    # pairs come out in row-major u < v order
    points = _place_nodes(np.random.default_rng(7), 10, 100.0)
    for alpha in (0.5, 0.3, 1.0):
        u, v, factors = pair_factors(points, alpha)
        far = int(np.argmax(np.hypot(*(points[u] - points[v]).T)))
        assert factors[far] == pytest.approx(math.exp(-1.0 / alpha), rel=1e-12)
        assert factors.min() == factors[far]
    assert list(zip(u.tolist(), v.tolist())) == [
        (a, b) for a in range(10) for b in range(a + 1, 10)]


def _draw_edges_scalar(rng, points, alpha, beta):
    # The per-pair loop _draw_edges replaced: the reference for its draws.
    n = len(points)
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    d_max = dist.max()
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            prob = beta * np.exp(-dist[u, v] / (alpha * d_max)) if d_max > 0 else beta
            if rng.random() < prob:
                edges.append((u, v))
    return edges


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.01, 1.0), beta=st.floats(0.01, 1.0),
       coincident=st.booleans())
def test_draw_edges_matches_scalar_loop(n, seed, alpha, beta, coincident):
    # same edges, and the stream left where the loop leaves it
    points = _place_nodes(np.random.default_rng([seed, 1]), n, 100.0)
    if coincident:
        points[:] = points[0]
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _draw_edges(fast, points, alpha, beta) == _draw_edges_scalar(slow, points, alpha, beta)
    assert fast.random() == slow.random()


def test_topologies_pinned():
    # Graphs and redraw capacities for the stock 20-node band and for the
    # calibrated 100-node setup of ``sweep --param node_count``, in both
    # fluctuation modes, plus calibrate_beta itself.
    h = hashlib.sha256()
    for n in (8, 20, 30, 50, 100):
        h.update(f"beta:{n}:{calibrate_beta(n, 0.5, 100.0)!r}\n".encode())
    wide = WaxmanParams(node_count=100, beta=calibrate_beta(100, 0.5, 100.0))
    cases = ([WaxmanParams(degree_band=(3.5, 4.5), seed=s) for s in range(50)]
             + [replace(wide, seed=s) for s in range(10)])
    for mode in ("static", "redraw"):
        caps = CapacityDistributions(fluctuation=mode)
        for topo in cases:
            g = generate_waxman(topo, caps)
            h.update(f"{mode}:{topo.node_count}:{topo.seed}:{g.qubit_caps}:{g.edges}\n".encode())
            if mode == "redraw":
                for t in range(30):
                    c = sample_slot_capacities(g, caps, t, topo.seed)
                    h.update(f"{t}:{c.q_caps}:{c.w_caps}\n".encode())
    assert h.hexdigest() == PINNED_TOPOLOGIES_SHA256


class TestSlotCapacities:
    def test_static_returns_base(self):
        g = generate_waxman(WaxmanParams(seed=1), CAPS)
        for t in (0, 7, 199):
            caps = sample_slot_capacities(g, CAPS, t, seed=1)
            assert caps == SlotCapacities.from_graph(g)

    def test_redraw_degenerate_uniform(self):
        cfg = CapacityDistributions(qubit_range=(10, 10), channel_range=(6, 6),
                                    fluctuation="redraw")
        g = generate_waxman(WaxmanParams(seed=2), cfg)
        caps = sample_slot_capacities(g, cfg, 3, seed=2)
        assert all(q == 10 for q in caps.q_caps)
        assert all(w == 6 for w in caps.w_caps)

    def test_redraw_range_and_mean(self):
        cfg = CapacityDistributions(qubit_range=(10, 16), fluctuation="redraw")
        g = generate_waxman(WaxmanParams(seed=3), cfg)
        draws = []
        for t in range(500):
            caps = sample_slot_capacities(g, cfg, t, seed=3)
            assert all(10 <= q <= 16 for q in caps.q_caps)
            assert all(q <= base for q, base in zip(caps.q_caps, g.qubit_caps))
            draws.extend(caps.q_caps)
        assert abs(float(np.mean(draws)) - 13.0) < 0.1

    def test_deterministic_in_seed_and_t(self):
        cfg = CapacityDistributions(fluctuation="redraw")
        g = generate_waxman(WaxmanParams(seed=4), cfg)
        assert sample_slot_capacities(g, cfg, 9, 4) == sample_slot_capacities(g, cfg, 9, 4)
        assert sample_slot_capacities(g, cfg, 9, 4) != sample_slot_capacities(g, cfg, 10, 4)


class TestSampleRequests:
    def test_degenerate_count(self):
        g = generate_waxman(WaxmanParams(seed=1), CAPS)
        wl = WorkloadParams(sd_range=(1, 1), f_max=5)
        for t in range(20):
            assert len(sample_requests(g, wl, t, seed=1)) == 1

    def test_count_distribution_and_distinct(self):
        g = generate_waxman(WaxmanParams(seed=1), CAPS)
        wl = WorkloadParams(sd_range=(1, 5), f_max=5)
        counts = []
        for t in range(2000):
            pairs = sample_requests(g, wl, t, seed=1)
            counts.append(len(pairs))
            for s, d in pairs:
                assert s != d
                assert 0 <= s < 20 and 0 <= d < 20
        assert abs(float(np.mean(counts)) - 3.0) < 0.1

    def test_deterministic_in_seed_and_t(self):
        g = generate_waxman(WaxmanParams(seed=1), CAPS)
        wl = WorkloadParams()
        assert sample_requests(g, wl, 5, 9) == sample_requests(g, wl, 5, 9)
        assert sample_requests(g, wl, 5, 9) != sample_requests(g, wl, 6, 9)


class TestSerialization:
    def test_graph_roundtrip(self, tmp_path):
        g = generate_waxman(WaxmanParams(seed=8), CAPS)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        doc = json.loads(path.read_text())
        assert doc["attempts"] == 4000
        assert doc["nodes"] == [{"id": i, "qubits": q} for i, q in enumerate(g.qubit_caps)]
        assert doc["edges"] == [
            {"id": i, "u": e.u, "v": e.v, "channels": e.channels, "p_attempt": e.p_attempt}
            for i, e in enumerate(g.edges)
        ]

    def test_graph_dict_per_edge_attempts(self):
        g = generate_waxman(WaxmanParams(seed=8), CAPS)
        edges = tuple(replace(e, attempts=1000 + i) for i, e in enumerate(g.edges))
        doc = graph_to_dict(QdnGraph(g.qubit_caps, edges))
        assert "attempts" not in doc
        assert [entry["attempts"] for entry in doc["edges"]] == [e.attempts for e in edges]
