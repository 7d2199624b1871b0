"""Unit tests for topology generation, slot sampling, and serialization.

Core claims:
    - Waxman generation is deterministic per seed, connected, and respects
      capacity ranges; the empirical edge rate matches the pair probability
    - the default setup lands near mean degree 4, and the degree band
      rejects draws outside it
    - slot capacities are the base values in static mode and per-slot
      uniform redraws otherwise, deterministic in (seed, t)
    - request sampling gives distinct ordered pairs with the configured
      count distribution, deterministic in (seed, t)
    - graph and workload files round-trip exactly
"""

import math

import numpy as np
import pytest

from qdnroute.model import SlotCapacities
from qdnroute.topology import (
    CapacityDistributions,
    WaxmanParams,
    WorkloadParams,
    _draw_edges,
    _place_nodes,
    dump_workload,
    generate_waxman,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_workload,
    sample_requests,
    sample_slot_capacities,
    save_graph,
)

CAPS = CapacityDistributions()


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


@pytest.mark.parametrize("band", [(), (4.0,), (3.0, 4.0, 5.0), (4.5, 3.5)])
def test_malformed_degree_band_rejected(band):
    # an empty band used to switch the band off silently
    with pytest.raises(ValueError, match="degree_band"):
        WaxmanParams(degree_band=band)


def test_zero_distance_probability_is_beta():
    # exp(0) = 1, so coincident nodes connect with probability beta exactly
    assert 0.5 * math.exp(0.0) == 0.5


def test_waxman_tail_probability_value():
    # d = d_max with alpha = beta = 0.5 gives 0.5 * e^-2
    assert 0.5 * math.exp(-2.0) == pytest.approx(0.0677, abs=5e-5)


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
        loaded = load_graph(path)
        assert loaded.qubit_caps == g.qubit_caps
        assert loaded.edges == g.edges

    def test_graph_dict_per_edge_attempts(self):
        g = generate_waxman(WaxmanParams(seed=8), CAPS)
        doc = graph_to_dict(g)
        assert doc["attempts"] == 4000
        doc["edges"][0]["attempts"] = 7
        del doc["attempts"]
        with pytest.raises(ValueError):
            graph_from_dict(doc)  # other edges now lack an attempts value

    def test_workload_roundtrip(self, tmp_path):
        stream = [[(0, 3), (2, 5)], [], [(4, 1)]]
        path = tmp_path / "workload.txt"
        dump_workload(stream, path)
        assert load_workload(path) == stream
