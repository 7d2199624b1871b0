"""Unit tests for topology generation, slot sampling, and serialization.

Core claims:
    - Waxman generation is deterministic per seed, connected, and respects
      capacity ranges; the empirical edge rate matches the pair probability
    - the vectorised edge draw takes the same uniforms as a per-pair loop
      and leaves the stream in the same state; pinned digests guard the
      generated graphs, redraw capacities and calibrated beta
    - pair factors equal the two-column distance formula bit for bit, and
      the cached pair index arrays they return cannot be written to
    - the connectivity check agrees with a union-find on random edge lists,
      isolated first and last nodes and two-component graphs included
    - the default setup lands near mean degree 4, and the degree band
      rejects draws outside it; a band that holds no mean degree 2m/n a
      connected graph can take is rejected up front, and one that holds a
      single such value is accepted
    - slot capacities are the base values in static mode and per-slot
      uniform redraws otherwise, deterministic in (seed, t)
    - request sampling gives distinct ordered pairs with the configured
      count distribution, deterministic in (seed, t)
    - the generation error names the degree band when one is set
    - a bad node count, alpha, beta, side or seed is rejected with a message
      when the parameters are built, as are bad capacity ranges, fluctuation
      mode, attempt probability and count, and a bad SD-pair range; request
      sampling rejects a graph of fewer than 2 nodes
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
    _connected,
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
            for nbr, _ in g.adjacency[stack.pop()]:
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
        u, v = _draw_edges(rng, points, alpha, beta)
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


@pytest.mark.parametrize("fields, message", [
    ({"node_count": 1}, "node_count must be >= 2"),
    ({"alpha": 0.0}, "alpha and beta must lie in (0, 1]"),
    ({"beta": 1.5}, "alpha and beta must lie in (0, 1]"),
    ({"side": 0.0}, "side must be positive"),
    # rejected when built, not inside numpy at generation
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_bad_params_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WaxmanParams(**fields)


@pytest.mark.parametrize("build, message", [
    (lambda: CapacityDistributions(qubit_range=(0, 5)),
     "capacity range [0, 5] must satisfy 1 <= lo <= hi"),
    (lambda: CapacityDistributions(channel_range=(5, 3)),
     "capacity range [5, 3] must satisfy 1 <= lo <= hi"),
    (lambda: CapacityDistributions(fluctuation="wobble"), "unknown fluctuation mode 'wobble'"),
    (lambda: CapacityDistributions(p_attempt=0.0), "p_attempt must lie in (0, 1)"),
    (lambda: CapacityDistributions(p_attempt=1.0), "p_attempt must lie in (0, 1)"),
    (lambda: CapacityDistributions(attempts=0), "attempts must be >= 1"),
    (lambda: WorkloadParams(sd_range=(3, 2)), "sd_range [3, 2] must satisfy 0 <= lo <= hi"),
    (lambda: WorkloadParams(sd_range=(1, 6)), "sd_range upper bound exceeds f_max"),
    (lambda: sample_requests(QdnGraph((1,), ()), WorkloadParams(), 0, 0),
     "need at least 2 nodes to sample SD pairs"),
], ids=["qubit_range lo=0", "channel_range lo>hi", "fluctuation", "p_attempt=0",
        "p_attempt=1", "attempts=0", "sd_range lo>hi", "sd_range over f_max", "one node"])
def test_bad_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_band_between_achievable_degrees_rejected():
    # mean degrees on 20 nodes step by 0.1, so no draw can land in this band;
    # it used to burn every generation draw before failing
    message = ("degree_band (2.01, 2.09) holds no mean degree 2m/20 of a connected "
               "graph on 20 nodes (m whole, 19 <= m <= 190)")
    with pytest.raises(ValueError, match=re.escape(message)):
        WaxmanParams(degree_band=(2.01, 2.09))


@pytest.mark.parametrize("node_count, band", [
    (20, (2.05, 2.1)),   # holds 2*21/20 alone
    (20, (4.0, 4.0)),    # a single point at 2*40/20
    (3, (4 / 3, 4 / 3)),  # a spanning tree's degree, 2*2/3 as the generator divides
    (4, (3.0, 3.0)),     # the complete graph's degree
])
def test_band_holding_one_achievable_degree_accepted(node_count, band):
    WaxmanParams(node_count=node_count, degree_band=band)


def test_single_degree_band_generates_that_degree():
    g = generate_waxman(WaxmanParams(degree_band=(4.0, 4.0)), CAPS)
    assert 2 * g.edge_count / g.node_count == 4.0


def test_zero_distance_probability_is_beta():
    # d_max = 0: every pair's factor is 1, so beta = 1 connects every pair
    points = np.full((6, 2), 37.5)
    _, _, factors = pair_factors(points, alpha=0.5)
    assert factors.tolist() == [1.0] * 15
    u, v = _draw_edges(np.random.default_rng(0), points, alpha=0.5, beta=1.0)
    assert list(zip(u.tolist(), v.tolist())) == [(a, b) for a in range(6) for b in range(a + 1, 6)]


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
    u, v = _draw_edges(fast, points, alpha, beta)
    assert list(zip(u.tolist(), v.tolist())) == _draw_edges_scalar(slow, points, alpha, beta)
    assert fast.random() == slow.random()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1),
       side=st.sampled_from([1e-3, 1.0, 100.0, 1e6]), alpha=st.floats(0.01, 1.0),
       coincident=st.integers(0, 3))
def test_pair_factors_match_reference_bits(n, seed, side, alpha, coincident):
    # the reference squares the coordinate differences and sums each row;
    # coincident=1 repeats some points, 2 stacks every point on one, 3 puts
    # every point on one vertical line
    rng = np.random.default_rng(seed)
    points = _place_nodes(rng, n, side)
    if coincident == 1:
        points[rng.integers(0, n, n // 2)] = points[0]
    elif coincident == 2:
        points[:] = points[0]
    elif coincident == 3:
        points[:, 0] = points[0, 0]
    ref_u, ref_v = np.triu_indices(n, k=1)
    dist = np.sqrt(((points[ref_u] - points[ref_v]) ** 2).sum(axis=1))
    d_max = dist.max(initial=0.0)
    ref = np.exp(-dist / (alpha * d_max)) if d_max > 0 else np.ones_like(dist)
    u, v, factors = pair_factors(points, alpha)
    assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
    assert factors.tobytes() == ref.tobytes()


def test_pair_indices_are_read_only():
    # the arrays are cached per node count: a write would corrupt later draws
    u, v, _ = pair_factors(_place_nodes(np.random.default_rng(0), 5, 100.0), 0.5)
    for arr in (u, v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 3
    u2, v2, _ = pair_factors(_place_nodes(np.random.default_rng(1), 5, 100.0), 0.5)
    assert u2.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]
    assert v2.tolist() == [1, 2, 3, 4, 2, 3, 4, 3, 4, 4]


def _union_find_connected(n, edges):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[root(a)] = root(b)
    return len({root(x) for x in range(n)}) == 1


def _connected_pairs(n, edges):
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return _connected(n, u, v)


@pytest.mark.parametrize("n, edges, expect", [
    (2, [], False),
    (2, [(0, 1)], True),
    (4, [(1, 2), (2, 3), (1, 3)], False),                  # node 0 isolated
    (4, [(0, 1), (1, 2), (0, 2)], False),                  # last node isolated
    (6, [(0, 1), (1, 2), (3, 4), (4, 5)], False),          # two components, no isolated node
    (6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)], True),
])
def test_connected_cases(n, edges, expect):
    assert _connected_pairs(n, edges) == _union_find_connected(n, edges) == expect


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.5))
def test_connected_matches_union_find(n, seed, density):
    rng = np.random.default_rng(seed)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    rng.shuffle(edges)
    assert _connected_pairs(n, edges) == _union_find_connected(n, edges), (n, edges)


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
