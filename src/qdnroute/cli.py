"""Command-line entry points: topology, run, sweep, bounds, validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .controller import bound_summary
from .harness import (
    SWEEPABLE,
    ExperimentConfig,
    _apply_sweep_value,
    load_config,
    run_experiment,
    sweep,
)
from .model import (
    Allocation,
    Route,
    SlotCapacities,
    monte_carlo_route_success,
    route_success_prob,
)
from .topology import generate_waxman, save_graph


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="default",
                        help="YAML config path, or 'default'")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed")
    parser.set_defaults(parser=parser)


def _load(args) -> ExperimentConfig:
    """The config with its command-line overrides; a bad one is a usage error."""
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "trials", None) is not None:
            cfg = replace(cfg, trials=args.trials)
        if getattr(args, "policy", None) is not None:
            cfg = replace(cfg, policies=tuple(args.policy.split(",")))
        if getattr(args, "workers", None) is not None:
            cfg = replace(cfg, workers=args.workers)
    except (OSError, ValueError) as exc:
        args.parser.error(str(exc))
    return cfg


def _out_dir(args, file: bool = False) -> Path | None:
    """The ``--out`` directory, or with ``file`` the directory of the
    ``--out`` file, created before any work; one that cannot be created, or
    a file path that names a directory, is a usage error."""
    if not args.out:
        return None
    out = Path(args.out)
    if file and out.is_dir():
        args.parser.error(f"argument --out: {args.out} is a directory")
    try:
        (out.parent if file else out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        args.parser.error(f"argument --out: {exc}")
    return out


def cmd_topology(args) -> int:
    cfg = _load(args)
    _out_dir(args, file=True)
    topo = replace(cfg.topology, seed=cfg.seed)
    graph = generate_waxman(topo, cfg.capacities)
    degrees = [len(adj) for adj in graph.adjacency]
    if args.out:
        save_graph(graph, args.out)
        print(f"wrote {args.out}")
    print(f"nodes={graph.node_count} edges={graph.edge_count} "
          f"mean_degree={sum(degrees) / len(degrees):.2f}")
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    run_experiment(cfg, out)
    if out:
        print(f"wrote {out}/slots.csv, summary.csv, histogram.csv")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:  # every entry parses and applies before the first run
        values = [float(v) if "." in v or "e" in v.lower() else int(v)
                  for v in args.values.split(",")]
        for value in values:
            _apply_sweep_value(cfg, args.param, value)
    except ValueError as exc:
        args.parser.error(f"argument --values: {exc}")
    out = _out_dir(args)
    rows = sweep(cfg, args.param, values, out)
    for row in rows:
        print(f"{row['param']}={row['value']} {row['policy']}: "
              f"success={row['final_success']:.4f} cost={row['final_cost']:.1f}")
    if out:
        print(f"wrote {out}/sweep.csv")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load(args)
    graph = generate_waxman(replace(cfg.topology, seed=cfg.seed), cfg.capacities)
    info = bound_summary(graph, cfg.budget, cfg.workload.sd_range[1],
                         cfg.route.max_hops)
    for key, val in info.items():
        print(f"{key} = {val}")
    if not info["assumption1"]:
        print("warning: budget below F*L*T; the feasibility assumption fails")
    return 0


def cmd_validate(args) -> int:
    """Monte-Carlo versus analytic success probability on random instances."""
    for name in ("samples", "instances"):
        if getattr(args, name) < 1:
            args.parser.error(f"argument --{name}: must be >= 1")
    cfg = _load(args)
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    for i in range(args.instances):
        topo = replace(cfg.topology, node_count=6, seed=cfg.seed + i, degree_band=None)
        graph = generate_waxman(topo, replace(cfg.capacities, p_attempt=0.1, attempts=4))
        caps = SlotCapacities.from_graph(graph)
        # random simple 1-3 edge walk
        start = int(rng.integers(graph.node_count))
        nodes = [start]
        while len(nodes) < 4:
            nbrs = [n for n, _ in graph.adjacency[nodes[-1]] if n not in nodes]
            if not nbrs or (len(nodes) >= 2 and rng.random() < 0.4):
                break
            nodes.append(int(rng.choice(nbrs)))
        route = Route.from_nodes(graph, nodes, request_id=0)
        alloc = Allocation({
            (0, eid): int(rng.integers(1, min(4, caps.w_caps[eid]) + 1))
            for eid in route.edges
        })
        analytic = route_success_prob(graph, route, alloc)
        empirical = monte_carlo_route_success(graph, route, alloc,
                                              args.samples, seed=cfg.seed + 1000 + i)
        sigma = (analytic * (1 - analytic) / args.samples) ** 0.5
        ok = abs(empirical - analytic) <= max(3 * sigma, 1e-9)
        failures += (not ok)
        print(f"instance {i}: analytic={analytic:.5f} empirical={empirical:.5f} "
              f"{'ok' if ok else 'OUTSIDE 3-SIGMA'}")
    print(f"{args.instances - failures}/{args.instances} within 3 sigma")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdnroute",
        description="Entanglement routing simulator for quantum data networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="generate and dump a random QDN graph")
    _add_common(p)
    p.add_argument("--out", default=None, help="graph JSON output path")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("run", help="run one experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--policy", default=None, help="comma-separated policy list")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep one parameter")
    _add_common(p)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--policy", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="print the theoretical bound quantities")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("validate", help="Monte-Carlo vs analytic check")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
