"""Unit tests for experiment orchestration and persistence.

Core claims:
    - configs round-trip through YAML and the 'default' name resolves;
      unknown keys raise ValueError naming the key and its section; the
      written YAML is pinned byte for byte; README's yaml block is the
      default config
    - malformed configs (not a mapping, bad degree band, negative worker
      count, empty or repeated policy list, negative seed) raise ValueError;
      so do a value that does not fit its field's type or a pair field's
      length, named by the field, and a file that is not valid YAML, named
      by the file
    - every parameter dataclass rejects a NaN or an infinity with a
      ValueError naming the field, from code, from a config mapping and
      from a sweep value
    - run_experiment writes the documented CSV schemas and byte-identical
      outputs on repeated runs, independent of the worker count; pinned
      digests guard the three CSVs of a short stock-config run, also with
      builtin sum replaced by the compensated float sum of Python 3.12;
      so are the trial means of summary.csv and sweep.csv
    - policies within a trial see identical request streams (paired design)
    - running averages in RunMetrics are recomputable from slot records
    - histograms conserve request counts and bin correctly
    - sweeps emit one row per (value, policy) and adjust beta for node
      sweeps; beta calibration hits the degree target; a C or node_count
      value that is not a whole number, or a node_count below 2, is
      rejected before any run, and
      the CLI reports a bad --values entry as a usage error
    - the CLI subcommands run end to end, and topology --out creates its
      directory as run --out does; a bad config file or override
      (seed, trials, policy, an empty policy list, workers), a validate
      --samples or --instances below 1, and an --out that cannot be written
      (topology's a directory or under a file) are usage errors (exit 2),
      not tracebacks, and write nothing
"""

import csv
import hashlib
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import SUMMATIONS, summation
from qdnroute import harness
from qdnroute.cli import main as cli_main
from qdnroute.harness import (
    SLOTS_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    RunMetrics,
    calibrate_beta,
    config_from_dict,
    config_to_dict,
    default_config,
    histogram_success_rates,
    load_config,
    run_experiment,
    save_config,
    sweep,
)
from qdnroute.allocation import PerSlotObjectiveParams
from qdnroute.controller import POLICIES, BudgetParams, ControllerState
from qdnroute.routes import RouteConfig
from qdnroute.selection import GibbsParams
from qdnroute.topology import CapacityDistributions, WaxmanParams, WorkloadParams, generate_waxman

PINNED_CSV_SHA256 = {
    "slots.csv": "957e86e058090c4601057f05aff8d2d652544a26300df7bea1165c08d21649b3",
    "summary.csv": "0a130895397e25ddd94d97b03b51f6c5a7cbbf983e387926477063feecb0788f",
    "histogram.csv": "2e5c106679be44f07953dd057e95957dc0dde7a221baea5133eab1ff5d738f71",
}


def tiny_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        topology=WaxmanParams(node_count=8),
        capacities=CapacityDistributions(),
        workload=WorkloadParams(sd_range=(1, 3), f_max=5),
        route=RouteConfig(max_candidates=2, max_hops=4),
        budget=BudgetParams(250, 10, V=2500.0, q0=10.0),
        gibbs=GibbsParams(),
        trials=2,
        seed=0,
        workers=1,
    )
    return replace(base, **overrides)


# save_config text of default_config() and of OTHER_CONFIG, recorded before
# the YAML mapping was derived from the dataclass fields.
DEFAULT_YAML = (
    "seed: 0\ntrials: 5\npolicies:\n- OSCAR\n- MA\n- MF\nworkers: 0\n"
    "enumeration_cap: 10000\ntopology:\n  node_count: 20\n  alpha: 0.5\n"
    "  beta: 0.5\n  side: 100.0\n  degree_band:\n  - 3.5\n  - 4.5\n"
    "capacities:\n  qubit_range:\n  - 10\n  - 16\n  channel_range:\n  - 5\n"
    "  - 8\n  fluctuation: static\n  p_attempt: 0.0002\n  attempts: 4000\n"
    "workload:\n  sd_range:\n  - 1\n  - 5\n  f_max: 5\nroute:\n"
    "  max_candidates: 3\n  max_hops: 6\nbudget:\n  total_budget: 5000\n"
    "  horizon: 200\n  V: 2500.0\n  q0: 10.0\ngibbs:\n  gamma: 500.0\n"
)
OTHER_CONFIG = ExperimentConfig(
    topology=WaxmanParams(node_count=12, alpha=0.25, beta=0.75, side=50.0, seed=9,
                          degree_band=None),
    capacities=CapacityDistributions(qubit_range=(4, 9), channel_range=(2, 3),
                                     fluctuation="redraw", p_attempt=1e-05, attempts=250),
    workload=WorkloadParams(sd_range=(0, 2), f_max=3),
    route=RouteConfig(max_candidates=4, max_hops=5),
    budget=BudgetParams(total_budget=900, horizon=30, V=12.5, q0=0.0),
    gibbs=GibbsParams(gamma=0.5, seed=[7, 3]),
    policies=("MA", "OSCAR"), trials=3, seed=41, enumeration_cap=64, workers=2,
)
OTHER_YAML = (
    "seed: 41\ntrials: 3\npolicies:\n- MA\n- OSCAR\nworkers: 2\n"
    "enumeration_cap: 64\ntopology:\n  node_count: 12\n  alpha: 0.25\n"
    "  beta: 0.75\n  side: 50.0\n  degree_band: null\ncapacities:\n"
    "  qubit_range:\n  - 4\n  - 9\n  channel_range:\n  - 2\n  - 3\n"
    "  fluctuation: redraw\n  p_attempt: 1.0e-05\n  attempts: 250\n"
    "workload:\n  sd_range:\n  - 0\n  - 2\n  f_max: 3\nroute:\n"
    "  max_candidates: 4\n  max_hops: 5\nbudget:\n  total_budget: 900\n"
    "  horizon: 30\n  V: 12.5\n  q0: 0.0\ngibbs:\n  gamma: 0.5\n"
)


def _range(lo: int, hi: int):
    """Ordered (lo, hi) integer pairs inside [lo, hi]."""
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda p: tuple(sorted(p)))


@st.composite
def configs(draw):
    """Valid configs over every field, nested seeds included."""
    unit = st.floats(0.0, 1.0, exclude_min=True)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    node_count = draw(st.integers(2, 10**4))
    # inside the mean degrees a connected graph on node_count nodes can have,
    # around one of the values 2m/n it takes
    least, most = 2 * (node_count - 1) / node_count, node_count - 1
    edges = draw(st.integers(node_count - 1, node_count * (node_count - 1) // 2))
    degree = 2 * edges / node_count
    band = st.none() | st.tuples(st.floats(least, degree), st.floats(degree, most))
    f_max = draw(st.integers(0, 50))
    policies = draw(st.permutations(POLICIES).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**32)),
        trials=draw(st.integers(1, 1000)),
        policies=policies,
        workers=draw(st.integers(0, 64)),
        enumeration_cap=draw(st.integers(1, 10**9)),
        topology=WaxmanParams(
            node_count=node_count, alpha=draw(unit), beta=draw(unit),
            side=draw(positive), seed=draw(st.integers(0, 2**32)), degree_band=draw(band)),
        capacities=CapacityDistributions(
            qubit_range=draw(_range(1, 10**4)), channel_range=draw(_range(1, 10**4)),
            fluctuation=draw(st.sampled_from(["static", "redraw"])),
            p_attempt=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            attempts=draw(st.integers(1, 10**9))),
        workload=WorkloadParams(sd_range=draw(_range(0, f_max)), f_max=f_max),
        route=RouteConfig(max_candidates=draw(st.integers(1, 100)),
                          max_hops=draw(st.integers(1, 100))),
        budget=BudgetParams(
            total_budget=draw(st.integers(1, 10**12)), horizon=draw(st.integers(1, 10**6)),
            V=draw(positive), q0=draw(st.floats(min_value=0.0, allow_infinity=False))),
        gibbs=GibbsParams(gamma=draw(positive), seed=draw(st.integers(0, 2**32))),
    )


class TestConfig:
    def test_default_matches_benchmark_setup(self):
        cfg = default_config()
        assert cfg.topology.node_count == 20
        assert cfg.capacities.qubit_range == (10, 16)
        assert cfg.capacities.channel_range == (5, 8)
        assert cfg.capacities.p_attempt == 2e-4
        assert cfg.capacities.attempts == 4000
        assert cfg.budget.total_budget == 5000
        assert cfg.budget.horizon == 200
        assert cfg.budget.V == 2500.0
        assert cfg.budget.q0 == 10.0
        assert cfg.gibbs.gamma == 500.0
        assert cfg.workload.sd_range == (1, 5)
        assert cfg.trials == 5

    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"budget": {"total_budget": 123}})
        assert cfg.budget.total_budget == 123
        assert cfg.budget.horizon == default_config().budget.horizon

    def test_default_name(self):
        assert load_config("default") == default_config()

    def test_default_dict_roundtrips(self):
        assert config_from_dict(config_to_dict(default_config())) == default_config()

    def test_readme_schema_matches_default(self):
        # README's one yaml block documents the default config key for key
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
        assert len(blocks) == 1
        assert yaml.safe_load(blocks[0]) == config_to_dict(default_config())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="'seeds' at the top level"):
            config_from_dict({"seeds": 3})
        # per-trial seeds are drawn by the harness, not configured
        for section in ("topology", "gibbs"):
            with pytest.raises(ValueError, match=f"'seed' in section '{section}'"):
                config_from_dict({section: {"seed": 1}})
        # a misspelled key must not silently fall back to its default
        with pytest.raises(ValueError, match="'Q0' in section 'budget'"):
            config_from_dict({"budget": {"Q0": 5}})
        # keys removed from the sampler must not be silently ignored
        with pytest.raises(ValueError, match="'batch_disjoint' in section 'gibbs'"):
            config_from_dict({"gibbs": {"batch_disjoint": False}})
        with pytest.raises(ValueError, match="'max_iters' in section 'gibbs'"):
            config_from_dict({"gibbs": {"max_iters": None}})
        sections = [k for k, v in config_to_dict(default_config()).items()
                    if isinstance(v, dict)]
        assert len(sections) == 6
        for section in sections:
            with pytest.raises(ValueError, match=f"'typo' in section '{section}'"):
                config_from_dict({section: {"typo": 1}})
        with pytest.raises(ValueError, match="section 'gibbs' must be a mapping"):
            config_from_dict({"gibbs": [1]})

    @pytest.mark.parametrize("doc", [[1, 2], 5, "seed: 1"])
    def test_non_mapping_rejected(self, doc):
        with pytest.raises(ValueError, match="config must be a mapping"):
            config_from_dict(doc)

    def test_yaml_syntax_error_names_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [\n")
        with pytest.raises(ValueError, match="broken.yaml is not valid YAML"):
            load_config(path)

    @pytest.mark.parametrize("doc, why", [
        ({"trials": 1.5}, "trials must be of type int, got 1.5"),
        ({"trials": "3"}, "trials must be of type int, got '3'"),
        ({"budget": {"horizon": 2.5}}, "horizon must be of type int, got 2.5"),
        ({"budget": {"horizon": "200"}}, "horizon must be of type int, got '200'"),
        ({"route": {"max_hops": True}}, "max_hops must be of type int, got True"),
        ({"policies": "OSCAR"}, "policies must be of type tuple[str, ...], got 'OSCAR'"),
        ({"budget": {"V": "2500"}}, "V must be of type float, got '2500'"),
        ({"budget": {"q0": False}}, "q0 must be of type float, got False"),
        ({"capacities": {"fluctuation": 1}}, "fluctuation must be of type str, got 1"),
        ({"capacities": {"qubit_range": [10, 12, 14]}},
         "qubit_range must be of type tuple[int, int], got (10, 12, 14)"),
        ({"workload": {"sd_range": [1, 2.5]}},
         "sd_range must be of type tuple[int, int], got (1, 2.5)"),
        ({"topology": {"degree_band": ["3", 4]}},
         "degree_band must be of type tuple[float, float] | None, got ('3', 4)"),
        ({"workload": {"sd_range": [1]}}, "sd_range must be of type tuple[int, int], got (1,)"),
        ({"topology": {"degree_band": [3.5, 4.0, 4.5]}},
         "degree_band must be of type tuple[float, float] | None, got (3.5, 4.0, 4.5)"),
    ])
    def test_wrong_types_rejected(self, doc, why):
        # each used to pass, or to fail with a TypeError or a misleading message
        with pytest.raises(ValueError, match=re.escape(why)):
            config_from_dict(doc)

    def test_optional_int_wrong_type_rejected(self):
        # cost_cap is the one `int | None` field; no config key sets it
        with pytest.raises(ValueError,
                           match=re.escape("cost_cap must be of type int | None, got 2.5")):
            PerSlotObjectiveParams(V=1.0, cost_cap=2.5)
        assert PerSlotObjectiveParams(V=1.0, cost_cap=None).cost_cap is None

    def test_numpy_scalars_accepted(self):
        budget = BudgetParams(np.int64(5000), 200, np.float64(2.5), q0=np.int32(1))
        assert budget.total_budget == 5000 and budget.q0 == 1
        assert ControllerState(q=np.float64(0.5), cumulative_cost=np.int64(3)).slot == 0

    def test_non_mapping_yaml_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError, match="config must be a mapping, got list"):
            load_config(path)

    @pytest.mark.parametrize("doc, match", [
        ({"topology": {"degree_band": []}}, "degree_band"),
        ({"topology": {"degree_band": [4.0]}}, "degree_band"),
        ({"workers": -3}, "workers"),
        ({"policies": []}, "at least one policy"),
        ({"policies": ["OSCAR", "MA", "OSCAR"]}, "must not repeat"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"enumeration_cap": -5}, "enumeration_cap must be >= 0, got -5"),
    ])
    def test_invalid_values_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict(doc)

    @pytest.mark.parametrize("build, field", [
        (lambda x: BudgetParams(5000, 200, x), "V"),
        (lambda x: BudgetParams(5000, 200, 1.0, x), "q0"),
        (lambda x: BudgetParams(x, 200, 1.0), "total_budget"),
        (lambda x: BudgetParams(5000, x, 1.0), "horizon"),
        (lambda x: PerSlotObjectiveParams(V=x), "V"),
        (lambda x: PerSlotObjectiveParams(V=1.0, q=x), "q"),
        (lambda x: PerSlotObjectiveParams(V=1.0, cost_cap=x), "cost_cap"),
        (lambda x: ControllerState(q=x), "q must be finite"),
        (lambda x: GibbsParams(gamma=x), "gamma"),
        (lambda x: WaxmanParams(side=x), "side"),
        (lambda x: WaxmanParams(alpha=x), "alpha"),
        (lambda x: WaxmanParams(degree_band=(3.5, x)), "degree_band"),
        (lambda x: CapacityDistributions(channel_range=(1, x)), "channel_range"),
        (lambda x: CapacityDistributions(attempts=x), "attempts"),
        (lambda x: WorkloadParams(f_max=x), "f_max"),
        (lambda x: RouteConfig(max_hops=x), "max_hops"),
        (lambda x: ExperimentConfig(trials=x), "trials"),
        (lambda x: ExperimentConfig(enumeration_cap=x), "enumeration_cap"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, build, field, value):
        with pytest.raises(ValueError, match=field):
            build(value)

    @pytest.mark.parametrize("section, key", [
        ("budget", "V"), ("budget", "q0"), ("gibbs", "gamma"), ("topology", "side"),
    ])
    def test_non_finite_config_values_rejected(self, section, key):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                config_from_dict({section: {key: value}})

    def test_config_yaml_pinned(self, tmp_path):
        save_config(default_config(), tmp_path / "default.yaml")
        assert (tmp_path / "default.yaml").read_text() == DEFAULT_YAML
        save_config(OTHER_CONFIG, tmp_path / "other.yaml")
        assert (tmp_path / "other.yaml").read_text() == OTHER_YAML

    @settings(max_examples=200, deadline=None)
    @given(cfg=configs())
    def test_yaml_roundtrip_property(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            save_config(cfg, path)
            loaded = load_config(path)
        assert loaded == replace(cfg, topology=replace(cfg.topology, seed=0),
                                 gibbs=replace(cfg.gibbs, seed=0))

    def test_dict_is_yaml_safe(self):
        doc = config_to_dict(default_config())
        import yaml

        assert yaml.safe_load(yaml.safe_dump(doc)) == doc


class TestRunExperiment:
    def test_outputs_and_schemas(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg, tmp_path / "out", quiet=True)
        assert set(result.metrics) == {(p, k) for p in cfg.policies for k in range(2)}
        with open(tmp_path / "out" / "slots.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SLOTS_COLUMNS
        assert len(rows) == 1 + 2 * 3 * 10  # trials * policies * horizon
        for name in ("summary.csv", "histogram.csv", "config.yaml"):
            assert (tmp_path / "out" / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path / "a", quiet=True)
        run_experiment(cfg, tmp_path / "b", quiet=True)
        for name in ("slots.csv", "summary.csv", "histogram.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_outputs_pinned(self, tmp_path):
        # stock network at the stock per-slot budget of 25, two short trials
        cfg = default_config()
        cfg = replace(cfg, trials=2, workers=1,
                      budget=replace(cfg.budget, horizon=10, total_budget=250))
        for kind in SUMMATIONS:
            with summation(kind):
                run_experiment(cfg, tmp_path / kind, quiet=True)
            digests = {name: hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
                       for name in PINNED_CSV_SHA256}
            assert digests == PINNED_CSV_SHA256, kind

    def test_policy_mean_is_a_left_fold(self):
        # Python 3.12's compensated sum of these gives 0.33333333333333337.
        metrics = {("OSCAR", k): SimpleNamespace(final_success=v)
                   for k, v in enumerate((1.0, 1e-16, 1e-16))}
        result = ExperimentResult(None, metrics, {}, {})
        for kind in SUMMATIONS:
            with summation(kind):
                assert result.policy_mean("OSCAR", "final_success") == 0.3333333333333333, kind

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        run_experiment(tiny_config(workers=1), tmp_path / "serial", quiet=True)
        run_experiment(tiny_config(workers=2), tmp_path / "parallel", quiet=True)
        assert (tmp_path / "serial" / "slots.csv").read_bytes() == (
            tmp_path / "parallel" / "slots.csv").read_bytes()

    def test_degenerate_run_single_slot(self, tmp_path):
        cfg = tiny_config(trials=1, policies=("OSCAR",),
                          budget=BudgetParams(25, 1, V=2500.0, q0=0.0))
        result = run_experiment(cfg, None, quiet=True)
        m = result.metrics[("OSCAR", 0)]
        assert len(m.cost) == 1
        assert m.final_cost == m.cost[0]
        assert m.final_utility == m.utility_avg[0]

    def test_budget_below_worst_case_load_warns(self, capsys):
        # F*L*T = 3 * 4 * 10 = 120 channels exceeds the budget of 100
        cfg = tiny_config(trials=1, policies=("OSCAR",),
                          budget=BudgetParams(100, 10, V=2500.0, q0=10.0))
        run_experiment(cfg, None, quiet=False)
        out = capsys.readouterr().out
        assert out.startswith("warning: budget below F*L*T; the worst-case request load "
                              "may be unservable\nOSCAR: success=")

    def test_paired_streams_across_policies(self):
        cfg = tiny_config()
        result = run_experiment(cfg, None, quiet=True)
        for k in range(cfg.trials):
            served = {
                p: [len(r.success_probs) + r.unserved for r in result.records[(p, k)]]
                for p in cfg.policies
            }
            first = next(iter(served.values()))
            assert all(counts == first for counts in served.values())

    def test_running_averages_recomputable(self):
        cfg = tiny_config()
        result = run_experiment(cfg, None, quiet=True)
        for (policy, trial), m in result.metrics.items():
            recs = result.records[(policy, trial)]
            rebuilt = RunMetrics.from_records(policy, trial, recs)
            assert rebuilt.utility_avg == m.utility_avg
            assert rebuilt.success_avg == m.success_avg
            assert rebuilt.cost_cum == m.cost_cum
            # independent recomputation of the final running averages
            utilities = [r.utility for r in recs]
            assert m.final_utility == pytest.approx(sum(utilities) / len(utilities))
            slot_means = [
                sum(r.success_probs) / len(r.success_probs)
                for r in recs if r.success_probs
            ]
            assert m.final_success == pytest.approx(sum(slot_means) / len(slot_means))
            assert m.final_cost == sum(r.cost for r in recs)

    def test_budget_accounting_exact(self):
        cfg = tiny_config()
        result = run_experiment(cfg, None, quiet=True)
        for (policy, trial), m in result.metrics.items():
            assert m.cost_cum[-1] == sum(m.cost)
            if policy == "MF":
                cap = cfg.budget.total_budget // cfg.budget.horizon
                assert all(c <= cap for c in m.cost)
            if policy in ("MF", "MA"):
                assert m.final_cost <= cfg.budget.total_budget

    def test_queue_nonnegative_trace(self):
        cfg = tiny_config()
        result = run_experiment(cfg, None, quiet=True)
        for (policy, trial), m in result.metrics.items():
            assert all(qv >= 0.0 for qv in m.q)


class TestHistogram:
    def test_single_point_mass(self):
        edges, counts = histogram_success_rates([0.5, 0.5, 0.5])
        assert counts.sum() == 3
        assert (counts > 0).sum() == 1

    def test_conservation_and_edges(self):
        rng = np.random.default_rng(2)
        probs = list(rng.uniform(0.01, 1.0, size=500)) + [1.0, 1.0]
        edges, counts = histogram_success_rates(probs)
        assert counts.sum() == len(probs)
        assert len(edges) == 51  # 0.02-wide bins over [0, 1]
        assert counts[-1] >= 2  # the exact-1.0 entries land in the top bin

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_success_rates([])


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        cfg = tiny_config(trials=1)
        rows = sweep(cfg, "C", [150, 250], tmp_path / "sw", quiet=True)
        assert len(rows) == 2 * len(cfg.policies)
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            table = list(csv.reader(fh))
        assert table[0] == SWEEP_COLUMNS
        assert len(table) == 1 + len(rows)
        assert all(float(r[-1]) > 0 for r in table[1:])  # violation bound positive

    def test_violation_bound_is_a_left_fold(self, monkeypatch):
        # As test_policy_mean_is_a_left_fold, for the mean over trials of
        # each trial's Theorem 1 bound.
        def three_trials(cfg, out_dir, quiet):
            metrics = {(p, 0): SimpleNamespace(final_utility=0.0, final_success=0.0,
                                               final_cost=0) for p in cfg.policies}
            bounds = {k: {"theorem1_rhs": v} for k, v in enumerate((1.0, 1e-16, 1e-16))}
            return ExperimentResult(cfg, metrics, {}, bounds)

        monkeypatch.setattr(harness, "run_experiment", three_trials)
        for kind in SUMMATIONS:
            with summation(kind):
                rows = sweep(tiny_config(), "C", [150], quiet=True)
            assert {r["violation_bound"] for r in rows} == {0.3333333333333333}, kind

    def test_node_sweep_recalibrates_beta(self):
        cfg = tiny_config(trials=1)
        from qdnroute.harness import _apply_sweep_value

        adjusted = _apply_sweep_value(cfg, "node_count", 30)
        assert adjusted.topology.node_count == 30
        assert adjusted.topology.beta != cfg.topology.beta

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(tiny_config(), "gamma", [1, 2])

    def test_no_values_rejected(self):
        with pytest.raises(ValueError, match="sweep needs at least one value"):
            sweep(tiny_config(), "C", [])

    @pytest.mark.parametrize("param,value", [
        ("C", 2500.9), ("C", True), ("C", "5000"), ("C", math.inf),
        ("node_count", 20.7), ("node_count", False), ("node_count", math.nan),
    ])
    def test_non_whole_counts_rejected(self, param, value):
        # int() used to truncate these while the row reported the value given
        from qdnroute.harness import _apply_sweep_value

        with pytest.raises(ValueError, match=f"{param} must be a whole number, got {value!r}"):
            _apply_sweep_value(tiny_config(), param, value)

    def test_small_node_count_rejected_before_calibration(self):
        # calibrating beta for one node averaged an empty array into NaN
        from qdnroute.harness import _apply_sweep_value

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="node_count must be >= 2"):
                _apply_sweep_value(tiny_config(), "node_count", 1)

    def test_whole_float_count_accepted(self):
        from qdnroute.harness import _apply_sweep_value

        adjusted = _apply_sweep_value(tiny_config(), "C", 250.0)
        assert adjusted.budget.total_budget == 250
        assert type(adjusted.budget.total_budget) is int

    def test_bad_value_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ValueError, match="whole number"):
            sweep(tiny_config(trials=1), "C", [150, 250.5], tmp_path / "sw", quiet=True)
        assert not (tmp_path / "sw").exists()


def test_calibrate_beta_hits_target_degree():
    beta = calibrate_beta(40, alpha=0.5, side=100.0)
    caps = CapacityDistributions()
    degs = [
        2 * generate_waxman(WaxmanParams(node_count=40, beta=beta, seed=s), caps).edge_count / 40
        for s in range(30)
    ]
    assert abs(float(np.mean(degs)) - 4.0) < 0.5


class TestCli:
    def test_topology_command(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert cli_main(["topology", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert "nodes=20" in capsys.readouterr().out

    def test_topology_command_creates_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "graph.json"
        assert cli_main(["topology", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()

    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(), cfg_path)
        out = tmp_path / "run"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--trials", "1", "--policy", "OSCAR"])
        assert code == 0
        assert (out / "slots.csv").exists()

    def test_bounds_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(), cfg_path)
        assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
        text = capsys.readouterr().out
        assert "theorem1_rhs" in text and "delta" in text

    def test_bounds_command_on_saturated_links(self, tmp_path, capsys):
        # Every link's success rounds to 1.0: the bounds are finite, not a
        # p_min traceback.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("capacities: {p_attempt: 0.5, attempts: 100}\n")
        assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "p_min = 1.0\n" in out and "delta = 0.0\n" in out

    def test_bounds_command_warns_on_stock_budget(self, capsys):
        # the stock C = 5000 is below F*L*T = 5 * 6 * 200 = 6000
        assert cli_main(["bounds", "--config", "default"]) == 0
        out = capsys.readouterr().out
        assert "assumption1 = False" in out
        assert out.endswith("warning: budget below F*L*T; the feasibility assumption fails\n")

    def test_validate_command(self, capsys):
        code = cli_main(["validate", "--samples", "20000", "--instances", "5", "--seed", "2"])
        assert code == 0
        assert "within 3 sigma" in capsys.readouterr().out

    def test_repeated_policy_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--policy", "OSCAR,OSCAR", "--trials", "1"])
        assert exc.value.code == 2
        assert "must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, why", [
        (["validate", "--instances", "-1"], "argument --instances: must be >= 1"),
        (["validate", "--samples", "0"], "argument --samples: must be >= 1"),
        (["run", "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
        (["bounds", "--seed", "-3"], "seed must be >= 0"),
        (["run", "--trials", "0", "--out", "{out}"], "trials must be >= 1"),
        (["run", "--workers", "-1", "--out", "{out}"], "workers must be >= 0"),
        (["run", "--policy", "FOO", "--out", "{out}"], "unknown policy 'FOO'"),
        (["run", "--config", "{missing}", "--out", "{out}"], "No such file"),
        (["bounds", "--config", "{bad_key}"], "unknown config key 'nope'"),
        (["run", "--config", "{bad_type}", "--out", "{out}"],
         "trials must be of type int, got 1.5"),
        (["bounds", "--config", "{bad_yaml}"], "bad_yaml.yaml is not valid YAML"),
        (["run", "--config", "{bad_cap}", "--out", "{out}"],
         "enumeration_cap must be >= 0, got -5"),
        # an empty list used to run every policy
        (["run", "--policy", "", "--out", "{out}"], "unknown policy ''"),
        (["sweep", "--param", "q0", "--values", "1", "--policy", "", "--out", "{out}"],
         "unknown policy ''"),
        # rejected before the first trial runs, not after the last
        (["run", "--trials", "1", "--policy", "OSCAR", "--out", "{taken}"],
         "argument --out: [Errno 17] File exists: '{taken}'"),
        (["run", "--trials", "1", "--policy", "OSCAR", "--out", "{taken}/out"],
         "argument --out: [Errno 20] Not a directory: '{taken}/out'"),
        (["sweep", "--param", "q0", "--values", "1,2", "--trials", "1", "--policy", "OSCAR",
          "--out", "{taken}"], "argument --out: [Errno 17] File exists: '{taken}'"),
        # rejected before the graph is generated, not by the write after it
        (["topology", "--out", "{dir}"], "argument --out: {dir} is a directory"),
        (["topology", "--out", "{taken}/g.json"],
         "argument --out: [Errno 17] File exists: '{taken}'"),
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, argv, why):
        files = {"bad_key": "nope: 1\n", "bad_type": "trials: 1.5\n", "bad_yaml": "seed: [\n",
                 "bad_cap": "enumeration_cap: -5\n"}
        for key, text in files.items():
            (tmp_path / f"{key}.yaml").write_text(text)
        (tmp_path / "taken").write_text("")
        (tmp_path / "dir").mkdir()
        paths = {"missing": tmp_path / "missing.yaml", "out": tmp_path / "out",
                 "taken": tmp_path / "taken", "dir": tmp_path / "dir",
                 **{key: tmp_path / f"{key}.yaml" for key in files}}
        argv = [a.format(**paths) for a in argv]
        why = why.format(**paths)
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert why in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(trials=1, policies=("OSCAR",)), cfg_path)
        out = tmp_path / "sw"
        code = cli_main(["sweep", "--config", str(cfg_path), "--param", "q0",
                         "--values", "0,10", "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param,values,why", [
        ("C", "150,2500.9", "whole number"),
        ("node_count", "20.7", "whole number"),
        ("node_count", "1", "node_count must be >= 2"),
        ("C", "150,abc", "'abc'"),
        ("V", "1.5,x.y", "'x.y'"),
        ("V", "1e999", "V must be finite, got inf"),
        ("q0", "0,-1e999", "q0 must be finite, got -inf"),
    ])
    def test_sweep_bad_values_are_usage_errors(self, tmp_path, capsys, param, values, why):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(trials=1, policies=("OSCAR",)), cfg_path)
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(cfg_path), "--param", param,
                      "--values", values, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --values" in err and why in err
        assert not out.exists()

    def test_sweep_unreachable_degree_band_is_usage_error(self, tmp_path, capsys):
        # the stock band (3.5, 4.5) fits 20 nodes but no connected 4-node graph;
        # this used to run the 20-node experiment first, then fail generating
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", "default", "--param", "node_count",
                      "--values", "20,4", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --values: degree_band (3.5, 4.5) misses [1.5, 3]" in \
            capsys.readouterr().err
        assert not out.exists()
