"""Budget-aware entanglement routing for quantum data networks.

A discrete-time simulator and optimization library: probabilistic link
model, Waxman topologies, candidate route precomputation, relax-and-round
channel allocation, exhaustive and Gibbs route selection, an online
queue-driven controller with myopic baselines, and an experiment harness.
"""

from .allocation import (
    DominatedError,
    InfeasibleSelectionError,
    NoConvergenceError,
    PerSlotObjectiveParams,
    RelaxedSolution,
    allocate,
    delta_gap,
    per_slot_objective,
    round_allocation,
    solve_relaxed,
)
from .controller import (
    POLICIES,
    BudgetParams,
    ControllerState,
    SlotRecord,
    bound_summary,
    check_assumption1,
    ma_slot,
    mf_slot,
    oscar_slot,
    queue_update,
    theorem1_rhs,
    theorem2_gap,
)
from .harness import (
    ExperimentConfig,
    RunMetrics,
    default_config,
    histogram_success_rates,
    load_config,
    run_experiment,
    save_config,
    sweep,
)
from .model import (
    Allocation,
    EdgeSpec,
    MissingAllocationError,
    QdnGraph,
    Route,
    SlotCapacities,
    channel_success_prob,
    edge_success_prob,
    monte_carlo_route_success,
    route_success_prob,
    slot_utility,
    verify_feasible,
)
from .routes import CandidateCache, RouteConfig, SdRequest, build_requests, candidate_routes
from .selection import (
    AllInfeasibleError,
    EnumerationCapError,
    GibbsParams,
    exhaustive_select,
    gibbs_accept_prob,
    gibbs_select,
    select_routes,
)
from .topology import (
    CapacityDistributions,
    GenerationError,
    WaxmanParams,
    WorkloadParams,
    generate_waxman,
    load_graph,
    sample_requests,
    sample_slot_capacities,
    save_graph,
)

__version__ = "0.1.0"
