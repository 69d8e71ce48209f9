"""Failure-probability estimation coupled with minimum-latency repair routing."""

from .bound import (
    BoundInputs,
    BoundReport,
    generalization_bound,
    halfspace_ball_fraction,
    shortest_distances,
)
from .core import (
    LabeledDataset,
    cost1,
    cost2_exact,
    latency,
    sigmoid,
    softplus,
    standard_trp_cost,
)
from .learn import (
    FitResult,
    auc,
    fit_logistic,
    training_error,
    training_gradient,
    training_hessian,
)
from .milp import (
    MilpInstance,
    build_milp,
    export_lp,
    flow_caps,
)
from .opt import (
    MltrpConfig,
    MltrpSolution,
    c1_sweep,
    node_weights,
    route_string,
    solve,
    sweep_csv,
)
from .sim import SimConfig, simulate_route_cost
from .trp import (
    TrpSolution,
    naive_route,
    solve_weighted_trp_dp,
)

__version__ = "0.1.0"
