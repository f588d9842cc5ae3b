"""Optimal unbiased minimum-variance linear filtering for interacting
particle systems: covariance dynamics, gain-sensitivity kernels, gradient
optimization of the filter gain, closed-form references and Monte Carlo
validation."""

__version__ = "0.1.0"

from .covariance import (
    GradientField,
    cost_gradient,
    covariance_profile,
    drift_profile,
    fd_cost_slope,
    mean_sensitivity_triangle,
    trace_cost,
)
from .gain import (
    OptimizationReport,
    RiccatiSolution,
    optimize_gain,
    riccati_classical,
    riccati_normal_flow,
)
from .kernels import (
    GainSchedule,
    KernelBundle,
    kernel_bundle,
)
from .numerics import (
    TimeGrid,
    TriangularKernel,
    cumulative_trapezoid,
    make_grid,
    trapezoid,
)
from .scenarios import (
    classical_scenario,
    load_scenario,
    normal_flow_scenario,
    resolve_scenario,
    scenario_hash,
)
from .simulation import (
    EmpiricalStats,
    PathEnsemble,
    SimulationError,
    empirical_statistics,
    simulate_ensemble,
    worker_count,
)
from .system_model import (
    BarQuantities,
    InitialMeasure,
    NonFiniteError,
    Scenario,
    ScenarioError,
    build_scenario,
    check_finite,
    dirac_measure,
    gauss_hermite_measure,
    measure_averages,
)

__all__ = [name for name in dir() if not name.startswith("_")]
