"""pagiant: fixed-vertex preferential-attachment graph processes.

Process generators with exact step laws, a configuration-model sampler,
closed-form/fixed-point predictions for the giant component, and exact
tiny-instance oracles backing the test suite.
"""

from .graph_core import ComponentTracker, MultiGraph, SimpleGraphViolation
from .processes import (
    GeneralF,
    LinearAlpha,
    NegativeInteger,
    ProcessConfig,
    ProcessExhausted,
    ProcessState,
    Trajectory,
    rewiring_step,
    run_process,
    sample_edges,
    sample_birth_degrees,
    sample_conditioned_degrees,
    sample_configuration_model,
)
from .theory import (
    Binomial,
    NegBinomial,
    Poisson,
    TheoryPrediction,
    kcore_threshold,
    m_crit,
    mr_criterion,
    p_edge,
    pittel_cstar,
    predict,
    rho,
    rho_slope,
    solve_xi,
    susceptibility_closed,
)

__version__ = "0.1.0"
