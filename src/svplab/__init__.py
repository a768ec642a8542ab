"""Numerical verification lab for p-Laplace-type problems on canonical
cylinder and layer domains: discrete energy minimization, cross-section
frequencies, energy-decay inequalities, stagnation-zone detection,
cutoff energy bounds and growth-alternative trend verdicts.
"""

from .asymptotics import (
    CutoffBoundResult,
    CutoffResult,
    PLReport,
    SectionMassProfile,
    bound_constant,
    cutoff_bound,
    optimal_cutoff,
    pl_check,
    section_mass,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .energetics import (
    EnergyProfile,
    InequalityCheck,
    RateProfile,
    constant_rate_profile,
    energy,
    energy_profile,
    rate_profile,
    section_energy,
    svp_check_dirichlet,
    svp_check_neumann,
    svp_symmetric_check,
)
from .expressions import Expression, ExpressionError, parse_expression, print_tree
from .frequency import (
    FrequencyResult,
    compute_frequency,
    frequency_profile,
    optimal_constant,
    rayleigh_quotient,
)
from .geometry import (
    CanonicalDomain,
    Mesh,
    SectionDescriptor,
    TensorGrid,
    axial_distance,
    build_mesh,
    cross_section,
    interval_section,
    rectangle_section,
)
from .runner import RunResult, run, run_structure_check
from .solver import (
    BoundarySpec,
    FluxResult,
    ScalarField,
    SolverError,
    flux_integral,
    solve,
)
from .structure import (
    Coefficient,
    StructureOperator,
    StructureReport,
    check_structure,
    constant_operator,
    evaluate,
    potential,
)
from .zones import ZoneReport, lp_zone, predict_zone, sup_zone, w1p_zone

__version__ = "0.1.0"
