"""Cooperative control+noise quantum metrology on one- and two-spin systems.

Builds the Lindblad models of the cooperative and standard field-estimation
schemes, propagates them, and computes the quantum Fisher information of the
evolved probe by several independent routes, together with the closed-form
references, parameter sweeps and the F_max/width trade-off.
"""

from .lindblad import (
    InvalidModelError,
    InvalidStateError,
    LindbladChannel,
    LindbladModel,
    NumericalFailureError,
    hermitize,
    liouvillian,
    propagate,
    propagate_rk4,
    validate_density_matrix,
)
from .qfi import (
    QfiResult,
    StateFamily,
    differentiate_state,
    qfi_qubit,
    qfi_sld,
)
from .scenarios import (
    DegeneracyError,
    InvalidScenarioError,
    OutOfRegimeError,
    ScenarioSpec,
    analytic_coop_spont_qfi,
    build_model,
    effective_two_spin_ground_qfi,
    exact_two_spin_ground_qfi,
    heisenberg_limit,
    probe_state,
    qfi_at,
    standard_limit_formulas,
    taylor_coefficients,
    tradeoff_width,
)
from .sweep import RegionResult, SweepGrid, SweepPoint, find_region, maximize_qfi, sweep

__version__ = "0.1.0"
