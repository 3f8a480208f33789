"""Simulator and analysis toolkit for controlled remote implementation of
operations via graph states: channel construction, LOCC protocol runs,
geometric-measure computation, and controller-free POVM analysis."""

__version__ = "0.2.0"

from .qcore import (
    MeasurementRecord,
    PauliAxis,
    QuantumState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    apply_1q,
    apply_2q_cz,
    apply_controlled_op,
    fidelity_up_to_phase,
    measure,
    pauli_axis_matrix,
    random_axis,
    rotation,
)
from .graphstate import (
    CrioTopology,
    Graph,
    amplitude_oracle,
    build_graph_state,
    crio_channel_state,
    crio_graph,
    phi_state,
)
from .stator import Stator, diagonal_stator, stator_from_state
from .protocol import (
    ControlDenialReport,
    ProtocolResult,
    control_denial_report,
    run_crio,
)
from .gm import (
    GMResult,
    ProductAnsatz,
    closed_form_overlap,
    gm_channel_family,
    gm_optimize,
    gm_phi,
    hadamard_reduce,
    overlap,
)
from .povm import (
    BranchCoefficients,
    PovmParams,
    RealizedOperation,
    branch_coefficients,
    enumerate_case1,
    enumerate_case2,
    guess_probability,
    outcome_probabilities,
    outcome_probability,
    random_valid_kets,
    separability_check,
    success_rate,
)
