"""weaklab: weak measurements on pre- and post-selected quantum systems
coupled to Gaussian pointers, and extraction of single and joint weak
values from local single-particle pointer correlations."""

from .engines import (
    EPS_PS,
    JointCoupling,
    MeasurementBatch,
    SingleCoupling,
    heisenberg_moment,
    run_fock,
    run_joint_exact,
    run_single_exact,
)
from .errors import (
    DimensionMismatch,
    InvalidTruncation,
    NotCommuting,
    NotHermitian,
    NumericalInconsistency,
    OrthogonalPostselection,
    ParseError,
    TruncationWarning,
    WeaklabError,
    ZeroCoupling,
    ZeroState,
)
from .pointer import (
    FockPointer,
    GaussianPointer,
    build_fock,
    gaussian_overlap,
    moment_p,
    moment_x,
)
from .qcore import (
    EigenSystem,
    Observable,
    QuantumState,
    commutator_norm,
    hermitian_eig,
    simultaneous_eig,
)
from .scenarios import (
    PRESETS,
    Scenario,
    build_hardy,
    build_imaginary,
    build_spin_amplifier,
    build_three_box,
    load_scenario,
    scenario_to_document,
)
from .weakvalues import (
    direct_joint_weak_value,
    direct_weak_value,
    extract_joint,
    extract_single,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_PS",
    "DimensionMismatch",
    "EigenSystem",
    "FockPointer",
    "GaussianPointer",
    "InvalidTruncation",
    "JointCoupling",
    "MeasurementBatch",
    "NotCommuting",
    "NotHermitian",
    "NumericalInconsistency",
    "Observable",
    "OrthogonalPostselection",
    "PRESETS",
    "ParseError",
    "QuantumState",
    "Scenario",
    "SingleCoupling",
    "TruncationWarning",
    "WeaklabError",
    "ZeroCoupling",
    "ZeroState",
    "build_fock",
    "build_hardy",
    "build_imaginary",
    "build_spin_amplifier",
    "build_three_box",
    "commutator_norm",
    "direct_joint_weak_value",
    "direct_weak_value",
    "extract_joint",
    "extract_single",
    "gaussian_overlap",
    "heisenberg_moment",
    "hermitian_eig",
    "load_scenario",
    "moment_p",
    "moment_x",
    "run_fock",
    "run_joint_exact",
    "run_single_exact",
    "scenario_to_document",
    "simultaneous_eig",
]
