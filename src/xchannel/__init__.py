"""Simulator and verifier for two-phase alternating-CSIT schemes on the MxN SISO X channel."""

from .analysis import (
    CheckResult,
    DofReport,
    OracleReport,
    RatePoint,
    SlopeFit,
    dof_report,
    dof_slope,
    oracle_verify_3user,
    sum_rate,
    sweep_rates,
    verify_suite,
)
from .channel import (
    ChannelRealization,
    MessageSet,
    NoiseModel,
    generate_channels,
    generate_messages,
    run_streams,
)
from .receive import (
    CONDITION_LIMIT,
    DecodeResult,
    LinearSystem,
    ObservationKind,
    ObservationLog,
    assemble_system,
    cancel_interference,
    decode,
    observe_all,
)
from .schedule import (
    CsitTable,
    Phase1Slot,
    Phase2Slot,
    Schedule,
    SchemeCase,
    SchemeConstructionError,
    UnsupportedConfigurationError,
    build_csit_table,
    build_schedule,
    classify_case,
    count_csit_variants,
    format_csit_table,
    format_schedule,
    hamiltonian_cycles,
    one_factorization,
    permute_schedule,
    replication_factor,
)
from .simulate import SimulationResult, run_simulation
from .transmit import (
    CsitAccessError,
    CsitView,
    TransmitPlan,
    audit_csit_trace,
    build_transmit_plan,
)

__version__ = "0.1.0"
