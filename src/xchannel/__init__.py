"""Simulator and verifier for two-phase alternating-CSIT schemes on the MxN SISO X channel."""

from .analysis import (
    CheckResult,
    DofReport,
    OracleReport,
    RatePoint,
    SlopeFit,
    dof_slope,
    oracle_verify_3user,
    sum_rate,
    sweep_rates,
    verify_suite,
)
from .channel import (
    ChannelRealization,
    generate_channels,
    generate_messages,
    generate_noise,
    run_streams,
)
from .receive import (
    CONDITION_LIMIT,
    DecodeResult,
    LinearSystem,
    ObservationLog,
    assemble_system,
    cancel_interference,
    decode,
    observe_all,
)
from .schedule import (
    CsitTable,
    ObservationKind,
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
    TransmitPlan,
    audit_csit_trace,
    build_transmit_plan,
)

__version__ = "0.1.0"
