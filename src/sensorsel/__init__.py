"""Data-driven greedy sparse sensor selection.

Selects sensor rows of a candidate matrix under the determinant,
trace-of-inverse, and minimum-eigenvalue criteria of the Fisher
information matrix, verifies the set-function structure behind the
greedy guarantee, and reproduces random-system and cross-validation
benchmarks at desk scale.  Sensor indices are 1-based throughout.
"""

from .errors import (
    ConfigError,
    DataError,
    DuplicateSensorError,
    EigenSolverError,
    FoldError,
    FormatError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    NoAdmissibleCandidateError,
    NumericalError,
    RankDeficientError,
    RankOutOfRangeError,
    SensorSelError,
    SingularInformationError,
    TooManySensorsError,
    ZeroReferenceError,
)
from .fisher import (
    CandidateMatrix,
    FisherInfo,
    NoiseModel,
    Regime,
    SensorSet,
    build_measurement,
    det_index,
    error_covariance,
    estimate,
    fisher_info,
    min_eig_index,
    observable_error_covariance,
    observable_transform,
    reconstruction_error,
    trace_inv_index,
)
from .selectors import (
    Criterion,
    Method,
    SelectionResult,
    run_selector,
    select_ag,
    select_bruteforce,
    select_dg,
    select_eg,
    select_random,
)
from .submod import (
    CounterexampleReport,
    ModularityReport,
    NemhauserResult,
    ObjectiveKind,
    SetObjective,
    check_monotone,
    check_submodular,
    counterexample_matrix,
    counterexample_report,
    default_epsilon,
    nemhauser_check,
)
from .data import (
    FoldPlan,
    PodModel,
    SnapshotData,
    SnapshotFormat,
    gen_latent,
    gen_random_system,
    kfold,
    load_snapshots,
    pod_truncate,
    save_snapshots,
    sensor_candidates,
)

__version__ = "0.1.0"
