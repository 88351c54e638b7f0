"""Communication-efficient distributed gradient descent with adaptive compression."""

from .core import SeededRng, ThreePCConstants, combine_constants
from .compressors import (
    Ada3PC,
    AdaCGD,
    CLAG,
    CandidateErrorTrigger,
    CompressedRows,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    SkipTrigger,
    ThreePCSpec,
    adacgd_as_chain,
    apply_contractor,
    compress,
    reconstruct,
)
from .problems import (
    Problem,
    Shard,
    SmoothnessConstants,
    check_gradient,
    client_gradient,
    client_loss,
    full_gradient,
    loss,
    smoothness,
)
from .datasets import (
    LibsvmParseError,
    LibsvmRows,
    Partition,
    SyntheticSpec,
    build_libsvm_problem,
    build_problem,
    make_synthetic,
    parse_libsvm,
    partition,
    to_dense,
)
from .engine import (
    DivergenceError,
    EngineState,
    IterationRecord,
    RunSpec,
    StopRule,
    init,
    iterate,
    resolve_stepsize,
    run,
    step,
    theoretical_stepsize,
)
from .experiments import (
    RunConfig,
    load_config,
    load_or_solve_reference,
    read_trace,
    run_experiment,
    solve_reference,
    write_trace,
)
from .verification import estimate_constants

__version__ = "0.1.0"
