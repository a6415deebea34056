"""Numerical reducibility engine for the 1D time-quasi-periodic wave operator."""

from .galerkin import (
    CouplingTensor,
    QuadraticForm,
    RealStructureError,
    WeightedSpace,
    assemble_initial_forms,
    coupling_tensor,
    form_norm,
)
from .kam import (
    CertificateError,
    HomologicalSolution,
    IterationState,
    KamEngine,
    KamOptions,
    KamResult,
    NormalForm,
    ResonanceError,
    Schedule,
    StepSizeError,
    TransformChain,
    build_schedule,
    flow_transform,
    kam_run,
    push_remainder,
    solve_homological,
    update_normal_form,
)
from .potential import (
    FrequencySpec,
    InvalidPotentialError,
    PotentialFourier,
    PotentialSpec,
    ResourceBudgetError,
    evaluate_potential,
    fourier_analyze,
    make_potential,
    validate_assumptions,
)
from .resonance import (
    DivisorQuery,
    ResonanceReport,
    find_resonant_tau,
    measure_scan,
    screen_tau,
)
from .smoothing import DyadicDecomposition, JacksonKernel, decompose, smooth_at_scale
from .verify import (
    LyapunovEstimate,
    MultiplierEstimate,
    TruncatedWaveSystem,
    compare_through_chain,
    integrate_full,
    lyapunov_exponent,
    multiplier_decay,
)

__version__ = "0.1.0"
