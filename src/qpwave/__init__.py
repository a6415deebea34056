"""Numerical reducibility engine for the 1D time-quasi-periodic wave operator."""

from .galerkin import (
    QuadraticForm,
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
    fourier_analyze,
    make_potential,
    validate_assumptions,
)
from .resonance import (
    DivisorQuery,
    ResonanceReport,
    measure_scan,
    screen_tau,
)
from .smoothing import DyadicDecomposition, JacksonKernel, decompose
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
