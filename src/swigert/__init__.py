"""Stieltjes-Wigert polynomials under complex scaling.

Certified q-series primitives, three mutually cross-checking polynomial
evaluators, Diophantine witness searches, and an exact-vs-asymptotic
verification harness with explicit error bounds for all seven scaling
regimes.
"""

from .asymptotics import (
    CaseParams,
    CaseVerificationRow,
    VerificationSummary,
    candidates_for_case,
    classify_case,
    error_bound,
    main_term,
    nu_n,
    summarize_rows,
    verify,
)
from .diophantine import (
    DiophantineWitness,
    PairedWitness,
    chi,
    lattice_progression,
    witness_search,
    witness_search_pair,
)
from .errors import (
    BadTau,
    DomainTooLarge,
    EmptyCandidates,
    HypothesisViolated,
    MissingParam,
    NonConvergent,
    NotRational,
    OutOfRange,
    PeakOverflow,
    SwigertError,
    UnsupportedScaling,
    ZeroArgument,
)
from .qcore import (
    CertifiedValue,
    PochTailRemainders,
    poch_tail_remainders,
    qpoch_finite,
    qpoch_infinite,
    qq_infinity,
)
from .qspecial import Aq_derivative, Bq, ramanujan_Aq, theta_product, theta_series
from .scaling import RealParam, Scaling
from .swpoly import (
    SplitSumResult,
    log_normalizer,
    log_theta_normalizer,
    scaled_argument,
    sw_direct,
    sw_normalized,
    sw_theta_normalized,
)

__version__ = "0.1.0"
