"""Harmonic quasiconformal mappings of the disk: integral means, star
functions, and numerical verification of the extremal inequalities.

The package is organized around a small corpus of planar harmonic maps
(analytic models, shears with polynomial dilatation, and the standard
non-quasiconformal example), the extremal catalog they are compared
against, and a verification layer that sweeps the inequalities over
parameter grids and reports signed margins.
"""

from .analytic import (
    RADIUS_CAP,
    AnalyticFunction,
    ClosedForm,
    DomainError,
    NonConvergenceError,
    PowerSeries,
    RadialIntegral,
    catalog,
    CATALOG_NAMES,
    taylor_coefficients,
)
from .harmonic import (
    HarmonicMap,
    analytic_map,
    build_corpus,
    corpus_manifest,
    corpus_shear,
    harmonic_koebe,
    k_of_K,
    K_of_k,
    make_shear,
    shear_omega,
)
from .means import (
    HardyBound,
    HardyTail,
    MeansCurve,
    corollary_bound,
    dyadic_means_curve,
    envelope_ratio,
    hardy_norm_bound,
    integral_means,
    lemmaF_integral,
    lemmaF_ratio,
)
from .probes import (
    ConvexityVerdict,
    QCVerdict,
    SenseReversalError,
    convexity_probe,
    qc_certify,
)
from .star import (
    DominationVerdict,
    SampledCircle,
    StarFunction,
    phi_means_dominates,
    sample_log_modulus,
    star_dominates,
    star_function,
    star_grid_size,
)
from .verify import (
    CertificationError,
    ClassTagError,
    MembershipVerdict,
    VerificationReport,
    VerificationRow,
    check_means_domination,
    check_star_chain,
    growth_exponent,
    hardy_membership_verdict,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "CATALOG_NAMES",
    "CertificationError",
    "ClassTagError",
    "ClosedForm",
    "ConvexityVerdict",
    "DominationVerdict",
    "DomainError",
    "HardyBound",
    "HardyTail",
    "HarmonicMap",
    "K_of_k",
    "MeansCurve",
    "MembershipVerdict",
    "NonConvergenceError",
    "PowerSeries",
    "QCVerdict",
    "RADIUS_CAP",
    "RadialIntegral",
    "SampledCircle",
    "SenseReversalError",
    "StarFunction",
    "VerificationReport",
    "VerificationRow",
    "analytic_map",
    "build_corpus",
    "catalog",
    "check_means_domination",
    "check_star_chain",
    "convexity_probe",
    "corollary_bound",
    "corpus_manifest",
    "corpus_shear",
    "dyadic_means_curve",
    "envelope_ratio",
    "growth_exponent",
    "hardy_membership_verdict",
    "hardy_norm_bound",
    "harmonic_koebe",
    "integral_means",
    "k_of_K",
    "lemmaF_integral",
    "lemmaF_ratio",
    "make_shear",
    "phi_means_dominates",
    "qc_certify",
    "run_suite",
    "sample_log_modulus",
    "shear_omega",
    "star_dominates",
    "star_function",
    "star_grid_size",
    "taylor_coefficients",
]
