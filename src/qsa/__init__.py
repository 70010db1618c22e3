"""Exact analysis of Quicksort's comparison count.

The package computes the full probability distribution of the number of
comparisons randomized quicksort performs on a random permutation - in
exact rational arithmetic - and everything downstream of it: closed forms
for the mean and central moments (rediscovered by fitting harmonic-number
templates to exact data and verifying with zero residuals), limiting
scaled-moment constants, and tail probabilities of the scaled
distribution, plus an independent simulator used as ground truth.
"""

from .asymptotics import (
    AsymptoticValue,
    coefficient_of_variation,
    evaluate_asymptotic,
    leading_coefficient,
    mean_asymptotic_check,
    mean_over_nlogn,
    scaled_moment_limit,
)
from .distribution import (
    DensityBin,
    ScaledDistribution,
    TailEstimate,
    export_density,
    scale,
    tail_probability,
)
from .errors import (
    CrossCheckError,
    EnclosureError,
    FitSolverError,
    GuessError,
    InsufficientDataError,
    QsaError,
    StabilityError,
)
from .fitting import (
    REFUTED,
    UNDETERMINED,
    VERIFIED,
    FitReport,
    HarmonicExpr,
    Monomial,
    fit,
    guess_moment,
    known_central_moment,
    known_mean,
    template,
)
from .moments import (
    MomentTable,
    TruncatedSeries,
    central_moment,
    factorial_series,
    moment_table,
    moments_from_factorial,
    raw_moment,
)
from .numeric import (
    Constants,
    Rational,
    bernoulli,
    constants,
    harmonic,
    harmonic_asymptotic,
    harmonic_enclosure,
)
from .pgf import DistPoly, PgfCache, convolve, pgf, scaled_pgf
from .simulate import (
    EmpiricalStats,
    SimConfig,
    exhaustive_distribution,
    monte_carlo,
    quicksort_count,
    selection_sort_count,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticValue",
    "Constants",
    "CrossCheckError",
    "DensityBin",
    "DistPoly",
    "EmpiricalStats",
    "EnclosureError",
    "FitReport",
    "FitSolverError",
    "GuessError",
    "HarmonicExpr",
    "InsufficientDataError",
    "MomentTable",
    "Monomial",
    "PgfCache",
    "QsaError",
    "Rational",
    "REFUTED",
    "ScaledDistribution",
    "SimConfig",
    "StabilityError",
    "TailEstimate",
    "TruncatedSeries",
    "UNDETERMINED",
    "VERIFIED",
    "bernoulli",
    "central_moment",
    "coefficient_of_variation",
    "constants",
    "convolve",
    "evaluate_asymptotic",
    "exhaustive_distribution",
    "export_density",
    "factorial_series",
    "fit",
    "guess_moment",
    "harmonic",
    "harmonic_asymptotic",
    "harmonic_enclosure",
    "known_central_moment",
    "known_mean",
    "leading_coefficient",
    "mean_asymptotic_check",
    "mean_over_nlogn",
    "moment_table",
    "moments_from_factorial",
    "monte_carlo",
    "pgf",
    "quicksort_count",
    "raw_moment",
    "scale",
    "scaled_moment_limit",
    "scaled_pgf",
    "selection_sort_count",
    "tail_probability",
    "template",
]
