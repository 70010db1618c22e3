"""Exact analysis of Quicksort's comparison count.

The package computes the full probability distribution of the number of
comparisons randomized quicksort performs on a random permutation - in
exact rational arithmetic - and everything downstream of it: closed forms
for the mean and central moments, limiting scaled-moment constants, and
tail probabilities of the scaled distribution, plus an independent
simulator used as ground truth.  The closed forms come two ways: fitted
to exact data by harmonic-number templates and verified with zero
residuals (``guess_moment``), and derived from the generating function's
differential equation, so that they hold for every n (``derived_moment``,
which the limits are taken from).

Importing the package loads only the exception types and the exact-PGF
layer.  Every other public name is imported from its submodule on first
access (PEP 562), so a program that never touches, say, the fitting layer
never pays for it or for mpmath.  ``qsa.pgf`` is the function, not the
submodule, whatever has been imported before.
"""

from .errors import (
    CrossCheckError,
    EnclosureError,
    FitSolverError,
    GuessError,
    InsufficientDataError,
    QsaError,
    StabilityError,
)

# Eager on purpose: loading the submodule qsa.pgf sets the package attribute
# "pgf" to the submodule, and this import rebinds it to the function.  Were the
# submodule first loaded later, by another submodule's import, the attribute
# would stay the submodule.
from .pgf import DistPoly, PgfCache, convolve, pgf, scaled_pgf

__version__ = "0.1.0"

# public name -> defining submodule, for every name not imported above
_LAZY = {
    name: module
    for module, names in {
        "asymptotics": "AsymptoticValue coefficient_of_variation leading_coefficient "
        "mean_asymptotic_check mean_over_nlogn scaled_moment_limit",
        "derive": "derived_moment moment_gf",
        "distribution": "DensityBin ScaledDistribution TailEstimate export_density "
        "scale tail_probability",
        "fitting": "REFUTED UNDETERMINED VERIFIED FitReport HarmonicExpr Monomial "
        "evaluate_asymptotic fit guess_moment known_central_moment known_mean template",
        "moments": "MomentTable TruncatedSeries central_moment factorial_series "
        "moment_table moments_from_factorial raw_moment",
        "numeric": "bernoulli harmonic harmonic_enclosure",
        "simulate": "EmpiricalStats SimConfig exhaustive_distribution monte_carlo "
        "quicksort_count selection_sort_count",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# every lazy name and every name imported above
__all__ = sorted([
    *_LAZY,
    *"CrossCheckError EnclosureError FitSolverError GuessError "
    "InsufficientDataError QsaError StabilityError".split(),
    *"DistPoly PgfCache convolve pgf scaled_pgf".split(),
])
