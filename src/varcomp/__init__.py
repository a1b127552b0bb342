"""varcomp: one-standard-deviation variation probabilities for the F,
chi-square and normal distributions, plus a verification layer that
machine-checks the inequality program showing the F band probability
exceeds the normal baseline for small numerator degrees of freedom.

The public names below are resolved on first access (PEP 562), each from
its home module, so ``import varcomp`` alone loads no submodule and a
command of the CLI loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Home submodule -> the public names it defines.
_EXPORTS = {
    "distributions": ("FParams", "chi_square_cdf", "f_cdf", "f_mean", "f_variance"),
    "errors": ("ConvergenceError", "DomainError", "MomentUndefinedError",
               "ToleranceNotMetError", "VarcompError"),
    "reporting": ("Block", "STRICTNESS_FLOOR"),
    "specfun": ("log_beta", "log_gamma", "reg_inc_beta", "reg_lower_gamma",
                "std_normal_cdf"),
    "varband": ("Endpoints", "NORMAL_BAND", "band_endpoints", "check_bound",
                "check_limit", "check_monotone_step", "chi_square_band_probability",
                "d_exceeds_c", "variation_band", "variation_probability"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _EXPORTS:  # a home submodule, bound here once it is imported
        return importlib.import_module(f"{__name__}.{name}")
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
