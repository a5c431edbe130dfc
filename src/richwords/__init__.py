"""Palindromic richness laboratory.

Exact enumeration of rich words, palindromic-suffix factorizations, and
certified upper-bound arithmetic for counting functions.

`_HOMES` is the one list of public names; the submodules keep none.
Importing the package loads no submodule but `version`.  Each public name
is resolved on first access (PEP 562) from the submodule `_HOMES` names,
so `from richwords import count_rich` loads `enumeration` but neither
`bounds` nor the mpmath-backed `logvalue` it imports lazily, and a CLI
run loads only what its subcommand uses.
"""

import importlib

from .version import TOOL_VERSION

__version__ = TOOL_VERSION

# public name -> submodule that defines it ("errors" is the submodule)
_HOMES = {
    "BootstrapState": "bootstrap",
    "BudgetExceededError": "errors",
    "CacheError": "errors",
    "Eertree": "words",
    "ExponentFunction": "functions",
    "FunctionSpec": "functions",
    "HypothesisNotVerifiedError": "errors",
    "InputError": "errors",
    "LogValue": "logvalue",
    "PRECISION_BITS": "logvalue",
    "ROUND_UP": "logvalue",
    "RichwordsError": "errors",
    "StateError": "errors",
    "TOOL_VERSION": "version",
    "VerifiedRange": "functions",
    "bootstrap_iterate": "bootstrap",
    "bootstrap_step": "bootstrap",
    "check_d_condition": "functions",
    "check_delta": "functions",
    "check_jensen": "functions",
    "check_p_monotonicity": "functions",
    "check_phi_composition": "functions",
    "check_product_bound": "functions",
    "check_psi_family": "functions",
    "compare_luf_bound": "functions",
    "composition_bound_sweep": "bounds",
    "count_rich": "enumeration",
    "errors": "errors",
    "exponent_compare": "bootstrap",
    "fixed_point_c1": "bootstrap",
    "letters_from_text": "words",
    "load_cache": "enumeration",
    "log_grid": "functions",
    "parse_function_spec": "functions",
    "recurrence_bound": "bounds",
    "save_cache": "enumeration",
    "seed_table_from_counts": "bounds",
    "suffix_pass": "words",
    "text_from_letters": "words",
    "ups_factorize": "words",
}

__all__ = list(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
