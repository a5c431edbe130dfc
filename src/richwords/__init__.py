"""Palindromic richness laboratory.

Exact enumeration of rich words, palindromic-suffix factorizations, and
certified upper-bound arithmetic for counting functions.
"""

from . import errors
from .bootstrap import (BootstrapState, BootstrapTrajectory, bootstrap_iterate,
                        bootstrap_step, exponent_compare, fixed_point_c1)
from .bounds import (BoundEntry, BoundTable, OmegaParams,
                     check_composition_bound, check_jensen,
                     check_p_monotonicity, check_product_bound,
                     composition_bound_sweep, compositions_count, omega,
                     recurrence_bound, seed_table_from_counts)
from .eertree import Eertree
from .enumeration import (EnumerationConfig, RichCountTable, RichEntry,
                          count_rich, count_rich_symmetric, load_cache,
                          save_cache)
from .errors import (BudgetExceededError, CacheError, CacheFormatError,
                     CacheQMismatchError, CacheVersionError,
                     HypothesisNotVerifiedError, InputError, RichwordsError,
                     SeedGapError, StateError)
from .functions import (ExponentFunction, FunctionSpec, check_d_condition,
                        check_delta, check_phi_composition, check_psi_family,
                        constant_spec, exp_sqrt_ln_spec, identity_spec,
                        ln_spec, log_grid, log_over_x_crossover,
                        parse_function_spec, power_spec, sqrt_spec,
                        x_over_ln_spec)
from .logvalue import (PRECISION_BITS, ROUND_DOWN, ROUND_NEAREST, ROUND_UP,
                       LogValue)
from .ups import (UpsFactorization, compare_luf_bound, luf, max_luf_table,
                  ups_factorize, verify_unioccurrence)
from .version import TOOL_VERSION
from .words import (Alphabet, Word, is_palindrome, is_rich_naive,
                    letters_from_text, naive_palindromic_factor_count,
                    text_from_letters)

__version__ = TOOL_VERSION

__all__ = [
    "Alphabet",
    "BootstrapState",
    "BootstrapTrajectory",
    "BoundEntry",
    "BoundTable",
    "BudgetExceededError",
    "CacheError",
    "CacheFormatError",
    "CacheQMismatchError",
    "CacheVersionError",
    "Eertree",
    "EnumerationConfig",
    "ExponentFunction",
    "FunctionSpec",
    "HypothesisNotVerifiedError",
    "InputError",
    "LogValue",
    "OmegaParams",
    "PRECISION_BITS",
    "ROUND_DOWN",
    "ROUND_NEAREST",
    "ROUND_UP",
    "RichCountTable",
    "RichEntry",
    "RichwordsError",
    "SeedGapError",
    "StateError",
    "TOOL_VERSION",
    "UpsFactorization",
    "Word",
    "bootstrap_iterate",
    "bootstrap_step",
    "check_composition_bound",
    "check_d_condition",
    "check_delta",
    "check_jensen",
    "check_p_monotonicity",
    "check_phi_composition",
    "check_product_bound",
    "check_psi_family",
    "compare_luf_bound",
    "composition_bound_sweep",
    "compositions_count",
    "constant_spec",
    "count_rich",
    "count_rich_symmetric",
    "errors",
    "exp_sqrt_ln_spec",
    "exponent_compare",
    "fixed_point_c1",
    "identity_spec",
    "is_palindrome",
    "is_rich_naive",
    "letters_from_text",
    "ln_spec",
    "load_cache",
    "log_grid",
    "log_over_x_crossover",
    "luf",
    "max_luf_table",
    "naive_palindromic_factor_count",
    "omega",
    "parse_function_spec",
    "power_spec",
    "recurrence_bound",
    "save_cache",
    "seed_table_from_counts",
    "sqrt_spec",
    "text_from_letters",
    "ups_factorize",
    "verify_unioccurrence",
    "x_over_ln_spec",
]
