"""Exception types shared across the package.

Anything that indicates a bad argument inherits from ValueError, anything
that indicates misuse of an object in a valid state inherits from
RuntimeError, so callers that do not care about the fine distinctions can
still catch the usual builtins.
"""


class RichwordsError(Exception):
    """Base class for all package-specific errors."""


class InputError(RichwordsError, ValueError):
    """An argument is outside its documented domain."""


class StateError(RichwordsError, RuntimeError):
    """An operation was applied to an object in the wrong state."""


class BudgetExceededError(RichwordsError, RuntimeError):
    """The enumeration node budget was exhausted before the walk finished."""

    def __init__(self, visited: int, budget: int):
        super().__init__(
            f"enumeration aborted: visited {visited} nodes, budget is {budget}"
        )
        self.visited = visited
        self.budget = budget

    def __reduce__(self):
        # survives the worker -> parent pickle round trip intact
        return type(self), (self.visited, self.budget)


class SeedGapError(RichwordsError, ValueError):
    """A seed table does not cover a contiguous index range 1..n_seed."""

    def __init__(self, missing_index: int):
        super().__init__(f"seed table has no entry for n={missing_index}")
        self.missing_index = missing_index


class HypothesisNotVerifiedError(RichwordsError, RuntimeError):
    """A check refused to run because its concavity/monotonicity
    precondition could not be verified on the sampled range.

    This is deliberately an error rather than a False verdict: a False
    verdict must always mean the checked inequality itself failed.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CacheError(RichwordsError):
    """A count-cache file is unreadable or malformed, has another schema
    version, or holds counts over another alphabet size."""
