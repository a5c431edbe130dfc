"""The constant-improvement map for exponents of the form
c1*n/psi(n) + c2*(n/phi(n))*ln(phi(n)).

One application of the map sends (c1, c2) to

    c1' = (c1 + c3) / d
    c2' = c2 * (1 + 1/(c2*ln q) + c3)

where d > 1 comes from the halving condition on psi and c3 > 0 absorbs
the composition-count term.  Iterating drives c1 towards the fixed point
c3/(d-1) geometrically with ratio 1/d while c2 grows strictly; the
trajectory is reported as data, with no claim that every iterate is a
valid bound for a concrete phi and psi.  bootstrap_iterate and
exponent_compare return the result dicts the CLI prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import InputError

# for the annotations only: a bootstrap run needs no function catalogue
if TYPE_CHECKING:
    from .functions import FunctionSpec


@dataclass(frozen=True)
class BootstrapState:
    q: int
    d: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"q must be an integer >= 2, got {self.q!r}")
        if not 1.0 < self.d < math.inf:
            raise InputError(f"d must exceed 1 and be finite, got {self.d!r}")
        if not all(0 < c < math.inf for c in (self.c1, self.c2, self.c3)):
            raise InputError("c1, c2 and c3 must be positive and finite")


def bootstrap_step(state: BootstrapState) -> tuple[float, float]:
    """One application of the map; returns the new (c1, c2)."""
    c1_new = (state.c1 + state.c3) / state.d
    c2_new = state.c2 * (1.0 + 1.0 / (state.c2 * math.log(state.q)) + state.c3)
    return c1_new, c2_new


def fixed_point_c1(state: BootstrapState) -> float:
    """The unique fixed point of c1 -> (c1 + c3)/d."""
    return state.c3 / (state.d - 1.0)


def bootstrap_iterate(state: BootstrapState, steps: int) -> dict:
    """Iterate the map `steps` times with q, d, c3 held fixed; the
    trajectory lists [c1, c2] at the start and after each step.  Raises
    InputError naming the step at which a constant overflows."""
    if not isinstance(steps, int) or steps < 0:
        raise InputError(f"steps must be a non-negative integer, got {steps!r}")
    trajectory = [[state.c1, state.c2]]
    current = state
    for step in range(1, steps + 1):
        c1, c2 = bootstrap_step(current)
        for name, value in (("c1", c1), ("c2", c2)):
            if value == math.inf:
                raise InputError(f"{name} overflows at step {step}")
        trajectory.append([c1, c2])
        current = replace(current, c1=c1, c2=c2)
    return {"c1": current.c1, "c2": current.c2,
            "c1_fixed_point": fixed_point_c1(state), "trajectory": trajectory}


def exponent_compare(state: BootstrapState, phi: FunctionSpec,
                     psi: FunctionSpec, n: float) -> dict:
    """Compare the exponent before and after one application of the map
    at a concrete argument n, together with the two side conditions that
    make the improvement genuine: the old exponent's first term is the
    larger ("first_term_dominates"), and the map shrinks c1."""
    if not n > 1:
        raise InputError(f"n must exceed 1, got {n!r}")
    phi_n = phi.value(n)
    psi_n = psi.value(n)
    if phi_n <= 1 or psi_n <= 0:
        raise InputError("phi and psi must be positive (phi above 1) at n")
    term1 = state.c1 * n / psi_n
    term2 = state.c2 * (n / phi_n) * math.log(phi_n)
    old_exponent = term1 + term2
    c1_new, c2_new = bootstrap_step(state)
    new_exponent = c1_new * n / psi_n + (c2_new / state.c2) * term2
    for name, value in (("old_exponent", old_exponent),
                        ("new_exponent", new_exponent)):
        if not math.isfinite(value):
            raise InputError(f"{name} is not finite at n={n!r}")
    return {"n": n, "old_exponent": old_exponent,
            "new_exponent": new_exponent,
            "improved": new_exponent < old_exponent,
            "first_term_dominates": term1 > term2,
            "c1_shrinks": c1_new < state.c1}
