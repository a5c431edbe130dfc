"""Analytic function catalogue and sampled hypothesis checks.

Everything here serves one purpose: deciding, numerically and on an
explicit grid, whether the slowly-growing functions fed into the bound
machinery satisfy the shape hypotheses that machinery assumes, namely
being increasing and concave, staying below the identity, and a couple of
growth comparisons parameterized by a constant d.

The catalogue is the five-parameter family

    f(x) = a * x**b * (ln x)**c * exp(u * (ln x)**v)

which covers constants, powers, ln, x/ln x (c = -1), and exp(sqrt(ln x))
(u = 1, v = 1/2).  First and second derivatives come from the closed
forms

    f'(x)  = f(x) * g(x) / x        g = b + c/ln x + u v (ln x)**(v-1)
    f''(x) = f(x) * (g**2 + h - g) / x**2
                                    h = -c/(ln x)**2 + u v (v-1) (ln x)**(v-2)

Checks sample log-spaced grids and report the first violation found; a
clean pass means "verified on the sampled range", never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "FunctionSpec",
    "ExponentFunction",
    "DeltaReport",
    "PsiFamilyReport",
    "DConditionReport",
    "PhiCompositionReport",
    "CrossoverReport",
    "log_grid",
    "check_delta",
    "check_psi_family",
    "check_d_condition",
    "check_phi_composition",
    "log_over_x_crossover",
    "identity_spec",
    "power_spec",
    "sqrt_spec",
    "constant_spec",
    "ln_spec",
    "x_over_ln_spec",
    "exp_sqrt_ln_spec",
    "parse_function_spec",
]

# Functions that involve ln x are only well behaved comfortably above
# e**2, so that is where their domain floor sits unless the caller says
# otherwise.
DEFAULT_LOG_DOMAIN_MIN = 8.0


@dataclass(frozen=True)
class FunctionSpec:
    """One member of the catalogue family a * x^b * lnx^c * exp(u * lnx^v)."""

    a: float
    b: float
    c: float = 0.0
    u: float = 0.0
    v: float = 1.0
    domain_min: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.u,
                                       self.v))):
            raise InputError(f"parameters must be finite, got {self}")
        if not self.a > 0:
            raise InputError(f"leading coefficient must be positive, got {self.a!r}")
        if self.domain_min is not None and not 0 < self.domain_min < math.inf:
            raise InputError(f"domain_min must be positive and finite, got "
                             f"{self.domain_min!r}")

    @property
    def uses_log(self) -> bool:
        return self.c != 0.0 or self.u != 0.0

    @property
    def domain_floor(self) -> float:
        if self.domain_min is not None:
            return max(self.domain_min, 1.0)
        return DEFAULT_LOG_DOMAIN_MIN if self.uses_log else 1.0

    @property
    def label(self) -> str:
        text = (f"{self.a:g}*x^{self.b:g}*lnx^{self.c:g}"
                f"*exp({self.u:g}*lnx^{self.v:g})")
        if self.domain_min is not None:
            text += f"@{self.domain_min:g}"
        return text

    def _check_domain(self, x: float) -> None:
        if x < self.domain_floor:
            raise InputError(
                f"x={x!r} is below the domain floor {self.domain_floor} "
                f"of {self.label}")
        if self.uses_log and x <= 1.0:
            raise InputError(f"{self.label} needs x > 1, got x={x!r}")

    def _check_finite(self, x: float, *values: float) -> None:
        # an overflow to inf times an underflow to 0 gives nan
        if not all(map(math.isfinite, values)):
            raise InputError(f"{self.label} is not finite at x={x!r}")

    def value(self, x: float) -> float:
        self._check_domain(x)
        out = self.a * x ** self.b
        if self.c or self.u:
            big_l = math.log(x)
            if self.c:
                out *= big_l ** self.c
            if self.u:
                out *= math.exp(self.u * big_l ** self.v)
        self._check_finite(x, out)
        # every member is positive when a > 0, so 0.0 is an underflow
        if out == 0.0:
            raise InputError(f"{self.label} underflows to 0 at x={x!r}")
        return out

    def d012(self, x: float) -> tuple[float, float, float]:
        """Value plus first and second derivative at x."""
        val = self.value(x)
        g = self.b
        h = 0.0
        if self.c or self.u:
            big_l = math.log(x)
            if self.c:
                g += self.c / big_l
                h -= self.c / (big_l * big_l)
            if self.u:
                uv = self.u * self.v
                g += uv * big_l ** (self.v - 1.0)
                w = uv * (self.v - 1.0)
                if w:
                    h += w * big_l ** (self.v - 2.0)
        d1 = val * g / x
        d2 = val * (g * g + h - g) / (x * x)
        self._check_finite(x, d1, d2)
        return val, d1, d2


def identity_spec() -> FunctionSpec:
    return FunctionSpec(1.0, 1.0, domain_min=1.0)


def power_spec(b: float, a: float = 1.0,
               domain_min: float | None = 1.0) -> FunctionSpec:
    return FunctionSpec(a, b, domain_min=domain_min)


def sqrt_spec() -> FunctionSpec:
    return power_spec(0.5)


def constant_spec(value: float) -> FunctionSpec:
    return FunctionSpec(value, 0.0, domain_min=1.0)


def ln_spec(domain_min: float | None = None) -> FunctionSpec:
    return FunctionSpec(1.0, 0.0, c=1.0, domain_min=domain_min)


def x_over_ln_spec(domain_min: float | None = None) -> FunctionSpec:
    return FunctionSpec(1.0, 1.0, c=-1.0, domain_min=domain_min)


def exp_sqrt_ln_spec(coeff: float = 1.0,
                     domain_min: float | None = None) -> FunctionSpec:
    return FunctionSpec(1.0, 0.0, u=coeff, v=0.5, domain_min=domain_min)


_SPEC_ALIASES = {
    "identity": identity_spec,
    "sqrt": sqrt_spec,
    "ln": ln_spec,
    "x-over-lnx": x_over_ln_spec,
    "exp-sqrt-ln": exp_sqrt_ln_spec,
}


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse a CLI rendering of a catalogue member.

    Accepted forms: a named alias (identity, sqrt, ln, x-over-lnx,
    exp-sqrt-ln), "const:K", "power:B", or the raw comma tuple
    "a,b,c,u,v[,domain_min]".  Any form may carry a "@FLOOR" suffix that
    overrides the domain floor.
    """
    text = text.strip()
    floor: float | None = None
    if "@" in text:
        text, _, floor_text = text.partition("@")
        try:
            floor = float(floor_text)
        except ValueError:
            raise InputError(f"bad domain floor {floor_text!r}") from None
    try:
        if text in _SPEC_ALIASES:
            spec = _SPEC_ALIASES[text]()
        elif text.startswith("const:"):
            spec = constant_spec(float(text[len("const:"):]))
        elif text.startswith("power:"):
            spec = power_spec(float(text[len("power:"):]))
        elif text.startswith("exp-sqrt-ln:"):
            spec = exp_sqrt_ln_spec(float(text[len("exp-sqrt-ln:"):]))
        else:
            parts = [float(p) for p in text.split(",")]
            if len(parts) == 5:
                spec = FunctionSpec(*parts)
            elif len(parts) == 6:
                spec = FunctionSpec(*parts[:5], domain_min=parts[5])
            else:
                raise InputError(
                    f"expected 5 or 6 comma-separated numbers, got {len(parts)}")
    except ValueError as exc:
        raise InputError(f"cannot parse function spec {text!r}: {exc}") from None
    if floor is not None:
        spec = FunctionSpec(spec.a, spec.b, spec.c, spec.u, spec.v,
                            domain_min=floor)
    return spec


@dataclass(frozen=True)
class ExponentFunction:
    """The combined growth function c1*x/psi(x) + c2*(x/phi(x))*ln(phi(x)).

    This is the exponent of the product bound as a function of x.  Its
    derivatives are assembled analytically from the catalogue derivatives
    of phi and psi with the quotient, product and logarithm rules, so the
    concavity check runs on exact formulas rather than finite differences.
    """

    phi: FunctionSpec
    psi: FunctionSpec
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):
            raise InputError("c1 and c2 must be positive and finite")

    @property
    def domain_floor(self) -> float:
        return max(1.0, self.phi.domain_floor, self.psi.domain_floor)

    @property
    def label(self) -> str:
        return (f"{self.c1:g}*x/psi + {self.c2:g}*(x/phi)*ln(phi)"
                f" [phi={self.phi.label}, psi={self.psi.label}]")

    def d012(self, x: float) -> tuple[float, float, float]:
        pv, p1, p2 = self.phi.d012(x)
        sv, s1, s2 = self.psi.d012(x)

        # t1 = x / psi
        t1 = x / sv
        t1_1 = (1.0 - t1 * s1) / sv
        t1_2 = (-2.0 * t1_1 * s1 - t1 * s2) / sv

        # r = x / phi, m = ln(phi), t2 = r * m
        r = x / pv
        r1 = (1.0 - r * p1) / pv
        r2 = (-2.0 * r1 * p1 - r * p2) / pv
        m = math.log(pv)
        m1 = p1 / pv
        m2 = p2 / pv - m1 * m1
        t2 = r * m
        t2_1 = r1 * m + r * m1
        t2_2 = r2 * m + 2.0 * r1 * m1 + r * m2

        val = self.c1 * t1 + self.c2 * t2
        d1 = self.c1 * t1_1 + self.c2 * t2_1
        d2 = self.c1 * t1_2 + self.c2 * t2_2
        return val, d1, d2

    def value(self, x: float) -> float:
        return self.d012(x)[0]


def log_grid(x_lo: float, x_hi: float, n: int) -> list[float]:
    """n log-spaced samples covering [x_lo, x_hi], endpoints exact."""
    if n < 1:
        raise InputError(f"grid size must be at least 1, got {n!r}")
    if not 0 < x_lo <= x_hi < math.inf:
        raise InputError(f"need 0 < x_lo <= x_hi < inf, got "
                         f"[{x_lo!r}, {x_hi!r}]")
    if n == 1 or x_hi == x_lo:
        return [x_lo]
    llo = math.log(x_lo)
    lhi = math.log(x_hi)
    pts = [math.exp(llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
    pts[0] = x_lo
    pts[-1] = x_hi
    return pts


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of sampling f' > 0 and f'' < 0 on a log grid."""

    fn_label: str
    x_lo: float
    x_hi: float
    grid_n: int
    ok: bool
    violation_x: float | None = None
    violation_kind: str | None = None  # "d1" or "d2"


def check_delta(f, x_lo: float, x_hi: float, grid_n: int = 512) -> DeltaReport:
    """Sample whether f is strictly increasing and strictly concave.

    f is any object with d012(x) and domain_floor (a FunctionSpec or an
    ExponentFunction).  The verdict covers the sampled points only.
    """
    if x_lo < f.domain_floor:
        raise InputError(
            f"x_lo={x_lo!r} is below the domain floor {f.domain_floor} "
            f"of {f.label}")
    for x in log_grid(x_lo, x_hi, grid_n):
        _, d1, d2 = f.d012(x)
        if not d1 > 0.0:
            return DeltaReport(f.label, x_lo, x_hi, grid_n, False, x, "d1")
        if not d2 < 0.0:
            return DeltaReport(f.label, x_lo, x_hi, grid_n, False, x, "d2")
    return DeltaReport(f.label, x_lo, x_hi, grid_n, True)


@dataclass(frozen=True)
class PsiFamilyReport:
    phi_label: str
    psi_label: str
    x_lo: float
    x_hi: float
    grid_n: int
    psi_leq_x_ok: bool
    psi_violation_x: float | None
    combined_delta: DeltaReport

    @property
    def ok(self) -> bool:
        return self.psi_leq_x_ok and self.combined_delta.ok


def check_psi_family(phi: FunctionSpec, psi: FunctionSpec, x_lo: float,
                     x_hi: float, grid_n: int = 512) -> PsiFamilyReport:
    """Sample the admissibility of psi relative to phi: psi(x) <= x, and
    x/psi(x) + (x/phi(x))*ln(phi(x)) increasing and concave."""
    combined = ExponentFunction(phi, psi)
    if x_lo < combined.domain_floor:
        raise InputError(
            f"x_lo={x_lo!r} is below the domain floor "
            f"{combined.domain_floor} of the combined function")
    psi_ok = True
    psi_violation = None
    for x in log_grid(x_lo, x_hi, grid_n):
        if psi.value(x) > x:
            psi_ok = False
            psi_violation = x
            break
    delta = check_delta(combined, x_lo, x_hi, grid_n)
    return PsiFamilyReport(phi.label, psi.label, x_lo, x_hi, grid_n,
                           psi_ok, psi_violation, delta)


def _threshold(grid: list[float], last_fail: int | None
               ) -> tuple[float | None, bool]:
    # (n0, holds_at_top) from the index of the last failing sample
    if last_fail is None:
        return grid[0], True
    if last_fail == len(grid) - 1:
        return None, False
    return grid[last_fail], True


@dataclass(frozen=True)
class DConditionReport:
    """Grid scan of 2*psi(phi(n)/2) >= d*psi(n).

    n0 is the largest sampled point that still fails (every later sample
    holds), or the low end of the grid when no sample fails.  If the scan
    fails at the top of the grid there is no n0 to report.
    """

    phi_label: str
    psi_label: str
    d: float
    n_lo: float
    n_hi: float
    grid_n: int
    n0: float | None
    holds_at_top: bool
    failures: int


def check_d_condition(phi: FunctionSpec, psi: FunctionSpec, d: float,
                      n_lo: float, n_hi: float,
                      grid_n: int = 1024) -> DConditionReport:
    if not 1.0 < d < math.inf:
        raise InputError(f"d must exceed 1 and be finite, got {d!r}")
    grid = log_grid(n_lo, n_hi, grid_n)
    last_fail = None
    failures = 0
    for idx, x in enumerate(grid):
        inner = phi.value(x) / 2.0
        if inner < psi.domain_floor:
            raise InputError(
                f"psi is not evaluable at phi({x:g})/2 = {inner:g} "
                f"(domain floor {psi.domain_floor})")
        lhs = 2.0 * psi.value(inner)
        rhs = d * psi.value(x)
        if not lhs >= rhs:
            last_fail = idx
            failures += 1
    return DConditionReport(phi.label, psi.label, d, n_lo, n_hi, grid_n,
                            *_threshold(grid, last_fail), failures)


@dataclass(frozen=True)
class PhiCompositionReport:
    """Grid scan of tau(phi(n)) * ln(phi(phi(n))) <= ln(phi(n)) with
    tau(x) = x/phi(x), reported for the real-valued tau and for the
    integer ceiling variant side by side (they can genuinely disagree)."""

    phi_label: str
    n_lo: float
    n_hi: float
    grid_n: int
    real_tau_n0: float | None
    real_tau_holds_at_top: bool
    ceil_tau_n0: float | None
    ceil_tau_holds_at_top: bool
    variants_disagree: bool

    @property
    def ok(self) -> bool:
        return self.real_tau_holds_at_top


def check_phi_composition(phi: FunctionSpec, n_lo: float, n_hi: float,
                          grid_n: int = 1024) -> PhiCompositionReport:
    grid = log_grid(n_lo, n_hi, grid_n)
    real_fail = ceil_fail = None
    disagree = False
    # tiny relative slack so exact-equality cases are not lost to float noise
    slack = 1e-12
    for idx, x in enumerate(grid):
        inner = phi.value(x)
        if inner < phi.domain_floor or (phi.uses_log and inner <= 1.0):
            raise InputError(
                f"phi is not evaluable at phi({x:g}) = {inner:g} "
                f"(domain floor {phi.domain_floor})")
        outer = phi.value(inner)
        rhs = math.log(inner)
        tol = slack * max(1.0, abs(rhs))
        ln_outer = math.log(outer)
        real_ok = (inner / outer) * ln_outer <= rhs + tol
        ceil_ok = math.ceil(inner / outer) * ln_outer <= rhs + tol
        if real_ok != ceil_ok:
            disagree = True
        if not real_ok:
            real_fail = idx
        if not ceil_ok:
            ceil_fail = idx
    return PhiCompositionReport(phi.label, n_lo, n_hi, grid_n,
                                *_threshold(grid, real_fail),
                                *_threshold(grid, ceil_fail), disagree)


@dataclass(frozen=True)
class CrossoverReport:
    """Where ln(x)/x turns decreasing, with a grid confirmation."""

    x0: float
    x_hi: float
    grid_n: int
    decreasing_ok: bool
    violation_x: float | None = None


def log_over_x_crossover(grid_n: int = 1000,
                         x_hi: float = 1e6) -> CrossoverReport:
    """ln(x)/x peaks at x = e and is strictly decreasing beyond.

    Returns x0 = e and verifies the strict decrease on a log grid over
    (e, x_hi]."""
    x0 = math.e
    if x_hi <= x0:
        raise InputError(f"x_hi must exceed e, got {x_hi!r}")
    grid = log_grid(x0 * (1.0 + 1e-9), x_hi, grid_n)
    prev = math.log(grid[0]) / grid[0]
    for x in grid[1:]:
        cur = math.log(x) / x
        if not cur < prev:
            return CrossoverReport(x0, x_hi, grid_n, False, x)
        prev = cur
    return CrossoverReport(x0, x_hi, grid_n, True)
