"""Analytic function catalogue and sampled hypothesis checks.

Everything here is sampled, never certified; the certified engine is
bounds.  It decides, numerically and on an explicit grid, whether the
slowly-growing functions fed into the bound machinery satisfy the shape
hypotheses that machinery assumes, namely being increasing and concave,
staying below the identity, and a couple of growth comparisons
parameterized by a constant d.

The catalogue is the five-parameter family

    f(x) = a * x**b * (ln x)**c * exp(u * (ln x)**v)

which covers constants, powers, ln, x/ln x (c = -1), and exp(sqrt(ln x))
(u = 1, v = 1/2).  First and second derivatives come from the closed
forms

    f'(x)  = f(x) * g(x) / x        g = b + c/ln x + u v (ln x)**(v-1)
    f''(x) = f(x) * (g**2 + h - g) / x**2
                                    h = -c/(ln x)**2 + u v (v-1) (ln x)**(v-2)

Checks sample log-spaced grids; a clean pass means "verified on the
sampled range", never a proof.  Each check returns the result dict the
CLI prints: its verdict under "ok" and, only when the verdict is False,
a "witness" dict.  A result carries no input the check was given.

The product and p-monotonicity checks for the growth function
Omega(x) = q**(c1*x/psi(x) + c2*(x/phi(x))*ln phi(x)), and the convexity
(Jensen) comparison, compare exponents with a small relative slack and
verify nothing themselves: they read their function through a
VerifiedRange, which verifies the concavity hypothesis once, over the
range [x_lo, x_hi] a run fixes first, and refuses an x outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisNotVerifiedError, InputError

# Functions that involve ln x are only well behaved comfortably above
# e**2, so that is where their domain floor sits unless the caller says
# otherwise.
DEFAULT_LOG_DOMAIN_MIN = 8.0

# relative slack used when comparing exponents of Omega-style quantities
EXPONENT_SLACK = 1e-9

# log-grid size of the concave-increasing precondition check
_HYPOTHESIS_GRID_N = 256


class _NotFinite(InputError):
    """A value that overflows or is nan, unlike one that underflows."""


class InnerDomainError(InputError):
    """A scan's inner argument, such as phi(n)/2, that the spec applied to
    it does not take; the scanned range is what reaches it."""


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

    def refusal(self, x: float) -> str | None:
        """Why value refuses x, or None where x is in the domain."""
        if x < self.domain_floor:
            return (f"x={x!r} is below the domain floor {self.domain_floor} "
                    f"of {self.label}")
        if self.uses_log and x <= 1.0:
            return f"{self.label} needs x > 1, got x={x!r}"

    def _check_finite(self, x: float, *values: float) -> None:
        # an overflow to inf times an underflow to 0 gives nan
        if not all(map(math.isfinite, values)):
            raise _NotFinite(f"{self.label} is not finite at x={x!r}")

    def value(self, x: float) -> float:
        reason = self.refusal(x)
        if reason:
            raise InputError(reason)
        try:
            out = self.a * x ** self.b
            if self.c or self.u:
                big_l = math.log(x)
                if self.c:
                    out *= big_l ** self.c
                if self.u:
                    out *= math.exp(self.u * big_l ** self.v)
        except OverflowError:  # float ** and math.exp raise, * gives inf
            out = math.inf
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


# catalogue name -> FunctionSpec fields (a, b, c, u, v, domain_min); a
# "name:K" form puts the number K in the field marked "K"
_SPEC_FIELDS = {
    "identity": (1.0, 1.0, 0.0, 0.0, 1.0, 1.0),
    "sqrt": (1.0, 0.5, 0.0, 0.0, 1.0, 1.0),
    "ln": (1.0, 0.0, 1.0, 0.0, 1.0, None),
    "x-over-lnx": (1.0, 1.0, -1.0, 0.0, 1.0, None),
    "exp-sqrt-ln": (1.0, 0.0, 0.0, 1.0, 0.5, None),
    "const:": ("K", 0.0, 0.0, 0.0, 1.0, 1.0),
    "power:": (1.0, "K", 0.0, 0.0, 1.0, 1.0),
    "exp-sqrt-ln:": (1.0, 0.0, 0.0, "K", 0.5, None),
}


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse a CLI rendering of a catalogue member.

    Accepted forms: a named alias (identity, sqrt, ln, x-over-lnx,
    exp-sqrt-ln), "const:K", "power:B", "exp-sqrt-ln:U", or the raw comma
    tuple "a,b,c,u,v[,domain_min]".  Any form may carry a "@FLOOR" suffix
    that overrides the domain floor.
    """
    text = text.strip()
    floor: float | None = None
    if "@" in text:
        text, _, floor_text = text.partition("@")
        try:
            floor = float(floor_text)
        except ValueError:
            raise InputError(f"bad domain floor {floor_text!r}") from None
    name, colon, number = text.partition(":")
    fields = _SPEC_FIELDS.get(name + colon)
    try:
        if fields is None:
            fields = [float(p) for p in text.split(",")]
            if len(fields) not in (5, 6):
                raise InputError(f"expected 5 or 6 comma-separated numbers, "
                                 f"got {len(fields)}")
        elif colon:
            k = float(number)
            fields = [k if f == "K" else f for f in fields]
        spec = FunctionSpec(*fields)
    except ValueError as exc:
        raise InputError(f"cannot parse function spec {text!r}: {exc}") from None
    if floor is not None:
        spec = FunctionSpec(spec.a, spec.b, spec.c, spec.u, spec.v,
                            domain_min=floor)
    return spec


def compare_luf_bound(table: dict[int, int], phi: FunctionSpec) -> dict:
    """Compare observed maximum peel lengths against n / phi(n).

    Returns {"rows": [{"n", "max_luf", "bound", "holds"}, ...],
    "all_hold", "first_failure_n"}.  A row where n / phi(n) is not a
    finite number, because n is below phi's domain or phi(n) is near 0,
    has bound and holds None and no part in the verdict.  Raises
    InputError where phi(n) is not finite, and where no row has a bound
    (all_hold would be vacuous).  A failing row is a fact about phi at
    small n, not an error.
    """
    rows = []
    for n, m in sorted(table.items()):
        try:
            bound = n / phi.value(float(n))
        except _NotFinite:
            raise
        except InputError:  # n below phi's domain, or phi(n) underflows
            bound = math.inf
        bound = bound if math.isfinite(bound) else None
        rows.append({"n": n, "max_luf": m, "bound": bound,
                     "holds": None if bound is None else m <= bound})
    if all(r["bound"] is None for r in rows):
        raise InputError(
            f"--phi {phi.label} cannot be evaluated at any n in "
            f"1..{max(table, default=0)} (its domain floor is "
            f"{phi.domain_floor:g})")
    failures = [r["n"] for r in rows if r["holds"] is False]
    return {"rows": rows, "all_hold": not failures,
            "first_failure_n": failures[0] if failures else None}


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

    def refusal(self, x: float) -> str | None:
        return self.phi.refusal(x) or self.psi.refusal(x)

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
        # d012's value with the same float operations, in the same order
        pv = self.phi.value(x)
        return (self.c1 * (x / self.psi.value(x))
                + self.c2 * ((x / pv) * math.log(pv)))


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


def _first_failures(f, x_lo: float, x_hi: float, grid_n: int, psi=None):
    # one grid walk: the first (x, kind) where f' > 0 ("d1") or f'' < 0
    # ("d2") fails, and the first x where psi(x) <= x fails, or None
    bad = psi_x = None
    for x in log_grid(x_lo, x_hi, grid_n):
        if bad is None:
            _, d1, d2 = f.d012(x)
            if not (d1 > 0.0 and d2 < 0.0):
                bad = (x, "d2" if d1 > 0.0 else "d1")
        if psi is not None and psi_x is None and psi.value(x) > x:
            psi_x = x
        if bad is not None and (psi is None or psi_x is not None):
            break
    return bad, psi_x


def check_delta(f, x_lo: float, x_hi: float, grid_n: int = 512) -> dict:
    """Sample whether f is strictly increasing and strictly concave.

    f is a FunctionSpec or an ExponentFunction, whose d012(x) refuses an
    x below the domain floor.  The witness is {"x", "kind"} at the first
    sample where f' > 0 (kind "d1") or f'' < 0 ("d2") fails.
    """
    bad, _ = _first_failures(f, x_lo, x_hi, grid_n)
    if bad is None:
        return {"ok": True}
    return {"ok": False, "witness": {"x": bad[0], "kind": bad[1]}}


def check_psi_family(exponent: ExponentFunction, x_lo: float, x_hi: float,
                     grid_n: int = 512) -> dict:
    """Sample the admissibility of exponent's psi relative to its phi:
    psi(x) <= x ("psi_leq_x_ok"), and c1*x/psi(x) +
    c2*(x/phi(x))*ln(phi(x)) increasing and concave
    ("combined_concave_increasing"), both on the same grid.  The witness
    holds "psi_leq_x_fails_at", and "combined_fails_at" and "kind" as in
    check_delta, for the parts that fail."""
    bad, psi_x = _first_failures(exponent, x_lo, x_hi, grid_n,
                                 psi=exponent.psi)
    result = {"ok": bad is None and psi_x is None,
              "psi_leq_x_ok": psi_x is None,
              "combined_concave_increasing": bad is None}
    if not result["ok"]:
        witness = result["witness"] = {}
        if psi_x is not None:
            witness["psi_leq_x_fails_at"] = psi_x
        if bad is not None:
            witness["combined_fails_at"], witness["kind"] = bad
    return result


def _threshold(grid: list[float], last_fail: int | None
               ) -> tuple[float | None, bool]:
    # (n0, holds_at_top) from the index of the last failing sample
    if last_fail is None:
        return grid[0], True
    if last_fail == len(grid) - 1:
        return None, False
    return grid[last_fail], True


def check_d_condition(phi: FunctionSpec, psi: FunctionSpec, d: float,
                      n_lo: float, n_hi: float, grid_n: int = 1024) -> dict:
    """Grid scan of 2*psi(phi(n)/2) >= d*psi(n).

    "failures" counts the failing samples.  n0 is the largest sampled
    point that still fails (every later sample holds), or the low end of
    the grid when no sample fails.  "ok" is False when the top of the
    grid fails, and then there is no n0 to report.
    """
    if not 1.0 < d < math.inf:
        raise InputError(f"d must exceed 1 and be finite, got {d!r}")
    grid = log_grid(n_lo, n_hi, grid_n)
    last_fail = None
    failures = 0
    for idx, x in enumerate(grid):
        inner = phi.value(x) / 2.0
        if psi.refusal(inner):
            raise InnerDomainError(
                f"psi is not evaluable at phi({x:g})/2 = {inner:g} "
                f"(domain floor {psi.domain_floor})")
        lhs = 2.0 * psi.value(inner)
        rhs = d * psi.value(x)
        if not lhs >= rhs:
            last_fail = idx
            failures += 1
    n0, ok = _threshold(grid, last_fail)
    result = {"ok": ok, "n0": n0, "failures": failures}
    if not ok:
        result["witness"] = {"n": grid[-1],
                             "note": "inequality still failing at the top "
                                     "of the sampled range"}
    return result


def check_phi_composition(phi: FunctionSpec, n_lo: float, n_hi: float,
                          grid_n: int = 1024) -> dict:
    """Grid scan of tau(phi(n)) * ln(phi(phi(n))) <= ln(phi(n)) with
    tau(x) = x/phi(x), for the real-valued tau and for the integer
    ceiling variant side by side (they can genuinely disagree).  Each
    variant's n0 and holds_at_top read as check_d_condition's n0 and
    "ok"; the verdict "ok" is the real-tau one."""
    grid = log_grid(n_lo, n_hi, grid_n)
    real_fail = ceil_fail = None
    disagree = False
    # tiny relative slack so exact-equality cases are not lost to float noise
    slack = 1e-12
    for idx, x in enumerate(grid):
        inner = phi.value(x)
        if phi.refusal(inner):
            raise InnerDomainError(
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
    real_n0, real_top = _threshold(grid, real_fail)
    ceil_n0, ceil_top = _threshold(grid, ceil_fail)
    result = {"ok": real_top, "real_tau_n0": real_n0,
              "real_tau_holds_at_top": real_top, "ceil_tau_n0": ceil_n0,
              "ceil_tau_holds_at_top": ceil_top,
              "variants_disagree": disagree}
    if not real_top:
        result["witness"] = {"n": grid[-1],
                             "note": "real-tau inequality failing at the "
                                     "top of the sampled range"}
    return result


@dataclass(frozen=True)
class VerifiedRange:
    """fn, verified increasing and concave over [x_lo, x_hi] when built.

    fn is anything with d012, value and label.  A FunctionSpec must pass
    check_delta, an ExponentFunction check_psi_family (its psi stays at
    or below the identity), on one log grid over the range; otherwise
    HypothesisNotVerifiedError carries that check's report.  value
    refuses an x outside the range.
    """

    fn: FunctionSpec | ExponentFunction
    x_lo: float
    x_hi: float

    def __post_init__(self):
        check = (check_psi_family if isinstance(self.fn, ExponentFunction)
                 else check_delta)
        report = check(self.fn, self.x_lo, self.x_hi, _HYPOTHESIS_GRID_N)
        if not report["ok"]:
            raise HypothesisNotVerifiedError(
                f"{self.fn.label} fails the hypothesis on [{self.x_lo:g}, "
                f"{self.x_hi:g}]: {report['witness']}", report)

    def value(self, x: float) -> float:
        if not self.x_lo <= x <= self.x_hi:
            raise HypothesisNotVerifiedError(
                f"{self.fn.label}: x={x:g} is outside the verified range "
                f"[{self.x_lo:g}, {self.x_hi:g}]")
        return self.fn.value(x)


def _exponent_leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + EXPONENT_SLACK * max(abs(lhs), abs(rhs), 1.0)


def check_product_bound(n: int, p: int, parts, gate: VerifiedRange) -> bool:
    """Check prod_i Omega(ceil(n_i/2)) <= Omega(n/(2p) + 1)**p in exponent
    space for one composition of n into p parts."""
    parts = tuple(parts)
    if len(parts) != p:
        raise InputError(f"expected {p} parts, got {len(parts)}")
    if any((not isinstance(x, int)) or x < 1 for x in parts):
        raise InputError("parts must be positive integers")
    if sum(parts) != n:
        raise InputError(f"parts sum to {sum(parts)}, not {n}")
    lhs = sum(gate.value(float(math.ceil(x / 2))) for x in parts)
    rhs = p * gate.value(n / (2.0 * p) + 1.0)
    return _exponent_leq(lhs, rhs)


def check_p_monotonicity(n: float, p: int, gate: VerifiedRange) -> bool:
    """Check Omega(n/(2p)+1)**p <= Omega(n/(2(p+1))+1)**(p+1) in exponent
    space."""
    if not isinstance(p, int) or p < 1:
        raise InputError(f"p must be a positive integer, got {p!r}")
    if not n >= 1:
        raise InputError(f"n must be at least 1, got {n!r}")
    lhs = p * gate.value(n / (2.0 * p) + 1.0)
    rhs = (p + 1) * gate.value(n / (2.0 * (p + 1)) + 1.0)
    return _exponent_leq(lhs, rhs)


def check_jensen(gate: VerifiedRange, xs) -> bool:
    """Check sum f(x_i) <= k * f(mean(xs)) for the f that gate verified,
    the mean clamped to [min(xs), max(xs)], which rounding can leave."""
    xs = [float(x) for x in xs]
    if not xs:
        raise InputError("need at least one sample point")
    lhs = sum(gate.value(x) for x in xs)
    mean = min(max(math.fsum(xs) / len(xs), min(xs)), max(xs))
    return _exponent_leq(lhs, len(xs) * gate.value(mean))
