import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (ExponentFunction, FunctionSpec, InputError,
                       check_d_condition, check_delta, check_phi_composition,
                       check_psi_family, log_grid, parse_function_spec)

from . import oracles

IDENTITY = parse_function_spec("identity")
SQRT = parse_function_spec("sqrt")
LN_2 = parse_function_spec("ln@2")


def test_identity_derivatives():
    f = parse_function_spec("identity")
    v, d1, d2 = f.d012(7.0)
    assert v == 7.0
    assert d1 == 1.0
    assert d2 == 0.0


def test_power_spec_values():
    f = parse_function_spec("power:0.8")
    assert abs(f.value(32.0) - 32.0 ** 0.8) < 1e-12
    assert f.domain_floor == 1.0


def test_x_over_ln_second_derivative_closed_form():
    # f = x/ln x has f'' = (2 - ln x)/(x ln^3 x); at x = e^3 that is
    # -1/(27 e^3)
    f = parse_function_spec("x-over-lnx@2")
    _, _, d2 = f.d012(math.e ** 3)
    assert abs(d2 - (-1.0 / (27.0 * math.e ** 3))) < 1e-16


def test_exp_sqrt_ln_at_e():
    f = parse_function_spec("exp-sqrt-ln@1.5")
    assert abs(f.value(math.e) - math.e) < 1e-12


def test_default_domain_floor():
    assert parse_function_spec("identity").domain_floor == 1.0
    # ln involved, no override
    assert parse_function_spec("ln").domain_floor == 8.0
    assert parse_function_spec("ln@2").domain_floor == 2.0
    assert parse_function_spec("x-over-lnx").domain_floor == 8.0
    assert parse_function_spec("exp-sqrt-ln").domain_floor == 8.0


def test_domain_enforced():
    f = parse_function_spec("ln")
    with pytest.raises(InputError):
        f.value(4.0)
    f2 = parse_function_spec("ln@2")
    with pytest.raises(InputError):
        f2.value(1.0)   # ln not evaluable at/below 1 regardless of floor
    assert f2.value(2.0) > 0


def test_spec_validation():
    with pytest.raises(InputError):
        FunctionSpec(a=-1.0, b=1.0)
    with pytest.raises(InputError):
        FunctionSpec(a=1.0, b=1.0, domain_min=0.0)


@pytest.mark.parametrize("text", [
    "identity", "sqrt", "ln", "x-over-lnx", "exp-sqrt-ln",
    "exp-sqrt-ln:3.14", "const:2", "power:0.8", "1,0.5,0,0,1",
    "2,1,-1,0,1,4", "sqrt@16",
])
def test_parse_function_spec_accepts(text):
    f = parse_function_spec(text)
    assert f.value(max(f.domain_floor, 20.0)) > 0


# every catalogue form, as the FunctionSpec it parses to and its label
_ALIASES = [
    ("identity", FunctionSpec(1.0, 1.0, domain_min=1.0),
     "1*x^1*lnx^0*exp(0*lnx^1)@1"),
    ("sqrt", FunctionSpec(1.0, 0.5, domain_min=1.0),
     "1*x^0.5*lnx^0*exp(0*lnx^1)@1"),
    ("ln", FunctionSpec(1.0, 0.0, c=1.0), "1*x^0*lnx^1*exp(0*lnx^1)"),
    ("x-over-lnx", FunctionSpec(1.0, 1.0, c=-1.0),
     "1*x^1*lnx^-1*exp(0*lnx^1)"),
    ("exp-sqrt-ln", FunctionSpec(1.0, 0.0, u=1.0, v=0.5),
     "1*x^0*lnx^0*exp(1*lnx^0.5)"),
]


_FORMS = _ALIASES + [
    ("const:3", FunctionSpec(3.0, 0.0, domain_min=1.0),
     "3*x^0*lnx^0*exp(0*lnx^1)@1"),
    ("power:0.8", FunctionSpec(1.0, 0.8, domain_min=1.0),
     "1*x^0.8*lnx^0*exp(0*lnx^1)@1"),
    ("exp-sqrt-ln:2", FunctionSpec(1.0, 0.0, u=2.0, v=0.5),
     "1*x^0*lnx^0*exp(2*lnx^0.5)"),
    ("2,1,-1,0,1", FunctionSpec(2.0, 1.0, -1.0, 0.0, 1.0),
     "2*x^1*lnx^-1*exp(0*lnx^1)"),
    ("2,1,-1,0,1,4", FunctionSpec(2.0, 1.0, -1.0, 0.0, 1.0, 4.0),
     "2*x^1*lnx^-1*exp(0*lnx^1)@4"),
] + [(text + "@2", FunctionSpec(s.a, s.b, s.c, s.u, s.v, 2.0),
      label.split("@")[0] + "@2") for text, s, label in _ALIASES]


@pytest.mark.parametrize("text,spec,label", _FORMS,
                         ids=[text for text, _, _ in _FORMS])
def test_parse_function_spec_coefficients(text, spec, label):
    parsed = parse_function_spec(text)
    # repr also tells 1 from 1.0, which an error message would print
    assert repr(parsed) == repr(spec)
    assert parsed.label == label


@pytest.mark.parametrize("text", [
    "", "bogus", "const:", "const:x", "power:", "1,2", "1,2,3,4,5,6,7",
    "sqrt@", "sqrt@-3", "const:-1",
])
def test_parse_function_spec_rejects(text):
    with pytest.raises(InputError):
        parse_function_spec(text)


def test_parse_label_roundtrip():
    f = parse_function_spec("power:0.8")
    g = parse_function_spec("sqrt")
    assert f.label != g.label
    assert "0.8" in f.label


# -- derivative spot checks against numeric differentiation ----------------


@pytest.mark.parametrize("spec,x", [
    (SQRT, 9.0),
    (parse_function_spec("power:0.8"), 17.0),
    (LN_2, 5.0),
    (parse_function_spec("x-over-lnx@2"), 11.0),
    (parse_function_spec("exp-sqrt-ln@2"), 30.0),
    (FunctionSpec(a=2.0, b=0.5, c=1.5, u=0.3, v=0.7, domain_min=3.0), 25.0),
])
def test_d012_matches_mpmath_diff(spec, x):
    v, d1, d2 = spec.d012(x)
    ref = oracles.spec_value_mp(spec, x)
    assert abs(v - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))
    nd1 = float(mpmath.diff(lambda t: oracles.spec_value_mp(spec, t), x))
    nd2 = float(mpmath.diff(lambda t: oracles.spec_value_mp(spec, t), x, 2))
    assert abs(d1 - nd1) <= 1e-9 * max(1.0, abs(nd1))
    assert abs(d2 - nd2) <= 1e-9 * max(1.0, abs(nd2))


def test_exponent_function_identity_pair_is_one_plus_ln():
    ef = ExponentFunction(IDENTITY, IDENTITY)
    for x in (2.0, math.e, 10.0, 1e5):
        v, d1, d2 = ef.d012(x)
        assert abs(v - (1.0 + math.log(x))) < 1e-12 * (1 + math.log(x))
        assert abs(d1 - 1.0 / x) < 1e-12
        assert abs(d2 + 1.0 / x ** 2) < 1e-12


@pytest.mark.parametrize("phi,psi,x", [
    (SQRT, LN_2, 50.0),
    (parse_function_spec("power:0.8"), LN_2, 200.0),
    (parse_function_spec("x-over-lnx@2"), SQRT, 90.0),
])
def test_exponent_function_matches_mpmath_diff(phi, psi, x):
    ef = ExponentFunction(phi, psi, c1=1.3, c2=0.7)
    v, d1, d2 = ef.d012(x)
    f = lambda t: oracles.exponent_value_mp(ef, t)
    assert abs(v - float(f(x))) <= 1e-10 * max(1.0, abs(float(f(x))))
    nd1 = float(mpmath.diff(f, x))
    nd2 = float(mpmath.diff(f, x, 2))
    assert abs(d1 - nd1) <= 1e-8 * max(1.0, abs(nd1))
    assert abs(d2 - nd2) <= 1e-8 * max(1.0, abs(nd2))


def test_exponent_function_validation():
    with pytest.raises(InputError):
        ExponentFunction(IDENTITY, IDENTITY, c1=0.0)
    with pytest.raises(InputError):
        ExponentFunction(IDENTITY, IDENTITY, c2=-1.0)


# -- grids ------------------------------------------------------------------


def test_log_grid_shape():
    g = log_grid(1.0, 100.0, 5)
    assert g[0] == 1.0
    assert g[-1] == 100.0
    assert len(g) == 5
    ratios = [g[i + 1] / g[i] for i in range(4)]
    assert max(ratios) - min(ratios) < 1e-9


def test_log_grid_degenerate():
    assert log_grid(5.0, 5.0, 3) == [5.0]
    with pytest.raises(InputError):
        log_grid(10.0, 1.0, 4)
    with pytest.raises(InputError):
        log_grid(1.0, 10.0, 0)


# -- delta / psi-family / d-condition / composition reports ----------------


def test_delta_sqrt_ok():
    rep = check_delta(SQRT, 1.0, 1e6)
    assert rep["ok"]
    assert "witness" not in rep


def test_delta_x_squared_fails_concavity():
    rep = check_delta(parse_function_spec("power:2"), 1.0, 100.0)
    assert not rep["ok"]
    assert rep["witness"]["kind"] == "d2"


def test_delta_decreasing_fails():
    rep = check_delta(FunctionSpec(a=1.0, b=-0.5, domain_min=1.0), 1.0, 50.0)
    assert not rep["ok"]
    assert rep["witness"]["kind"] == "d1"


def test_delta_x_over_lnx_range_sensitive():
    # below e^2 the function still decreases; past 8 it is concave
    # increasing all the way out
    bad = check_delta(parse_function_spec("x-over-lnx@2"), 2.0, 10.0)
    assert not bad["ok"]
    good = check_delta(parse_function_spec("x-over-lnx"), 8.0, 1e6)
    assert good["ok"]


def test_delta_requires_domain():
    with pytest.raises(InputError):
        # the floor is 8 here
        check_delta(parse_function_spec("x-over-lnx"), 2.0, 100.0)


def test_psi_family_good_pair():
    rep = check_psi_family(ExponentFunction(IDENTITY, IDENTITY),
                           8.0, 1e6)
    assert rep["ok"]
    assert rep["psi_leq_x_ok"]
    assert rep["combined_concave_increasing"]


def test_psi_family_rejects_psi_above_identity():
    rep = check_psi_family(ExponentFunction(IDENTITY,
                                            parse_function_spec("power:2")),
                           8.0, 1e4)
    assert not rep["ok"]
    assert not rep["psi_leq_x_ok"]
    assert rep["witness"]["psi_leq_x_fails_at"] is not None


def test_d_condition_closed_form_bracket():
    # 2*ln(n^0.8 / 2) >= 1.5*ln(n) fails iff n^0.1 < 4, i.e. below 2^20
    rep = check_d_condition(parse_function_spec("power:0.8"), LN_2,
                            1.5, 1e2, 1e8, grid_n=10_000)
    assert rep["ok"]
    step = (1e8 / 1e2) ** (1.0 / 9_999)
    assert rep["n0"] <= 2 ** 20 <= rep["n0"] * step


def test_d_condition_constant_psi():
    # psi constant: 2*c >= d*c holds iff d <= 2
    c = parse_function_spec("const:3")
    phi = parse_function_spec("power:0.9")
    ok = check_d_condition(phi, c, 1.5, 10.0, 1e6, grid_n=64)
    assert ok["ok"] and ok["n0"] == 10.0
    bad = check_d_condition(phi, c, 2.5, 10.0, 1e6, grid_n=64)
    assert not bad["ok"]
    assert bad["n0"] is None


def test_d_condition_requires_d_above_one():
    with pytest.raises(InputError):
        check_d_condition(parse_function_spec("power:0.8"), LN_2,
                          1.0, 1e2, 1e4)


def test_d_condition_respects_psi_domain():
    # phi(n)/2 dips below psi's floor at the low end -> domain error
    with pytest.raises(InputError):
        check_d_condition(SQRT, LN_2,
                          1.5, 4.0, 1e4)


def test_phi_composition_identity_holds():
    rep = check_phi_composition(IDENTITY, 1e2, 1e8, grid_n=128)
    assert rep["ok"]
    assert rep["real_tau_holds_at_top"]


def test_phi_composition_sqrt_fails_beyond_16():
    # tau(sqrt n)*ln(n^(1/4)) <= ln(sqrt n) iff sqrt(n) <= 2 ... fails for
    # any n in this range, under both tau variants
    rep = check_phi_composition(SQRT, 1e2, 1e8, grid_n=128)
    assert not rep["ok"]
    assert not rep["real_tau_holds_at_top"]
    assert not rep["ceil_tau_holds_at_top"]


def test_phi_composition_x_over_lnx_observational():
    rep = check_phi_composition(parse_function_spec("x-over-lnx"), 1e2, 1e12,
                                grid_n=256)
    # large-n failure is expected; the report records both variants
    assert isinstance(rep["variants_disagree"], bool)
    assert not rep["real_tau_holds_at_top"]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 0.95), st.floats(1.5, 30.0))
def test_powers_below_one_pass_delta(b, x_hi):
    rep = check_delta(FunctionSpec(1.0, b, domain_min=1.0), 1.0,
                      max(x_hi, 1.5))
    assert rep["ok"]
