import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from richwords import (BootstrapState, InputError, bootstrap_iterate,
                       bootstrap_step, exponent_compare, fixed_point_c1,
                       parse_function_spec)

IDENTITY = parse_function_spec("identity")


def _state(**kw):
    base = dict(q=2, d=2.0, c1=1.0, c2=1.0, c3=0.1)
    base.update(kw)
    return BootstrapState(**base)


def test_single_step_worked_example():
    c1, c2 = bootstrap_step(_state())
    assert c1 == 0.55  # (1 + 0.1)/2, exact in binary floating point
    assert abs(c2 - (1.1 + 1.0 / math.log(2))) < 1e-15


def test_state_validation():
    with pytest.raises(InputError):
        _state(q=1)
    with pytest.raises(InputError):
        _state(d=1.0)
    with pytest.raises(InputError):
        _state(c1=0.0)
    with pytest.raises(InputError):
        _state(c3=-0.2)


def test_fixed_point():
    assert fixed_point_c1(_state()) == pytest.approx(0.1)
    assert fixed_point_c1(_state(d=3.0, c3=0.4)) == pytest.approx(0.2)


def test_iteration_converges_geometrically():
    traj = bootstrap_iterate(_state(), 60)
    assert abs(traj["c1"] - 0.1) < 1e-9
    # c1 distances to the fixed point shrink by exactly 1/d each step
    dists = [abs(c1 - 0.1) for c1, _ in traj["trajectory"]]
    for a, b in zip(dists, dists[1:]):
        if a > 1e-12:
            assert b == pytest.approx(a / 2.0, rel=1e-9)


def test_iteration_c2_strictly_increases():
    traj = bootstrap_iterate(_state(), 25)
    c2s = [c2 for _, c2 in traj["trajectory"]]
    assert all(b > a for a, b in zip(c2s, c2s[1:]))


def test_trajectory_shape():
    traj = bootstrap_iterate(_state(), 5)
    assert len(traj["trajectory"]) == 6  # start + 5 steps
    assert traj["trajectory"][0] == [1.0, 1.0]
    assert [traj["c1"], traj["c2"]] == traj["trajectory"][-1]
    zero = bootstrap_iterate(_state(), 0)
    assert zero["trajectory"] == [[zero["c1"], zero["c2"]]]


@given(st.floats(1.1, 8.0), st.floats(0.01, 5.0), st.floats(0.01, 2.0))
def test_c1_converges_for_any_valid_params(d, c1, c3):
    traj = bootstrap_iterate(_state(d=d, c1=c1, c3=c3), 200)
    assert abs(traj["c1"] - c3 / (d - 1.0)) < 1e-6 * max(1.0, c3 / (d - 1))


def test_iteration_names_the_step_where_c2_overflows():
    # c2 about doubles each step, so it passes the largest float near
    # step 1023
    with pytest.raises(InputError, match="^c2 overflows at step 1023$"):
        bootstrap_iterate(_state(d=1.5, c3=1.0), 2000)
    with pytest.raises(InputError, match="^c1 overflows at step 1$"):
        bootstrap_iterate(_state(c1=1e308, c3=1e308), 1)


def test_exponent_compare_improves_in_regime():
    report = exponent_compare(_state(), parse_function_spec("power:0.8"),
                              parse_function_spec("ln@2"), 1e6)
    assert report["improved"]
    assert report["new_exponent"] < report["old_exponent"]
    assert report["c1_shrinks"]


def test_exponent_compare_requires_n_above_one():
    with pytest.raises(InputError):
        exponent_compare(_state(), IDENTITY, IDENTITY, 1.0)


def test_exponent_compare_requires_phi_above_one():
    # ln 2 < 1: ln(phi(n)) would be negative
    with pytest.raises(InputError, match=r"phi above 1"):
        exponent_compare(_state(), parse_function_spec("ln@2"), IDENTITY,
                         2.0)


def test_iteration_refuses_negative_steps():
    with pytest.raises(InputError, match="steps must be a non-negative "
                                         "integer, got -1"):
        bootstrap_iterate(_state(), -1)


def test_exponent_compare_term_fields():
    report = exponent_compare(_state(), IDENTITY, IDENTITY, 100.0)
    # with identity/identity the second term is (n)(ln n)/n... the report
    # only promises coherent booleans plus the two exponents
    assert isinstance(report["first_term_dominates"], bool)
    assert report["old_exponent"] > 0
    assert report["new_exponent"] > 0
