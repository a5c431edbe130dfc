"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test finishes by calling _report, which records a human-readable
pass/fail line (echoed after the run by the conftest terminal-summary
hook) and then asserts. Budgets named in the descriptions are asserted
with generous headroom; everything runs single-machine, pure Python.
"""

import itertools
import math
import random
import time

import mpmath

from richwords import (BootstrapState, ExponentFunction,
                       FunctionSpec, VerifiedRange, bootstrap_iterate,
                       bootstrap_step, check_d_condition, check_jensen,
                       check_p_monotonicity, check_product_bound,
                       composition_bound_sweep, count_rich, enumeration,
                       log_grid, parse_function_spec, recurrence_bound,
                       save_cache, seed_table_from_counts, suffix_pass,
                       ups_factorize)
from richwords.functions import EXPONENT_SLACK

from . import oracles

IDENTITY = parse_function_spec("identity")
RESULTS = []


def _report(num, desc, ok):
    RESULTS.append(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_eertree_matches_naive_counting():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 15):
        for letters in itertools.product(range(2), repeat=n):
            if sum(suffix_pass(letters, 2)[1]) + 1 != \
                    oracles.distinct_pal_count(letters):
                ok = False
                break
    for n in range(0, 10):
        for letters in itertools.product(range(3), repeat=n):
            if sum(suffix_pass(letters, 3)[1]) + 1 != \
                    oracles.distinct_pal_count(letters):
                ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(1, "palindrome counts match brute force on all binary words "
               f"n<=14 and ternary n<=9 ({elapsed:.1f}s < 120s)", ok)


def test_criterion_02_exact_counts_and_determinism(monkeypatch, tmp_path):
    t0 = time.perf_counter()
    expected = [2, 4, 8, 16, 32, 64, 128, 252, 488, 932]

    table = count_rich(2, 10)
    got = [table[n][0] for n in range(1, 11)]

    brute = oracles.rich_counts_brute(2, 10)
    naive = [brute[n] for n in range(1, 11)]

    a, b = tmp_path / "w1.jsonl", tmp_path / "w3.jsonl"
    save_cache(count_rich(2, 10, workers=1), 2, a)
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 4)
    save_cache(count_rich(2, 10, workers=3), 2, b)
    byte_identical = a.read_bytes() == b.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = (got == expected and naive == expected and byte_identical
          and elapsed < 60.0)
    _report(2, "rich counts R(1..10) = 2,4,...,932 via the canonical walk "
               "and brute force; caches worker-invariant "
               f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_03_ups_suite_on_rich_words():
    ok = True
    checked = 0
    for n in range(1, 13):
        for letters in itertools.product(range(2), repeat=n):
            if not oracles.is_rich(letters):
                continue
            checked += 1
            boundaries = ups_factorize(letters, 2)
            new = suffix_pass(letters, 2)[1]
            parts = [letters[b0:b1]
                     for b0, b1 in zip(boundaries, boundaries[1:])]
            flat = tuple(x for part in parts for x in part)
            if flat != letters:
                ok = False
            if any(part != part[::-1] for part in parts):
                ok = False
            if parts != oracles.peel(letters):
                ok = False
            if len(set(parts)) != len(parts):
                ok = False
            # unioccurrence: each part new where it ends, and by count
            if not all(new[b - 1] for b in boundaries[1:]):
                ok = False
            if not oracles.unioccurrent(letters, boundaries):
                ok = False
    _report(3, "palindromic-suffix factorization verified on all "
               f"{checked} rich binary words n<=12 (concatenation, "
               "palindromicity, greedy-peel equality, distinctness, "
               "unioccurrence by the pass's bit and by counting)", ok)


def test_criterion_04_composition_bound_sweep():
    t0 = time.perf_counter()
    failures = composition_bound_sweep(300)
    elapsed = time.perf_counter() - t0
    ok = failures == [] and elapsed < 30.0
    _report(4, "sum_p<=L C(n-1,p-1) <= (e*n/L)^L for all 1<=L<=n<=300 "
               f"({elapsed:.1f}s < 30s)", ok)


def test_criterion_05_recurrence_dominates_exact_counts():
    t0 = time.perf_counter()
    table = count_rich(2, 20, with_max_luf=False)
    counts = {n: count for n, (count, _) in table.items()}

    seeds = seed_table_from_counts({n: counts[n] for n in range(1, 11)}, 2)
    bound = recurrence_bound(seeds, lambda n: n, 20)

    ok = True
    for n in range(11, 21):
        exact_floor, _ = oracles.log2_bracket(counts[n])
        if not bound[n].log_q >= exact_floor:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(5, "certified recurrence table dominates exact rich counts "
               f"for q=2, 11<=n<=20 ({elapsed:.1f}s)", ok)


def test_criterion_06_jensen_and_derivative_catalogue():
    rng = random.Random(20260816)
    ok = True

    targets = [
        (parse_function_spec("sqrt"), 1.0),
        (parse_function_spec("x-over-lnx"), 8.0),
        (ExponentFunction(IDENTITY, IDENTITY), 8.0),
    ]
    for fn, lo in targets:
        hi = 1e6
        gate = VerifiedRange(fn, lo, hi)  # verified once per target
        for _ in range(1000):
            k = rng.randint(2, 8)
            xs = [math.exp(rng.uniform(math.log(lo), math.log(hi)))
                  for _ in range(k)]
            if not check_jensen(gate, xs):
                ok = False
                break

    # closed-form first and second derivatives against numeric
    # differentiation on well-conditioned random parameter draws
    for _ in range(1000):
        spec = FunctionSpec(
            a=rng.uniform(0.5, 3.0), b=rng.uniform(0.1, 1.5),
            c=rng.uniform(-1.0, 2.0), u=rng.uniform(0.0, 0.8),
            v=rng.uniform(0.3, 1.2), domain_min=3.0)
        x = rng.uniform(5.0, 500.0)
        v, d1, d2 = spec.d012(x)
        f = lambda t: oracles.spec_value_mp(spec, t)
        nd1 = float(mpmath.diff(f, x))
        nd2 = float(mpmath.diff(f, x, 2))
        scale1 = max(abs(nd1), abs(v) / x)
        scale2 = max(abs(nd2), abs(v) / x ** 2)
        if abs(d1 - nd1) > 1e-6 * scale1 or abs(d2 - nd2) > 1e-6 * scale2:
            ok = False
            break
    _report(6, "averaged comparison holds on 3000 seeded trials for "
               "sqrt, x/ln x and the combined exponent; closed-form "
               "derivatives within 1e-6 of numeric on 1000 draws", ok)


def test_criterion_07_product_bound_and_p_monotonicity():
    # every argument below lies in [1, 10_000/2 + 1]
    params = VerifiedRange(ExponentFunction(IDENTITY, IDENTITY, c1=1.0,
                                            c2=1.0), x_lo=1.0, x_hi=5001.0)
    rng = random.Random(20260816)
    ok = EXPONENT_SLACK == 1e-9  # the slack the criterion states

    for _ in range(1000):
        n = rng.randint(2, 10_000)
        p = rng.randint(1, min(n, 64))
        if p == 1:
            parts = [n]
        else:
            cuts = sorted(rng.sample(range(1, n), p - 1))
            edges = [0] + cuts + [n]
            parts = [edges[i + 1] - edges[i] for i in range(p)]
        if not check_product_bound(n, p, parts, params):
            ok = False
            break

    if ok:
        phi = params.fn.phi
        for n in range(10, 10_001):
            tau_n = math.ceil(n / phi.value(float(n)))  # = 1 for identity
            for p in range(1, tau_n + 1):
                if not check_p_monotonicity(float(n), p, params):
                    ok = False
                    break
            if not ok:
                break
        # explicit ladder beyond the degenerate cap
        for n in (10, 100, 1000, 10_000):
            for p in range(1, 11):
                if not check_p_monotonicity(float(n), p, params):
                    ok = False
    _report(7, "composition-wise product bound on 1000 seeded draws and "
               "part-count monotonicity across n in [10,1e4] "
               "(identity pair, slack 1e-9)", ok)


def test_criterion_08_d_condition_threshold_bracket():
    t0 = time.perf_counter()
    rep = check_d_condition(parse_function_spec("power:0.8"),
                            parse_function_spec("ln@2"), 1.5, 1e2, 1e8,
                            grid_n=10_000)
    elapsed = time.perf_counter() - t0
    step = (1e8 / 1e2) ** (1.0 / 9_999)
    ok = (rep["ok"] and rep["n0"] is not None
          and rep["n0"] <= 2 ** 20 <= rep["n0"] * step
          and elapsed < 5.0)
    _report(8, "threshold for 2*psi(phi(n)/2) >= 1.5*psi(n) brackets "
               f"n0 = 2^20 within one grid step ({elapsed:.2f}s < 5s)", ok)


def test_criterion_09_bootstrap_map():
    state = BootstrapState(q=2, d=2.0, c1=1.0, c2=1.0, c3=0.1)
    c1p, c2p = bootstrap_step(state)
    ok = c1p == 0.55
    ok = ok and abs(c2p - (1.1 + 1.0 / math.log(2))) < 1e-12
    traj = bootstrap_iterate(state, 60)
    ok = ok and abs(traj["c1"] - 0.1) < 1e-9
    c2s = [c2 for _, c2 in traj["trajectory"]]
    ok = ok and all(b > a for a, b in zip(c2s, c2s[1:]))
    _report(9, "constant map: one step gives (0.55, 1.1 + 1/ln 2); 60 "
               "iterations contract c1 to 0.1 while c2 increases "
               "strictly", ok)


def test_criterion_10_crossover_report():
    # ln x / x from the catalogue; its closed-form d1, checked against
    # mpmath in criterion 06, changes sign at e.  A difference of
    # neighbouring samples would be rounding noise where the curve is flat
    log_over_x = parse_function_spec("1,-1,1,0,1@1.5")
    ok = all(log_over_x.d012(x)[1] < 0.0
             for x in log_grid(math.e * (1.0 + 1e-9), 1e6, 1000))
    ok = ok and all(log_over_x.d012(x)[1] > 0.0
                    for x in log_grid(1.5, math.e * (1.0 - 1e-9), 1000))
    _report(10, "ln(x)/x peaks at x = e and is strictly decreasing on "
                "the sampled range out to 1e6", ok)
