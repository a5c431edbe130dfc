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

from richwords import (BootstrapState, Eertree, EnumerationConfig,
                       ExponentFunction, FunctionSpec, LogValue, OmegaParams,
                       ROUND_DOWN, ROUND_UP, bootstrap_iterate,
                       bootstrap_step, check_d_condition, check_jensen,
                       check_p_monotonicity, check_product_bound,
                       composition_bound_sweep, count_rich,
                       count_rich_symmetric, identity_spec, ln_spec,
                       log_over_x_crossover, power_spec, recurrence_bound,
                       save_cache, seed_table_from_counts, sqrt_spec,
                       ups_factorize, verify_unioccurrence, x_over_ln_spec)
from richwords.bounds import EXPONENT_SLACK
from richwords.words import Alphabet, Word

from . import oracles

RESULTS = []


def _report(num, desc, ok):
    RESULTS.append(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_eertree_matches_naive_counting():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 15):
        for letters in itertools.product(range(2), repeat=n):
            tree = Eertree.from_word(letters, 2)
            if tree.distinct_palindrome_count() != \
                    oracles.distinct_pal_count(letters):
                ok = False
                break
    for n in range(0, 10):
        for letters in itertools.product(range(3), repeat=n):
            tree = Eertree.from_word(letters, 3)
            if tree.distinct_palindrome_count() != \
                    oracles.distinct_pal_count(letters):
                ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(1, "palindrome counts match brute force on all binary words "
               f"n<=14 and ternary n<=9 ({elapsed:.1f}s < 120s)", ok)


def test_criterion_02_exact_counts_and_determinism(tmp_path):
    t0 = time.perf_counter()
    expected = [2, 4, 8, 16, 32, 64, 128, 252, 488, 932]

    table = count_rich(2, 10)
    got = [table.entries[n].count for n in range(1, 11)]

    brute = oracles.rich_counts_brute(2, 10)
    naive = [brute[n] for n in range(1, 11)]

    sym = count_rich_symmetric(2, 10)
    sym_counts = [sym.entries[n].count for n in range(1, 11)]

    a, b = tmp_path / "w1.jsonl", tmp_path / "w3.jsonl"
    save_cache(count_rich(2, 10, EnumerationConfig(workers=1)), a)
    save_cache(count_rich(2, 10, EnumerationConfig(workers=3,
                                                   shard_depth=4)), b)
    byte_identical = a.read_bytes() == b.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = (got == expected and naive == expected and sym_counts == expected
          and byte_identical and elapsed < 60.0)
    _report(2, "rich counts R(1..10) = 2,4,...,932 via walk, brute force "
               "and canonical rescaling; caches worker-invariant "
               f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_03_ups_suite_on_rich_words():
    ok = True
    checked = 0
    for n in range(1, 13):
        for letters in itertools.product(range(2), repeat=n):
            if not oracles.is_rich(letters):
                continue
            checked += 1
            word = Word(letters, Alphabet(2))
            f = ups_factorize(word)
            flat = tuple(x for part in f.parts for x in part)
            if flat != letters:
                ok = False
            if any(part != part[::-1] for part in f.parts):
                ok = False
            if list(f.parts) != oracles.peel(letters):
                ok = False
            if len(set(f.parts)) != len(f.parts):
                ok = False
            if not verify_unioccurrence(f):
                ok = False
    _report(3, "palindromic-suffix factorization verified on all "
               f"{checked} rich binary words n<=12 (concatenation, "
               "palindromicity, greedy-peel equality, distinctness, "
               "unioccurrence)", ok)


def test_criterion_04_composition_bound_sweep():
    t0 = time.perf_counter()
    failures = composition_bound_sweep(300)
    elapsed = time.perf_counter() - t0
    ok = failures == [] and elapsed < 30.0
    _report(4, "sum_p<=L C(n-1,p-1) <= (e*n/L)^L for all 1<=L<=n<=300 "
               f"({elapsed:.1f}s < 30s)", ok)


def test_criterion_05_recurrence_dominates_exact_counts():
    t0 = time.perf_counter()
    table = count_rich(2, 20, EnumerationConfig(with_max_luf=False))
    counts = {n: e.count for n, e in table.entries.items()}

    seeds = seed_table_from_counts({n: counts[n] for n in range(1, 11)}, 2)
    bound = recurrence_bound(seeds, lambda n: n, 20, "n")

    ok = True
    for n in range(11, 21):
        exact_floor = LogValue.from_int(counts[n], 2, ROUND_DOWN)
        if not bound.entries[n].value.log_q >= exact_floor.log_q:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(5, "certified recurrence table dominates exact rich counts "
               f"for q=2, 11<=n<=20 ({elapsed:.1f}s)", ok)


def test_criterion_06_jensen_and_derivative_catalogue():
    rng = random.Random(20260816)
    ok = True

    targets = [
        (sqrt_spec(), 1.0),
        (x_over_ln_spec(), 8.0),
        (ExponentFunction(identity_spec(), identity_spec()), 8.0),
    ]
    for fn, lo in targets:
        hi = 1e6
        for _ in range(1000):
            k = rng.randint(2, 8)
            xs = [math.exp(rng.uniform(math.log(lo), math.log(hi)))
                  for _ in range(k)]
            if not check_jensen(fn, xs):
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
    params = OmegaParams(q=2, c1=1.0, c2=1.0, phi=identity_spec(),
                         psi=identity_spec())
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
        phi = params.phi
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
    rep = check_d_condition(power_spec(0.8), ln_spec(domain_min=2.0),
                            1.5, 1e2, 1e8, grid_n=10_000)
    elapsed = time.perf_counter() - t0
    step = (1e8 / 1e2) ** (1.0 / 9_999)
    ok = (rep.holds_at_top and rep.n0 is not None
          and rep.n0 <= 2 ** 20 <= rep.n0 * step
          and elapsed < 5.0)
    _report(8, "threshold for 2*psi(phi(n)/2) >= 1.5*psi(n) brackets "
               f"n0 = 2^20 within one grid step ({elapsed:.2f}s < 5s)", ok)


def test_criterion_09_bootstrap_map():
    state = BootstrapState(q=2, d=2.0, c1=1.0, c2=1.0, c3=0.1)
    c1p, c2p = bootstrap_step(state)
    ok = c1p == 0.55
    ok = ok and abs(c2p - (1.1 + 1.0 / math.log(2))) < 1e-12
    traj = bootstrap_iterate(state, 60)
    ok = ok and abs(traj.final[0] - 0.1) < 1e-9
    c2s = [c2 for _, c2 in traj.points]
    ok = ok and all(b > a for a, b in zip(c2s, c2s[1:]))
    _report(9, "constant map: one step gives (0.55, 1.1 + 1/ln 2); 60 "
               "iterations contract c1 to 0.1 while c2 increases "
               "strictly", ok)


def test_criterion_10_crossover_report():
    rep = log_over_x_crossover(grid_n=1000, x_hi=1e6)
    ok = rep.x0 == math.e and rep.decreasing_ok
    _report(10, "ln(x)/x peaks at x = e and is strictly decreasing on "
                "the sampled range out to 1e6", ok)
