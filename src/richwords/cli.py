"""Command-line front door.

Subcommands mirror the library: check/count/ups/maxluf for the exact
side, bound-recurrence for certified tables, verify * for the inequality
checks, bootstrap and compare-exponents for the constant-improvement map.

Exit codes: 2 exactly when the report's "ok" is false (a verification
ran and found a counterexample; the report carries the witness), 1 for
usage, domain and I/O errors, 0 otherwise.  run() decides the code from
the result; a handler only builds its result.

Reports are emitted on stdout and are byte-identical for identical
configurations: the envelope carries the tool version and the parsed
configuration, while volatile data (wall-clock duration) goes to stderr.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import sys
import time

# the other submodules are imported by the handlers that use them, so a
# run loads only what its subcommand needs (count never loads mpmath)
from . import bounds, enumeration
from .errors import BudgetExceededError, InputError, RichwordsError
from .version import TOOL_VERSION

CACHE_DIR_ENV = "RICHWORDS_CACHE_DIR"
# bound-recurrence --seeds-cache counts the cache's rows again up to the
# longest length whose walk fits this many attempts, and prints only those
# rows as exact-seed: q = 2 to n = 16 (42,263 attempts, about 10-20 ms),
# q = 3 to 12, q = 4 to 11 and q = 5 to 10
SEED_CHECK_BUDGET = 50_000
# the flags of a walk; a run that reads a count cache instead refuses each
# one its subcommand declares that is set away from its default
_WALK_FLAGS = ("--symmetric", "--workers", "--budget", "--no-max-luf",
               "--save-cache")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- helpers ---------------------------------------------------------------


def _cache_path(path: str) -> str:
    base = os.environ.get(CACHE_DIR_ENV)
    if base and os.sep not in path and "/" not in path:
        return os.path.join(base, path)
    return path


def _value(ns, name: str):
    # the parsed value of a flag table name: "--flag", "--flag METAVAR" or
    # a positional's name
    return getattr(ns, name.split()[0].lstrip("-").replace("-", "_"))


def _letters_from_args(ns) -> tuple[tuple[int, ...], int]:
    # (letters, q); q defaults to the letters present, and at least 2
    from . import words

    letters = words.letters_from_text(ns.word)
    q = ns.q if ns.q is not None else max(2, max(letters, default=-1) + 1)
    outside = [ch for ch, a in zip(ns.word, letters) if a >= q]
    if outside:
        raise InputError(f"--q {q} has no letter {outside[0]!r}")
    return letters, q


def _config_echo(ns) -> dict:
    cfg = {}
    for key, value in sorted(vars(ns).items()):
        if key in ("command", "verify_what"):
            continue
        cfg[key.replace("_", "-")] = value
    cfg["command"] = ns.command
    if getattr(ns, "verify_what", None):
        cfg["verify"] = ns.verify_what
    return cfg


def _table_rows(table: dict) -> list[dict]:
    return [{"n": n, "count": str(count), "max_luf": max_luf}
            for n, (count, max_luf) in sorted(table.items())]


def _part_cap(phi, n: int) -> int:
    # tau(n) = ceil(n/phi(n)) >= 1, the cap on the palindromic length
    try:
        ratio = n / phi.value(float(n))
    except InputError as exc:
        raise InputError(f"--phi at row n={n}: {exc}") from None
    if not math.isfinite(ratio):
        raise InputError(f"--phi {phi.label}: n/phi(n) is not finite at "
                         f"row n={n}")
    return math.ceil(ratio)


def _check_range(ns, *fns, flags=("--x-lo", "--x-hi")) -> None:
    # refused, never narrowed: the verdict must cover the range asked for
    lo, hi = (_value(ns, flag) for flag in flags)
    for fn in fns:
        reason = fn.refusal(lo)
        if reason:
            raise InputError(f"{flags[0]} {lo:g}: {reason}")
    if lo > hi:
        raise InputError(f"{flags[0]} {lo:g} is above {flags[1]} {hi:g}")


def _range_error(ns, exc) -> InputError:
    # a scan's inner argument leaves a domain only at a length in the range
    return InputError(f"--n-lo {ns.n_lo:g} to --n-hi {ns.n_hi:g}: {exc}")


def _random_composition(rng: random.Random, n: int, p: int) -> list[int]:
    if p == 1:
        return [n]
    cuts = sorted(rng.sample(range(1, n), p - 1))
    edges = [0] + cuts + [n]
    return [edges[i + 1] - edges[i] for i in range(p)]


# -- handlers ----------------------------------------------------------------
# each returns its result dict; a table handler's result holds its rows
# under "rows", each row's keys in csv column order.  A handler whose
# library call returns the printed dict only adds its input labels


def _cmd_check(ns):
    from .words import suffix_pass

    _, new = suffix_pass(*_letters_from_args(ns))
    return {"word": ns.word, "rich": all(new), "palindromes": sum(new) + 1}


def _load_rows(ns, flag: str, n: int, *, to_last: bool = False) -> dict:
    """Rows 1..n of the cache that flag names, or up to its last row when
    to_last and that is below n; exit 1 on a walk flag given with it, or
    naming the first of those rows that it lacks."""
    # a flag left at its default cannot be told from one not given
    walk = [row.name.split()[0] for row in COMMANDS[ns.command][2]
            if row.name.split()[0] in _WALK_FLAGS
            and _value(ns, row.name) != row.default]
    if walk:
        raise InputError(f"{flag} cannot be combined with enumeration "
                         f"flags: {', '.join(walk)}")
    path = _value(ns, flag)
    table = enumeration.load_cache(_cache_path(path), ns.q)
    if to_last:
        n = min(n, max(table, default=1))
    for k in range(1, n + 1):
        if k not in table:
            raise InputError(f"{flag} {path} has no row n={k} (rows 1..{n} "
                             f"needed)")
    return {k: table[k] for k in range(1, n + 1)}


def _cmd_count(ns):
    if ns.load_cache:
        table = _load_rows(ns, "--load-cache", ns.n)
    else:
        table = enumeration.count_rich(ns.q, ns.n, workers=ns.workers,
                                       with_max_luf=not ns.no_max_luf,
                                       node_budget=ns.budget)
        if ns.save_cache:  # --symmetric is a label only: the same walk
            enumeration.save_cache(table, ns.q, _cache_path(ns.save_cache),
                                   symmetric=ns.symmetric)
    return {"q": ns.q, "rows": _table_rows(table)}


def _cmd_ups(ns):
    from . import words

    letters, q = _letters_from_args(ns)
    lengths, new = words.suffix_pass(letters, q)
    boundaries = words.peel_cuts(lengths)
    parts = [words.text_from_letters(letters[b0:b1])
             for b0, b1 in zip(boundaries, boundaries[1:])]
    return {
        "word": ns.word,
        "parts": parts,
        "p": len(parts),
        "boundaries": list(boundaries),
        # each part is new where it ends, which makes the parts distinct
        "unioccurrent": all(new[b - 1] for b in boundaries[1:]),
    }


def _cmd_maxluf(ns):
    table = {n: m for n, (_, m) in enumeration.count_rich(
        ns.q, ns.n, node_budget=ns.budget).items()}
    if ns.phi:
        from . import functions

        phi = functions.parse_function_spec(ns.phi)
        return {"q": ns.q, "phi": phi.label,
                **functions.compare_luf_bound(table, phi)}
    rows = [{"n": n, "max_luf": m} for n, m in sorted(table.items())]
    return {"q": ns.q, "rows": rows}


def _parse_tau(ns):
    text = ns.tau.strip()
    if ns.phi is not None and text != "phi":
        raise InputError(f"--phi is only read with --tau phi, not with "
                         f"--tau {text}")
    if text == "n":
        return (lambda n: n), "n"
    if text.startswith("const:"):
        try:
            k = int(text[len("const:"):])
        except ValueError as exc:
            raise InputError(f"--tau constant must be an integer, got "
                             f"{text!r}") from exc
        if k < 1:
            raise InputError(f"--tau constant must be positive, got {k}")
        return (lambda n: k), f"const:{k}"
    if text == "phi":
        if not ns.phi:
            raise InputError("--tau phi needs --phi")
        from . import functions

        phi = functions.parse_function_spec(ns.phi)
        return (lambda n: _part_cap(phi, n)), f"ceil(n/phi), phi={phi.label}"
    raise InputError(f"unknown --tau form {text!r}")


def _checked_length(ns, counts: dict[int, int]) -> int:
    """The longest length up to which a walk of at most SEED_CHECK_BUDGET
    attempts counts the --seeds-cache counts again; exit 1 on a row it
    counts otherwise."""
    def walk(n):
        return enumeration.count_rich(ns.q, n, with_max_luf=False,
                                      node_budget=SEED_CHECK_BUDGET)
    # no walk passes the walk limit
    top = min(max(counts), _WALK_N.most)
    try:
        walked = walk(top)
    except BudgetExceededError:
        # each length walks its shorter rows again, so the walks up to
        # the first that aborts cost a few times the budget in all
        walked = {}
        for n in range(1, top):
            try:
                walked = walk(n)
            except BudgetExceededError:
                break
    for n, (count, _) in walked.items():
        if counts[n] != count:
            raise InputError(
                f"--seeds-cache {ns.seeds_cache}: row n={n} holds "
                f"{counts[n]}, but there are {count} rich words of "
                f"length {n} over {ns.q} letters")
    return len(walked)


def _cmd_bound_recurrence(ns):
    if (ns.seed_n is None) == (ns.seeds_cache is None):
        raise InputError("provide exactly one of --seed-n or --seeds-cache")
    tau, tau_label = _parse_tau(ns)
    # rows 1..n_max read no seed above n_max
    if ns.seeds_cache:
        table = _load_rows(ns, "--seeds-cache", ns.n_max, to_last=True)
    else:
        table = enumeration.count_rich(ns.q, min(ns.seed_n, ns.n_max),
                                       with_max_luf=False,
                                       node_budget=ns.budget)
    counts = {n: count for n, (count, _) in table.items()}
    seeds = bounds.seed_table_from_counts(counts, ns.q)
    n_checked = (_checked_length(ns, counts) if ns.seeds_cache
                 else max(counts))
    table = bounds.recurrence_bound(seeds, tau, ns.n_max)
    rows = [{"n": n,
             "exponent_log_q": bounds.exponent_text(value.log_q),
             "provenance": ("recurrence" if n not in seeds
                            else "exact-seed" if n <= n_checked
                            else "cached-seed")}
            for n, value in table.items()]
    certified = ("unconditional"
                 if bounds.unconditional(tau, max(seeds), ns.n_max)
                 else "conditional on palindromic length <= tau(n)")
    return {"q": ns.q, "tau": tau_label, "certified": certified,
            "rows": rows}


def _cmd_verify_composition_bound(ns):
    failures = bounds.composition_bound_sweep(ns.n_max)
    result = {"n_max": ns.n_max, "ok": not failures,
              "checked": ns.n_max * (ns.n_max + 1) // 2}
    if failures:
        result["witness"] = {"n": failures[0][0], "L": failures[0][1]}
    return result


def _cmd_verify_jensen(ns):
    from . import functions

    fn = functions.parse_function_spec(ns.fn)
    _check_range(ns, fn)
    gate = functions.VerifiedRange(fn, ns.x_lo, ns.x_hi)
    rng = random.Random(ns.seed)
    for trial in range(ns.trials):
        k = rng.randint(2, ns.points)
        xs = [rng.uniform(ns.x_lo, ns.x_hi) for _ in range(k)]
        if not functions.check_jensen(gate, xs):
            return {"fn": fn.label, "ok": False, "trials_run": trial + 1,
                    "witness": {"xs": xs}}
    return {"fn": fn.label, "ok": True, "trials_run": ns.trials}


def _cmd_verify_product_bound(ns):
    from . import functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    exponent = functions.ExponentFunction(phi, psi, ns.c1, ns.c2)
    floor = exponent.domain_floor
    # the least integer both specs take; every part is at least m, so
    # ceil(part/2) >= least
    least = math.ceil(floor)
    while exponent.refusal(least):
        least += 1
    m = 2 * least - 1
    if ns.n_max < m:
        raise InputError(f"--n-max must be >= {m}, got {ns.n_max}: a part "
                         f"below {m} halves to below {least}, the least x "
                         f"both specs take (domain floor {floor:g})")
    gate = functions.VerifiedRange(exponent, float(least), ns.n_max / 2 + 1)
    rng = random.Random(ns.seed)
    for trial in range(ns.trials):
        n = rng.randint(max(2, m), ns.n_max)
        p = rng.randint(1, n // m)
        parts = [m - 1 + part for part in
                 _random_composition(rng, n - p * (m - 1), p)]
        if not functions.check_product_bound(n, p, parts, gate):
            return {"ok": False, "trials_run": trial + 1,
                    "witness": {"n": n, "p": p, "parts": parts}}
    return {"ok": True, "trials_run": ns.trials}


def _cmd_verify_p_monotonicity(ns):
    from . import functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    _check_range(ns, flags=("--n-lo", "--n-hi"))
    lengths = sorted({int(round(x)) for x in functions.log_grid(
        ns.n_lo, ns.n_hi, ns.grid)})
    caps = [min(ns.p_max, _part_cap(phi, n)) for n in lengths]
    # (n, p) asks for x = n/(2k) + 1 at k = p, p + 1: the least x is at an
    # n's largest p with k = p + 1, the largest x at p = 1 of the largest n
    x_lo, n, p = min((n / (2.0 * (cap + 1)) + 1.0, n, cap)
                     for n, cap in zip(lengths, caps))
    exponent = functions.ExponentFunction(phi, psi, ns.c1, ns.c2)
    if exponent.refusal(x_lo):
        raise InputError(f"--n-lo {ns.n_lo} with --p-max {ns.p_max} asks for "
                         f"x = n/(2(p+1)) + 1 = {x_lo:g} at (n, p) = ({n}, "
                         f"{p}), below the domain floor "
                         f"{exponent.domain_floor:g}")
    gate = functions.VerifiedRange(exponent, x_lo, lengths[-1] / 2.0 + 1.0)
    pairs = ((n, p) for n, cap in zip(lengths, caps)
             for p in range(1, cap + 1))
    for checked, (n, p) in enumerate(pairs, 1):
        if not functions.check_p_monotonicity(float(n), p, gate):
            return {"ok": False, "checked": checked,
                    "witness": {"n": n, "p": p}}
    return {"ok": True, "checked": sum(caps)}


def _cmd_verify_delta(ns):
    from . import functions

    fn = functions.parse_function_spec(ns.fn)
    _check_range(ns, fn)
    return {"fn": fn.label, "x_lo": ns.x_lo, "x_hi": ns.x_hi,
            "grid": ns.grid,
            **functions.check_delta(fn, ns.x_lo, ns.x_hi, ns.grid)}


def _cmd_verify_psi_family(ns):
    from . import functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    exponent = functions.ExponentFunction(phi, psi)
    _check_range(ns, exponent)
    return {"phi": phi.label, "psi": psi.label,
            **functions.check_psi_family(exponent, ns.x_lo, ns.x_hi,
                                         ns.grid)}


def _cmd_verify_d_condition(ns):
    from . import functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    _check_range(ns, phi, psi, flags=("--n-lo", "--n-hi"))
    try:
        scan = functions.check_d_condition(phi, psi, ns.d, ns.n_lo, ns.n_hi,
                                           ns.grid)
    except functions.InnerDomainError as exc:
        raise _range_error(ns, exc) from None
    return {"phi": phi.label, "psi": psi.label, "d": ns.d, **scan}


def _cmd_verify_phi_composition(ns):
    from . import functions

    phi = functions.parse_function_spec(ns.phi)
    _check_range(ns, phi, flags=("--n-lo", "--n-hi"))
    try:
        scan = functions.check_phi_composition(phi, ns.n_lo, ns.n_hi, ns.grid)
    except functions.InnerDomainError as exc:
        raise _range_error(ns, exc) from None
    return {"phi": phi.label, **scan}


def _cmd_bootstrap(ns):
    from . import bootstrap

    state = bootstrap.BootstrapState(ns.q, ns.d, ns.c1, ns.c2, ns.c3)
    return bootstrap.bootstrap_iterate(state, ns.iters)


def _cmd_compare_exponents(ns):
    from . import bootstrap, functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    state = bootstrap.BootstrapState(ns.q, ns.d, ns.c1, ns.c2, ns.c3)
    return bootstrap.exponent_compare(state, phi, psi, ns.n)


# -- the command-line surface -----------------------------------------------
# One row per flag: name is "--flag", "--flag METAVAR" or a positional's
# name; type is int, float, str, bool (a switch) or a tuple of choices; a
# flag whose default is REQUIRED must be given.  run refuses an int flag
# outside least and most, a flag at or below above, and a float flag that
# is not finite, at once.
Flag = collections.namedtuple("Flag", "name type default help least most "
                              "above", defaults=(None,) * 5)
REQUIRED = object()

_SPEC_HELP = ("catalogue function: identity | sqrt | ln | x-over-lnx | "
              "exp-sqrt-ln[:COEFF] | const:K | power:B | a,b,c,u,v[,floor]; "
              "append @FLOOR to override the domain floor")
_PHI = Flag("--phi SPEC", str, REQUIRED, _SPEC_HELP)
_PSI = Flag("--psi SPEC", str, REQUIRED, _SPEC_HELP)
_FN = Flag("--fn SPEC", str, REQUIRED, _SPEC_HELP)
_X_RANGE = (Flag("--x-lo", float, REQUIRED), Flag("--x-hi", float, REQUIRED))
_OMEGA = tuple(Flag(f"--c{i}", float, 1.0, above=0) for i in (1, 2))
_Q = Flag("--q", int, REQUIRED, least=2)
_D = Flag("--d", float, REQUIRED, above=1)
_CONSTANTS = (_Q, _D, *(Flag(f"--c{i}", float, REQUIRED, above=0)
                        for i in (1, 2, 3)))
_WORD = Flag("word", str, REQUIRED, "word over a-z")
_FORMAT_HELP = "report format (default: json)"
_JSON_TEXT = Flag("--format", ("json", "text"), "json", _FORMAT_HELP)
_JSON_TEXT_CSV = Flag("--format", ("json", "text", "csv"), "json",
                      _FORMAT_HELP)
# the walk recurses about once per letter, and Python stops at 1000 frames:
# 500 leaves room for a caller hundreds of frames deep.  No walk past n = 40
# or so finishes within the default budget
_WALK_N = Flag("--n N_MAX", int, REQUIRED, least=1, most=500)
_BUDGET = Flag("--budget", int, enumeration.DEFAULT_NODE_BUDGET,
               "abort after visiting this many search nodes", least=1)
# the largest --grid of a one-dimensional scan; at it each scan took
# under 10 s and 60 MB (one core of a 2-core machine, Python 3.11)
_GRID = Flag("--grid", int, least=2, most=10**6)

# every subcommand in --help order: handler, help and flags in --help order;
# "verify X" is the check X of verify
COMMANDS = {
    "check": (_cmd_check, "is a word rich?", (
        _WORD,
        _Q._replace(default=None,
                    help="alphabet size (default: letters present)"),
        _JSON_TEXT)),
    "count": (_cmd_count, "count rich words up to a length", (
        _Q,
        _WALK_N,
        Flag("--symmetric", bool, False,
             "label the table's provenance as symmetric; every count walks "
             "canonical words only and rescales"),
        Flag("--workers", int, 1, least=1),
        _BUDGET,
        Flag("--no-max-luf", bool, False,
             "skip tracking of maximum peel lengths"),
        Flag("--save-cache PATH", str),
        Flag("--load-cache PATH", str, None,
             "render a previously saved table instead of counting"),
        _JSON_TEXT_CSV)),
    "ups": (_cmd_ups, "peel a word into palindromic suffixes", (
        _WORD, _Q._replace(default=None), _JSON_TEXT)),
    "maxluf": (_cmd_maxluf, "maximum peel length among rich words", (
        _Q,
        _WALK_N,
        _BUDGET,
        _PHI._replace(default=None,
                      help="compare against n/phi(n): " + _SPEC_HELP),
        _JSON_TEXT_CSV)),
    "bound-recurrence": (
        _cmd_bound_recurrence, "certified upper-bound table from seeds", (
            _Q,
            Flag("--n-max", int, REQUIRED, least=1),
            Flag("--seed-n", int, None,
                 "enumerate exact counts up to this length as seeds",
                 least=1, most=_WALK_N.most),
            Flag("--seeds-cache PATH", str, None,
                 "load seeds from a count cache instead, no row above "
                 "--n-max; rows a short walk counts again are exact-seed, "
                 "the rest cached-seed"),
            _BUDGET,
            Flag("--tau", str, "n",
                 "per-length part cap: n | const:K | phi (default: n)"),
            _PHI._replace(default=None,
                          help="phi for --tau phi: " + _SPEC_HELP),
            _JSON_TEXT_CSV)),
    "verify": (None, "inequality checks (exit 2 on a counterexample)", ()),
    "verify composition-bound": (
        _cmd_verify_composition_bound,
        "sum of C(n-1,p-1) against (e*n/L)^L", (
            # 26 s at the limit (one core of a 2-core machine, Python 3.11)
            Flag("--n-max", int, 300, least=1, most=1400),
            _JSON_TEXT)),
    "verify jensen": (
        _cmd_verify_jensen,
        "averaged comparison for a concave increasing function", (
            _FN, *_X_RANGE,
            Flag("--trials", int, 1000, least=1, most=10**4),
            Flag("--points", int, 8, "max sample points per trial",
                 least=2, most=10**3),
            Flag("--seed", int, 0),
            _JSON_TEXT)),
    "verify product-bound": (
        _cmd_verify_product_bound,
        "composition-wise product against the balanced power", (
            *_OMEGA, _PHI, _PSI,
            Flag("--n-max", int, 200, least=2, most=10**4),
            Flag("--trials", int, 1000, least=1, most=2000),
            Flag("--seed", int, 0),
            _JSON_TEXT)),
    "verify p-monotonicity": (
        _cmd_verify_p_monotonicity,
        "balanced power is monotone in the part count", (
            *_OMEGA, _PHI, _PSI,
            Flag("--n-lo", int, 10, least=1),
            Flag("--n-hi", int, 10000),
            # up to 10**6 (n, p) pairs
            Flag("--grid", int, 1000, "number of sampled lengths",
                 least=2, most=10**4),
            Flag("--p-max", int, 8, least=1, most=100),
            _JSON_TEXT)),
    "verify delta": (
        _cmd_verify_delta, "increasing and concave on a grid", (
            _FN, *_X_RANGE, _GRID._replace(default=512), _JSON_TEXT)),
    "verify psi-family": (
        _cmd_verify_psi_family,
        "psi below identity and combined exponent concave-increasing", (
            _PHI, _PSI, *_X_RANGE, _GRID._replace(default=512),
            _JSON_TEXT)),
    "verify d-condition": (
        _cmd_verify_d_condition,
        "threshold for 2*psi(phi(n)/2) >= d*psi(n)", (
            _PHI, _PSI, _D,
            Flag("--n-lo", float, 1e2),
            Flag("--n-hi", float, 1e8),
            _GRID._replace(default=10000),
            _JSON_TEXT)),
    "verify phi-composition": (
        _cmd_verify_phi_composition,
        "tau(phi(n))*ln(phi(phi(n))) against ln(phi(n))", (
            _PHI,
            Flag("--n-lo", float, 1e2),
            Flag("--n-hi", float, 1e8),
            _GRID._replace(default=1024),
            _JSON_TEXT)),
    "bootstrap": (_cmd_bootstrap, "iterate the constant map", (
        *_CONSTANTS, Flag("--iters", int, 1, least=0, most=10**5),
        _JSON_TEXT)),
    "compare-exponents": (
        _cmd_compare_exponents, "exponent before and after one map step", (
            *_CONSTANTS, _PHI, _PSI, Flag("--n", float, REQUIRED, above=1),
            _JSON_TEXT)),
}


def _add_flag(parser, flag) -> None:
    name, _, metavar = flag.name.partition(" ")
    kwargs = {"help": flag.help}
    if flag.type is bool:
        kwargs.update(action="store_true", default=flag.default)
    elif isinstance(flag.type, tuple):
        kwargs.update(choices=flag.type, default=flag.default)
    else:
        kwargs.update(type=flag.type, metavar=metavar or None)
        if flag.default is not REQUIRED:
            kwargs["default"] = flag.default
        elif name.startswith("-"):
            kwargs["required"] = True
    parser.add_argument(name, **kwargs)


def _chain(argv) -> tuple[str, ...]:
    # the COMMANDS entries argv runs through when it starts with a runnable
    # subcommand or verify check, else ()
    names = tuple(argv[:1])
    if names == ("verify",):
        names += (" ".join(argv[:2]),)
    return names if names and COMMANDS.get(names[-1], (None,))[0] else ()


def build_parser(argv=None) -> _Parser:
    """The parser for argv.  When argv starts with a runnable subcommand,
    or verify and one of its checks, it holds only that chain and its
    flags, and parses argv as the whole tree would; every other argv
    (None included) gets the whole tree, so help and choice errors list
    every subcommand."""
    parser = _Parser(prog="richwords",
                     description="rich-word enumeration and bound checks")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    chain = _chain(argv or ())
    parsers, subparsers = {"": parser}, {}
    for name, (_, help_text, flags) in COMMANDS.items():
        if chain and name not in chain:
            continue
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = parsers[group].add_subparsers(
                dest="verify_what" if group else "command", required=True)
        parsers[name] = subparsers[group].add_parser(leaf, help=help_text)
        for flag in flags:
            _add_flag(parsers[name], flag)
    if "count" in parsers:
        # the cut is not a flag, but the config echo still records it
        parsers["count"].set_defaults(shard_depth=enumeration.SHARD_DEPTH)
    return parser


def _check_limits(ns, flags) -> None:
    # below least a verdict is vacuous or clamped, above most a run takes
    # minutes or all memory, and a nan or inf fails only after work starts
    for flag in flags:
        option = flag.name.split()[0]
        value = _value(ns, option)
        if value is None:  # an optional flag left out
            continue
        if flag.type is float and not math.isfinite(value):
            raise InputError(f"{option} must be finite, got {value}")
        if flag.above is not None and not value > flag.above:
            raise InputError(f"{option} must be > {flag.above}, got {value}")
        if flag.least is not None and value < flag.least:
            raise InputError(f"{option} must be >= {flag.least}, got {value}")
        if flag.most is not None and value > flag.most:
            raise InputError(f"{option} must be <= {flag.most}, got {value}")


def _emit(ns, result, stdout) -> None:
    fmt = getattr(ns, "format", "json")
    if fmt == "json":
        envelope = {
            "tool_version": TOOL_VERSION,
            "config": _config_echo(ns),
            "result": result,
        }
        try:
            text = json.dumps(envelope, sort_keys=True, indent=2,
                              allow_nan=False)
        except ValueError:  # JSON has no inf or nan
            raise InputError(
                "the result holds a number that is not finite") from None
        stdout.write(text + "\n")
    elif fmt == "csv":  # argparse offers csv to table handlers only
        rows = result["rows"]  # never empty: every table has n >= 1
        stdout.write(",".join(rows[0]) + "\n")  # the keys, in order
        for row in rows:
            stdout.write(",".join("" if v is None else str(v)
                                  for v in row.values()) + "\n")
    else:
        for key in sorted(result):
            value = result[key]
            if key == "rows":
                for row in value:
                    stdout.write(" ".join(
                        f"{k}={row[k]}" for k in sorted(row)) + "\n")
            else:
                stdout.write(f"{key} = {value}\n")


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser(argv)
    started = time.perf_counter()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        name = ns.command
        if name == "verify":
            name += " " + ns.verify_what
        handler, _, flags = COMMANDS[name]
        _check_limits(ns, flags)
        result = handler(ns)
        _emit(ns, result, stdout)
        return 2 if result.get("ok") is False else 0
    except _UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return 1
    except (RichwordsError, OSError, OverflowError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        stderr.write(f"[richwords] finished in {elapsed_ms:.1f} ms\n")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
