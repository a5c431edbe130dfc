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
import json
import math
import os
import random
import sys
import time

# the other submodules are imported by the handlers that use them, so a
# run loads only what its subcommand needs (count never loads mpmath)
from . import bounds, enumeration
from .errors import InputError, RichwordsError
from .version import TOOL_VERSION

CACHE_DIR_ENV = "RICHWORDS_CACHE_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_format(p, *choices):
    p.add_argument("--format", choices=list(choices), default="json",
                   help="report format (default: json)")


def _add_spec(p, flag, help_text, required=True):
    p.add_argument(flag, required=required, metavar="SPEC", help=help_text)


_SPEC_HELP = ("catalogue function: identity | sqrt | ln | x-over-lnx | "
              "exp-sqrt-ln[:COEFF] | const:K | power:B | a,b,c,u,v[,floor]; "
              "append @FLOOR to override the domain floor")


def build_parser() -> _Parser:
    # flag groups that several subcommands share through parents=[...]
    phi_psi = _Parser(add_help=False)
    _add_spec(phi_psi, "--phi", _SPEC_HELP)
    _add_spec(phi_psi, "--psi", _SPEC_HELP)

    fn_range = _Parser(add_help=False)
    _add_spec(fn_range, "--fn", _SPEC_HELP)
    fn_range.add_argument("--x-lo", type=float, required=True)
    fn_range.add_argument("--x-hi", type=float, required=True)

    omega = _Parser(add_help=False)
    omega.add_argument("--c1", type=float, default=1.0)
    omega.add_argument("--c2", type=float, default=1.0)

    constants = _Parser(add_help=False)
    constants.add_argument("--q", type=int, required=True)
    for flag in ("--d", "--c1", "--c2", "--c3"):
        constants.add_argument(flag, type=float, required=True)

    parser = _Parser(prog="richwords",
                     description="rich-word enumeration and bound checks")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="is a word rich?")
    p.add_argument("word", help="word over a-z")
    p.add_argument("--q", type=int, default=None,
                   help="alphabet size (default: letters present)")
    _add_format(p, "json", "text")

    p = sub.add_parser("count", help="count rich words up to a length")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True, metavar="N_MAX")
    p.add_argument("--symmetric", action="store_true",
                   help="label the table's provenance as symmetric; every "
                        "count walks canonical words only and rescales")
    p.add_argument("--workers", type=int, default=1)
    # the cut is not a flag, but the config echo still records it
    p.set_defaults(shard_depth=enumeration.SHARD_DEPTH)
    p.add_argument("--budget", type=int,
                   default=enumeration.DEFAULT_NODE_BUDGET,
                   help="abort after visiting this many search nodes")
    p.add_argument("--no-max-luf", action="store_true",
                   help="skip tracking of maximum peel lengths")
    p.add_argument("--save-cache", metavar="PATH")
    p.add_argument("--load-cache", metavar="PATH",
                   help="render a previously saved table instead of counting")
    _add_format(p, "json", "text", "csv")

    p = sub.add_parser("ups", help="peel a word into palindromic suffixes")
    p.add_argument("word", help="word over a-z")
    p.add_argument("--q", type=int, default=None)
    _add_format(p, "json", "text")

    p = sub.add_parser("maxluf",
                       help="maximum peel length among rich words")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True, metavar="N_MAX")
    _add_spec(p, "--phi", "compare against n/phi(n): " + _SPEC_HELP,
              required=False)
    _add_format(p, "json", "text", "csv")

    p = sub.add_parser("bound-recurrence",
                       help="certified upper-bound table from seeds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed-n", type=int,
                   help="enumerate exact counts up to this length as seeds")
    p.add_argument("--seeds-cache", metavar="PATH",
                   help="load seeds from a count cache instead")
    p.add_argument("--tau", default="n",
                   help="per-length part cap: n | const:K | phi (default: n)")
    _add_spec(p, "--phi", "phi for --tau phi: " + _SPEC_HELP, required=False)
    _add_format(p, "json", "text", "csv")

    v = sub.add_parser("verify", help="inequality checks (exit 2 on a "
                                      "counterexample)")
    vsub = v.add_subparsers(dest="verify_what", required=True)

    p = vsub.add_parser("composition-bound",
                        help="sum of C(n-1,p-1) against (e*n/L)^L")
    p.add_argument("--n-max", type=int, default=300)
    _add_format(p, "json", "text")

    p = vsub.add_parser("jensen", parents=[fn_range],
                        help="averaged comparison for a concave "
                             "increasing function")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--points", type=int, default=8,
                   help="max sample points per trial")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p, "json", "text")

    p = vsub.add_parser("product-bound", parents=[omega, phi_psi],
                        help="composition-wise product against the "
                             "balanced power")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p, "json", "text")

    p = vsub.add_parser("p-monotonicity", parents=[omega, phi_psi],
                        help="balanced power is monotone in the part count")
    p.add_argument("--n-lo", type=int, default=10)
    p.add_argument("--n-hi", type=int, default=10000)
    p.add_argument("--grid", type=int, default=1000,
                   help="number of sampled lengths")
    p.add_argument("--p-max", type=int, default=8)
    _add_format(p, "json", "text")

    p = vsub.add_parser("delta", parents=[fn_range],
                        help="increasing and concave on a grid")
    p.add_argument("--grid", type=int, default=512)
    _add_format(p, "json", "text")

    p = vsub.add_parser("psi-family", parents=[phi_psi],
                        help="psi below identity and combined exponent "
                             "concave-increasing")
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=512)
    _add_format(p, "json", "text")

    p = vsub.add_parser("d-condition", parents=[phi_psi],
                        help="threshold for 2*psi(phi(n)/2) >= d*psi(n)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n-lo", type=float, default=1e2)
    p.add_argument("--n-hi", type=float, default=1e8)
    p.add_argument("--grid", type=int, default=10000)
    _add_format(p, "json", "text")

    p = vsub.add_parser("phi-composition",
                        help="tau(phi(n))*ln(phi(phi(n))) against ln(phi(n))")
    _add_spec(p, "--phi", _SPEC_HELP)
    p.add_argument("--n-lo", type=float, default=1e2)
    p.add_argument("--n-hi", type=float, default=1e8)
    p.add_argument("--grid", type=int, default=1024)
    _add_format(p, "json", "text")

    p = vsub.add_parser("crossover",
                        help="ln(x)/x decreasing beyond x = e")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--x-hi", type=float, default=1e6)
    _add_format(p, "json", "text")

    p = sub.add_parser("bootstrap", parents=[constants],
                       help="iterate the constant map")
    p.add_argument("--iters", type=int, default=1)
    _add_format(p, "json", "text")

    p = sub.add_parser("compare-exponents", parents=[constants, phi_psi],
                       help="exponent before and after one map step")
    p.add_argument("--n", type=float, required=True)
    _add_format(p, "json", "text")

    return parser


# -- helpers ---------------------------------------------------------------


def _cache_path(path: str) -> str:
    base = os.environ.get(CACHE_DIR_ENV)
    if base and os.sep not in path and "/" not in path:
        return os.path.join(base, path)
    return path


def _letters_from_args(ns) -> tuple[tuple[int, ...], int]:
    # (letters, q); q defaults to the letters present, and at least 2
    from . import words

    letters = words.letters_from_text(ns.word)
    q = ns.q if ns.q is not None else max(2, max(letters, default=-1) + 1)
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
    from .eertree import Eertree

    tree = Eertree.from_word(*_letters_from_args(ns))
    return {
        "word": ns.word,
        "rich": tree.is_rich_prefix(),
        "palindromes": tree.distinct_palindrome_count(),
    }


def _load_count_table(ns) -> dict:
    # a flag left at its default cannot be told from one not given
    given = {"--symmetric": ns.symmetric,
             "--save-cache": ns.save_cache is not None,
             "--workers": ns.workers != 1,
             "--budget": ns.budget != enumeration.DEFAULT_NODE_BUDGET,
             "--no-max-luf": ns.no_max_luf}
    flags = [flag for flag, on in given.items() if on]
    if flags:
        raise InputError("--load-cache cannot be combined with enumeration "
                         f"flags: {', '.join(flags)}")
    table = enumeration.load_cache(_cache_path(ns.load_cache), ns.q)
    for n in range(1, ns.n + 1):
        if n not in table:
            raise InputError(f"cache {ns.load_cache} has no row n={n} "
                             f"(rows 1..{ns.n} requested)")
    return {n: table[n] for n in range(1, ns.n + 1)}


def _cmd_count(ns):
    _check_range("--n", ns.n, 1, _WALK_N_MAX)
    if ns.load_cache:
        table = _load_count_table(ns)
    else:
        _check_range("--budget", ns.budget, 1)
        table = enumeration.count_rich(ns.q, ns.n, workers=ns.workers,
                                       with_max_luf=not ns.no_max_luf,
                                       node_budget=ns.budget)
        if ns.save_cache:  # --symmetric is a label only: the same walk
            enumeration.save_cache(table, ns.q, _cache_path(ns.save_cache),
                                   symmetric=ns.symmetric)
    return {"q": ns.q, "rows": _table_rows(table)}


def _cmd_ups(ns):
    from . import ups, words

    letters, q = _letters_from_args(ns)
    boundaries = ups.ups_factorize(letters, q)
    parts = [words.text_from_letters(letters[b0:b1])
             for b0, b1 in zip(boundaries, boundaries[1:])]
    return {
        "word": ns.word,
        "parts": parts,
        "p": len(parts),
        "boundaries": list(boundaries),
        "unioccurrent": ups.verify_unioccurrence(letters, boundaries),
    }


def _cmd_maxluf(ns):
    from . import ups

    _check_range("--n", ns.n, 1, _WALK_N_MAX)
    table = ups.max_luf_table(ns.q, ns.n)
    if ns.phi:
        from . import functions

        phi = functions.parse_function_spec(ns.phi)
        return {"q": ns.q, "phi": phi.label,
                **ups.compare_luf_bound(table, phi)}
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
            raise InputError(f"tau constant must be an integer, got "
                             f"{text!r}") from exc
        if k < 1:
            raise InputError(f"tau constant must be positive, got {k}")
        return (lambda n: k), f"const:{k}"
    if text == "phi":
        if not ns.phi:
            raise InputError("--tau phi needs --phi")
        from . import functions

        phi = functions.parse_function_spec(ns.phi)

        def tau(n):
            try:
                ratio = n / phi.value(float(n))
            except InputError as exc:
                raise InputError(f"--phi at row n={n}: {exc}") from None
            if not math.isfinite(ratio):
                raise InputError(f"--phi {phi.label}: n/phi(n) is not "
                                 f"finite at row n={n}")
            return math.ceil(ratio)

        return tau, f"ceil(n/phi), phi={phi.label}"
    raise InputError(f"unknown tau form {text!r}")


def _cmd_bound_recurrence(ns):
    if (ns.seed_n is None) == (ns.seeds_cache is None):
        raise InputError("provide exactly one of --seed-n or --seeds-cache")
    # flags are checked before the seeds are enumerated
    _check_range("--n-max", ns.n_max, 1)
    if ns.seed_n is not None:
        _check_range("--seed-n", ns.seed_n, 1)
    tau, tau_label = _parse_tau(ns)
    if ns.seeds_cache:
        table = enumeration.load_cache(_cache_path(ns.seeds_cache), ns.q)
    else:
        # rows 1..n_max read no seed above n_max
        table = enumeration.count_rich(ns.q, min(ns.seed_n, ns.n_max),
                                       with_max_luf=False)
    counts = {n: count for n, (count, _) in table.items()}
    seeds = bounds.seed_table_from_counts(counts, ns.q)
    table = bounds.recurrence_bound(seeds, tau, ns.n_max)
    rows = [{"n": n,
             "exponent_log_q": bounds.exponent_text(value.log_q),
             "provenance": "exact-seed" if n in seeds else "recurrence"}
            for n, value in table.items()]
    certified = ("unconditional"
                 if bounds.unconditional(tau, max(seeds), ns.n_max)
                 else "conditional on palindromic length <= tau(n)")
    return {"q": ns.q, "tau": tau_label, "certified": certified,
            "rows": rows}


def _cmd_verify_composition_bound(ns):
    # 26 s at the limit (one core of a 2-core machine, Python 3.11)
    _check_range("--n-max", ns.n_max, 1, 1400)
    failures = bounds.composition_bound_sweep(ns.n_max)
    result = {"n_max": ns.n_max, "ok": not failures,
              "checked": ns.n_max * (ns.n_max + 1) // 2}
    if failures:
        result["witness"] = {"n": failures[0][0], "L": failures[0][1]}
    return result


# the largest --grid of a one-dimensional scan; at it each scan took
# under 10 s and 60 MB (one core of a 2-core machine, Python 3.11)
_GRID_MAX = 10**6
# a count or maxluf walk of 1,000 letters preallocates about 4 * 10**6
# list slots; none past n = 40 or so finishes within the default budget
_WALK_N_MAX = 1000


def _check_range(flag: str, value: int, least: int,
                 most: int | None = None) -> None:
    # a smaller value would give a vacuous or silently clamped verdict, a
    # larger one a run of minutes or one that exhausts memory
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{flag} must be <= {most}, got {value}")


def _cmd_verify_jensen(ns):
    from . import functions

    _check_range("--trials", ns.trials, 1, 10**4)
    _check_range("--points", ns.points, 2, 10**3)
    fn = functions.parse_function_spec(ns.fn)
    rng = random.Random(ns.seed)
    lo = max(ns.x_lo, fn.domain_floor)
    if lo > ns.x_hi:
        raise InputError("empty range after clamping to the domain floor")
    for trial in range(ns.trials):
        k = rng.randint(2, ns.points)
        xs = [rng.uniform(lo, ns.x_hi) for _ in range(k)]
        if not functions.check_jensen(fn, xs):
            return {"fn": fn.label, "ok": False, "trials_run": trial + 1,
                    "witness": {"xs": xs}}
    return {"fn": fn.label, "ok": True, "trials_run": ns.trials}


def _cmd_verify_product_bound(ns):
    from . import functions

    _check_range("--trials", ns.trials, 1, 2000)
    _check_range("--n-max", ns.n_max, 2, 10**4)
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    floor = functions.ExponentFunction(phi, psi).domain_floor
    # the least integer both specs take: ln also refuses x = 1; every
    # part is at least m, so ceil(part/2) >= least
    least = max(math.ceil(floor), 2 if phi.uses_log or psi.uses_log else 1)
    m = 2 * least - 1
    if ns.n_max < m:
        raise InputError(f"--n-max must be >= {m}, got {ns.n_max}: a part "
                         f"below {m} halves to below {least}, the least x "
                         f"both specs take (domain floor {floor:g})")
    params = functions.OmegaParams(ns.c1, ns.c2, phi, psi, float(least),
                                   ns.n_max / 2 + 1)
    rng = random.Random(ns.seed)
    for trial in range(ns.trials):
        n = rng.randint(max(2, m), ns.n_max)
        p = rng.randint(1, n // m)
        parts = [m - 1 + part for part in
                 _random_composition(rng, n - p * (m - 1), p)]
        if not functions.check_product_bound(n, p, parts, params):
            return {"ok": False, "trials_run": trial + 1,
                    "witness": {"n": n, "p": p, "parts": parts}}
    return {"ok": True, "trials_run": ns.trials}


def _cmd_verify_p_monotonicity(ns):
    from . import functions

    # up to 10**6 (n, p) pairs
    _check_range("--p-max", ns.p_max, 1, 100)
    _check_range("--grid", ns.grid, 2, 10**4)
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    pairs = []
    for n in sorted({int(round(x)) for x in functions.log_grid(
            ns.n_lo, ns.n_hi, ns.grid)}):
        tau_n = max(1, math.ceil(n / phi.value(float(n))))
        pairs += [(n, p) for p in range(1, min(ns.p_max, tau_n) + 1)]
    # the exact hull of the arguments check_p_monotonicity will ask about
    args = [n / (2.0 * k) + 1.0 for n, p in pairs for k in (p, p + 1)]
    params = functions.OmegaParams(ns.c1, ns.c2, phi, psi, min(args),
                                   max(args))
    for checked, (n, p) in enumerate(pairs, 1):
        if not functions.check_p_monotonicity(float(n), p, params):
            return {"ok": False, "checked": checked,
                    "witness": {"n": n, "p": p}}
    return {"ok": True, "checked": len(pairs)}


def _cmd_verify_delta(ns):
    from . import functions

    _check_range("--grid", ns.grid, 2, _GRID_MAX)
    fn = functions.parse_function_spec(ns.fn)
    return {"fn": fn.label, "x_lo": ns.x_lo, "x_hi": ns.x_hi,
            "grid": ns.grid,
            **functions.check_delta(fn, ns.x_lo, ns.x_hi, ns.grid)}


def _cmd_verify_psi_family(ns):
    from . import functions

    _check_range("--grid", ns.grid, 2, _GRID_MAX)
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    return {"phi": phi.label, "psi": psi.label,
            **functions.check_psi_family(
                functions.ExponentFunction(phi, psi), ns.x_lo, ns.x_hi,
                ns.grid)}


def _cmd_verify_d_condition(ns):
    from . import functions

    _check_range("--grid", ns.grid, 2, _GRID_MAX)
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    return {"phi": phi.label, "psi": psi.label, "d": ns.d,
            **functions.check_d_condition(phi, psi, ns.d, ns.n_lo, ns.n_hi,
                                          ns.grid)}


def _cmd_verify_phi_composition(ns):
    from . import functions

    _check_range("--grid", ns.grid, 2, _GRID_MAX)
    phi = functions.parse_function_spec(ns.phi)
    return {"phi": phi.label,
            **functions.check_phi_composition(phi, ns.n_lo, ns.n_hi,
                                              ns.grid)}


def _cmd_verify_crossover(ns):
    from . import functions

    _check_range("--grid", ns.grid, 2, _GRID_MAX)
    return {"grid": ns.grid, "x_hi": ns.x_hi,
            **functions.log_over_x_crossover(ns.grid, ns.x_hi)}


def _cmd_bootstrap(ns):
    from . import bootstrap

    _check_range("--iters", ns.iters, 0, 10**5)
    state = bootstrap.BootstrapState(ns.q, ns.d, ns.c1, ns.c2, ns.c3)
    return bootstrap.bootstrap_iterate(state, ns.iters)


def _cmd_compare_exponents(ns):
    from . import bootstrap, functions

    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    state = bootstrap.BootstrapState(ns.q, ns.d, ns.c1, ns.c2, ns.c3)
    return bootstrap.exponent_compare(state, phi, psi, ns.n)


# keyed by the subcommand, or by the check for verify
_HANDLERS = {
    "check": _cmd_check,
    "count": _cmd_count,
    "ups": _cmd_ups,
    "maxluf": _cmd_maxluf,
    "bound-recurrence": _cmd_bound_recurrence,
    "bootstrap": _cmd_bootstrap,
    "compare-exponents": _cmd_compare_exponents,
    "composition-bound": _cmd_verify_composition_bound,
    "jensen": _cmd_verify_jensen,
    "product-bound": _cmd_verify_product_bound,
    "p-monotonicity": _cmd_verify_p_monotonicity,
    "delta": _cmd_verify_delta,
    "psi-family": _cmd_verify_psi_family,
    "d-condition": _cmd_verify_d_condition,
    "phi-composition": _cmd_verify_phi_composition,
    "crossover": _cmd_verify_crossover,
}


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
    parser = build_parser()
    started = time.perf_counter()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        result = _HANDLERS[getattr(ns, "verify_what", ns.command)](ns)
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
