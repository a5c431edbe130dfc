"""Command-line front door.

Subcommands mirror the library: check/count/ups/maxluf for the exact
side, bound-recurrence for certified tables, verify * for the inequality
checks, bootstrap and compare-exponents for the constant-improvement map.

Exit codes: 0 on success, 2 when a verification ran and found a
counterexample (the report carries the witness), 1 for usage, domain and
I/O errors.

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

from . import bootstrap as bootstrap_mod
from . import bounds, enumeration, functions, ups, words
from .eertree import Eertree
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
    p.add_argument("--workers", type=int,
                   default=enumeration.EnumerationConfig.workers)
    p.add_argument("--shard-depth", type=int,
                   default=enumeration.EnumerationConfig.shard_depth)
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

    p = vsub.add_parser("jensen", help="averaged comparison for a concave "
                                       "increasing function")
    _add_spec(p, "--fn", _SPEC_HELP)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--points", type=int, default=8,
                   help="max sample points per trial")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p, "json", "text")

    p = vsub.add_parser("product-bound",
                        help="composition-wise product against the "
                             "balanced power")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    _add_spec(p, "--phi", _SPEC_HELP)
    _add_spec(p, "--psi", _SPEC_HELP)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p, "json", "text")

    p = vsub.add_parser("p-monotonicity",
                        help="balanced power is monotone in the part count")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    _add_spec(p, "--phi", _SPEC_HELP)
    _add_spec(p, "--psi", _SPEC_HELP)
    p.add_argument("--n-lo", type=int, default=10)
    p.add_argument("--n-hi", type=int, default=10000)
    p.add_argument("--grid", type=int, default=1000,
                   help="number of sampled lengths")
    p.add_argument("--p-max", type=int, default=8)
    _add_format(p, "json", "text")

    p = vsub.add_parser("delta", help="increasing and concave on a grid")
    _add_spec(p, "--fn", _SPEC_HELP)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=512)
    _add_format(p, "json", "text")

    p = vsub.add_parser("psi-family",
                        help="psi below identity and combined exponent "
                             "concave-increasing")
    _add_spec(p, "--phi", _SPEC_HELP)
    _add_spec(p, "--psi", _SPEC_HELP)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=512)
    _add_format(p, "json", "text")

    p = vsub.add_parser("d-condition",
                        help="threshold for 2*psi(phi(n)/2) >= d*psi(n)")
    _add_spec(p, "--phi", _SPEC_HELP)
    _add_spec(p, "--psi", _SPEC_HELP)
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

    p = sub.add_parser("bootstrap", help="iterate the constant map")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c3", type=float, required=True)
    p.add_argument("--iters", type=int, default=1)
    _add_format(p, "json", "text")

    p = sub.add_parser("compare-exponents",
                       help="exponent before and after one map step")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c3", type=float, required=True)
    _add_spec(p, "--phi", _SPEC_HELP)
    _add_spec(p, "--psi", _SPEC_HELP)
    p.add_argument("--n", type=float, required=True)
    _add_format(p, "json", "text")

    return parser


# -- helpers ---------------------------------------------------------------


def _cache_path(path: str) -> str:
    base = os.environ.get(CACHE_DIR_ENV)
    if base and os.sep not in path and "/" not in path:
        return os.path.join(base, path)
    return path


def _word_from_args(ns) -> words.Word:
    return words.Word.from_text(ns.word, ns.q)


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


def _table_rows(table: enumeration.RichCountTable) -> list[dict]:
    return [
        {"n": n, "count": str(table.entries[n].count),
         "max_luf": table.entries[n].max_luf}
        for n in sorted(table.entries)
    ]


def _omega_params(ns) -> bounds.OmegaParams:
    return bounds.OmegaParams(
        q=ns.q, c1=ns.c1, c2=ns.c2,
        phi=functions.parse_function_spec(ns.phi),
        psi=functions.parse_function_spec(ns.psi))


def _random_composition(rng: random.Random, n: int, p: int) -> list[int]:
    if p == 1:
        return [n]
    cuts = sorted(rng.sample(range(1, n), p - 1))
    edges = [0] + cuts + [n]
    return [edges[i + 1] - edges[i] for i in range(p)]


# -- handlers ----------------------------------------------------------------
# each returns (result dict, exit code, csv column names or None); a table
# handler's result holds its rows under "rows"


def _cmd_check(ns):
    word = _word_from_args(ns)
    tree = Eertree.from_word(word.letters, word.alphabet.q)
    result = {
        "word": ns.word,
        "rich": tree.is_rich_prefix(),
        "palindromes": tree.distinct_palindrome_count(),
    }
    return result, 0, None


def _load_count_table(ns) -> enumeration.RichCountTable:
    # a flag left at its default cannot be told from one not given
    config = enumeration.EnumerationConfig()
    given = {"--symmetric": ns.symmetric,
             "--save-cache": ns.save_cache is not None,
             "--workers": ns.workers != config.workers,
             "--shard-depth": ns.shard_depth != config.shard_depth,
             "--budget": ns.budget != config.node_budget,
             "--no-max-luf": ns.no_max_luf}
    flags = [flag for flag, on in given.items() if on]
    if flags:
        raise InputError("--load-cache cannot be combined with enumeration "
                         f"flags: {', '.join(flags)}")
    if ns.n < 1:
        raise InputError(f"n_max must be a positive integer, got {ns.n}")
    table = enumeration.load_cache(_cache_path(ns.load_cache),
                                   expected_q=ns.q)
    for n in range(1, ns.n + 1):
        if n not in table.entries:
            raise InputError(f"cache {ns.load_cache} has no row n={n} "
                             f"(rows 1..{ns.n} requested)")
    table.entries = {n: table.entries[n] for n in range(1, ns.n + 1)}
    return table


def _cmd_count(ns):
    if ns.load_cache:
        table = _load_count_table(ns)
    else:
        config = enumeration.EnumerationConfig(
            workers=ns.workers,
            with_max_luf=not ns.no_max_luf,
            node_budget=ns.budget,
            shard_depth=ns.shard_depth)
        if ns.symmetric:
            table = enumeration.count_rich_symmetric(ns.q, ns.n, config)
        else:
            table = enumeration.count_rich(ns.q, ns.n, config)
        if ns.save_cache:
            enumeration.save_cache(table, _cache_path(ns.save_cache))
    result = {"q": table.q, "rows": _table_rows(table)}
    return result, 0, ["n", "count", "max_luf"]


def _cmd_ups(ns):
    word = _word_from_args(ns)
    factorization = ups.ups_factorize(word)
    parts = [words.text_from_letters(part) for part in factorization.parts]
    result = {
        "word": ns.word,
        "parts": parts,
        "p": factorization.p,
        "boundaries": list(factorization.boundaries),
        "unioccurrent": ups.verify_unioccurrence(factorization),
    }
    return result, 0, None


def _cmd_maxluf(ns):
    table = ups.max_luf_table(ns.q, ns.n)
    if ns.phi:
        phi = functions.parse_function_spec(ns.phi)
        report = ups.compare_luf_bound(table, phi)
        rows = [{"n": r.n, "max_luf": r.max_luf, "bound": r.bound,
                 "holds": r.holds} for r in report.rows]
        result = {"q": ns.q, "phi": phi.label, "rows": rows,
                  "all_hold": report.all_hold,
                  "first_failure_n": report.first_failure_n}
        return result, 0, ["n", "max_luf", "bound", "holds"]
    rows = [{"n": n, "max_luf": m} for n, m in sorted(table.items())]
    return {"q": ns.q, "rows": rows}, 0, ["n", "max_luf"]


def _parse_tau(ns):
    text = ns.tau.strip()
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
        phi = functions.parse_function_spec(ns.phi)
        return (lambda n: math.ceil(n / phi.value(float(n)))), \
            f"ceil(n/phi), phi={phi.label}"
    raise InputError(f"unknown tau form {text!r}")


def _cmd_bound_recurrence(ns):
    if (ns.seed_n is None) == (ns.seeds_cache is None):
        raise InputError("provide exactly one of --seed-n or --seeds-cache")
    if ns.seeds_cache:
        cache = enumeration.load_cache(_cache_path(ns.seeds_cache),
                                       expected_q=ns.q)
        counts = {n: e.count for n, e in cache.entries.items()}
    else:
        table = enumeration.count_rich(
            ns.q, ns.seed_n,
            enumeration.EnumerationConfig(with_max_luf=False))
        counts = {n: e.count for n, e in table.entries.items()}
    seeds = bounds.seed_table_from_counts(counts, ns.q)
    tau, tau_label = _parse_tau(ns)
    result_table = bounds.recurrence_bound(seeds, tau, ns.n_max, tau_label)
    rows = [{"n": n,
             "exponent_log_q": bounds.exponent_text(
                 result_table.entries[n].value.log_q),
             "provenance": result_table.entries[n].provenance}
            for n in sorted(result_table.entries)]
    result = {"q": ns.q, "tau": tau_label, "rows": rows}
    return result, 0, ["n", "exponent_log_q", "provenance"]


def _cmd_verify_composition_bound(ns):
    failures = bounds.composition_bound_sweep(ns.n_max)
    ok = not failures
    result = {"n_max": ns.n_max, "ok": ok,
              "checked": ns.n_max * (ns.n_max + 1) // 2}
    if not ok:
        result["witness"] = {"n": failures[0][0], "L": failures[0][1]}
    return result, 0 if ok else 2, None


def _check_at_least(flag: str, value: int, least: int) -> None:
    # a smaller value would give a vacuous or silently clamped verdict
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")


def _cmd_verify_jensen(ns):
    _check_at_least("--trials", ns.trials, 1)
    _check_at_least("--points", ns.points, 2)
    fn = functions.parse_function_spec(ns.fn)
    rng = random.Random(ns.seed)
    lo = max(ns.x_lo, fn.domain_floor)
    if lo > ns.x_hi:
        raise InputError("empty range after clamping to the domain floor")
    for trial in range(ns.trials):
        k = rng.randint(2, ns.points)
        xs = [rng.uniform(lo, ns.x_hi) for _ in range(k)]
        if not bounds.check_jensen(fn, xs):
            result = {"fn": fn.label, "ok": False, "trials_run": trial + 1,
                      "witness": {"xs": xs}}
            return result, 2, None
    result = {"fn": fn.label, "ok": True, "trials_run": ns.trials}
    return result, 0, None


def _cmd_verify_product_bound(ns):
    _check_at_least("--trials", ns.trials, 1)
    _check_at_least("--n-max", ns.n_max, 2)
    params = _omega_params(ns)
    rng = random.Random(ns.seed)
    for trial in range(ns.trials):
        n = rng.randint(2, ns.n_max)
        p = rng.randint(1, n)
        parts = _random_composition(rng, n, p)
        if not bounds.check_product_bound(n, p, parts, params):
            result = {"ok": False, "trials_run": trial + 1,
                      "witness": {"n": n, "p": p, "parts": parts}}
            return result, 2, None
    result = {"ok": True, "trials_run": ns.trials}
    return result, 0, None


def _cmd_verify_p_monotonicity(ns):
    _check_at_least("--p-max", ns.p_max, 1)
    params = _omega_params(ns)
    phi = params.phi
    sampled = sorted({int(round(x)) for x in functions.log_grid(
        ns.n_lo, ns.n_hi, ns.grid)})
    checked = 0
    for n in sampled:
        if n < 1:
            continue
        tau_n = max(1, math.ceil(n / phi.value(float(n))))
        for p in range(1, min(ns.p_max, tau_n) + 1):
            checked += 1
            if not bounds.check_p_monotonicity(float(n), p, params):
                result = {"ok": False, "checked": checked,
                          "witness": {"n": n, "p": p}}
                return result, 2, None
    result = {"ok": True, "checked": checked}
    return result, 0, None


def _cmd_verify_delta(ns):
    fn = functions.parse_function_spec(ns.fn)
    report = functions.check_delta(fn, ns.x_lo, ns.x_hi, ns.grid)
    result = {"fn": fn.label, "ok": report.ok,
              "x_lo": ns.x_lo, "x_hi": ns.x_hi, "grid": ns.grid}
    if not report.ok:
        result["witness"] = {"x": report.violation_x,
                             "kind": report.violation_kind}
    return result, 0 if report.ok else 2, None


def _cmd_verify_psi_family(ns):
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    report = functions.check_psi_family(phi, psi, ns.x_lo, ns.x_hi, ns.grid)
    result = {"phi": phi.label, "psi": psi.label, "ok": report.ok,
              "psi_leq_x_ok": report.psi_leq_x_ok,
              "combined_concave_increasing": report.combined_delta.ok}
    if not report.ok:
        witness = {}
        if not report.psi_leq_x_ok:
            witness["psi_leq_x_fails_at"] = report.psi_violation_x
        if not report.combined_delta.ok:
            witness["combined_fails_at"] = report.combined_delta.violation_x
            witness["kind"] = report.combined_delta.violation_kind
        result["witness"] = witness
    return result, 0 if report.ok else 2, None


def _cmd_verify_d_condition(ns):
    phi = functions.parse_function_spec(ns.phi)
    psi = functions.parse_function_spec(ns.psi)
    report = functions.check_d_condition(phi, psi, ns.d, ns.n_lo, ns.n_hi,
                                         ns.grid)
    ok = report.holds_at_top
    result = {"phi": phi.label, "psi": psi.label, "d": ns.d, "ok": ok,
              "n0": report.n0, "failures": report.failures}
    if not ok:
        result["witness"] = {"n": ns.n_hi,
                             "note": "inequality still failing at the top "
                                     "of the sampled range"}
    return result, 0 if ok else 2, None


def _cmd_verify_phi_composition(ns):
    phi = functions.parse_function_spec(ns.phi)
    report = functions.check_phi_composition(phi, ns.n_lo, ns.n_hi, ns.grid)
    result = {"phi": phi.label, "ok": report.ok,
              "real_tau_n0": report.real_tau_n0,
              "real_tau_holds_at_top": report.real_tau_holds_at_top,
              "ceil_tau_n0": report.ceil_tau_n0,
              "ceil_tau_holds_at_top": report.ceil_tau_holds_at_top,
              "variants_disagree": report.variants_disagree}
    if not report.ok:
        result["witness"] = {"n": ns.n_hi,
                             "note": "real-tau inequality failing at the "
                                     "top of the sampled range"}
    return result, 0 if report.ok else 2, None


def _cmd_verify_crossover(ns):
    report = functions.log_over_x_crossover(ns.grid, ns.x_hi)
    result = {"x0": report.x0, "ok": report.decreasing_ok,
              "grid": ns.grid, "x_hi": ns.x_hi}
    if not report.decreasing_ok:
        result["witness"] = {"x": report.violation_x}
    return result, 0 if report.decreasing_ok else 2, None


def _cmd_bootstrap(ns):
    state = bootstrap_mod.BootstrapState(ns.q, ns.d, ns.c1, ns.c2, ns.c3)
    trajectory = bootstrap_mod.bootstrap_iterate(state, ns.iters)
    c1_final, c2_final = trajectory.final
    result = {
        "c1": c1_final,
        "c2": c2_final,
        "c1_fixed_point": trajectory.c1_fixed_point,
        "trajectory": [list(pt) for pt in trajectory.points],
    }
    return result, 0, None


def _cmd_compare_exponents(ns):
    state = bootstrap_mod.BootstrapState(
        ns.q, ns.d, ns.c1, ns.c2, ns.c3,
        phi=functions.parse_function_spec(ns.phi),
        psi=functions.parse_function_spec(ns.psi))
    report = bootstrap_mod.exponent_compare(state, ns.n)
    result = {
        "n": report.n,
        "old_exponent": report.old_exponent,
        "new_exponent": report.new_exponent,
        "improved": report.improved,
        "first_term_dominates": report.first_term_dominates,
        "c1_shrinks": report.c1_shrinks,
    }
    return result, 0, None


_VERIFY_HANDLERS = {
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

_HANDLERS = {
    "check": _cmd_check,
    "count": _cmd_count,
    "ups": _cmd_ups,
    "maxluf": _cmd_maxluf,
    "bound-recurrence": _cmd_bound_recurrence,
    "bootstrap": _cmd_bootstrap,
    "compare-exponents": _cmd_compare_exponents,
}


def _emit(ns, result, columns, stdout) -> None:
    fmt = getattr(ns, "format", "json")
    if fmt == "json":
        envelope = {
            "tool_version": TOOL_VERSION,
            "config": _config_echo(ns),
            "result": result,
        }
        stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":  # argparse offers csv to table handlers only
        stdout.write(",".join(columns) + "\n")
        for row in result["rows"]:
            stdout.write(",".join("" if row[c] is None else str(row[c])
                                  for c in columns) + "\n")
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
        if ns.command == "verify":
            handler = _VERIFY_HANDLERS[ns.verify_what]
        else:
            handler = _HANDLERS[ns.command]
        result, code, columns = handler(ns)
        _emit(ns, result, columns, stdout)
        return code
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
