"""One-off cross-check of the pinned references in reference.py.

    python3 perfbench/check_reference.py      (from the checkout root, ~2 min)

The benchmark itself trusts reference.py; this script is how those
numbers were checked, and the way to re-check them:

* counts and max peel lengths against brute force from tests/oracles.py
  at small n;
* the serial, sharded and canonical walks agree with the pinned table on
  every pinned (q, n) they can reach here;
* the push-attempt counts derived in reference.py are exact: the CLI's
  node budget accepts exactly that many nodes and rejects one fewer;
* the exact bound recurrence against tests/oracles.py, and the LogValue
  operation count against the operations recurrence_bound really does.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import reference  # noqa: E402
from richwords import cli, enumeration  # noqa: E402
from richwords.bounds import recurrence_bound, seed_table_from_counts  # noqa: E402
from richwords.logvalue import LogValue  # noqa: E402
from run import BOUND_OPS, SEED_PROBLEM, WORKLOADS, Problem  # noqa: E402

BRUTE_N = {2: 12, 3: 8, 4: 7}
# (q, n, symmetric, workers) walks compared with the pinned tables
WALKS = [(2, 22, False, 1), (2, 22, False, 2), (2, 22, True, 1),
         (3, 16, False, 1), (3, 16, False, 2), (3, 16, True, 1),
         (4, 13, False, 1), (4, 15, False, 2), (4, 15, True, 1)]


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def brute_force() -> None:
    for q, n_max in BRUTE_N.items():
        counts = oracles.rich_counts_brute(q, n_max)
        check([counts[n] for n in range(1, n_max + 1)]
              == reference.RICH[q][:n_max], f"R_{q}(1..{n_max}) brute force")
        max_luf = [max(len(oracles.peel(w)) for w in oracles.all_words(q, n)
                       if oracles.is_rich(w)) for n in range(1, n_max + 1)]
        check(max_luf == reference.MAX_LUF[q][:n_max],
              f"max peel q={q} n<={n_max} brute force")


def walks() -> None:
    for q, n, symmetric, workers in WALKS:
        config = enumeration.EnumerationConfig(workers=workers)
        count = (enumeration.count_rich_symmetric if symmetric
                 else enumeration.count_rich)
        table = count(q, n, config)
        rows = [{"n": k, "count": str(e.count), "max_luf": e.max_luf}
                for k, e in sorted(table.entries.items())]
        check(rows == reference.expected_rows(q, n, True),
              f"q={q} n={n} symmetric={symmetric} workers={workers}")


def budget_is_exact(p: Problem) -> None:
    nodes, _ = p.walk_counts()
    codes = []
    for budget in (nodes, nodes - 1):
        codes.append(cli.run(p.argv() + ["--budget", str(budget)],
                             io.StringIO(), io.StringIO()))
    check(codes == [0, 1], f"{p} visits exactly {nodes} nodes")


def bounds() -> None:
    seeds = reference.seed_counts(SEED_PROBLEM.q, SEED_PROBLEM.n)
    calls = [0]
    add, mul = LogValue.__add__, LogValue.__mul__

    def counted(fn):
        def inner(*args):
            calls[0] += 1
            return fn(*args)
        return inner

    for label, _, tau, n_max in BOUND_OPS:
        mine = reference.exact_recurrence(seeds, tau, n_max)
        theirs = oracles.recurrence_table_exact(seeds, tau, n_max)
        check(all(mine[n] == theirs[n] for n in range(1, n_max + 1)),
              f"exact recurrence {label} n<={n_max}")
        calls[0] = 0
        LogValue.__add__, LogValue.__mul__ = counted(add), counted(mul)
        try:
            recurrence_bound(seed_table_from_counts(seeds, 2), tau, n_max)
        finally:
            LogValue.__add__, LogValue.__mul__ = add, mul
        want = reference.recurrence_logvalue_ops(SEED_PROBLEM.n, tau, n_max)
        check(calls[0] == want, f"{label}: {want} LogValue operations")


def main() -> None:
    brute_force()
    bounds()
    for wl in WORKLOADS.values():
        budget_is_exact(wl.problem)
    walks()


if __name__ == "__main__":
    main()
