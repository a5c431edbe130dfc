#!/usr/bin/env python3
"""Compare the certified recurrence bound with exact counts.

Enumerates rich words exactly up to --exact-n, seeds the recurrence with
a prefix of those counts, and prints both exponent columns so the
looseness of the bound is visible length by length.

Example:
    python scripts/bound_vs_exact.py --q 2 --exact-n 18 --seed-n 9
"""

import argparse
import math
import sys

from richwords import count_rich, recurrence_bound, seed_table_from_counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--exact-n", type=int, default=16)
    ap.add_argument("--seed-n", type=int, default=8)
    ap.add_argument("--tau-const", type=int, default=0,
                    help="cap the part count at a constant (0 = tau(n)=n)")
    args = ap.parse_args()
    if args.seed_n > args.exact_n:
        ap.error("--seed-n cannot exceed --exact-n")

    table = count_rich(args.q, args.exact_n, with_max_luf=False)
    counts = {n: count for n, (count, _) in table.items()}

    seeds = seed_table_from_counts(
        {n: counts[n] for n in range(1, args.seed_n + 1)}, args.q)
    if args.tau_const > 0:
        tau, label = (lambda n: args.tau_const), f"const:{args.tau_const}"
    else:
        tau, label = (lambda n: n), "n"
    bound = recurrence_bound(seeds, tau, args.exact_n)

    print(f"tau = {label}, seeds 1..{args.seed_n}")
    print(f"{'n':>4} {'exact':>14} {'log_q exact':>12} "
          f"{'log_q bound':>12} {'gap':>8}")
    for n in range(1, args.exact_n + 1):
        exact = counts[n]
        lg_exact = math.log(exact, args.q)
        lg_bound = float(bound[n].log_q)
        print(f"{n:>4} {exact:>14} {lg_exact:>12.4f} "
              f"{lg_bound:>12.4f} {lg_bound - lg_exact:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
