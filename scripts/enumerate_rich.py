#!/usr/bin/env python3
"""Enumerate rich-word counts and print the growth profile.

Example:
    python scripts/enumerate_rich.py --q 2 --n 18 --workers 4 \
        --cache counts_q2.jsonl
"""

import argparse
import math
import sys

from richwords import count_rich, save_cache


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--cache", help="write the table here as line JSON")
    args = ap.parse_args()

    table = count_rich(args.q, args.n, workers=args.workers)

    print(f"{'n':>4} {'count':>14} {'count/prev':>10} "
          f"{'log_q':>8} {'max_luf':>7}")
    prev = None
    for n in range(1, args.n + 1):
        count, max_luf = table[n]
        ratio = f"{count / prev:.4f}" if prev else "-"
        log_q = math.log(count, args.q)
        print(f"{n:>4} {count:>14} {ratio:>10} "
              f"{log_q:>8.3f} {max_luf:>7}")
        prev = count

    if args.cache:
        save_cache(table, args.q, args.cache)
        print(f"saved -> {args.cache}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
