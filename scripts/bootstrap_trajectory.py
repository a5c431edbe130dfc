#!/usr/bin/env python3
"""Print the constant-map trajectory and, optionally, the exponent
comparison at a concrete length.

Example:
    python scripts/bootstrap_trajectory.py --d 2 --c1 1 --c2 1 --c3 0.1 \
        --iters 20 --phi power:0.8 --psi ln@2 --n 1e6
"""

import argparse
import sys

from richwords import (BootstrapState, bootstrap_iterate, exponent_compare,
                       parse_function_spec)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--d", type=float, required=True)
    ap.add_argument("--c1", type=float, required=True)
    ap.add_argument("--c2", type=float, required=True)
    ap.add_argument("--c3", type=float, required=True)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--phi", help="growth function for the comparison")
    ap.add_argument("--psi", help="companion function for the comparison")
    ap.add_argument("--n", type=float, help="length for the comparison")
    args = ap.parse_args()

    phi = parse_function_spec(args.phi) if args.phi else None
    psi = parse_function_spec(args.psi) if args.psi else None
    state = BootstrapState(args.q, args.d, args.c1, args.c2, args.c3)

    traj = bootstrap_iterate(state, args.iters)
    print(f"c1 fixed point = c3/(d-1) = {traj['c1_fixed_point']:.6g}")
    print(f"{'step':>5} {'c1':>14} {'c2':>14}")
    for i, (c1, c2) in enumerate(traj["trajectory"]):
        print(f"{i:>5} {c1:>14.8f} {c2:>14.8f}")

    if args.n is not None:
        if phi is None or psi is None:
            ap.error("--n needs --phi and --psi")
        rep = exponent_compare(state, phi, psi, args.n)
        print(f"\nexponent at n = {args.n:g}:")
        print(f"  before map: {rep['old_exponent']:.6g}")
        print(f"  after map:  {rep['new_exponent']:.6g}")
        print(f"  improved:   {rep['improved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
