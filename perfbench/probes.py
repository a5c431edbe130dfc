"""Micro-probes of single layers: eertree push/pop and LogValue arithmetic.

Both go through the package's public classes only.  The eertree probe
records a seeded depth-first walk of the rich-word tree (the same
push/pop order the enumeration uses, with children visited in a seeded
order) and replays it on a fresh tree with every call timed; the cost of
reading the clock is measured on the same sequence and subtracted.
"""

from __future__ import annotations

import random
import statistics
import time

REPLAY_PUSHES = 100_000
LOGVALUE_OPS = 2_000
LOGVALUE_ROUNDS = 3


def record_walk(eertree_cls, q: int, depth: int, rng: random.Random,
                max_pushes: int = REPLAY_PUSHES) -> list[int]:
    """Push/pop sequence of a seeded DFS over rich words up to `depth`:
    a letter a >= 0 is push(a), -1 is pop().  Stops after max_pushes."""
    tree = eertree_cls(q)
    seq: list[int] = []
    pushes = 0
    # explicit stack of child orders; pop() after each child, as the walk
    stack = [rng.sample(range(q), q)]
    while stack and pushes < max_pushes:
        order = stack[-1]
        if not order:
            stack.pop()
            if stack:
                tree.pop()
                seq.append(-1)
            continue
        a = order.pop()
        pushes += 1
        seq.append(a)
        if tree.push(a) and len(tree) < depth:
            stack.append(rng.sample(range(q), q))
        else:
            tree.pop()
            seq.append(-1)
    return seq


def replay_ns(eertree_cls, q: int, seq: list[int]) -> tuple[float, float]:
    """Mean (push ns, pop ns) over a replay of `seq`."""
    clock = time.perf_counter_ns
    overhead = 0
    for _ in seq:  # same loop shape, clock only
        t0 = clock()
        t1 = clock()
        overhead += t1 - t0
    overhead /= len(seq)
    tree = eertree_cls(q)
    push_ns = pop_ns = 0
    pushes = pops = 0
    for a in seq:
        if a >= 0:
            t0 = clock()
            tree.push(a)
            t1 = clock()
            push_ns += t1 - t0
            pushes += 1
        else:
            t0 = clock()
            tree.pop()
            t1 = clock()
            pop_ns += t1 - t0
            pops += 1
    return push_ns / pushes - overhead, pop_ns / pops - overhead


def logvalue_ns(logvalue_cls, round_up: str, q: int,
                rng: random.Random) -> tuple[float, float]:
    """Median over rounds of mean ns per ROUND_UP (add, mul)."""
    values = [logvalue_cls.from_int(rng.randrange(1, 10**12), q, round_up)
              for _ in range(LOGVALUE_OPS + 1)]
    pairs = list(zip(values, values[1:]))
    add, mul = [], []
    for _ in range(LOGVALUE_ROUNDS):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            a + b
        t1 = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        t2 = time.perf_counter_ns()
        add.append((t1 - t0) / len(pairs))
        mul.append((t2 - t1) / len(pairs))
    return statistics.median(add), statistics.median(mul)
