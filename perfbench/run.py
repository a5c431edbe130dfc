"""Benchmark of richwords through its in-process CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  One process drives a closed loop: the next CLI operation starts
when the previous one has returned, for about S seconds.  Every
operation's output is checked against pinned reference results.  The
last stdout line is one JSON object {correct, attempted, failed,
metrics}; the run record (machine, versions, seed, per-operation detail)
goes to stderr, and a traced run also writes its spans to
.perfbench/trace-<workload>-<seed>.json.

Workloads, metrics and the reasons for them are described in README.md.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
with every other operation traced, then the layer probes, and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import reference  # noqa: E402
from tracing import WALKS, Recorder  # noqa: E402

SETUP_REPEATS = 7
MIN_PROBE_S = 0.5  # a probe repeats its operation until this much time
POOL_WORKERS = 2


@dataclass(frozen=True)
class Problem:
    """One `count` configuration."""

    q: int
    n: int
    symmetric: bool = False
    luf: bool = True
    workers: int = 1

    def argv(self, save: str | None = None) -> list[str]:
        argv = ["count", "--q", str(self.q), "--n", str(self.n)]
        if self.symmetric:
            argv.append("--symmetric")
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        if not self.luf:
            argv.append("--no-max-luf")
        if save:
            argv += ["--save-cache", save]
        return argv

    def walk_counts(self) -> tuple[int, int]:
        """(push attempts, rich pushes) of this problem's walk."""
        if self.symmetric:
            return reference.canonical_walk_nodes(self.q, self.n)
        return reference.walk_nodes(self.q, self.n)


SEED_PROBLEM = Problem(2, 10, luf=False)
# (label, --tau, tau as a function, --n-max)
BOUND_OPS = [("tau-n", "n", reference.tau_n, 60),
             ("tau-const4", "const:4", reference.tau_const(4), 100)]


@dataclass(frozen=True)
class Workload:
    problem: Problem  # the walk the enumeration-layer metrics describe
    bounds: bool = False  # operations are the bound-q2 round
    save: bool = False  # the count operation also writes a cache


WORKLOADS = {
    "enum-q2-serial": Workload(Problem(2, 22), save=True),
    "enum-q3-sharded": Workload(Problem(3, 16, workers=POOL_WORKERS)),
    "enum-q4-canonical": Workload(Problem(4, 15, symmetric=True, luf=False)),
    "bound-q2": Workload(SEED_PROBLEM, bounds=True),
}


@dataclass
class Op:
    """One CLI operation as run and checked."""

    label: str
    argv: list[str]
    op_id: int
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    code: int | None = None
    stdout: str = ""
    error: str = ""
    pool_tasks: int = 0
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.error


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        import richwords
        from richwords import cli
        self.cli = cli
        self.lib = richwords
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.work = work
        self.recorder = Recorder()
        self.ops: list[Op] = []
        self.seeds = self.path("seeds.jsonl")
        seeds = reference.seed_counts(SEED_PROBLEM.q, SEED_PROBLEM.n)
        self.exact_bounds = {
            label: reference.exact_recurrence(seeds, tau, n_max)
            for label, _, tau, n_max in BOUND_OPS}
        # what each written cache file holds: path -> Problem
        self.cache_problem: dict[str, Problem] = {}

    def path(self, name: str) -> str:
        # relative, so the config echoed on stdout is the same every run
        return os.path.relpath(self.work / name, ROOT)

    # -- operations ------------------------------------------------------

    def round_argvs(self, wl: Workload | None = None
                    ) -> list[tuple[str, list[str]]]:
        wl = wl or self.workload
        if wl.bounds:
            return [(label, ["bound-recurrence", "--q", str(SEED_PROBLEM.q),
                             "--seeds-cache",
                             self.seeds, "--tau", tau, "--n-max", str(n_max)])
                    for label, tau, _, n_max in BOUND_OPS]
        save = self.path("ops.jsonl") if wl.save else None
        if save:
            self.cache_problem[save] = wl.problem
        return [("count", wl.problem.argv(save))]

    def run_op(self, label: str, argv: list[str], traced: bool) -> Op:
        op = Op(label, argv, len(self.ops), traced)
        self.ops.append(op)
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        tasks0 = rec.pool_tasks
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            if traced:
                rec.op = op.op_id
                with rec.patched(), rec.span("cli.run", label=label):
                    op.code = self.cli.run(argv, out, err)
            else:
                op.code = self.cli.run(argv, out, err)
        except Exception as exc:  # an operation failure, counted below
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            op.wall = time.perf_counter() - t0
            op.cpu = _cpu() - cpu0
            rec.op = None
        op.pool_tasks = rec.pool_tasks - tasks0
        op.stdout = out.getvalue()
        if op.code not in (0, None) and not op.error:
            op.error = f"exit {op.code}: {err.getvalue().strip()[:300]}"
        if op.ok:
            try:
                self.check(op)
            except (ValueError, KeyError, TypeError) as exc:
                op.error = f"malformed output: {type(exc).__name__}: {exc}"
        return op

    def check(self, op: Op) -> None:
        """Compare an operation's stdout (and cache file) with the
        reference; sets op.error on a mismatch."""
        doc = json.loads(op.stdout)
        rows = doc["result"]["rows"]
        argv = op.argv
        if argv[0] == "bound-recurrence":
            label = op.label.split("#")[0]
            exact = self.exact_bounds[label]
            uncertified = 0
            if [r["n"] for r in rows] != list(range(1, len(exact))):
                op.error = "bound table covers the wrong lengths"
                return
            for r in rows:
                n = r["n"]
                want = "exact-seed" if n <= SEED_PROBLEM.n else "recurrence"
                close, certified = reference.compare_exponent(
                    r["exponent_log_q"], exact[n], SEED_PROBLEM.q)
                if not close or r["provenance"] != want:
                    op.error = f"bound row n={n} is wrong: {r}"
                    return
                uncertified += not certified
            op.info["uncertified_rows"] = uncertified
            return
        if "--load-cache" in argv:
            problem = self.cache_problem[argv[argv.index("--load-cache") + 1]]
        else:
            problem = _problem_of(argv)
        want = reference.expected_rows(problem.q, problem.n, problem.luf)
        if doc["result"]["q"] != problem.q or rows != want:
            op.error = "count table differs from the reference"
            return
        if "--save-cache" in argv:
            path = argv[argv.index("--save-cache") + 1]
            with open(ROOT / path, encoding="ascii") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            saved = [{"n": r["n"], "count": r["count"],
                      "max_luf": r["max_luf"]} for r in records[1:]]
            if saved != want:
                op.error = "saved cache differs from the reference"
            op.info["cache_bytes"] = os.path.getsize(ROOT / path)

    def loop(self, seconds: float, trace: bool) -> list[list[Op]]:
        """Closed loop of rounds for about `seconds`: another round starts
        while it is expected to end less than half a round past the
        deadline.  With trace, rounds alternate traced and untraced
        (seeded start), at least one of each."""
        rounds: list[list[Op]] = []
        first_traced = trace and self.rng.random() < 0.5
        start = time.perf_counter()
        while True:
            traced = trace and (len(rounds) % 2 == 0) == first_traced
            rounds.append([self.run_op(label, argv, traced)
                           for label, argv in self.round_argvs()])
            typical = statistics.median(sum(o.wall for o in r)
                                        for r in rounds)
            if time.perf_counter() - start + typical / 2 >= seconds \
                    and (not trace or len(rounds) >= 2):
                return rounds

    def probe(self, label: str, argv: list[str]) -> list[Op]:
        """Traced repetitions of one operation, at least MIN_PROBE_S long."""
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < MIN_PROBE_S:
            ops.append(self.run_op(label, argv, traced=True))
        return ops

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> float:
        """A fresh interpreter imports the CLI and builds the workload's
        inputs through it (bound-q2: the seeds cache of exact counts)."""
        argv = SEED_PROBLEM.argv(self.seeds) if self.workload.bounds else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                   if p]))
        code = ("import sys\nfrom richwords import cli\n"
                "sys.exit(cli.run(sys.argv[1:]) if sys.argv[1:] else 0)\n")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-500:]}")
        return elapsed

    # -- metrics ---------------------------------------------------------

    def span_times(self, ops: list[Op], names) -> list[float]:
        """Per operation, the summed duration of its spans named `names`."""
        return [sum(s.duration for s in self.recorder.of_op(op.op_id)
                    if s.name in names) for op in ops]

    def end_to_end(self, rounds, setups) -> dict:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {
            "wall_s": (statistics.median(sum(o.wall for o in r)
                                         for r in rounds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(sum(o.cpu for o in r)
                                        for r in rounds), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    def per_layer(self, rounds) -> dict:
        rec = self.recorder
        traced = [r for r in rounds if r[0].traced]
        untraced = [r for r in rounds if not r[0].traced]
        traced_ops = [o for r in traced for o in r]
        m = {
            "trace.overhead_s": (
                statistics.median(sum(o.wall for o in r) for r in traced)
                - statistics.median(sum(o.wall for o in r) for r in untraced),
                "s"),
            "cli.self_s": (statistics.median(
                sum(rec.self_time(s) for o in r
                    for s in rec.of_op(o.op_id, "cli.run"))
                for r in traced), "s"),
        }
        m |= self.enumeration_metrics(traced_ops)
        m |= self.bound_metrics(traced_ops)
        # single-layer micro-probes, driven by the seed
        lib, p = self.lib, self.workload.problem
        seq = probes.record_walk(lib.Eertree, p.q, p.n, self.rng)
        push_ns, pop_ns = probes.replay_ns(lib.Eertree, p.q, seq)
        add_ns, mul_ns = probes.logvalue_ns(lib.LogValue, lib.ROUND_UP, 2,
                                            self.rng)
        m |= {
            "eertree.push_ns": (push_ns, "ns"),
            "eertree.pop_ns": (pop_ns, "ns"),
            "logvalue.add_ns": (add_ns, "ns"),
            "logvalue.mul_ns": (mul_ns, "ns"),
        }
        return m

    def enumeration_metrics(self, traced_ops: list[Op]) -> dict:
        """The workload's own walk, the same walk with peel tracking
        flipped and with the pool flipped (1 <-> 2 workers), and cache
        I/O of its table."""
        wl = self.workload
        p = wl.problem
        if wl.bounds:
            base_cache = self.path("probe-base.jsonl")
            self.cache_problem[base_cache] = p
            base = self.probe("base", p.argv(base_cache))
        else:
            base = traced_ops
        walk = self.walk_s(base)
        nodes, rich = p.walk_counts()
        walk_flipped = self.walk_s(
            self.probe("luf-flip", replace(p, luf=not p.luf).argv()))
        shard_cache = self.path("probe-shard.jsonl")
        other = replace(p, workers=1 if p.workers > 1 else POOL_WORKERS)
        self.cache_problem[shard_cache] = other
        shard = self.probe("shard-flip", other.argv(shard_cache))
        sharded, serial = (base, shard) if p.workers > 1 else (shard, base)
        speedup = self.walk_s(serial) / self.walk_s(sharded)

        if not wl.bounds:  # bound-q2 reads its seeds cache every round
            saved = self.path("ops.jsonl") if wl.save else shard_cache
            self.probe("load", ["count", "--q", str(p.q), "--n", str(p.n),
                                "--load-cache", saved])
        spans = self.recorder.spans
        return {
            "enumeration.walk_s": (walk, "s"),
            "enumeration.nodes": (nodes, "count"),
            "enumeration.nodes_per_s": (nodes / walk, "1/s"),
            "enumeration.rich_ratio": (rich / nodes, "ratio"),
            "enumeration.luf_overhead_s": (
                walk - walk_flipped if p.luf else walk_flipped - walk, "s"),
            "enumeration.shard_prefixes": (
                _same([o.pool_tasks for o in sharded], "pool tasks"), "count"),
            "enumeration.shard_speedup": (speedup, "ratio"),
            "enumeration.shard_efficiency": (speedup / POOL_WORKERS, "ratio"),
            "enumeration.shard_cpu_overhead_s": (
                statistics.median(o.cpu for o in sharded)
                - statistics.median(o.cpu for o in serial), "s"),
            "enumeration.cache_save_s": (statistics.median(
                s.duration for s in spans
                if s.name == "enumeration.save_cache"), "s"),
            "enumeration.cache_load_s": (statistics.median(
                s.duration for s in spans
                if s.name == "enumeration.load_cache"), "s"),
            "enumeration.cache_bytes": (_same(
                [o.info["cache_bytes"] for o in self.ops
                 if "cache_bytes" in o.info and _same_table(o.argv, p)],
                "cache size"), "bytes"),
        }

    def bound_metrics(self, traced_ops: list[Op]) -> dict:
        """The workload's own bound rounds, or one bound round as a probe."""
        if self.workload.bounds:
            ops = traced_ops
        else:
            self.run_op("seeds", SEED_PROBLEM.argv(self.seeds), traced=False)
            ops = [self.run_op(label + "#probe", argv, traced=True)
                   for label, argv in self.round_argvs(WORKLOADS["bound-q2"])]
        m = {}
        for label, _, tau, n_max in BOUND_OPS:
            mine = [o for o in ops if o.label.split("#")[0] == label]
            m[f"bounds.recurrence_s.{label}"] = (statistics.median(
                self.span_times(mine, ("bounds.recurrence_bound",))), "s")
            m[f"bounds.uncertified_rows.{label}"] = (_same(
                [o.info.get("uncertified_rows") for o in mine],
                "uncertified rows"), "count")
        m["bounds.seed_s"] = (statistics.median(self.span_times(
            ops, ("bounds.seed_table_from_counts",))), "s")
        m["bounds.logvalue_ops"] = (sum(
            reference.recurrence_logvalue_ops(SEED_PROBLEM.n, tau, n_max)
            for _, _, tau, n_max in BOUND_OPS), "count")
        return m

    def walk_s(self, ops: list[Op]) -> float:
        return statistics.median(self.span_times(ops, WALKS))


class ExactCountMismatch(Exception):
    pass


def _same(values: list, what: str):
    """The one value every repetition produced (exact counts repeat)."""
    if not values or any(v != values[0] for v in values):
        raise ExactCountMismatch(f"{what} differ between repetitions: "
                                 f"{values}")
    return values[0]


def _problem_of(argv: list[str]) -> Problem:
    def value(flag, default):
        return int(argv[argv.index(flag) + 1]) if flag in argv else default
    return Problem(value("--q", 0), value("--n", 0),
                   symmetric="--symmetric" in argv,
                   luf="--no-max-luf" not in argv,
                   workers=value("--workers", 1))


def _same_table(argv: list[str], p: Problem) -> bool:
    other = _problem_of(argv)
    return (other.q, other.n, other.luf) == (p.q, p.n, p.luf)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_record(args) -> dict:
    import multiprocessing

    import mpmath
    from richwords import TOOL_VERSION
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "richwords": TOOL_VERSION,
        "pool_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "richwords" / "__init__.py").is_file():
        print(f"perfbench: no richwords sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    work = ROOT / ".perfbench" / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        rounds = bench.loop(args.seconds, bool(args.trace))
        problems = []
        try:
            metrics = (bench.per_layer(rounds) if args.trace
                       else bench.end_to_end(rounds, setups))
        except (ExactCountMismatch, statistics.StatisticsError,
                ZeroDivisionError) as exc:
            # only reachable when operations failed or counts drifted
            problems.append(str(exc))
            metrics = {}
        by_label: dict[str, Op] = {}
        for op in bench.ops:
            first = by_label.setdefault(op.label, op)
            if op.ok and first.ok and op.stdout != first.stdout:
                op.error = "stdout differs from an earlier run of the operation"
        uncertified = [o.info["uncertified_rows"] for r in rounds for o in r
                       if "uncertified_rows" in o.info]
        failed = [o for o in bench.ops if not o.ok]
        record = run_record(args) | {
            "rounds": len(rounds),
            "operations": len(bench.ops),
            "failed": [(o.label, o.error) for o in failed][:20],
            "problems": problems,
            "setup_s": setups,
            "round_wall_s": [sum(o.wall for o in r) for r in rounds],
            "uncertified_rows_per_round": uncertified,
        }
        print(json.dumps(record), file=sys.stderr)
        if args.trace:
            bench.recorder.dump(ROOT / ".perfbench" / (
                f"trace-{args.workload}-{args.seed}.json"), record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not failed and not problems,
        "attempted": len(bench.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
