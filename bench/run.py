#!/usr/bin/env python3
"""matchlog benchmark: seeded CLI workloads, checked outputs, traced layers.

One workload, one process (the form a harness calls):

    python3 bench/run.py --workload prove-deep --seed 1 --seconds 30 --trace 0

Each op is one in-process `matchlog.cli.main(argv)` call with stdout
captured and compared to the answer `oracle` computed without matchlog. The
load is a closed loop: one client thread sends the next op when the last
one returns, cycling through the seeded op list in a fresh seeded order each
pass, and measuring whole passes until `--seconds` have passed. Timing
metrics are taken over per-op latencies scaled to a fixed reference speed
(`at_reference_speed`), which takes out the drift of a shared host. The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. A wrong output exits 1; missing sources exit 2.

With `--trace 1` every op runs twice, untraced and then under the tracer,
in whole passes; call counts come from the first pass, times are per pass.
`--limits 1` adds one pass over the sizes past the recursion limit and
reports failed_frac. `--smallest 1` keeps only the first ladder rung.

Every workload, untraced and traced twice, with the repeat checks:

    python3 bench/run.py [--seed 1] [--seconds 10]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAMS = ROOT / "tests" / "programs"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
WARMUP_S = 1.0
PROBES = 3  # reference-loop timings on each side of a timed op
# The reference loop's time at the machine speed that timing metrics are
# reported at: about its best time on the 2-core x86 box the benchmark was
# written on (Python 3.11).
REFERENCE_NS = 250_000
# The tail is the highest of these with at least 10 ops beyond it. A
# workload has a fixed op count, so the choice never changes between runs:
# p90 on prove-deep, p75 on solve-wide and check-sweep.
PERCENTILES = (95, 90, 75, 50)
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
LAYER_STATS = (
    ("substitution.mgm", ("calls", "self_s", "ok_frac")),
    ("engine_tm.tm_prove", ("calls", "self_s", "mgm_per_call", "slope")),
    ("substitution.mgu", ("calls", "self_s", "ok_frac")),
    ("substitution.rename_apart", ("calls", "self_s")),
    ("substitution.apply", ("calls", "self_s")),
    ("engine_sld.sld_solve", ("calls", "self_s", "answers", "mgu_per_answer",
                              "exhausted_frac", "slope")),
    ("coalgebra.lax_sweep", ("calls", "self_s", "squares", "classes_per_square")),
    ("coalgebra.pff_step", ("calls", "self_s")),
    ("coalgebra.pff_map", ("calls", "self_s")),
    ("coalgebra.pff_leq", ("calls", "self_s")),
    ("coalgebra.PffElement.canonical", ("calls", "self_s")),
    ("coalgebra.unfold", ("calls", "self_s")),
    ("coalgebra.encode_tree", ("calls", "self_s")),
    ("coalgebra.ground_lfp", ("calls", "self_s")),
    ("substitution.arrow_apply", ("calls", "self_s")),
    ("engine_sld.check_bridge", ("calls", "self_s")),
    ("cotree.build_tree", ("calls", "self_s", "nodes")),
    ("cotree.render", ("calls", "self_s")),
    ("syntax.parse_program", ("calls", "self_s")),
    ("syntax.parse_goal", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "answers": "count", "squares": "count",
              "nodes": "count", "slope": "ratio"}
# (workload, traced function, op family) whose time is fitted against op size.
SLOPES = {("prove-deep", "engine_tm.tm_prove"): "nat-proved",
          ("solve-wide", "engine_sld.sld_solve"): "graph"}
COUNT_STATS = ("calls", "answers", "squares", "nodes")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

def reference() -> int:
    """A fixed piece of pure-Python work that does not touch matchlog, timed
    next to each op to read the machine's speed at that moment."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe() -> list[int]:
    times = []
    for _ in range(PROBES):
        t0 = perf_counter_ns()
        reference()
        times.append(perf_counter_ns() - t0)
    return times


def at_reference_speed(repeats: list[tuple[float, list[int]]]) -> list[float]:
    """Repeats given as (time, reference timings around it), each scaled to
    the reference speed: time x REFERENCE_NS / mean reference time.

    On a shared host the speed of the same code drifts by up to about 1.7x
    over fractions of a second to minutes, often for a whole run. Scaling by
    the reference loop timed at the same moment takes most of that drift
    out, and taking the lower quartile of an op's scaled repeats most of the
    rest. A change to matchlog still moves the result in full: the
    reference never runs matchlog code."""
    return [t * REFERENCE_NS / statistics.fmean(probes) for t, probes in repeats]


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_cli():
    """A fresh import of matchlog.cli from this checkout's sources."""
    if not (SRC / "matchlog" / "cli.py").is_file():
        raise BenchError(f"matchlog sources not found under {SRC}")
    if not PROGRAMS.is_dir():
        raise BenchError(f"bundled programs not found under {PROGRAMS}")
    for name in [n for n in sys.modules if n == "matchlog" or n.startswith("matchlog.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("matchlog.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "matchlog").resolve():
        raise BenchError(f"imported matchlog from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work: Path, smallest: bool, limits: bool):
    """Import, generate ops and expected answers, write programs; timed
    SETUP_REPEATS times, each with the reference loop around it, and the
    last repeat's objects are kept."""
    timings = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = perf_counter()
        cli = import_cli()
        ops = workloads.build(workload, seed, PROGRAMS, work)
        beyond = workloads.build(workload, seed, PROGRAMS, work, limits=True) if limits else []
        timings.append((perf_counter() - t0, before + probe()))
    if smallest:
        first = {}
        for op in ops:
            first[op.family] = min(first.get(op.family, op.size), op.size)
        ops = [op for op in ops if op.size == first[op.family]]
    return cli, ops, beyond, timings


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_op(cli, op: workloads.Op) -> tuple[int, str | None, bool | None]:
    """(elapsed ns, exception name or None, output correct or None if failed)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)  # looked up per call, so a traced main is used
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an op that raises is a failed op, not a crash
        exc = type(e).__name__
    elapsed = perf_counter_ns() - t0
    if exc is not None:
        return elapsed, exc, None
    if rc != op.rc and rc >= 64:  # a documented, clean error exit
        return elapsed, f"exit {rc}", None
    return elapsed, None, op.verdict(rc, out.getvalue())


class Tally:
    def __init__(self) -> None:
        self.samples: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.wrong: list[str] = []
        self.failures: dict[str, str] = {}
        self.by_op: dict[str, list[tuple[int, list[int]]]] = {}
        self.probes: list[int] = []

    def add(self, op: workloads.Op, result: tuple[int, str | None, bool | None],
            probes: list[int] | None = None) -> None:
        elapsed, exc, ok = result
        self.samples.append(elapsed)
        if probes:
            self.probes += probes
            self.by_op.setdefault(op.id, []).append((elapsed, probes))
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.failures[op.id] = exc
        elif ok:
            self.correct += 1
        else:
            self.wrong.append(op.id)


def passes(ops: list, rng: random.Random):
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def tail_percentile(n: int) -> int:
    """The highest listed percentile with at least 10 of n values above it."""
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of quantile p: a mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each
    one's share of [0, 1]. Unlike one order statistic, it does not jump
    when a gap between op costs falls at the quantile."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule per order statistic
    total = weighted = 0.0
    for i, value in enumerate(ordered):
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
            total += w
            weighted += w * value
    return weighted / total


def measure(cli, ops, seconds: float, rng: random.Random, tally: Tally) -> float:
    """Closed loop of whole passes until `seconds` have passed; returns the
    measured wall time. Whole passes keep the sample mix identical from run
    to run, so a percentile always falls on the same ops. The reference loop
    runs just before and after each op."""
    start = perf_counter()
    for order in passes(ops, rng):
        for op in order:
            before = probe()
            result = run_op(cli, op)
            tally.add(op, result, before + probe())
        if perf_counter() - start >= seconds:
            return perf_counter() - start


def warm_up(cli, ops, seconds: float, rng: random.Random) -> None:
    start = perf_counter()
    for order in passes(ops, rng):
        for op in order:
            if perf_counter() - start >= min(WARMUP_S, seconds / 10):
                return
            probe()
            run_op(cli, op)


def fit_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) on log(size), per-size medians."""
    by_size: dict[int, list[float]] = {}
    for size, t in points:
        by_size.setdefault(size, []).append(t)
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_run(cli, ops, seconds: float, rng: random.Random, workload: str,
               tally: Tally) -> tuple[dict, dict]:
    """Whole passes of paired untraced/traced op runs; returns per-layer
    metrics and the first pass's counts."""
    tr = tracing.Tracer([fn for fn, _ in LAYER_STATS])
    untraced_ns = traced_ns = 0
    slope_points: dict[str, list[tuple[int, float]]] = {}
    first: dict | None = None
    n_passes = 0
    start = perf_counter()
    for order in passes(ops, rng):
        t_pass = perf_counter()
        for op in order:
            t, _, _ = run_op(cli, op)
            untraced_ns += t
            tr.install()
            tr.begin_op()
            try:
                result = run_op(cli, op)
            finally:
                per_op = tr.end_op()
                tr.uninstall()
            tally.add(op, result)
            traced_ns += result[0]
            for (wl, fn), family in SLOPES.items():
                if wl == workload and op.family == family and fn in per_op:
                    slope_points.setdefault(fn, []).append((op.size, per_op[fn][1]))
        n_passes += 1
        if first is None:
            first = tr.snapshot()
            first["under"] = {"tm_mgm": tr.calls_under("engine_tm.tm_prove", "substitution.mgm"),
                              "sld_mgu": tr.calls_under("engine_sld.sld_solve", "substitution.mgu")}
        spent = perf_counter() - start
        if spent + (perf_counter() - t_pass) > seconds:
            break
    assert first is not None
    self_ns = tr.snapshot()["self_ns"]
    metrics = {}
    for fn, stats in LAYER_STATS:
        calls = first["calls"][fn]
        extra = first["extra"].get(fn, {})
        values = {
            "calls": calls,
            "self_s": self_ns[fn] / n_passes / 1e9,
            "ok_frac": _ratio(extra.get("ok", 0), calls),
            "mgm_per_call": _ratio(first["under"]["tm_mgm"], calls),
            "answers": extra.get("answers", 0),
            "mgu_per_answer": _ratio(first["under"]["sld_mgu"], extra.get("answers", 0)),
            "exhausted_frac": _ratio(extra.get("exhausted", 0), calls),
            "squares": extra.get("squares", 0),
            "classes_per_square": _ratio(extra.get("classes", 0), extra.get("squares", 0)),
            "nodes": extra.get("nodes", 0),
            "slope": fit_slope(slope_points.get(fn, [])),
        }
        for stat in stats:
            metrics[f"{fn}.{stat}"] = {"value": values[stat],
                                       "unit": STAT_UNITS.get(stat, "ratio")}
    metrics["trace_overhead"] = {"value": _ratio(traced_ns, untraced_ns), "unit": "ratio"}
    return metrics, {"passes": n_passes, "counts": {
        k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNT_STATS}}


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args: argparse.Namespace) -> int:
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        cli, ops, beyond, setup = set_up(args.workload, args.seed, work,
                                         args.smallest, args.limits)
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        tally = Tally()
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "python": platform.python_version(), "commit": git_commit(),
                "nproc": os.cpu_count(), "ops_generated": len(ops),
                "load": "closed loop, 1 client, 1 thread"}
        if args.trace:
            metrics, extra = traced_run(cli, ops, args.seconds, rng, args.workload, tally)
            info.update(extra)
        else:
            warm_up(cli, ops, args.seconds, random.Random(f"warm:{args.workload}:{args.seed}"))
            elapsed = measure(cli, ops, args.seconds, rng, tally)
            # An op that failed or answered wrong on any repeat is not a
            # completed op.
            per_op = {op_id: lower_quartile(at_reference_speed(repeats))
                      for op_id, repeats in tally.by_op.items()}
            bad = set(tally.failures) | set(tally.wrong)
            latencies = list(per_op.values())
            p = tail_percentile(len(latencies))
            metrics = {
                "setup_s": statistics.median(at_reference_speed(setup)),
                "ops_per_s": len(per_op.keys() - bad) / (sum(latencies) / 1e9),
                "latency_p50_ms": quantile(latencies, 0.5) / 1e6,
                "latency_tail_ms": quantile(latencies, p / 100) / 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
            info.update({"measured_s": elapsed, "samples": len(tally.samples),
                         "passes": len(tally.samples) // len(ops),
                         "latency_tail_percentile": p,
                         "wall_ops_per_s": tally.correct / elapsed,
                         "wall_latency_p50_ms": statistics.median(tally.samples) / 1e6,
                         "wall_setup_s": statistics.median(t for t, _ in setup),
                         "reference_best_us": min(tally.probes) / 1e3,
                         "reference_median_us": statistics.median(tally.probes) / 1e3})
        if args.limits:
            for op in beyond:
                tally.add(op, run_op(cli, op))
            metrics["failed_frac"] = {"value": _ratio(tally.failed, tally.attempted),
                                      "unit": "ratio"}
        info["failed_ops"] = dict(sorted(tally.failures.items()))
        info["wrong_ops"] = tally.wrong
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0 if not tally.wrong else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Every workload, with the repeat checks
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--limits", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    ok = True
    report = {}
    for wl in workloads.WORKLOADS:
        info0, plain = _child(wl, args.seed, args.seconds, 0)
        info1, traced_a = _child(wl, args.seed, args.seconds, 1)
        info2, traced_b = _child(wl, args.seed, args.seconds, 1)
        repeats = {
            "counts_repeat": info1["counts"] == info2["counts"],
            "failed_ops_repeat": (info0["failed_ops"] == info1["failed_ops"]
                                  == info2["failed_ops"]),
            "correct": plain["correct"] and traced_a["correct"] and traced_b["correct"],
        }
        ok = ok and all(repeats.values())
        print(f"== {wl}  seed={args.seed}  python={info0['python']}  "
              f"commit={info0['commit'][:12]}  nproc={info0['nproc']}")
        print(f"   latency_tail_ms is p{info0['latency_tail_percentile']:g} "
              f"of {info0['ops_generated']} ops over {info0['passes']} passes; "
              f"failed ops {info0['failed_ops']}")
        layers = {k: v for k, v in traced_a["metrics"].items() if k != "failed_frac"}
        for name, m in {**plain["metrics"], **layers}.items():
            print(f"   {name:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"   {repeats}")
        report[wl] = {"info": info0, "metrics": plain["metrics"], "layers": layers,
                      "checks": repeats}
    print(json.dumps({"ok": ok, "workloads": report}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limits", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_workload(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
