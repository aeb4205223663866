"""Benchmark of the `davote` package in this checkout, standard library only.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Workloads (see BENCHMARK.json for why each one exists):

* corr-recognize: shuffled and perturbed correspondences;
* form-recognize: forms on every recognition route, valid and invalid;
* nvoter-recognize: axis-permuted n-voter two-candidate tableaux;
* cli-session: `python -m davote` command lines, one fresh process each.

Load is a closed loop with one caller: the next operation starts when
the previous one has finished.  A run repeats whole passes over the
workload's operations until `--seconds` of operation time has been
measured; every pass rebuilds its inputs with fresh row, column or
plane orders.  Each answer is judged by the benchmark's own reference
model (`reference.py`), never by asking `davote`.

With `--trace 0` the run reports the end-to-end metrics:

* ops_per_s: operations that passed the check per second of operation time;
* latency_p50_ms and latency_tail_ms: over all timed samples, the mean
  of those ranked from the 40th to the 60th percentile, and the mean of
  those around the highest percentile that has at least ten of one
  pass's operations beyond it (see `latency_metrics`; a failed
  operation counts as infinitely slow);
* setup_s: median over several fresh interpreters of the time from
  start, through `import davote` (`davote.cli` for cli-session), to the
  end of one warm-up operation;
* peak_rss_mb: peak resident memory of the process that ran the
  operations (of the command-line processes for cli-session); the
  notes give the library worker's peak just before its first `davote`
  call, when the benchmark's own inputs and reference tables are built.

Times are scaled by a calibration loop that runs between operations;
see `CAL_NOMINAL_S` and perfbench/README.md.

With `--trace 1` it runs half its time untraced and half with spans
around the package's public functions (`spans.py`), and reports the
per-module metrics, the tracing overhead, and the defect probe: inputs
that failed when the benchmark was written, kept out of the timed mix.
The last line of standard output is always one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
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
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 9
CHILD_TIMEOUT = 120
# Times are scaled by CAL_NOMINAL_S / (the calibration loop's time around
# them), so they read as on a machine where `calibration_loop` takes 10 ms.
# Neighbouring load on a shared machine slows the package and the loop
# alike, and the scaling cancels most of that drift.
CAL_NOMINAL_S = 0.010
CAL_EVERY_S = 0.05
FAILED_MS = 1e9  # latency reported for an operation that never produced a right answer

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402

E2E = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_loop(n: int = 10_000) -> int:
    """Fixed pure-Python work of the kind the package does: tuples, max, frozensets, dicts."""
    seen = {}
    for i in range(n):
        z = (i % 7, i % 11, i % 13, i % 5)
        top = max(z)
        seen[frozenset(k for k, v in enumerate(z) if v == top)] = i
    return len(seen)


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


def import_davote(module: str = "davote"):
    """Import `module` from this checkout's src/, and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    importlib.import_module(module)
    davote = sys.modules["davote"]
    where = Path(davote.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"davote was imported from {where}, not from {SRC}")
    return davote


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# Running one operation: prepare (untimed), call (timed), judge (untimed).


class LibraryRunner:
    ordered = False  # independent operations: each pass runs them in a fresh order

    def __init__(self, davote):
        self.davote = davote

    def prepare(self, op, rng):
        return op.build(rng)

    def call(self, op, ctx):
        # Looked up on every call, so the tracer's wrapper is seen.
        return self.davote.recognize_tableau(ctx[0])

    def judge(self, op, ctx, res):
        """(reason it failed or None, method)."""
        if isinstance(res, BaseException):
            return f"raised {type(res).__name__}", None
        if res.verdict not in (workloads.ACCEPTED, workloads.REJECTED):
            return f"verdict {res.verdict}", res.method
        return ctx[1](res), res.method


class CliRunner:
    """Command lines as child processes, or in-process through davote.cli.main."""

    ordered = True  # a session: later commands read the files earlier ones wrote

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.env = child_env()

    def prepare(self, op, rng):
        if op.prepare:
            op.prepare(rng)
        return None

    def call(self, op, ctx):
        if not self.in_process:
            r = subprocess.run([sys.executable, "-m", "davote", *op.argv],
                               capture_output=True, text=True, env=self.env, cwd=OUT, timeout=CHILD_TIMEOUT)
            return r.returncode, r.stdout, r.stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = sys.modules["davote.cli"].main(list(op.argv))
            except Exception:
                traceback.print_exc()
                code = None
        return code, out.getvalue(), err.getvalue()

    def judge(self, op, ctx, raw):
        if isinstance(raw, BaseException):
            return f"raised {type(raw).__name__}", None
        code, stdout, stderr = raw
        if "Traceback" in stderr:
            return f"traceback on stderr, exit {code}", None
        if code != op.expect_code:
            return f"exit {code}, expected {op.expect_code}", None
        method = None
        if code in (0, 1) and op.check:
            try:
                reason = op.check(stdout)
                method = json.loads(stdout).get("method") if stdout.strip() else None
            except (ValueError, KeyError, TypeError, IndexError) as e:
                reason = f"unreadable output: {e}"
            if reason:
                return reason, method
        return None, method


def make_runner(workload, davote, in_process):
    return CliRunner(in_process) if workload == "cli-session" else LibraryRunner(davote)


def warmup_op(workload, davote, out_dir, seed):
    """(runner.call bound to a prepared context, op, rng) for the set-up measurement."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, _ = workloads.build(workload, davote, out_dir)
    op = pick_warmup(ops)
    runner = make_runner(workload, davote, in_process=True)
    rng = workloads.op_rng(seed, -1, 0)
    ctx = runner.prepare(op, rng)
    return (lambda op, rng: runner.call(op, ctx)), op, rng


def pick_warmup(ops):
    """The smallest operation expected to succeed: set-up time, not one big operation."""
    good = [op for op in ops if getattr(op, "expect", None) == workloads.ACCEPTED
            or getattr(op, "expect_code", None) == 0 and op.cells]
    return min(good, key=lambda op: op.cells)


# ---------------------------------------------------------------------------
# The measurement loop.


class Record:
    """Outcomes of the operations of one or more passes.

    Each sample keeps its raw time and the calibration taken before it.
    A time is scaled by the mean of the calibrations just before and just
    after it, so a slowdown that starts or ends during an operation is
    shared between the two.
    """

    def __init__(self, ops):
        self.ops = ops
        self.samples: list[tuple] = []  # (operation index, seconds, calibration index, passed)
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        self.methods: dict = {}

    def add(self, k, dt, reason, method):
        self.samples.append((k, dt, len(self.calibrations) - 1, reason is None))
        if method:
            self.methods[method] = self.methods.get(method, 0) + 1
        if reason is not None:
            self.failures.append(f"{self.ops[k].label}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def ok(self) -> int:
        return sum(s[3] for s in self.samples)

    @property
    def raw_time(self) -> float:
        return sum(s[1] for s in self.samples)

    def scaled(self):
        """(operation index, scaled seconds, passed) per sample."""
        cal = self.calibrations
        out = []
        for k, dt, c, passed in self.samples:
            out.append((k, dt * CAL_NOMINAL_S / statistics.mean(cal[c: c + 2]), passed))
        return out

    @property
    def op_time(self) -> float:
        return sum(dt for _, dt, _ in self.scaled())

    def latency(self):
        """Every sample's scaled time, sorted; a failed attempt counts as infinitely slow."""
        return sorted(dt if passed else math.inf for _, dt, passed in self.scaled())


def run_passes(ops, runner, seed, first_pass, budget, tracer=None):
    """Whole passes over `ops` until `budget` seconds of operation time; returns (Record, passes)."""
    rec = Record(ops)
    rec.calibrations.append(calibrate())
    since_cal = 0.0
    pass_no = first_pass
    while pass_no == first_pass or rec.raw_time < budget:
        order = list(range(len(ops)))
        if not runner.ordered:
            random.Random(f"{seed}:{pass_no}:order").shuffle(order)
        for k in order:
            op = ops[k]
            ctx = runner.prepare(op, workloads.op_rng(seed, pass_no, k))
            # Each operation starts from a heap without garbage left by the
            # one before, so peak memory and collection pauses are its own.
            gc.collect()
            if tracer:
                tracer.op = f"{pass_no}:{k}"
            t0 = perf_counter()
            try:
                if tracer:
                    raw = tracer.call(ROOT_SPAN, runner.call, (op, ctx), {})
                else:
                    raw = runner.call(op, ctx)
            except Exception as e:  # any escape is a failed operation, not a crash of the run
                raw = e
            dt = perf_counter() - t0
            rec.add(k, dt, *runner.judge(op, ctx, raw))
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                rec.calibrations.append(calibrate())
                since_cal = 0.0
        pass_no += 1
    return rec, pass_no - first_pass


def latency_metrics(rec):
    """(middle ms, tail ms, tail percentile, sample count) of all timed samples.

    Both are means over a window of the sorted samples, because
    operation costs cluster by parameters and a single order statistic
    at the edge of a cluster jumps between neighbours from run to run.
    The middle is the mean of the samples ranked from the 40th to the
    60th percentile.  The tail sits at the highest percentile that has at
    least ten of one pass's n operations beyond it, rank t = n - 11 of n,
    and is the mean of the samples whose rank share lies in
    [(t - 2) / n, (t + 3) / n): five operations' worth of samples.  The
    percentile depends on the workload, not on how many passes a run
    made, so a faster program is measured at the same percentile.
    """
    lat = rec.latency()
    count, n = len(lat), len(rec.ops)
    t = max(0, n - 11)

    def window(lo, hi):
        a = min(int(lo * count), count - 1)
        return statistics.mean(lat[a: max(a + 1, math.ceil(hi * count))])

    def ms(v):
        return v * 1e3 if math.isfinite(v) else FAILED_MS

    middle = window(0.4, 0.6)
    tail = window(max(0, t - 2) / n, min(n, t + 3) / n)
    return ms(middle), ms(tail), 100.0 * (t + 1) / n, count


def repeat_share(keys) -> float:
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def context(workload, seed, ops, rec, passes) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "davote": str(Path(sys.modules["davote"].__file__).parent),
        "operations_per_pass": len(ops),
        "passes": passes,
        "cells_per_operation": round(statistics.mean(op.cells for op in ops), 1),
        "method_mix": dict(sorted(rec.methods.items())),
        "repeated_parameter_share": round(repeat_share([ops[k].key for k, *_ in rec.samples]), 4),
    }


def worker(args) -> dict:
    """The measured part of a run, in its own process."""
    davote = import_davote("davote.cli" if args.workload == "cli-session" else "davote")
    out_dir = OUT / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops, probe = workloads.build(args.workload, davote, out_dir)
        runner = make_runner(args.workload, davote, in_process=bool(args.trace))
        cli = args.workload == "cli-session"
        rss_before = None
        if not (cli or args.trace):
            # Build the first pass's inputs once, so the reference tables they
            # need are held when the memory before the first call is taken.
            for k, op in enumerate(ops):
                runner.prepare(op, workloads.op_rng(args.seed, 0, k))
            gc.collect()
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        warm = pick_warmup(ops)
        run_passes([warm], runner, args.seed, -1, 0)
        if not args.trace:
            rec, passes = run_passes(ops, runner, args.seed, 0, args.seconds)
            p50, tail, pct, n = latency_metrics(rec)
            peak = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "ops_per_s": rec.ok / rec.op_time,
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "peak_rss_mb": peak,
            }
            notes = {"tail_percentile": round(pct, 1), "latency_samples": n,
                     "rss_before_first_call_mb": rss_before,
                     "unscaled_ops_per_s": rec.ok / rec.raw_time,
                     "calibration_median_s": statistics.median(rec.calibrations)}
            return result((rec,), metrics, context(args.workload, args.seed, ops, rec, passes), notes)
        plain, _ = run_passes(ops, runner, args.seed, 0, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            rec, passes = run_passes(ops, runner, args.seed, 1000, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (plain.ok / plain.op_time) / (rec.ok / rec.op_time)
        probed, _ = run_passes(probe, runner, args.seed, 0, 0) if probe else (Record([]), 0)
        metrics["defects.probed"] = probed.attempted
        metrics["defects.failing"] = probed.attempted - probed.ok
        metrics["cli.startup_s"] = cli_startup()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        notes = {"absent_functions": tracer.absent, "defects": probed.failures}
        return result((plain, rec), metrics, context(args.workload, args.seed, ops, rec, passes), notes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def cli_startup(runs: int = 5) -> float:
    """Median time for a fresh interpreter to import davote.cli."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import davote.cli"], env=child_env(), check=True,
                       timeout=CHILD_TIMEOUT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def result(records, metrics, ctx, notes) -> dict:
    attempted = sum(r.attempted for r in records)
    return {
        "correct": all(r.ok == r.attempted for r in records),
        "attempted": attempted,
        "failed": attempted - sum(r.ok for r in records),
        "metrics": metrics,
        "context": ctx,
        "notes": notes,
        "failures": [f for r in records for f in r.failures][:20],
    }


# ---------------------------------------------------------------------------
# The parent process: set-up measurements, then the worker.


def measure_setup(workload, seed) -> float:
    """Median set-up time over SETUP_RUNS fresh interpreters, each scaled by its own calibration."""
    times = []
    for k in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "setup_child.py"), workload, str(seed + k)],
                                stdout=subprocess.PIPE, text=True, env=child_env())
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SystemExit(f"set-up run failed with exit code {proc.returncode}")
        excluded, cal = float(line.split()[1]), float(rest.split()[1])
        times.append((ready - t0 - excluded) * CAL_NOMINAL_S / cal)
    return statistics.median(times)


def run_one(args) -> dict:
    setup = measure_setup(args.workload, args.seed) if not args.trace else None
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        raise SystemExit(f"worker failed with exit code {r.returncode}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if setup is not None:
        res["metrics"]["setup_s"] = setup
    return res


def report(res, trace) -> None:
    print(f"# context: {json.dumps(res['context'])}")
    print(f"# notes: {json.dumps(res['notes'])}")
    for line in res["failures"]:
        print(f"# failed: {line}")
    for name in E2E if not trace else res["metrics"]:
        value = res["metrics"][name]
        unit = E2E.get(name) or layer_unit(name)
        print(f"{name:44s} {value:>16.6g} {unit}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("tableau_io.bytes"):
        return "bytes"
    if name in ("trace.overhead", "trace.loop_share"):
        return "ratio"
    return "count"


def final_line(res, trace) -> str:
    units = {k: (E2E.get(k) or layer_unit(k)) for k in res["metrics"]}
    keep = E2E if not trace else res["metrics"]
    metrics = {k: {"value": res["metrics"][k], "unit": units[k]} for k in keep}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "worker"), default="parent", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "davote" / "__init__.py").is_file():
        print(f"error: no davote package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the calibration
    # loop then measures the core the operations and set-up runs use.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.role == "worker":
        print(json.dumps(worker(args)))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        res = run_one(args)
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        report(res, args.trace)
        print(final_line(res, args.trace))
        return 0
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            res = run_one(args)
            print(f"\n# perfbench {name} seed={args.seed} seconds={args.seconds} trace={trace}")
            report(res, trace)
            summary[f"{name}/trace={trace}"] = json.loads(final_line(res, trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
