"""The gotonum benchmark: seeded CLI workloads, timed end to end.

From the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 0 --seconds 26 --trace 0

The library is imported from the checkout's ``src/`` and driven in process
through ``gotonum.cli.main(argv)`` with stdout captured, by one client in a
closed loop, from one process with no threads.  A run

1. times a fixed pure-Python reference loop (host context only, never
   used to rescale a metric);
2. runs ``gotonum verify-paper`` in a child process as an untimed gate and
   refuses to report unless it prints ``N/N checks passed``;
3. sets up SETUP_REPS times (``import gotonum, gotonum.cli`` in a fresh
   child interpreter, and generating the op lists here) and reports the
   sum of the two medians as ``setup_s``;
4. runs passes, each a seeded list of ops on a fresh import of the
   library, until the next pass would end after ``--seconds``, checking
   each op's output right after it returns, outside its timed region;
5. reports, over all ops of the run, the mean time of a pass, the median
   and the tail op latency, and the process's peak RSS.

Every reported time is process CPU time (``time.process_time``), which
the single-threaded CLI spends almost all of an op's wall time on; it
leaves out the time the process waits while the host runs others.  The
wall times go to the fuller record.  The fresh import per pass keeps
anything the library caches at module level from carrying over from one
pass to the next: ``search`` passes run the same ops in another order.

With ``--trace 1`` it instead alternates untraced and traced executions of
the first pass (``spans.py``) and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  The last stdout line is the
JSON result; a fuller record goes to ``perfbench/out/``.  README.md has the
workloads, the checks and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "goto", "invariants", "rlr")
DEFAULT_SEED = 0
PASSES = 16          # passes generated per run; a run stops early if it uses them all
MIN_PASSES = 2
SETUP_REPS = 7
WARMUP_OPS = 3
TAIL_LEVELS = (99, 95, 90, 75, 50)
PEAK_PROBES = 8      # largest semigroups re-built under tracemalloc in a traced run


class BenchError(Exception):
    pass


# -- host context and the correctness gate ---------------------------------


def reference_loop():
    """Median of three timings of a fixed integer loop, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_paper():
    proc = subprocess.run(
        [sys.executable, "-m", "gotonum.cli", "verify-paper"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
    )
    lines = proc.stdout.strip().splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if proc.returncode != 0 or not match or match[1] != match[2]:
        tail = lines[-1] if lines else proc.stderr.strip()[-300:]
        raise BenchError(f"verify-paper gate failed (exit {proc.returncode}): {tail}")
    return lines[-1]


# -- set-up ------------------------------------------------------------------


def import_library():
    """A fresh import of ``gotonum`` from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "gotonum" or n.startswith("gotonum.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    package = importlib.import_module("gotonum")
    importlib.import_module("gotonum.cli")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "gotonum":
        raise BenchError(f"imported gotonum from {package.__file__}, not from src/")
    return package


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IMPORT_PROBE = """\
import time
start = time.process_time()
import gotonum, gotonum.cli
print(time.process_time() - start, gotonum.__file__)
"""


def cold_import_s():
    """CPU seconds of ``import gotonum, gotonum.cli`` in a fresh interpreter,
    so that the standard-library modules the package pulls in count too."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        raise BenchError(f"importing gotonum failed: {proc.stderr.strip()[-300:]}")
    if Path(fields[1]).resolve().parent != ROOT / "src" / "gotonum":
        raise BenchError(f"imported gotonum from {fields[1]}, not from src/")
    return float(fields[0])


def setup(workload, seed):
    """Set up SETUP_REPS times: a cold import in a child process, and the
    op lists generated in process.  Returns the package imported here, the
    passes and the CPU seconds of each import and each generation."""
    imports, generations = [], []
    for _ in range(SETUP_REPS):
        imports.append(cold_import_s())
        start = time.process_time()
        passes = workloads.generate(workload, seed, PASSES)
        generations.append(time.process_time() - start)
    return import_library(), passes, imports, generations


# -- running ops ---------------------------------------------------------------


def run_op(main, argv):
    """Run one CLI invocation; returns (cpu seconds, wall seconds, exit
    status, stdout), where the status of a failed op carries its stderr or
    exception."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            rc = main(list(argv))
        except Exception as exc:  # the op failed; the run goes on and counts it
            rc = f"{type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return cpu, wall, rc, out.getvalue()


class Ledger:
    """Checks every executed op and keeps the tally.

    The first execution of an argv is checked in full; a later one must
    exit 0 and print exactly what the first printed."""

    def __init__(self, checker, expected):
        self.checker = checker
        self.expected = expected    # [[value digest per op] per pass] or None
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.failures = []
        self.outputs = {}           # argv -> digest of its first stdout

    def record(self, p, i, op, rc, out):
        self.attempted += 1
        try:
            if rc != 0:
                raise checks.CheckFailed(f"exit {rc}")
            seen = self.outputs.get(op.argv)
            if seen is not None:
                if checks.digest(out) != seen:
                    raise checks.CheckFailed("output differs from the op's first execution")
                return
            value = checks.digest(self.checker.values(op, out))
            if self.expected is not None:
                self.digest_checked += 1
                if value != self.expected[p][i]:
                    raise checks.CheckFailed("values differ from the recorded digest")
            self.outputs[op.argv] = checks.digest(out)
        except Exception as exc:  # a malformed output is a failed op too
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"argv": list(op.argv), "error": str(exc)[:300]})


def rank(level, n):
    """1-based nearest rank of the level-th percentile of n values."""
    return max(-(-level * n // 100), 1)


def tail_level(n):
    """Highest standard percentile with at least ten ops beyond it."""
    return next((lv for lv in TAIL_LEVELS if n - rank(lv, n) >= 10), TAIL_LEVELS[-1])


def percentile(sorted_values, level):
    return sorted_values[rank(level, len(sorted_values)) - 1]


def run_pass(main, p, ops, ledger, tracer=None):
    """Run a pass; returns the CPU and the wall seconds of each op."""
    cpus, walls = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        cpu, wall, rc, out = run_op(main, op.argv)
        cpus.append(cpu)
        walls.append(wall)
        if ledger is not None:
            ledger.record(p, i, op, rc, out)
    return cpus, walls


def measure(passes, seconds, ledger):
    """Passes until the next would end after ``seconds`` of wall time, and
    at least MIN_PASSES; each pass runs on a fresh import of the library.
    Returns the (cpu, wall) op times of each pass."""
    begin = time.perf_counter()
    per_pass, durations = [], []
    for p, ops in enumerate(passes):
        if len(per_pass) >= MIN_PASSES and (
                time.perf_counter() - begin + statistics.median(durations) > seconds):
            break
        start = time.perf_counter()
        main = import_library().cli.main
        per_pass.append(run_pass(main, p, ops, ledger))
        durations.append(time.perf_counter() - start)
    return per_pass


def pass_stats(per_pass):
    """From the CPU times of all the run's ops, pooled: the mean CPU
    seconds of a pass, and the median and the tail op in ms.

    The tail percentile is the one with ten ops beyond it in a single pass
    (p90 for 100 ops), so it does not change with the number of passes.
    Pooling puts hundreds of ops beyond it, and a few very slow ops then
    move it, and the median, much less than they move one pass's."""
    level = tail_level(len(per_pass[0][0]))
    pooled = sorted(cpu for cpus, _ in per_pass for cpu in cpus)
    mean_pass = sum(pooled) / len(per_pass)
    return level, mean_pass, percentile(pooled, 50) * 1000, percentile(pooled, level) * 1000


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the traced run ---------------------------------------------------------------


def semigroup_peak_kb(package, generators):
    """Largest tracemalloc peak of building the biggest semigroups seen."""
    biggest = sorted(generators, key=lambda g: g[0] * g[-1], reverse=True)[:PEAK_PROBES]
    peak = 0
    for gens in biggest:
        tracemalloc.start()
        try:
            package.semigroup.NumericalSemigroup(list(gens))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def traced_run(package, ops, seconds, ledger):
    """Alternate untraced and traced executions of one pass; every
    execution's output is checked."""
    main = package.cli.main
    tracer = spans.Tracer(package)
    untraced, traced, reports = [], [], []
    begin = time.perf_counter()
    while not reports or time.perf_counter() - begin + untraced[-1] + traced[-1] <= seconds:
        untraced.append(sum(run_pass(main, 0, ops, ledger)[1]))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(run_pass(package.cli.main, 0, ops, ledger, tracer)[1]))
        finally:
            tracer.uninstall()
        reports.append(layer_report(tracer))
        if len(reports) == 1:
            kept, semigroups = tracer.spans, tracer.semigroups
    metrics = {name: statistics.median(r[name] for r in reports) for name in reports[0]}
    metrics["semigroup.init.peak_kb"] = semigroup_peak_kb(package, semigroups)
    wall, base = statistics.median(traced), statistics.median(untraced)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = base
    metrics["trace.overhead_s"] = wall - base
    metrics["trace.unaccounted_s"] = wall - metrics["trace.self_sum_s"]
    return metrics, kept, len(reports)


def layer_report(tracer):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer, entries in spans.ENTRY_POINTS.items():
        layer_self = 0.0
        for entry in entries:
            name = spans.span_name(layer, entry)
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            layer_self += self_s[name]
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.errors"] = tracer.errors[layer]
    out["colon.colon_power.kernel_dim"] = counts["colon.colon_power.kernel_dim"]
    non_monomial = counts["colon.goto_number.non_monomial"]
    out["colon.levels_per_ideal"] = calls["colon.colon_power"] / non_monomial if non_monomial else 0.0
    forms = counts["explorer.forms"]
    out["explorer.forms"] = forms
    out["explorer.goto_calls_per_form"] = tracer.goto_calls_under_search() / forms if forms else 0.0
    out["fields.q_ops"] = counts["fields.q_ops"]
    out["fields.fp_ops"] = counts["fields.fp_ops"]
    out["trace.spans"] = len(tracer.spans)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out


# -- main ---------------------------------------------------------------------------


def load_expected(workload, seed, passes):
    """Recorded value digests for the default seed, checked against the inputs."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads((HERE / "expected.json").read_text())[workload]
    argv = [checks.digest([list(op.argv) for op in ops]) for ops in passes]
    if recorded["argv"] != argv:
        raise BenchError("expected.json was recorded for other inputs; run record_expected.py")
    return recorded["values"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gotonum benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args):
    ref_start = reference_loop()
    gate = verify_paper()
    package, passes, imports, generations = setup(args.workload, args.seed)
    argv_digest = checks.digest([[list(op.argv) for op in ops] for ops in passes])
    expected = load_expected(args.workload, args.seed, passes)
    ledger = Ledger(checks.Checker(load_oracles()), expected)
    main = package.cli.main
    warmup = workloads.generate(args.workload, f"{args.seed}:warmup", 1)[0][:WARMUP_OPS]
    for op in warmup:
        run_op(main, op.argv)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv_digest": argv_digest,
        "ops_per_pass": len(passes[0]),
        "verify_paper": gate,
        "setup_import_s": imports,
        "setup_generate_s": generations,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        metrics, kept, reps = traced_run(package, passes[0], args.seconds, ledger)
        record["traced_reps"] = reps
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for span in kept:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        per_pass = measure(passes, args.seconds, ledger)
        rss = peak_rss_mb()
        level, total, p50, tail = pass_stats(per_pass)
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(generations),
            "pass_cpu_s": total,
            "op_p50_ms": p50,
            "op_tail_ms": tail,
            "peak_rss_mb": rss,
        }
        record["passes"] = len(per_pass)
        record["tail_percentile"] = level
        record["pass_cpu_s"] = [sum(cpus) for cpus, _ in per_pass]
        record["pass_wall_s"] = [sum(walls) for _, walls in per_pass]
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["failed_ops"] = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    record["digest_checked"] = ledger.digest_checked
    record["failures"] = ledger.failures
    record["reference_loop_s"] = [ref_start, reference_loop()]
    record["metrics"] = metrics
    return record


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    try:
        declared = declared_metrics(args.trace)
        record = bench(args)
        missing = sorted(set(declared) - set(record["metrics"]))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    metrics = {k: {"value": record["metrics"][k], "unit": unit} for k, unit in declared.items()}
    summary = {k: record[k] for k in ("workload", "seed", "argv_digest", "attempted", "failed",
                                        "failed_ops", "digest_checked", "reference_loop_s")}
    summary.update({k: record[k] for k in ("passes", "tail_percentile", "traced_reps") if k in record})
    print("# " + json.dumps(summary))
    for failure in record["failures"]:
        print("# failed op: " + json.dumps(failure))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
