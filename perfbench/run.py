"""modata benchmark runner.

    python3 perfbench/run.py --workload check_products --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process, on one thread, by
calling ``modata.cli.main([...])`` with stdout captured, in passes over the
workload's ops until ``--seconds`` are used up (at least one pass).  Every
op's exit code and output are checked; an op that raises, exits with the
wrong code or prints a wrong answer counts as failed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end,
with op times in reference seconds (measured seconds corrected for the
host's speed drift, see speed.py):

* ``wall_s``       -- median over passes of the summed op time of one pass
* ``op_p50_ms``    -- median time of one op (one ``cli.main`` call)
* ``ops_per_s``    -- ops completed per second of op time
* ``setup_s``      -- median of five set-ups, each in a fresh interpreter:
                      import modata, load the catalog, write the inputs
* ``peak_rss_mib`` -- peak resident memory of this process

With ``--trace 1`` half the time runs plain passes and half runs passes with
tracer.py's spans installed; the metrics are the per-layer ones of the
traced passes (medians over passes, in measured seconds, which include the
speed sampler's ~3% share) plus ``bench.trace_overhead``, traced over plain
pass time in reference seconds.

The line before the last one holds the details: environment, pass and op
counts, ``op_p90_ms`` when at least ten samples lie beyond it, the measured
(uncorrected) pass time, the error rate, the first failures and, when
traced, the full rejection histogram by check_id.  A traced run also writes
its spans to ``perfbench/.work/``.
"""
from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="modata benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def environment(modata) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "modata": modata.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def timed_setup(workload: str, seed: int) -> dict:
    """One set-up in this fresh interpreter, and the probe time right after."""
    t0 = perf_counter()
    wl.make_ops(wl.load_program(), workload, seed)
    setup = perf_counter() - t0
    return {"setup_s": setup, "probe_s": speed.probe_s()}


def setup_times(workload: str, seed: int) -> list[float]:
    """Scaled set-up times of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(child["setup_s"] * speed.REFERENCE_S / child["probe_s"])
    return times


def run_op(cli, op: wl.Op) -> tuple[int | None, str, float, float, str | None]:
    """One timed cli.main call: (exit code, stdout, start, end, error)."""
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            error = f"{op.key}: exited through SystemExit({exc.code})"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{op.key}: raised {exc!r}"
        t1 = perf_counter()
    return code, out.getvalue(), t0, t1, error


class Passes:
    """Op timings, output sizes and failures of a sequence of passes.

    With a SpeedSampler, op times are in reference seconds (see speed.py);
    raw wall-clock pass times are kept beside them.
    """

    def __init__(self, sampler: speed.SpeedSampler | None = None):
        self.sampler = sampler
        self.walls: list[float] = []
        self.op_times: list[float] = []
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cli, ops, check, budget_s: float, on_pass=None) -> None:
        start = perf_counter()
        while True:
            gc.collect()
            pass_start = perf_counter()
            intervals: list[tuple[float, float]] = []
            out_bytes = 0
            for op in ops:
                code, stdout, t0, t1, error = run_op(cli, op)
                intervals.append((t0, t1))
                out_bytes += len(stdout.encode())
                self.attempted += 1
                reason = error or check(op, code, stdout)
                if reason:
                    self.failures.append(reason)
            raw = [t1 - t0 for t0, t1 in intervals]
            times = self.sampler.reference_times(intervals) if self.sampler else raw
            self.op_times.extend(times)
            self.walls.append(sum(times))
            self.raw_walls.append(sum(raw))
            if on_pass is not None:
                on_pass(out_bytes)
            now = perf_counter()
            if now - start + (now - pass_start) > budget_s:
                return


def percentile_with_tail(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(modata, ops, check, seconds: float, setups: list[float]):
    """(metrics, details, passes) of plain passes timed in reference seconds."""
    passes = Passes(speed.SpeedSampler())
    with passes.sampler:
        passes.run(modata.cli, ops, check, seconds)
    p90 = percentile_with_tail(passes.op_times, 90)
    metrics = {
        "wall_s": (statistics.median(passes.walls), "s"),
        "op_p50_ms": (statistics.median(passes.op_times) * 1e3, "ms"),
        "ops_per_s": (len(passes.op_times) / sum(passes.op_times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {"passes": len(passes.walls), "op_samples": len(passes.op_times),
               "op_p90_ms": None if p90 is None else p90 * 1e3,
               "measured_wall_s": statistics.median(passes.raw_walls)}
    return metrics, details, [passes]


def per_layer(modata, tracer: tr.Tracer, ops, check, seconds: float, trace_file):
    """(metrics, details, passes) of plain passes followed by traced ones.

    The tracer already holds the spans of this process's set-up.
    """
    catalog_first = next((end - start for name, start, end, _, _ in tracer.spans
                          if name == "oracle.catalog_models"), 0.0)
    setup_spans = tracer.spans[:]
    del tracer.spans[:]
    plain, traced = Passes(speed.SpeedSampler()), Passes(speed.SpeedSampler())
    with plain.sampler:
        plain.run(modata.cli, ops, check, seconds / 2)

    per_pass: list[dict] = []
    histogram: Counter = Counter()
    last_pass: list[list] = []

    def on_pass(out_bytes):
        per_pass.append(tr.layer_metrics(tracer.spans, out_bytes))
        histogram.update(tr.reject_histogram(tracer.spans))
        last_pass[:] = tracer.spans
        del tracer.spans[:]

    tracer.install()
    try:
        with traced.sampler:
            traced.run(modata.cli, ops, check, seconds / 2, on_pass)
    finally:
        tracer.uninstall()
    values = {name: statistics.median([p[name] for p in per_pass]) for name in per_pass[0]}
    values["oracle.catalog_models.busy_s"] = catalog_first
    values["bench.trace_overhead"] = (
        statistics.median(traced.walls) / statistics.median(plain.walls))
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    details = {"passes": len(plain.walls), "traced_passes": len(traced.walls),
               "reject_histogram_per_pass": {k: n / len(traced.walls)
                                             for k, n in sorted(histogram.items())}}
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "info"],
        "setup": setup_spans, "last_pass": last_pass,
        "metrics": {k: v for k, (v, _) in metrics.items()}}), encoding="utf-8")
    return metrics, details, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(json.dumps(timed_setup(args.workload, args.seed)))
        return 0
    try:
        modata = wl.load_program()
    except wl.ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    setups = setup_times(args.workload, args.seed)

    tracer = tr.Tracer(modata)
    if args.trace:
        tracer.install()  # the set-up's spans give oracle.catalog_models' first call
    ops = wl.make_ops(modata, args.workload, args.seed)
    tracer.uninstall()
    check = wl.Checker(modata, args.workload)

    if args.trace:
        trace_file = wl.WORK / f"trace_{args.workload}_seed{args.seed}.json"
        metrics, details, runs = per_layer(modata, tracer, ops, check, args.seconds, trace_file)
    else:
        metrics, details, runs = end_to_end(modata, ops, check, args.seconds, setups)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(modata), "ops_per_pass": len(ops), "setup_samples_s": setups,
        **details,
        "error_rate": len(failures) / attempted, "failures": failures[:MAX_FAILURES_SHOWN]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, read from BENCHMARK.json."""
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
