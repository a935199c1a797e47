"""Benchmark for confdist: coverage-study throughput and CLI latency.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coverage_exact --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
  coverage_exact      run_scenario on the normal_exact shape (exact pivots)
  coverage_corrected  run_scenario on gamma_known_mu and gamma_regression
  interactive         confdist.cli.main over a pool of generated CSV files

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it installs per-layer spans and reports the per-layer split
and the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  The package is imported
from ``src/`` of the checkout; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import machine_slowness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
# Interpreter start-up speed drifts with the machine as much as the rest, and
# the reference task does not track it.  So each set-up probe is scaled by
# fresh interpreters that import only the package's heavy dependencies (as
# of the baseline commit) and nothing of the package; a fixed list, so no
# change to the package can move it.  NOMINAL is their median duration on
# the baseline machine (perfbench/BASELINE.md) and only sets the scale.
BASELINE_IMPORTS = "numpy, scipy.special, scipy.optimize, scipy.integrate"
BASELINE_NOMINAL_S = 0.8
# Share of --seconds spent traced in a --trace 1 run; the same requests are
# then replayed untraced to measure the tracing overhead.
TRACED_SHARE = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_confdist():
    if not (SRC / "confdist" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC.name}/confdist in {ROOT}")
    sys.path.insert(0, str(SRC))
    import confdist
    import confdist.cli  # noqa: F401  (the interactive workload's entry point)

    return confdist


def make_workload(name: str, seed: int, workdir: Path):
    confdist = load_confdist()
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](confdist, seed, workdir)


def warm_up(workload) -> None:
    """One untimed round; its failures and timings are not reported."""
    run_rounds(workload, requests=workload.round_size)
    workload.reset()


def run_rounds(workload, seconds: float | None = None, requests: int | None = None,
               tracer=None, calibrate: bool = False) -> dict:
    """Closed loop over whole rounds, for ``seconds`` or exactly ``requests``.

    With ``calibrate``, the reference task runs after each round (outside
    the request timings) and its slowness is kept per request and per round.
    """
    latencies, slowness, rates = [], [], []
    attempted = failed = 0
    k = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds) if requests is None else (k < requests):
        units = busy = 0.0
        for _ in range(workload.round_size):
            elapsed, done, lost = workload.request(k, tracer)
            k += 1
            latencies.append(elapsed)
            units += done
            busy += elapsed
            attempted += done
            failed += lost
        slow = machine_slowness() if calibrate else 1.0
        slowness += [slow] * workload.round_size
        rates.append((units / busy, slow))
    return {"latencies": latencies, "slowness": slowness, "rates": rates,
            "attempted": attempted, "failed": failed, "requests": k}


def scaled_busy(run: dict) -> float:
    """Request time of a calibrated run, as if at the reference speed."""
    return sum(t / slow for t, slow in zip(run["latencies"], run["slowness"]))


# The tail is read at the highest of these percentiles that leaves at least
# 10 requests beyond it.  A fixed ladder keeps the percentile the same across
# commits unless the request count changes several-fold.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The tail percentile and the nearest-rank latency there."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0), 100.0)
    return pct, ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)]


def _until_ready(command: list[str]) -> float:
    """Seconds from launching ``command`` to its first output line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Fresh interpreters, each timed from launch to its first request being ready.

    Each probe sits between two baseline interpreters that import only the
    package's heavy dependencies; returns (probe seconds, mean of the two
    baseline seconds) per probe.
    """
    probe = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"]
    baseline = [sys.executable, "-c", f"import {BASELINE_IMPORTS}; print('ready')"]
    before = _until_ready(baseline)
    samples = []
    for _ in range(SETUP_PROBES):
        seconds = _until_ready(probe)
        after = _until_ready(baseline)
        samples.append((seconds, 0.5 * (before + after)))
        before = after
    return samples


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe(args) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    make_workload(args.workload, args.seed, workdir)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def end_to_end(args, workload) -> tuple[dict, dict, dict]:
    warm_up(workload)
    run = run_rounds(workload, seconds=args.seconds, calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup(args.workload, args.seed)
    latencies = [t / slow for t, slow in zip(run["latencies"], run["slowness"])]
    pct, tail_value = tail(latencies)
    metrics = {
        "setup_s": BASELINE_NOMINAL_S * statistics.median(t / base for t, base in setup),
        "ops_per_s": statistics.median(rate * slow for rate, slow in run["rates"]),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_samples": len(setup),
        "rounds": len(run["rates"]),
        "requests": run["requests"],
        "tail_percentile": pct,
        "ops_per_s_unit": workload.op_unit,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "setup_baseline_s": statistics.median(base for _, base in setup),
            "ops_per_s": statistics.median(rate for rate, _ in run["rates"]),
            "latency_p50_ms": 1000.0 * statistics.median(run["latencies"]),
            "latency_tail_ms": 1000.0 * tail(run["latencies"])[1],
        },
        "slowness_median": statistics.median(run["slowness"]),
    }
    return run, metrics, {"notes": notes, "units": END_TO_END_UNITS}


def traced(args, workload) -> tuple[dict, dict, dict]:
    import tracing

    warm_up(workload)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        run = run_rounds(workload, seconds=TRACED_SHARE * args.seconds, tracer=tracer,
                         calibrate=True)
    finally:
        restore()
    kept = {name: getattr(workload, name).copy() for name in ("failures", "excluded")
            if hasattr(workload, name)}
    plain = run_rounds(workload, requests=run["requests"], calibrate=True)
    for name, counts in kept.items():
        setattr(workload, name, counts)
    traced_s, untraced_s = scaled_busy(run), scaled_busy(plain)
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s
    slowness = statistics.median(run["slowness"])
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, run["attempted"], slowness)
    metrics["trace.overhead_pct"] = overhead
    units = {name: tracing.layer_unit(name) for name in metrics}
    units["trace.overhead_pct"] = "%"
    errors = tracing.accounting_errors(tracer.spans)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{args.workload}-spans.json.gz"
    with gzip.open(span_file, "wt") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    notes = {
        "requests": run["requests"],
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "slowness_median": slowness,
        "counts": dict(tracer.counts),
        "missing_wrappers": tracer.missing,
    }
    return run, metrics, {"notes": notes, "units": units, "accounting_errors": errors}


def report(args, workload, run, metrics, extra) -> dict:
    errors, check_notes = workload.check()
    errors = extra.get("accounting_errors", []) + errors
    failed_share = run["failed"] / run["attempted"]
    notes = extra["notes"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{notes['requests']} requests")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {extra['units'][name]}")
    if not args.trace:
        rate = "reps_per_s" if workload.op_unit == "replication" else "calls_per_s"
        print(f"  ops_per_s is {rate}: median over {notes['rounds']} rounds")
        print(f"  latency_tail_ms is p{notes['tail_percentile']:g} of "
              f"{notes['requests']} requests; setup_s is the median of "
              f"{notes['setup_samples']} fresh interpreters, each scaled by the "
              f"baseline interpreters around it")
        print(f"  request timings are scaled to the reference task's nominal speed; "
              f"the machine ran at slowness {notes['slowness_median']:.3f}; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items()))
    else:
        print(f"  tracing overhead: {notes['traced_s']:.3f} s traced vs "
              f"{notes['untraced_s']:.3f} s untraced for the same requests, scaled "
              f"to the reference speed (slowness {notes['slowness_median']:.3f}); "
              f"{notes['spans']} spans in {notes['span_file']}")
    print(f"  failed_share {failed_share:.6f} ({run['failed']} of {run['attempted']} "
          f"{workload.op_unit}s)")
    for cause, count in sorted(workload.failures.items()):
        print(f"    {count:6d}  {cause}")
    if "excluded" in check_notes:
        excluded = sum(check_notes["excluded"].values())
        print(f"  excluded by run_scenario, not failed: {excluded} of {run['attempted']} "
              f"replications")
        for cause, count in sorted(check_notes["excluded"].items()):
            print(f"    {count:6d}  {cause}")
    for name, us in check_notes.get("us_per_replication", {}).items():
        print(f"  {name}: {us:.1f} us per replication")
    print("  checks: " + ("ok" if not errors else f"{len(errors)} FAILED"))
    for line in errors:
        print(f"    {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "failed_share": failed_share, "failures": dict(workload.failures),
        "check_errors": errors, **notes, **check_notes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": extra["units"][name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["coverage_exact", "coverage_corrected", "interactive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return probe(args)
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        measure = traced if args.trace else end_to_end
        run, metrics, extra = measure(args, workload)
        result = report(args, workload, run, metrics, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
