#!/usr/bin/env python3
"""Latency ledger of the Fig-2 flow (characterize -> profile -> decide).

Run from the repository root::

    python3 perfbench/run.py --workload cli-tune-grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Every untraced run (``--trace 0``) measures all four user paths -- a
``repro tune`` process, an in-process ``Framework.tune``, a served
request and a stream decision -- so each workload reports every
end-to-end metric.  The paths run interleaved in rounds of small
slices until ``--seconds`` have passed; the workload names two *focus*
paths, which run two slices in every round.  A traced run
(``--trace 1``) runs each path's minimal rounds twice, untraced and
then with every layer entry point wrapped, path by path with the same
slices, and reports per-layer self times, counts and ratios plus the
tracing overhead, per path and combined.
The last stdout line is the JSON result; ``README.md`` next to this
file documents the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> focus paths.  Users wait on one tune (a ``repro tune``
#: process or an in-process ``Framework.tune``) or on a long-running
#: service (the tuning server or a stream re-tuner).
WORKLOADS = {
    "cli-tune-grid": ("cli", "tune"),
    "serve-stream": ("serve", "stream"),
}
#: Fixture builds per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Metrics printed as context but not gated (absent from BENCHMARK.json):
#: name -> (unit, better).  The open-loop serve tail reads the few
#: requests that meet two batches running at once on two vCPUs; at the
#: 100-200 samples a run affords, its run-to-run spread on a shared host
#: exceeds any bound the benchmark may set.
CONTEXT_METRICS = {"serve_tail_s": ("s", "lower")}


def import_program() -> float:
    """Import every program module the run drives; returns seconds."""
    start = time.perf_counter()
    import repro.analysis.validation  # noqa: F401
    import repro.model.framework  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.stream.engine  # noqa: F401
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


#: Highest percentile a tail reports.  The gated figure stays the same
#: statistic in runs whose sample counts differ, and stays below the
#: rare long stalls (full garbage collections, host hiccups) whose count
#: per run is what a higher order statistic would read.
TAIL_PERCENTILE = 90


def tail(values):
    """(value, percentile label): the highest percentile up to
    ``TAIL_PERCENTILE`` that has at least ten samples beyond it
    (nearest rank), and never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), "p50 (fewer than 21 samples)"
    index = min(n - 11, math.ceil(TAIL_PERCENTILE * n / 100) - 1)
    return ordered[index], (f"p{100 * (index + 1) / n:.0f} "
                            f"({n - 1 - index} samples beyond)")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(led, setup_s: float, samples):
    """``metric -> (value, samples, note)`` for every end-to-end metric,
    from the latency ``samples`` given (as measured, or host-adjusted)."""
    s, c = samples, led.counts
    out = {"setup_s": (setup_s, SETUP_REPEATS, "imports + median fixtures"),
           "peak_rss_mb": (peak_rss_mb(), 1, "this process and children")}

    def timing(prefix, key):
        values = s[key]
        if not values:
            out[f"{prefix}_p50_s"] = (0.0, 0, "no samples")
            out[f"{prefix}_tail_s"] = (0.0, 0, "no samples")
            return
        out[f"{prefix}_p50_s"] = (statistics.median(values), len(values), "")
        value, label = tail(values)
        out[f"{prefix}_tail_s"] = (value, len(values), label)

    def median(name, key, note):
        values = s[key]
        out[name] = (statistics.median(values) if values else 0.0,
                     len(values), note)

    def rate(name, num, den_key, note):
        den = sum(s[den_key])
        out[name] = (c[num] / den if den else 0.0, len(s[den_key]), note)

    timing("cli_tune", "cli_tune")
    median("tune_cold_s", "tune_cold", "median first tune, empty store")
    median("tune_cold_sim_s", "tune_cold_sim", "simulated backend")
    timing("tune_warm", "tune_warm")
    out["paper_rows_reproduced"] = (
        c["paper_rows_reproduced"], 1,
        f"of {led.info.get('paper_rows', '?')} rows")
    timing("serve", "serve_light")
    out["serve_p50_s"] = out["serve_p50_s"][:2] + (
        "open loop, from due time",)
    closed_s = sum(s["serve_closed_window"])
    out["serve_capacity_rps"] = (
        c["serve_closed_ok"] / closed_s if closed_s else 0.0,
        len(s["serve_closed"]), "closed loop ok answers/s")
    rate("stream_decisions_per_s", "stream_decisions", "stream_run",
         "counter-stream decisions")
    rate("stream_trace_events_per_s", "trace_events", "stream_trace",
         "CSV trace events")
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(rows, header) -> None:
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_answers(led, fx) -> None:
    from fixtures import fingerprint

    print("fingerprints (decisions, characterizations to 9 digits, "
          "profile counters):")
    print(f"  fixtures  {fingerprint(fx.digest())}")
    for path, entries in sorted(led.answers.items()):
        print(f"  {path:<9} {fingerprint(entries)}")
    print(f"operations: attempted {led.attempted}, failed {led.failed}")
    for failure in led.failures:
        print(f"  FAILED {failure}")


def result_line(led, metrics, complete: bool) -> str:
    """The contract's last stdout line."""
    return json.dumps({
        "correct": led.failed == 0 and complete,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def run_untraced(workload, fx, seconds: float, setup_s: float,
                 setup_adjusted: float):
    from hostspeed import HostClock
    from paths import PATHS, Ledger, run_rounds

    led = Ledger(fx)
    paths = {name: cls(led) for name, cls in PATHS.items()}
    clock = HostClock()
    rounds = run_rounds(paths, WORKLOADS[workload], seconds, clock=clock)
    print(f"{rounds} rounds over every path, focus on "
          f"{' and '.join(WORKLOADS[workload])}")
    print(clock.describe("rounds"))

    metrics = end_to_end(led, setup_s, led.samples)
    adjusted = end_to_end(led, setup_adjusted, led.host_adjusted())
    spec = {m["name"]: (m["unit"], m["better"])
            for m in declared()["end_to_end"]}
    rows = []
    for name, (value, n, note) in metrics.items():
        if name not in spec:
            note = f"{note}; context, not gated".lstrip("; ")
        unit, better = spec.get(name) or CONTEXT_METRICS[name]
        rows.append((name, fmt(adjusted[name][0]), fmt(value), unit, better,
                     n, note))
    print("value: as on the reference host (each slice's host times "
          "divided by its host factor); host: as measured")
    print_table(rows, ("metric", "value", "host", "unit", "better",
                       "samples", "note"))
    late = led.samples["serve_late"]
    if late:
        median_ms = statistics.median(late) * 1e3
        print(f"serve generator lateness: median {median_ms:.2f} ms, max "
              f"{max(late) * 1e3:.2f} ms over {len(late)} arrivals")
    print_answers(led, fx)
    complete = all(n for _, n, _ in metrics.values())
    return led, {name: (adjusted[name][0], spec[name][0])
                 for name in metrics if name in spec}, complete


def trace_path(path, focus, fx, spans_path):
    """Trace one path's minimal rounds (two slices a round for a focus
    path, one otherwise); prints and returns its layer metrics and its
    ledger (both passes)."""
    import layers
    from paths import PATHS, CliPath, Ledger, measure_cli_import, run_rounds
    from spans import Tracer

    def make(led):
        if path == "cli":
            return {path: CliPath(led, in_process=True)}
        return {path: PATHS[path](led)}

    plain = Ledger(fx)
    run_rounds(make(plain), focus, 0.0)
    tracer = Tracer()
    traced = Ledger(fx)
    traced.span_count = lambda: len(tracer.spans)
    layers.install(tracer)
    try:
        run_rounds(make(traced), focus, 0.0)
    finally:
        tracer.uninstall()
    import_s = measure_cli_import(fx) if path == "cli" else 0.0

    values = layers.layer_metrics(tracer, traced.serve_answers, import_s)
    print(f"-- path {path} ({'focus' if path in focus else 'context'}) --")
    print_table([(name, fmt(value), layers.unit_of(name), n)
                 for name, (value, n) in values.items()],
                ("layer metric", "value", "unit", "calls/samples"))
    selfs = tracer.self_times()
    context = [(name, fmt(s), "s", calls) for name, (calls, s)
               in sorted(selfs.items())
               if name in ("framework.tune", "stream.run",
                           "microbench.suite")]
    if context:
        print("orchestration self time (not a layer metric):")
        print_table(context, ("span", "self", "unit", "calls"))
    if traced.phases:
        bounds = traced.phases + [("end", len(tracer.spans))]
        runs = {}
        for (phase, lo), (_, hi) in zip(bounds, bounds[1:]):
            runs[phase] = runs.get(phase, 0) + sum(
                1 for span in tracer.spans[lo:hi]
                if span[1] == "microbench.suite")
        print("microbench.suite_runs by phase: " + ", ".join(
            f"{phase}={count}" for phase, count in runs.items()))
    base, with_spans = plain.busy_s(path), traced.busy_s(path)
    share = (with_spans / base - 1) * 100 if base else 0.0
    print(f"tracing overhead: {with_spans - base:+.4f} s on {base:.4f} s "
          f"of operation latency ({share:+.1f}%), {len(tracer.spans)} spans")
    tracer.write_jsonl(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures = plain.failures + traced.failures
    traced.answers.update(plain.answers)
    return values, traced


def run_traced(workload, fx, out_dir, seed):
    import layers
    from paths import PATHS

    parts, ledgers = [], []
    for path in PATHS:
        values, led = trace_path(
            path, WORKLOADS[workload], fx,
            out_dir / f"spans-{workload}-{path}-seed{seed}.jsonl")
        parts.append(values)
        ledgers.append(led)
    led = ledgers[0]
    for other in ledgers[1:]:
        led.attempted += other.attempted
        led.failed += other.failed
        led.failures += other.failures
        led.answers.update(other.answers)
    values = layers.combine(parts)
    print("-- combined (the JSON metrics) --")
    print_table([(name, fmt(value), layers.unit_of(name), n)
                 for name, (value, n) in values.items()],
                ("layer metric", "value", "unit", "calls/samples"))
    print_answers(led, fx)
    return led, {name: (v, layers.unit_of(name))
                 for name, (v, _) in values.items()}, True


def run_all(args) -> int:
    """Every workload in its own interpreter; prints each one's report."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(f"{workload}: attempted {result['attempted']}, failed "
              f"{result['failed']}\n")
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from fixtures import build_fixtures, fill_span_buffer, make_plan
    from hostspeed import HostClock

    mode = "traced" if args.trace else "untraced"
    print(f"== latency ledger: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode} ==")
    # Host-speed calibrations before, between and after the set-up steps;
    # set-up lasts a few seconds, about the rounds' window for one factor.
    clock = HostClock()
    clock.calibrate()
    import_s = import_program()
    clock.calibrate()

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        plan = make_plan(args.seed)
        builds = []
        for i in range(SETUP_REPEATS):
            fx = None
            gc.collect()
            t0 = time.perf_counter()
            fx = build_fixtures(ROOT, workdir / f"setup-{i}", plan)
            builds.append(time.perf_counter() - t0)
            clock.calibrate()
        setup_s = import_s + statistics.median(builds)
        print(f"setup: imports {import_s:.3f} s + fixtures median "
              f"{statistics.median(builds):.3f} s of "
              f"[{', '.join(f'{b:.3f}' for b in builds)}]")
        print(clock.describe("set-up"))
        t0 = time.perf_counter()
        added = fill_span_buffer()
        print(f"program span buffer brought to its cap: {added} spans "
              f"replayed in {time.perf_counter() - t0:.3f} s (not in "
              f"setup_s)")
        if args.trace:
            led, metrics, complete = run_traced(args.workload, fx, out_dir,
                                                args.seed)
        else:
            led, metrics, complete = run_untraced(
                args.workload, fx, args.seconds, setup_s,
                setup_s / clock.factor())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(led, metrics, complete))
    return 0


if __name__ == "__main__":
    sys.exit(main())
