"""Command-line interface.

``python -m repro <command>`` drives the framework without writing
code:

- ``boards`` — list available board presets;
- ``characterize <board>`` — run the micro-benchmark suite and print
  the device characterization (Table-I row, thresholds, max speedups);
  results persist in the on-disk characterization cache
  (``--no-cache`` / ``--cache-dir DIR`` to opt out or relocate);
- ``cache info|clear [--dir DIR]`` — inspect or invalidate the
  persistent characterization store (per-shard entry/byte/hit-rate
  stats and the LRU byte budget);
- ``serve requests.json`` — answer a one-shot stream of tune requests
  through the coalescing multi-tenant server (see :mod:`repro.serve`);
- ``stream [app] [board] [--window N] [--hysteresis N]
  [--chunk-size N]`` — online re-tuning over a streaming trace or
  synthetic counter stream: incremental windowed metrics, drift
  detection, hysteresis-gated flips and optional ``--contend APP``
  multi-app contention (see :mod:`repro.stream` and
  ``docs/streaming.md``);
- ``bench [--apps ...] [--boards ...] [--jobs N]`` — run the app ×
  board benchmark grid in parallel and print (or ``--output`` as JSON)
  the tuned recommendation and measured per-model times per cell;
- ``explore [--base BOARD] [--axis NAME=V1,V2,...]`` — sweep a
  synthetic board space and print each grid board's thresholds and
  ``--app`` recommendation (see :mod:`repro.explore`);
- ``tune <app> <board> [--model SC]`` — run the Fig-2 flow on one of
  the bundled case studies (``shwfs`` or ``orbslam``); ``--trace FILE``
  writes the run's spans as a Chrome/Perfetto trace and
  ``--report FILE`` the full :class:`~repro.obs.report.TuneReport`
  JSON;
- ``obs summary [artifact]`` — aggregate a trace artifact (Chrome or
  JSONL) — or the current process's live buffers — into a plain-text
  span/metric summary;
- ``compare <app> <board>`` — execute the application under all three
  communication models and print the measured times;
- ``sweep <app> <board>`` — what-if sensitivity sweep of the ZC path
  bandwidth (see :mod:`repro.model.whatif`);
- ``inject <app> <board> [--seed N] [--fault SPEC]...`` — run the
  Fig-2 flow under deterministic fault injection and report what fired
  and how the decision flow coped (see :mod:`repro.robustness`);
- ``validate <board> [--app APP] [--backend NAME]`` — run the runtime
  invariant guard suite over every communication model (exit 3 on
  violations);
- ``crosscheck [--boards ...] [--apps ...] [--tolerance F]`` — run the
  analytic and event-driven timing backends over the paper grid and
  compare decisions (must agree exactly; exit 6 otherwise) and timings
  (reported against the tolerance; see :mod:`repro.sim.crosscheck`);
- ``chaos [--schedules N] [--seed S]`` — run seeded chaos schedules
  (fault plans × strict/deadline/retry/breaker configurations) over
  full ``tune_many`` runs and assert every failure is accounted for
  (exit 5 on violations, see :mod:`repro.resilience.chaos`);
- ``report [results_dir]`` — aggregate archived benchmark artefacts
  into one ``REPORT.md`` (see :mod:`repro.analysis.export`).

Commands return the text to print, or a ``(text, exit_code)`` pair
when a non-zero exit must not go through the error path (``validate``
reporting violations).  Structured failures print as
``error[CODE]: message`` on stderr with exit code 2.

The global ``--obs-off`` flag (before the subcommand) disables the
:mod:`repro.obs` instrumentation for the invocation; ``REPRO_OBS=0``
does the same for a whole environment.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis.tables import Table, paper_speedup_pct
from repro.apps import APPS, build_workload
from repro.errors import ReproError
from repro.model.framework import Framework
from repro.soc.board import available_boards, get_board
from repro.units import to_gbps, to_us


def cmd_boards(args: argparse.Namespace) -> str:
    """List board presets."""
    table = Table("Available boards", ["name", "display name", "I/O coherent"])
    for name in available_boards():
        board = get_board(name)
        table.add_row(name, board.display_name,
                      "yes" if board.io_coherent else "no")
    return table.render()


def _cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    """The store directory the CLI's cache flags select (default: the
    default store); None under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.perf.cache import default_cache_dir

    return str(getattr(args, "cache_dir", None) or default_cache_dir())


def _framework_from_args(args: argparse.Namespace) -> Framework:
    """A framework honouring the CLI's cache flags and the
    ``--backend`` selection."""
    return Framework(cache_dir=_cache_dir_from_args(args),
                     backend=getattr(args, "backend", None))


def cmd_characterize(args: argparse.Namespace) -> str:
    """Characterize one board with the micro-benchmark suite."""
    board = get_board(args.board)
    device = _framework_from_args(args).characterize(board)
    table = Table(f"Device characterization — {board.display_name}",
                  ["quantity", "value"])
    for model in ("ZC", "SC", "UM"):
        table.add_row(f"GPU LL-L1 peak throughput [{model}] (GB/s)",
                      to_gbps(device.gpu_cache_throughput[model]))
    table.add_row("GPU cache threshold (%)", device.gpu_threshold_pct)
    table.add_row("GPU zone-2 bound (%)", device.gpu_zone2_pct)
    table.add_row("CPU cache threshold (%)", device.cpu_threshold_pct)
    table.add_row("SC->ZC max speedup", device.sc_zc_max_speedup)
    table.add_row("ZC->SC max speedup", device.zc_sc_max_speedup)
    return table.render()


def cmd_tune(args: argparse.Namespace) -> str:
    """Run the decision flow for a bundled application."""
    import contextlib

    board = get_board(args.board)
    framework = _framework_from_args(args)
    with contextlib.ExitStack() as stack:
        if getattr(args, "deadline_s", None):
            from repro.resilience.deadline import Deadline, deadline_scope

            stack.enter_context(deadline_scope(Deadline.after(args.deadline_s)))
        report = framework.tune(build_workload(args.app, board_name=board.name),
                                board, current_model=args.model)
    rec = report.recommendation
    table = Table(
        f"Tuning {args.app} on {board.display_name} (currently {args.model})",
        ["quantity", "value"],
    )
    table.add_row("CPU cache usage (%)", report.cpu_cache_usage_pct)
    table.add_row("CPU cache threshold (%)", rec.cpu_threshold_pct)
    table.add_row("GPU cache usage (%)", report.gpu_cache_usage_pct)
    table.add_row("GPU cache threshold (%)", rec.gpu_threshold_pct)
    table.add_row("zone", int(rec.zone))
    table.add_row("kernel time (us)", to_us(report.kernel_time_s))
    table.add_row("copy time (us)", to_us(report.copy_time_s))
    table.add_row("recommendation", rec.model.value)
    if rec.estimated_speedup_pct is not None:
        table.add_row("estimated speedup (%)", rec.estimated_speedup_pct)
    text = table.render() + f"\n\nreason: {rec.reason}"
    text += _write_tune_artifacts(args, report)
    return text


def _write_tune_artifacts(args: argparse.Namespace, report) -> str:
    """Write ``tune --trace`` / ``--report`` artifacts; footer lines."""
    import pathlib

    footer = ""
    if getattr(args, "trace", None):
        from repro.obs import export

        export.write_chrome_trace(args.trace)
        footer += f"\ntrace written to {args.trace}"
    if getattr(args, "report", None):
        from repro.obs.report import TuneReport

        pathlib.Path(args.report).write_text(
            TuneReport.from_tuning(report).to_json())
        footer += f"\nreport written to {args.report}"
    return footer


def cmd_obs(args: argparse.Namespace) -> str:
    """Summarize a trace artifact (or the live buffers)."""
    from repro.obs import export

    if args.artifact:
        spans, snapshot = export.load_artifact(args.artifact)
        return (f"artifact: {args.artifact}\n"
                + export.summary(spans, snapshot))
    return export.summary()


def cmd_compare(args: argparse.Namespace) -> str:
    """Execute an application under SC, UM and ZC."""
    board = get_board(args.board)
    workload = build_workload(args.app, board_name=board.name)
    results = Framework(
        backend=getattr(args, "backend", None)
    ).compare_models(workload, board)
    table = Table(
        f"{args.app} on {board.display_name} — measured per iteration (us)",
        ["model", "total", "CPU", "kernel", "copy", "vs SC (%)"],
    )
    sc = results["SC"]
    for model in ("SC", "UM", "ZC"):
        report = results[model]
        table.add_row(
            model,
            to_us(report.time_per_iteration_s),
            to_us(report.cpu_time_s),
            to_us(report.kernel_time_s),
            to_us(report.copy_time_s),
            paper_speedup_pct(sc.time_per_iteration_s,
                              report.time_per_iteration_s),
        )
    return table.render()


def cmd_sweep(args: argparse.Namespace) -> str:
    """ZC-path sensitivity sweep (what-if analysis)."""
    from repro.model.whatif import zc_bandwidth_sweep

    board = get_board(args.board)
    result = zc_bandwidth_sweep(
        build_workload(args.app, board_name=board.name), board,
        factors=tuple(args.factors),
    )
    table = Table(
        f"What-if — ZC path bandwidth scaling on {board.display_name}",
        ["factor", "ZC GB/s", "ZC vs SC (%)", "winner"],
    )
    for point in result.points:
        table.add_row(point.factor, to_gbps(point.gpu_zc_bandwidth),
                      point.zc_vs_sc_pct, point.winner)
    crossover = result.crossover_factor
    footer = (f"\nZC starts winning at ~{crossover:.2f}x the current path"
              if crossover is not None else
              "\nno crossover inside the swept range")
    return table.render() + footer


def cmd_inject(args: argparse.Namespace) -> str:
    """Run the decision flow under deterministic fault injection."""
    from repro.robustness import FaultPlan, inject_faults

    board = get_board(args.board)
    if args.fault:
        plan = FaultPlan.from_cli(args.seed, args.fault)
    else:
        plan = FaultPlan.standard(args.seed)

    with inject_faults(plan) as injector:
        report = Framework().tune(
            build_workload(args.app, board_name=board.name), board,
            current_model=args.model, strict=args.strict,
        )
    rec = report.recommendation

    lines = [
        f"Fault injection — {args.app} on {board.display_name} "
        f"(currently {args.model})",
        plan.describe(),
        injector.log.render(),
        "",
        f"recommendation: {rec.model.value}",
        f"confidence: {rec.confidence.value}",
        f"reason: {rec.reason}",
    ]
    for caveat in rec.caveats:
        lines.append(f"caveat: {caveat}")
    if not rec.degraded:
        lines.append("decision flow completed at full confidence")
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace):
    """Run the invariant guard suite over one board."""
    from repro.robustness import FaultPlan, inject_faults, validate

    board = get_board(args.board)
    workload = build_workload(args.app, board_name=board.name)

    backend = getattr(args, "backend", None)
    if args.fault:
        plan = FaultPlan.from_cli(args.seed, args.fault)
        with inject_faults(plan) as injector:
            report = validate(board, workload, backend=backend)
        text = (f"{plan.describe()}\n{injector.log.render()}\n"
                f"{report.render()}")
    else:
        report = validate(board, workload, backend=backend)
        text = report.render()
    return text, (0 if report.passed else 3)


def cmd_chaos(args: argparse.Namespace):
    """Run the seeded chaos soak (exit 5 on violations)."""
    from repro.resilience.chaos import run_chaos

    report = run_chaos(
        schedules=args.schedules,
        seed=args.seed,
        apps=args.apps,
        boards=args.boards,
        deadline_s=args.deadline_s,
        validate_guards=not args.no_validate,
    )
    if args.json:
        import json
        import pathlib

        pathlib.Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    text = report.render()
    if args.json:
        text += f"\nreport written to {args.json}"
    return text, (0 if report.passed else 5)


def cmd_crosscheck(args: argparse.Namespace):
    """Cross-check the timing backends (exit 6 on disagreement)."""
    from repro.sim.config import SimConfig
    from repro.sim.crosscheck import run_crosscheck

    report = run_crosscheck(
        boards=tuple(args.boards),
        apps=tuple(args.apps),
        tolerance=args.tolerance,
        sim_config=SimConfig(seed=args.seed),
    )
    text = report.render()
    if args.json:
        import json
        import pathlib

        pathlib.Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        text += f"\nreport written to {args.json}"
    return text, (0 if report.passed else 6)


def cmd_cache(args: argparse.Namespace) -> str:
    """Inspect or clear the persistent store of characterizations and
    profiles."""
    from repro.perf.cache import ShardedCharacterizationStore

    store = ShardedCharacterizationStore(args.dir)
    if args.action == "clear":
        removed = store.clear()
        return (f"removed {removed} cached characterization(s) and "
                f"profile(s) from {store.directory}")
    if getattr(args, "json", False):
        import json

        return json.dumps(store.stats_payload(), indent=2, sort_keys=True)
    payload = store.stats_payload()
    entries = payload["entries"]
    corrupt = [entry for entry in entries if entry["status"] == "corrupt"]
    kinds = payload["kinds"]
    lines = [f"store at {store.directory}: "
             f"{len(entries)} entry(ies), {len(corrupt)} corrupt — "
             f"{kinds['characterization']} characterization(s), "
             f"{kinds['profile']} profile(s)"]
    for entry in entries:
        lines.append(f"  {entry['name']} ({entry['bytes']} bytes) "
                     f"[{entry['status']}: {entry['reason']}]")
    if corrupt:
        lines.append("corrupt entries are treated as misses; "
                     "`repro cache clear` removes them")
    quarantined = store.quarantined()
    if quarantined:
        lines.append(f"{len(quarantined)} quarantined corrupt "
                     f"entry(ies) (moved aside on load):")
        for path in quarantined:
            lines.append(f"  {path.name} ({path.stat().st_size} bytes) "
                         f"[quarantined]")
    lines.append(
        f"{store.num_shards} shards, LRU byte budget {store.max_bytes} "
        f"({store.shard_budget} bytes/shard)")
    for stat in store.shard_stats():
        if not (stat.entries or stat.quarantined or stat.hits
                or stat.misses):
            continue
        traffic = (f"hit rate {stat.hit_rate:.2f} "
                   f"({stat.hits}/{stat.hits + stat.misses}) since "
                   f"process start" if stat.hit_rate is not None
                   else "no traffic this process")
        lines.append(f"  {stat.name}: {stat.entries} entry(ies), "
                     f"{stat.bytes} bytes, {stat.quarantined} "
                     f"quarantined, {traffic}")
    return "\n".join(lines)


def cmd_serve(args: argparse.Namespace) -> str:
    """Drive the coalescing tune server over a one-shot requests file."""
    import json
    import pathlib

    if not args.requests_file:
        raise ReproError(
            "serve needs a requests file (the CLI has no long-running "
            "listener; `repro serve requests.json` answers a one-shot "
            "stream)",
            code="SERVE_BAD_REQUEST",
        )
    from repro.serve.coalescer import TuneRequest
    from repro.serve.server import serve_all

    raw = json.loads(pathlib.Path(args.requests_file).read_text())
    if not isinstance(raw, list):
        raise ReproError(
            f"{args.requests_file} must hold a JSON array of request "
            "objects", code="SERVE_BAD_REQUEST",
        )
    allowed = {"board", "app", "current_model", "strict", "deadline_s",
               "tenant", "profile"}
    requests = []
    for index, row in enumerate(raw):
        if not isinstance(row, dict) or not allowed.issuperset(row):
            unknown = sorted(set(row) - allowed) if isinstance(row, dict) \
                else [type(row).__name__]
            raise ReproError(
                f"request #{index} has unsupported fields: "
                + ", ".join(str(k) for k in unknown),
                code="SERVE_BAD_REQUEST",
            )
        if row.get("profile") is not None:
            from repro.profiling.counters import AppProfile

            row = dict(row)
            try:
                row["profile"] = AppProfile(**row["profile"])
            except TypeError as exc:
                raise ReproError(
                    f"request #{index} has a malformed profile object: "
                    f"{exc}",
                    code="SERVE_BAD_REQUEST",
                )
        requests.append(TuneRequest(**row))
    config = _serve_config(args, len(requests))
    answers = serve_all(requests, framework=_framework_from_args(args),
                        config=config)
    table = Table(
        f"Served {len(answers)} request(s) "
        f"(max batch {config.max_batch})",
        ["tenant", "app/workload", "board", "status", "recommend",
         "batch", "shared"],
    )
    for answer in answers:
        request = answer.request
        recommendation = (answer.report.recommendation.model.value
                          if answer.report is not None else "-")
        table.add_row(request.tenant or "-", request.workload_name,
                      request.board, answer.status, recommendation,
                      answer.batch_size, answer.coalesced_with)
    shed = sum(1 for answer in answers if answer.shed)
    errors = sum(1 for answer in answers if answer.status == "error")
    return table.render() + f"\nshed: {shed}, errors: {errors}"


def _serve_config(args: argparse.Namespace, requests: int):
    """A :class:`ServeConfig` from the CLI flags (validated)."""
    from repro.serve.server import ServeConfig

    max_pending = args.max_pending
    if max_pending is None:
        max_pending = max(ServeConfig().max_pending, requests)
    return ServeConfig(max_batch=args.max_batch,
                       max_pending=max_pending).validated()


def cmd_stream(args: argparse.Namespace) -> str:
    """Online re-tuning over a streaming trace or counter stream."""
    import json
    import pathlib

    from repro.errors import StreamError
    from repro.stream import (
        CounterWindowSource,
        MultiAppStreamTuner,
        StreamConfig,
        StreamTuner,
        TraceWindowSource,
    )

    config = StreamConfig(window=args.window, stride=args.stride,
                          hysteresis=args.hysteresis,
                          chunk_size=args.chunk_size).validated()
    board = get_board(args.board)
    framework = _framework_from_args(args)
    device = framework.characterize(board)

    def counter_source(app: str) -> CounterWindowSource:
        profile = framework.profile(build_workload(app), board,
                                    model=args.model)
        return CounterWindowSource.from_profile(profile,
                                                samples=args.samples)

    if args.trace:
        if args.contend or args.drift_to:
            raise StreamError(
                "--trace streams one recorded application; --contend "
                "and --drift-to drive synthetic counter streams",
                code="STREAM_BAD_APPSET",
            )
        if not pathlib.Path(args.trace).is_file():
            raise StreamError(
                f"trace file not found: {args.trace}",
                code="STREAM_BAD_TRACE",
                details={"path": str(args.trace)},
            )
        source = TraceWindowSource.from_csv(
            args.trace, chunk_size=args.chunk_size,
            workload_name=pathlib.Path(args.trace).stem,
            board_name=args.board, initial_model=args.model)
    elif args.drift_to:
        before = framework.profile(build_workload(args.app), board,
                                   model=args.model)
        after = framework.profile(build_workload(args.drift_to), board,
                                  model=args.model)
        source = CounterWindowSource.drifting(before, after,
                                              samples=args.samples)
    else:
        source = counter_source(args.app)

    if args.contend:
        sources = [source] + [counter_source(app) for app in args.contend]
        result = MultiAppStreamTuner(framework, sources, device,
                                     config).run()
        text = _render_multi_stream(result, board, config)
    else:
        result = StreamTuner(framework, source, device, config).run()
        text = _render_stream(result, board, config)
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        text += f"\nrun summary written to {args.json}"
    return text


def _render_stream(result, board, config) -> str:
    """Text summary of one single-app streaming run."""
    table = Table(
        f"Streamed {result.workload_name} on {board.display_name} "
        f"(window {config.window}, stride {config.stride}, "
        f"hysteresis {config.hysteresis})",
        ["quantity", "value"],
    )
    table.add_row("events", result.events)
    table.add_row("windows", result.windows)
    table.add_row("decisions", result.decisions)
    table.add_row("drift windows", result.drift_windows)
    table.add_row("decisions/sec", round(result.decisions_per_sec, 1))
    table.add_row("model", f"{result.initial_model} -> "
                           f"{result.final_model}")
    lines = [table.render()]
    lines.extend(_flip_lines(result.flips))
    return "\n".join(lines)


def _render_multi_stream(result, board, config) -> str:
    """Text summary of a lockstep multi-app contention run."""
    table = Table(
        f"Streamed {len(result.apps)} contending apps on "
        f"{board.display_name} (window {config.window}, "
        f"hysteresis {config.hysteresis})",
        ["app", "model", "decisions", "flips", "eff. GPU thr. (%)"],
    )
    for app in result.apps:
        table.add_row(app.workload_name,
                      f"{app.initial_model} -> {app.final_model}",
                      app.decisions, len(app.flips),
                      round(app.effective_gpu_threshold_pct, 2))
    lines = [table.render(),
             f"{result.windows} aligned window(s), fixed point "
             f"{'converged' if result.converged else 'cycled'} "
             f"(max {result.max_fixed_point_iterations} iteration(s)), "
             f"{round(result.decisions_per_sec, 1)} decisions/sec"]
    for app in result.apps:
        lines.extend(_flip_lines(app.flips, prefix=f"{app.workload_name}: "))
    return "\n".join(lines)


def _flip_lines(flips, prefix: str = "") -> List[str]:
    """One explainable line per committed flip."""
    if not flips:
        return [f"{prefix}no flips (model held for the whole stream)"]
    lines = []
    for flip in flips:
        d = flip.to_dict()
        drift = "drift" if d["drift"] else "no drift"
        lines.append(
            f"{prefix}flip @ emission {d['emission']}: {d['from']} -> "
            f"{d['to']} [{drift}] — {d['reason']}")
    return lines


def cmd_bench(args: argparse.Namespace):
    """Run the app × board benchmark grid in parallel."""
    import json

    from repro.perf.grid import run_grid

    results = run_grid(
        apps=args.apps,
        boards=args.boards,
        jobs=args.jobs,
        current_model=args.model,
        cache_dir=_cache_dir_from_args(args),
        parallel=args.jobs != 1,
    )
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
    table = Table(
        f"Benchmark grid ({len(results)} cells, currently {args.model})",
        ["app", "board", "recommend", "best measured",
         "SC (us)", "UM (us)", "ZC (us)"],
    )
    for cell in results:
        times = cell["time_per_iteration_s"]
        table.add_row(
            cell["app"], cell["board"], cell["recommendation"],
            cell["best_measured_model"],
            to_us(times["SC"]), to_us(times["UM"]), to_us(times["ZC"]),
        )
    footer = f"\nresults written to {args.output}" if args.output else ""
    return table.render() + footer


def _parse_axis_specs(specs):
    """``NAME=V1,V2,...`` CLI specs into :class:`Axis` objects; any spec
    that is not a valid axis fails as ``EXPLORE_BAD_AXIS``."""
    from repro.explore import Axis

    axes = []
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise ReproError(
                f"--axis expects NAME=V1,V2,... got {spec!r}",
                code="EXPLORE_BAD_AXIS", details={"spec": spec},
            )
        try:
            parsed = tuple(float(v) for v in values.split(","))
        except ValueError:
            raise ReproError(
                f"--axis values must be numbers, got {spec!r}",
                code="EXPLORE_BAD_AXIS", details={"spec": spec},
            )
        try:
            axes.append(Axis(name.strip(), parsed))
        except ReproError as error:
            raise ReproError(error.message, code="EXPLORE_BAD_AXIS",
                             details={"spec": spec})
    return tuple(axes)


def cmd_explore(args: argparse.Namespace) -> str:
    """Sweep a board design space and show, per grid board, the
    detected thresholds and the ``--app`` recommendation."""
    from repro.explore import BoardSpace, sweep_space

    axes = _parse_axis_specs(args.axis) if args.axis else None
    space = BoardSpace(args.base, axes=axes,
                       coherence=tuple(args.coherence))
    framework = Framework(cache_dir=_cache_dir_from_args(args))
    sweep = sweep_space(space, framework.suite, parallel=args.jobs != 1,
                        max_workers=args.jobs)
    table = Table(
        f"Design-space sweep — {space.describe()}",
        ["board", "GPU threshold (%)", "CPU threshold (%)",
         f"{args.app} recommendation"],
    )
    for panel in sweep.panels:
        for board, device in zip(panel.boards, panel.devices):
            report = framework.tune(
                build_workload(args.app, board_name=board.name), board)
            table.add_row(board.name, device.gpu_threshold_pct,
                          device.cpu_threshold_pct,
                          report.recommendation.model.value)
    return table.render()


def cmd_report(args: argparse.Namespace) -> str:
    """Aggregate archived benchmark artefacts into one markdown file."""
    from repro.analysis.export import build_report

    status = build_report(args.results_dir, output_path=args.output)
    output = args.output or f"{args.results_dir}/REPORT.md"
    lines = [f"report written to {output}",
             f"included {len(status.included)} artefacts"]
    if status.missing:
        lines.append(
            f"missing {len(status.missing)} artefacts (run "
            f"`pytest benchmarks/ --benchmark-only` first): "
            + ", ".join(status.missing[:6])
            + ("…" if len(status.missing) > 6 else "")
        )
    return "\n".join(lines)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "boards": cmd_boards,
    "characterize": cmd_characterize,
    "tune": cmd_tune,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "inject": cmd_inject,
    "validate": cmd_validate,
    "crosscheck": cmd_crosscheck,
    "chaos": cmd_chaos,
    "report": cmd_report,
    "cache": cmd_cache,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "stream": cmd_stream,
    "obs": cmd_obs,
    "explore": cmd_explore,
}


def _fault_kinds():
    from repro.robustness import FaultKind

    return list(FaultKind)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPU-iGPU communication tuning framework (DAC 2021 "
                    "reproduction)",
    )
    parser.add_argument("--obs-off", action="store_true",
                        help="disable tracing and metrics for this "
                             "invocation (also: REPRO_OBS=0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("boards", help="list board presets")

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent characterization cache directory "
                            "(default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro/characterizations)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the persistent characterization cache")

    def add_backend_flag(p: argparse.ArgumentParser) -> None:
        from repro.sim.backend import BACKEND_NAMES

        p.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                       help="timing backend: the closed-form analytic "
                            "model (default) or the event-driven "
                            "cache/DRAM simulator")

    p = sub.add_parser("characterize", help="run the micro-benchmark suite")
    p.add_argument("board", choices=available_boards())
    add_cache_flags(p)
    add_backend_flag(p)

    for name, extra in (("tune", True), ("compare", False)):
        p = sub.add_parser(name, help=f"{name} a bundled application")
        p.add_argument("app", choices=APPS)
        p.add_argument("board", choices=available_boards())
        add_backend_flag(p)
        if extra:
            p.add_argument("--model", default="SC", choices=["SC", "UM", "ZC"],
                           help="the application's current model")
            p.add_argument("--trace", default=None, metavar="FILE",
                           help="write the run's spans as a Chrome/Perfetto "
                                "trace JSON")
            p.add_argument("--report", default=None, metavar="FILE",
                           help="write the full tune report (every "
                                "decision intermediate) as JSON")
            p.add_argument("--deadline-s", type=float, default=None,
                           metavar="S",
                           help="bound the whole flow by a cooperative "
                                "deadline (structured DEADLINE_EXCEEDED "
                                "past the budget)")
            add_cache_flags(p)

    p = sub.add_parser(
        "cache", help="inspect or clear the store of characterizations "
                      "and profiles")
    p.add_argument("action", choices=["info", "clear"])
    p.add_argument("--dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro/characterizations)")
    p.add_argument("--json", action="store_true",
                   help="with info: emit the full store state as JSON "
                        "instead of the text table")

    p = sub.add_parser(
        "bench", help="run the app x board benchmark grid in parallel")
    p.add_argument("--apps", nargs="+", default=list(APPS),
                   choices=APPS)
    p.add_argument("--boards", nargs="+", default=list(available_boards()),
                   choices=available_boards())
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per cell, capped "
                        "at the CPU count; 1 forces serial)")
    p.add_argument("--model", default="SC", choices=["SC", "UM", "ZC"],
                   help="the applications' current model")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the grid results as JSON")
    add_cache_flags(p)

    p = sub.add_parser(
        "serve",
        help="answer a stream of tune requests through the coalescing "
             "server")
    p.add_argument("requests_file", nargs="?", default=None,
                   help="JSON array of request objects "
                        '({"board": ..., "app": ..., ...}) to answer '
                        "as one concurrent stream")
    p.add_argument("--max-batch", type=int, default=16,
                   help="batch size bound: a full batch dispatches "
                        "without waiting for a free worker (default: 16)")
    p.add_argument("--max-pending", type=int, default=None,
                   help="in-flight bound past which requests are shed "
                        "(default: 64, raised to the number of requests "
                        "in the file)")
    add_cache_flags(p)

    p = sub.add_parser(
        "stream",
        help="online re-tuning over a streaming trace: incremental "
             "windows, drift detection, hysteresis flips, multi-app "
             "contention")
    p.add_argument("app", nargs="?", default="shwfs",
                   choices=APPS,
                   help="bundled application driving the synthetic "
                        "counter stream (default: shwfs)")
    p.add_argument("board", nargs="?", default="xavier",
                   choices=available_boards(),
                   help="board to stream on (default: xavier)")
    p.add_argument("--model", default="SC", choices=["SC", "UM", "ZC"],
                   help="the application's current (initial) model")
    p.add_argument("--window", type=int, default=2048,
                   help="events per sliding window (default: 2048)")
    p.add_argument("--stride", type=int, default=64,
                   help="events between window emissions (default: 64)")
    p.add_argument("--hysteresis", type=int, default=3,
                   help="consecutive emissions that must propose the "
                        "same target before a flip commits (default: 3)")
    p.add_argument("--chunk-size", type=int, default=8192,
                   help="bounded-memory ingest chunk, in events "
                        "(default: 8192)")
    p.add_argument("--samples", type=int, default=8192,
                   help="synthetic counter ticks to stream "
                        "(default: 8192)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="stream a recorded access-trace CSV through the "
                        "locality model instead of synthetic counters")
    p.add_argument("--drift-to", default=None,
                   choices=APPS, metavar="APP",
                   help="switch the counter stream to this app's "
                        "profile halfway through (drift/flip demo)")
    p.add_argument("--contend", action="append", default=[],
                   choices=APPS, metavar="APP",
                   help="a co-resident app sharing the memory system "
                        "(repeatable): decide every window through the "
                        "contention fixed point")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the run summary as JSON")
    add_cache_flags(p)

    p = sub.add_parser(
        "explore",
        help="sweep a synthetic board design space and show how the "
             "thresholds and the decision move across it")
    p.add_argument("--base", default="tx2", choices=available_boards(),
                   help="preset the space is derived from (default: tx2)")
    p.add_argument("--axis", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="one swept axis as scale factors over the base "
                        "(repeatable); axes: dram_bandwidth, gpu_clock, "
                        "cpu_clock, zc_bandwidth, llc_size. Default: "
                        "dram_bandwidth=0.8,1.0,1.25 "
                        "gpu_clock=0.8,1.0,1.25 zc_bandwidth=0.5,1.0,2.0")
    p.add_argument("--coherence", nargs="+", default=["inherit"],
                   choices=["inherit", "io_coherent", "caches_disabled"],
                   help="coherence panel(s) to sweep (default: inherit)")
    p.add_argument("--app", default="shwfs", choices=APPS,
                   help="application recommended on each board "
                        "(default: shwfs)")
    p.add_argument("--jobs", type=int, default=None,
                   help="sweep worker processes (1 forces serial)")
    add_cache_flags(p)

    p = sub.add_parser(
        "obs", help="summarize a trace artifact or the live obs buffers")
    p.add_argument("action", choices=["summary"])
    p.add_argument("artifact", nargs="?", default=None,
                   help="a Chrome-trace or JSONL artifact to summarize "
                        "(default: this process's live buffers)")

    p = sub.add_parser("sweep", help="ZC-path what-if sensitivity sweep")
    p.add_argument("app", choices=APPS)
    p.add_argument("board", choices=available_boards())
    p.add_argument("--factors", nargs="+", type=float,
                   default=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0])

    p = sub.add_parser(
        "inject",
        help="run the decision flow under deterministic fault injection")
    p.add_argument("app", choices=APPS)
    p.add_argument("board", choices=available_boards())
    p.add_argument("--model", default="SC", choices=["SC", "UM", "ZC"],
                   help="the application's current model")
    p.add_argument("--seed", type=int, default=0,
                   help="fault plan seed (same seed => identical report)")
    p.add_argument("--fault", action="append", default=[],
                   metavar="KIND[:TARGET[:MAGNITUDE[:PROB]]]",
                   help="activate one fault class (repeatable); kinds: "
                        + ", ".join(k.value for k in _fault_kinds()))
    p.add_argument("--strict", action="store_true",
                   help="raise on the first fault instead of degrading")

    p = sub.add_parser(
        "validate",
        help="run the runtime invariant guard suite (exit 3 on violations)")
    p.add_argument("board", choices=available_boards())
    p.add_argument("--app", default="shwfs", choices=APPS)
    p.add_argument("--seed", type=int, default=0,
                   help="fault plan seed for --fault demonstrations")
    p.add_argument("--fault", action="append", default=[],
                   metavar="KIND[:TARGET[:MAGNITUDE[:PROB]]]",
                   help="inject faults while validating, to demonstrate "
                        "guard coverage")
    add_backend_flag(p)

    p = sub.add_parser(
        "crosscheck",
        help="cross-check the analytic and simulated timing backends "
             "(exit 6 on decision disagreement)")
    p.add_argument("--boards", nargs="+", default=list(available_boards()),
                   choices=available_boards())
    p.add_argument("--apps", nargs="+", default=list(APPS),
                   choices=APPS)
    p.add_argument("--tolerance", type=float, default=0.35, metavar="FRAC",
                   help="relative-error tolerance for the timing rows "
                        "(diagnostic; default: 0.35)")
    p.add_argument("--seed", type=int, default=0,
                   help="simulator synthesis seed (same seed => "
                        "identical report)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full report as JSON")

    p = sub.add_parser(
        "chaos",
        help="run the seeded full-pipeline chaos soak (exit 5 on "
             "violations)")
    p.add_argument("--schedules", type=int, default=25,
                   help="how many chaos schedules to run (default: 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="soak seed; schedule i is a pure function of "
                        "(seed, i)")
    p.add_argument("--apps", nargs="+", default=list(APPS),
                   choices=APPS)
    p.add_argument("--boards", nargs="+", default=None,
                   choices=available_boards())
    p.add_argument("--deadline-s", type=float, default=None, metavar="S",
                   help="pin every schedule's deadline budget instead of "
                        "drawing it per schedule")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the post-schedule clean-stack guard "
                        "validation")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full soak report as JSON")

    p = sub.add_parser("report",
                       help="aggregate benchmark artefacts into REPORT.md")
    p.add_argument("results_dir", nargs="?", default="benchmarks/results")
    p.add_argument("--output", default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.obs_off:
        from repro.obs import state as obs_state

        obs_state.disable()
    try:
        result = _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error[{error.code}]: {error.message}", file=sys.stderr)
        return 2
    if isinstance(result, tuple):
        text, exit_code = result
    else:
        text, exit_code = result, 0
    print(text)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
