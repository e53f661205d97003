"""Seeded inputs, set-up fixtures, reference answers and fingerprints.

Everything a run feeds the program is derived from the run's seed in
:func:`make_plan`; :func:`build_fixtures` then warms a characterization
store and computes, through the program's own serial API, the reference
answer every measured operation is checked against.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import hashlib
import itertools
import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

APPS = ("shwfs", "orbslam")
PRESETS = ("nano", "tx2", "xavier")
MODELS = ("SC", "UM", "ZC")
#: Every (app, board, current model) the CLI, warm and serve paths draw
#: from, interleaved so that any six consecutive cells cover every
#: (app, board) pair: a run that stops part-way through a cycle still
#: sees the same mix whatever the seed.
CELLS = tuple((APPS[i % 2], PRESETS[i % 3], MODELS[i // 6])
              for i in range(18))

#: Derived-board axes the cold phase samples never-seen boards from.
VARIANT_AXES = {
    "dram_bandwidth": (0.5, 0.75, 1.5, 2.0),
    "zc_bandwidth": (0.5, 1.0, 2.0),
    "coherence": ("inherit", "io_coherent", "caches_disabled"),
}

#: Ticks per counter stream.
STREAM_TICKS = 32_768
#: The preset the simulated cold tune characterizes.
SIM_CELL = ("shwfs", "xavier")
#: Events in the replayed trace CSV.
TRACE_EVENTS = 1 << 18

Cell = Tuple[str, str, str]


def expected_decisions(root: pathlib.Path) -> Dict[Tuple[str, str], tuple]:
    """The paper's Tables II-V decisions, read from the repository's
    backend-agreement test so both gates share one reference."""
    path = root / "tests" / "integration" / "test_backend_agreement.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "EXPECTED_DECISIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"EXPECTED_DECISIONS not found in {path}")


@dataclass(frozen=True)
class Plan:
    """The seeded inputs of one run."""

    seed: int
    cli_cells: Tuple[Cell, ...]
    warm_cells: Tuple[Cell, ...]
    preset_apps: Tuple[str, ...]
    contention_board: str
    trace_board: str

    def variant(self, i: int) -> Tuple[str, str, dict, str]:
        """The ``i``-th never-seen derived board of the cold phase:
        ``(name, base preset, derive_board factors, app)``.  Base preset
        and coherence cycle through all nine pairs; the bandwidth factors
        are drawn from ``(seed, i)``, so the stream never runs out."""
        rng = random.Random(f"{self.seed}/variant/{i}")
        factors = {axis: rng.choice(values)
                   for axis, values in VARIANT_AXES.items()
                   if axis != "coherence"}
        factors["coherence"] = VARIANT_AXES["coherence"][(i // 3) % 3]
        base = PRESETS[i % 3]
        return f"{base}-s{self.seed}v{i}", base, factors, APPS[i % 2]


def make_plan(seed: int) -> Plan:
    """Seeded inputs.  Cell sequences are seeded rotations of
    :data:`CELLS`, so the seed moves the order but not the mix."""
    rng = random.Random(seed)

    def rotated(items):
        k = rng.randrange(len(items))
        return tuple(items[k:] + items[:k])

    return Plan(
        seed=seed,
        cli_cells=rotated(CELLS),
        warm_cells=rotated(CELLS),
        preset_apps=tuple(rng.choice(APPS) for _ in PRESETS),
        contention_board=rng.choice(PRESETS),
        trace_board=rng.choice(PRESETS),
    )


def stream_config():
    from repro.stream.engine import StreamConfig

    return StreamConfig(window=1024, stride=64, hysteresis=3,
                        chunk_size=8192)


def trace_config():
    from repro.stream.engine import StreamConfig

    return StreamConfig(window=4096, stride=256, hysteresis=3,
                        chunk_size=16384)


def pipelines():
    from repro.apps.orbslam import OrbPipeline
    from repro.apps.shwfs import ShwfsPipeline

    return {"shwfs": ShwfsPipeline(), "orbslam": OrbPipeline()}


# ----------------------------------------------------------------------
# answers: exact keys for checks, rounded digests for fingerprints
# ----------------------------------------------------------------------


def _plain(value, digits: Optional[int]):
    """JSON-ready copy; floats as exact repr or ``digits`` significant."""
    if isinstance(value, enum.Enum):
        return _plain(value.value, digits)
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value), digits)
    if isinstance(value, dict):
        return {str(k): _plain(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, digits) for v in value]
    if isinstance(value, float):
        if digits is None or not math.isfinite(value):
            return repr(value)
        return float(f"{value:.{digits}g}")
    return value


def rec_key(recommendation) -> str:
    """Exact identity of a recommendation (NaN-safe)."""
    return json.dumps(_plain(recommendation, None), sort_keys=True)


def report_digest(report) -> dict:
    """Decision, characterization and profile counters of one answer,
    floats rounded to 9 significant digits."""
    from repro.perf.cache import characterization_to_dict

    return {
        "recommendation": _plain(report.recommendation, 9),
        "device": (_plain(characterization_to_dict(report.device), 9)
                   if report.device is not None else None),
        "profile": _plain(report.profile, 9),
    }


def stream_digest(result) -> dict:
    """What a stream run decided: the check key and its fingerprint."""
    return {
        "final_model": result.final_model,
        "events": result.events,
        "decisions": result.decisions,
        "drift_windows": result.drift_windows,
        "flips": [[f.emission, f.from_model, f.to_model, f.drift]
                  for f in result.flips],
        "last": (_plain(result.last_recommendation, 9)
                 if result.last_recommendation is not None else None),
    }


def contention_digest(multi) -> dict:
    """What a contention run decided, without its own timings."""
    out = multi.to_dict()
    del out["elapsed_s"], out["decisions_per_sec"]
    return _plain(out, 9)


def fingerprint(entries: Dict[str, object]) -> str:
    blob = json.dumps(entries, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


@dataclass
class StreamCase:
    label: str
    board: str
    source: object
    #: Model a stationary stream must settle on; None for drifting ones.
    expected_final: Optional[str]


@dataclass
class Fixtures:
    root: pathlib.Path
    workdir: pathlib.Path
    plan: Plan
    paper: Dict[Tuple[str, str], tuple]
    store_dir: pathlib.Path
    #: Serial ``Framework.tune`` answer per cell, on the warmed store.
    references: Dict[Cell, object]
    #: Serial ``Framework.retune`` answer from each reference's profile.
    retunes: Dict[Cell, object]
    devices: Dict[str, object]
    streams: List[StreamCase]
    trace_csv: pathlib.Path
    trace_reference: dict
    #: What the contention run on ``plan.contention_board`` decides.
    contention_reference: dict
    workloads: Dict[Tuple[str, str], object] = field(default_factory=dict)

    def workload(self, app: str, board: str):
        """The bundled app's workload for a board (built once)."""
        key = (app, board)
        if key not in self.workloads:
            self.workloads[key] = pipelines()[app].workload(board_name=board)
        return self.workloads[key]

    def digest(self) -> Dict[str, object]:
        """Fingerprint entries of every reference answer."""
        entries = {}
        for cell, report in self.references.items():
            entries["tune/" + "/".join(cell)] = report_digest(report)
            entries["retune/" + "/".join(cell)] = _plain(
                self.retunes[cell].recommendation, 9)
        entries["trace"] = self.trace_reference
        entries["contention"] = self.contention_reference
        return entries

    def contention_sources(self) -> list:
        """The stationary streams of the contention board's two apps."""
        return [c.source for c in self.streams
                if c.board == self.plan.contention_board
                and c.expected_final is not None]


def synth_trace(seed: int):
    """A kernel-like access trace of :data:`TRACE_EVENTS` events: a
    streaming sweep mixed with re-reads of a hot region, in seeded
    proportions."""
    rng = np.random.default_rng(seed)
    extent = 1 << 22
    hot_bytes = int(rng.choice([1 << 14, 1 << 16, 1 << 18]))
    sweep = (np.arange(TRACE_EVENTS, dtype=np.int64) * 4) % extent
    hot = rng.integers(0, hot_bytes // 4, TRACE_EVENTS, dtype=np.int64) * 4
    offsets = np.where(rng.random(TRACE_EVENTS) < rng.uniform(0.2, 0.6), hot,
                       sweep)
    writes = rng.random(TRACE_EVENTS) < 0.25
    return offsets, writes


def write_trace_csv(path: pathlib.Path, offsets, writes) -> None:
    rw = np.where(writes, "W", "R")
    lines = [f"{o},{w}" for o, w in zip(offsets.tolist(), rw.tolist())]
    path.write_text("offset,rw\n" + "\n".join(lines) + "\n")


def build_fixtures(root: pathlib.Path, workdir: pathlib.Path,
                   plan: Plan) -> Fixtures:
    """Warm the store and compute every reference answer."""
    from repro.model.framework import Framework
    from repro.profiling.trace import RecordedTrace
    from repro.soc.board import get_board
    from repro.stream.engine import (
        MultiAppStreamTuner,
        StreamTuner,
        proposed_model,
    )
    from repro.stream.sources import CounterWindowSource, TraceWindowSource

    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / "store"
    framework = Framework(cache_dir=str(store_dir))
    devices = {b: framework.characterize(get_board(b)) for b in PRESETS}
    fx = Fixtures(root=root, workdir=workdir, plan=plan,
                  paper=expected_decisions(root), store_dir=store_dir,
                  references={}, retunes={}, devices=devices, streams=[],
                  trace_csv=workdir / "trace.csv", trace_reference={},
                  contention_reference={})
    for app, board, model in CELLS:
        report = framework.tune(fx.workload(app, board), get_board(board),
                                current_model=model)
        fx.references[(app, board, model)] = report
        fx.retunes[(app, board, model)] = framework.retune(
            report.profile, board=get_board(board))

    for board in PRESETS:
        profiles = {app: fx.references[(app, board, "SC")] for app in APPS}
        for app in APPS:
            fx.streams.append(StreamCase(
                f"{board}/{app}", board,
                CounterWindowSource.from_profile(profiles[app].profile,
                                                 samples=STREAM_TICKS),
                proposed_model(profiles[app].recommendation, "SC")))
        fx.streams.append(StreamCase(
            f"{board}/drift", board,
            CounterWindowSource.drifting(profiles["shwfs"].profile,
                                         profiles["orbslam"].profile,
                                         samples=STREAM_TICKS),
            None))

    offsets, writes = synth_trace(plan.seed)
    write_trace_csv(fx.trace_csv, offsets, writes)
    in_memory = TraceWindowSource(
        RecordedTrace(offsets=offsets, is_write=writes),
        workload_name="trace-kernel", board_name=plan.trace_board)
    fx.trace_reference = stream_digest(StreamTuner(
        framework, in_memory, devices[plan.trace_board],
        trace_config()).run())
    fx.contention_reference = contention_digest(MultiAppStreamTuner(
        framework, fx.contention_sources(),
        devices[plan.contention_board], stream_config()).run())
    return fx


def fill_span_buffer() -> int:
    """Bring the program's span buffer to its cap, the state every
    long-running process reaches, by replaying the names and attributes
    of the spans set-up recorded through ``repro.obs``.  From then on
    each new span is dropped and the full buffer stays alive, so the
    garbage collector's full passes scan it as they would in a server
    that has run for hours.  Returns the spans added."""
    from repro import obs
    from repro.obs import state, trace

    recorded = trace.get_spans()
    if not state.enabled() or not recorded:
        return 0
    before = len(recorded)
    for s in itertools.cycle(recorded):
        if trace.dropped_spans():
            break
        if s.kind == "event":
            obs.event(s.name, **s.attributes)
        else:
            with obs.span(s.name, **s.attributes):
                pass
    return trace.MAX_SPANS - before
