"""The four ways a user waits on the Fig-2 flow, as measured paths.

Each path drives the program through its public API one *slice* at a
time: a run interleaves small slices of every path in rounds, so that
every metric samples many moments of the run and a slow spell of a
shared host lands on all metrics alike instead of on whichever path
happened to run then.  The workload's focus paths run two slices per
round, at opposite points of the round.  Every operation's latency is
recorded and its answer checked against the set-up references; answers
of each path's first ``MIN_ROUNDS`` slices, whose inputs depend only on
the seed, feed the fingerprints.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import itertools
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

from fixtures import (
    CELLS,
    PRESETS,
    SIM_CELL,
    Fixtures,
    contention_digest,
    report_digest,
    rec_key,
    stream_config,
    stream_digest,
    trace_config,
)

#: Rounds every run makes at least; a traced run makes exactly these.
MIN_ROUNDS = 3
#: Open-loop arrival rate of the light serve phase (requests/s): about a
#: quarter of the closed-loop capacity, so open-loop latency is mostly
#: service, not queueing.
SERVE_RATE_RPS = 10.0
#: Closed-loop tenants; below ``ServeConfig.max_pending`` so none shed.
SERVE_TENANTS = 32
#: Share of serve requests that carry a measured profile (retune path).
SERVE_PROFILE_SHARE = 0.3
#: Zipf exponent of the serve mix over (app, board, model) cells.
SERVE_ZIPF_S = 1.1
#: Requests per shuffled block of the serve mix; the rarest cell's Zipf
#: share rounds to one request per block.
SERVE_BLOCK = 100

#: Slice sizes.  Slices are small so that every metric samples many
#: moments of a run: a shared host's speed changes every few seconds, and
#: a metric drawn from a few long slices reads those changes instead of
#: the program.
CLI_PROCESSES = 1
#: Cold boards per slice: one whole cycle of the three base presets (cold
#: cost depends on the base).
TUNE_COLD = 3
#: Warm tunes per slice: one whole cycle of the 18 cells.
TUNE_WARM = 18
#: Shares of ``--seconds`` after which the next tune slice starts with a
#: simulated cold tune: three per run, spread over it, since each takes
#: seconds and reads the host speed of its own stretch.  A traced run
#: makes the first only.
TUNE_SIM_AT = (0.0, 1 / 3, 2 / 3)
SERVE_LIGHT_S = 1.5
SERVE_CLOSED_S = 0.5
#: Stream runs per slice: one whole cycle of the nine counter streams and
#: the contention run; every slice also replays the CSV once.
STREAM_UNITS = 10
#: Calibrations within this many seconds of a stretch set its host
#: factor: long enough to average a calibration's own noise, short enough
#: to follow the host's spells.
HOST_WINDOW_S = 5.0
#: Fresh interpreters timing ``import repro.cli`` in a traced run.
CLI_IMPORT_REPEATS = 3

LATENCY_KEYS = {
    "cli": ("cli_tune", "cli_main"),
    "tune": ("tune_cold", "tune_cold_sim", "tune_warm", "repro_checks"),
    "serve": ("serve_light", "serve_closed"),
    "stream": ("stream_run", "stream_trace"),
}


class Ledger:
    """Latency samples, operation counts and answer digests of a run."""

    def __init__(self, fx: Fixtures) -> None:
        self.fx = fx
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.answers: Dict[str, Dict[str, object]] = defaultdict(dict)
        #: ``TuneAnswer`` bookkeeping per served request (not the reports,
        #: so memory does not grow with the run length).
        self.serve_answers: List[tuple] = []
        self.info: Dict[str, object] = {}
        #: Share of ``--seconds`` gone when the current slice started (0
        #: in a traced run).
        self.run_share = 0.0
        #: ``() -> spans recorded so far`` while traced, else None.
        self.span_count = None
        self.phases: List[tuple] = []
        #: A ``hostspeed.HostClock`` calibrated at every checkpoint, or None.
        self.clock = None
        #: ``(time, host factor)`` of every calibration.
        self.calibrations: List[Tuple[float, float]] = []
        #: ``(start, end, sample counts at start, at end)`` between
        #: consecutive calibrations.
        self.intervals: List[tuple] = []

    def mark(self, phase: str) -> None:
        """Note where a phase starts in the trace (traced runs only)."""
        if self.span_count is not None:
            self.phases.append((phase, self.span_count()))

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def crashed(self, what: str) -> None:
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.op(False, f"{what}: {detail}")

    def start_clock(self, clock) -> None:
        """Calibrate the host speed now and at every :meth:`checkpoint`."""
        self.clock = clock
        self.calibrations.append((time.perf_counter(), clock.calibrate()))

    def checkpoint(self) -> None:
        """Calibrate the host speed (no-op without a clock).  Runs between
        slices and between the phases of a slice, never inside an
        operation."""
        if self.clock is None:
            return
        start = self.calibrations[-1][0]
        before = self.intervals[-1][3] if self.intervals else {}
        now = time.perf_counter()
        self.intervals.append((start, now, before, self._sizes()))
        self.calibrations.append((now, self.clock.calibrate()))

    def _sizes(self) -> Dict[str, int]:
        return {key: len(values) for key, values in self.samples.items()}

    def host_adjusted(self) -> Dict[str, List[float]]:
        """Every latency sample divided by the host factor around it: the
        median factor of the calibrations within ``HOST_WINDOW_S`` of the
        stretch between checkpoints that recorded it."""
        adjusted = {key: list(values) for key, values in self.samples.items()}
        for start, end, before, after in self.intervals:
            factor = statistics.median(
                f for t, f in self.calibrations
                if start - HOST_WINDOW_S <= t <= end + HOST_WINDOW_S)
            for key, stop in after.items():
                for i in range(before.get(key, 0), stop):
                    adjusted[key][i] = self.samples[key][i] / factor
        return adjusted

    def busy_s(self, path: str) -> float:
        """Summed operation latency of one path (tracing overhead base)."""
        return sum(sum(self.samples[key]) for key in LATENCY_KEYS[path])


def _paper_ok(fx: Fixtures, app: str, board: str, recommendation) -> bool:
    model, zone = fx.paper[(app, board)]
    return (recommendation.model.value == model
            and recommendation.zone is not None
            and int(recommendation.zone) == zone)


class Path:
    """One user path; :meth:`step` runs one slice of it."""

    def __init__(self, led: Ledger) -> None:
        self.led = led
        self.fx = led.fx

    def step(self, slice_no: int) -> None:
        """Run the path's ``slice_no``-th slice (counted from 0)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the path holds open."""


# ----------------------------------------------------------------------
# cli-tune
# ----------------------------------------------------------------------


def child_env(fx: Fixtures) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(fx.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # The CLI's default store would live in the home directory.
    env["REPRO_CACHE_DIR"] = str(fx.workdir / "default-store")
    return env


def printed_recommendation(stdout: str):
    for line in stdout.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 2 and cells[0] == "recommendation":
            return cells[1]
    return None


def measure_cli_import(fx: Fixtures) -> float:
    """Median time a fresh interpreter spends in ``import repro.cli``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(CLI_IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code],
                             cwd=str(fx.root), env=child_env(fx),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip()))
    return sorted(times)[len(times) // 2]


class CliPath(Path):
    """``repro tune`` as fresh interpreters, one at a time.

    ``in_process`` calls ``repro.cli.main`` in this interpreter instead,
    which is what the traced run does: spans cannot cross processes.
    """

    def __init__(self, led: Ledger, in_process: bool = False) -> None:
        super().__init__(led)
        self.in_process = in_process
        self.cells = itertools.cycle(self.fx.plan.cli_cells)
        self.env = child_env(self.fx)

    def step(self, slice_no: int) -> None:
        for _ in range(CLI_PROCESSES):
            cell = next(self.cells)
            argv = ["tune", *cell[:2], "--model", cell[2],
                    "--cache-dir", str(self.fx.store_dir)]
            what = "repro tune " + " ".join(argv[1:])
            try:
                code, stdout = self._run(argv)
            except Exception:
                self.led.crashed(what)
                continue
            self._check(cell, code, stdout, what, slice_no < MIN_ROUNDS)

    def _run(self, argv):
        if self.in_process:
            import repro.cli

            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = repro.cli.main(argv)
            self.led.samples["cli_main"].append(time.perf_counter() - t0)
            return code, out.getvalue()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=str(self.fx.root), env=self.env,
                              capture_output=True, text=True, timeout=120)
        self.led.samples["cli_tune"].append(time.perf_counter() - t0)
        return proc.returncode, proc.stdout

    def _check(self, cell, code: int, stdout: str, what: str,
               record: bool) -> None:
        app, board, model = cell
        expected = self.fx.references[cell].recommendation.model.value
        printed = printed_recommendation(stdout)
        paper = self.fx.paper[(app, board)][0] if model == "SC" else expected
        self.led.op(code == 0 and printed == expected == paper,
                    f"{what}: exit {code}, printed {printed!r}, expected "
                    f"{expected!r} (paper {paper!r})")
        if record:
            self.led.answers["cli"].setdefault("/".join(cell), stdout)


# ----------------------------------------------------------------------
# tune-grid
# ----------------------------------------------------------------------


class TunePath(Path):
    """Cold, cold-simulated and warm ``Framework.tune`` calls, and one
    ``run_reproduction_checks``."""

    def __init__(self, led: Ledger) -> None:
        from repro.model.framework import Framework

        super().__init__(led)
        self.cold = self._cold_boards()
        self.warm_cells = itertools.cycle(self.fx.plan.warm_cells)
        self.warm = Framework(cache_dir=str(self.fx.store_dir))
        self.sims = 0

    def _cold_boards(self):
        """Presets first, then the plan's endless never-seen boards."""
        from repro.soc.board import derive_board, get_board

        for board, app in zip(PRESETS, self.fx.plan.preset_apps):
            yield get_board(board), app, True
        for i in itertools.count():
            name, base, factors, app = self.fx.plan.variant(i)
            yield derive_board(get_board(base), name, **factors), app, False

    def _fresh_store(self) -> str:
        """A new empty store directory (every pass gets its own)."""
        return tempfile.mkdtemp(prefix="cold-", dir=str(self.fx.workdir))

    def step(self, slice_no: int) -> None:
        record = slice_no < MIN_ROUNDS
        if slice_no == 0:
            self.led.mark("checks")
            self._checks()
        if (self.sims < len(TUNE_SIM_AT)
                and self.led.run_share >= TUNE_SIM_AT[self.sims]):
            self.led.mark("cold_sim")
            # Only the first one's slice does not depend on timing.
            self._cold_sim(self.sims == 0)
            self.sims += 1
            self.led.checkpoint()
        self.led.mark("cold")
        for _ in range(TUNE_COLD):
            self._cold(next(self.cold), record)
        self.led.checkpoint()
        self.led.mark("warm")
        for _ in range(TUNE_WARM):
            self._warm(next(self.warm_cells))

    def _cold(self, item, record: bool) -> None:
        from repro.model.framework import Framework

        board, app, preset = item
        fx, led = self.fx, self.led
        what = f"cold tune {app} on {board.name}"
        try:
            framework = Framework(cache_dir=self._fresh_store())
            workload = fx.workload(app, board.name)
            t0 = time.perf_counter()
            report = framework.tune(workload, board, current_model="SC")
            led.samples["tune_cold"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        rec = report.recommendation
        ok = not rec.degraded
        if preset:
            reference = fx.references[(app, board.name, "SC")]
            ok = (ok and _paper_ok(fx, app, board.name, rec)
                  and rec_key(rec) == rec_key(reference.recommendation))
        led.op(ok, f"{what}: got {rec.model.value} zone {rec.zone}")
        if record:
            led.answers["tune"][f"cold/{app}/{board.name}"] = \
                report_digest(report)

    def _cold_sim(self, record: bool) -> None:
        from repro.model.framework import Framework
        from repro.soc.board import get_board

        fx, led = self.fx, self.led
        app, board_name = SIM_CELL
        what = f"simulated cold tune {app} on {board_name}"
        try:
            framework = Framework(cache_dir=self._fresh_store(),
                                  backend="simulated")
            workload = fx.workload(app, board_name)
            t0 = time.perf_counter()
            report = framework.tune(workload, get_board(board_name),
                                    current_model="SC")
            led.samples["tune_cold_sim"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        rec = report.recommendation
        analytic = fx.references[(app, board_name, "SC")].recommendation
        led.op(rec.model is analytic.model and rec.zone == analytic.zone,
               f"{what}: simulated {rec.model.value} zone {rec.zone}, "
               f"analytic {analytic.model.value} zone {analytic.zone}")
        if record:
            led.answers["tune"][f"sim/{app}/{board_name}"] = \
                report_digest(report)

    def _warm(self, cell) -> None:
        from repro.soc.board import get_board

        fx, led = self.fx, self.led
        app, board_name, model = cell
        what = "warm tune " + "/".join(cell)
        try:
            workload = fx.workload(app, board_name)
            board = get_board(board_name)
            t0 = time.perf_counter()
            report = self.warm.tune(workload, board, current_model=model)
            led.samples["tune_warm"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        rec = report.recommendation
        ok = rec_key(rec) == rec_key(fx.references[cell].recommendation)
        if model == "SC":
            ok = ok and _paper_ok(fx, app, board_name, rec)
        led.op(ok, f"{what}: got {rec.model.value} zone {rec.zone}")

    def _checks(self) -> None:
        from repro.analysis.validation import Verdict, run_reproduction_checks

        led = self.led
        try:
            t0 = time.perf_counter()
            checks = run_reproduction_checks()
            led.samples["repro_checks"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed("reproduction checks")
            return
        led.counts["paper_rows_reproduced"] = sum(
            c.verdict is Verdict.REPRODUCED for c in checks)
        led.info["paper_rows"] = len(checks)
        led.answers["tune"]["paper_rows"] = [
            [c.experiment, c.quantity, c.verdict.value] for c in checks]


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def serve_mix(seed: str) -> Iterator[Tuple[tuple, bool]]:
    """Endless ``(cell, carries a profile)`` serve requests.  Zipf rank
    follows the fixed interleaved cell order.  Every block of
    :data:`SERVE_BLOCK` requests holds each cell in its Zipf share
    (largest remainder) and :data:`SERVE_PROFILE_SHARE` profiles, and
    the seed shuffles each block: the seed moves the order, not the
    mix, as for the other paths' cell rotations."""
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S
               for rank in range(len(CELLS))]
    quotas = [SERVE_BLOCK * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(CELLS)),
                          key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:SERVE_BLOCK - sum(counts)]:
        counts[i] += 1
    cells = [cell for cell, n in zip(CELLS, counts) for _ in range(n)]
    profiles = round(SERVE_BLOCK * SERVE_PROFILE_SHARE)
    flags = [True] * profiles + [False] * (SERVE_BLOCK - profiles)
    rng = random.Random(seed)
    while True:
        rng.shuffle(cells)
        rng.shuffle(flags)
        yield from zip(cells, flags)


class ServePath(Path):
    """One ``TuneServer`` on a warm framework for the whole run, its
    event loop in a thread of its own.  Each slice drives an open-loop
    light phase, then a closed-loop capacity phase, through it."""

    def __init__(self, led: Ledger) -> None:
        from repro.model.framework import Framework
        from repro.serve.server import TuneServer

        super().__init__(led)
        seed = self.fx.plan.seed
        self.light_rng = random.Random(f"{seed}/light")
        self.light_mix = serve_mix(f"{seed}/light-mix")
        # The tenants share one stream: which tenant sends which request
        # depends on timing, the mix does not.
        self.closed_mix = serve_mix(f"{seed}/closed-mix")
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        self.server = TuneServer(Framework(cache_dir=str(self.fx.store_dir)))
        self._await(self.server.start())

    def _await(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self) -> None:
        try:
            self._await(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()

    def draw(self, mix):
        """The next request of a mix, the reference it must match, and
        its label."""
        from repro.serve.coalescer import TuneRequest

        cell, carries_profile = next(mix)
        app, board, model = cell
        if carries_profile:
            return (TuneRequest(board=board, current_model=model,
                                profile=self.fx.references[cell].profile),
                    self.fx.retunes[cell], "retune/" + "/".join(cell))
        return (TuneRequest(board=board, app=app, current_model=model),
                self.fx.references[cell], "tune/" + "/".join(cell))

    def _check(self, answer, expected, label: str, record: bool) -> None:
        led = self.led
        ok = (answer.ok and answer.report is not None
              and rec_key(answer.report.recommendation)
              == rec_key(expected.recommendation))
        led.op(ok, f"served {label}: status {answer.status}")
        led.serve_answers.append(
            (answer.shed, answer.wait_s, answer.service_s,
             answer.batch_size, answer.coalesced_with))
        if record and answer.report is not None:
            led.answers["serve"].setdefault(label,
                                            report_digest(answer.report))

    def step(self, slice_no: int) -> None:
        self._phase(self._light, SERVE_LIGHT_S, slice_no)
        self.led.checkpoint()
        self._phase(self._closed, SERVE_CLOSED_S, slice_no)

    def _phase(self, phase, seconds: float, slice_no: int) -> None:
        try:
            self._await(phase(seconds, slice_no < MIN_ROUNDS))
        except Exception:
            self.led.crashed(f"serve {phase.__name__} slice")

    async def _light(self, seconds: float, record: bool) -> None:
        """Poisson arrivals, each timed from its due time."""
        led = self.led
        arrivals, t = [], self.light_rng.expovariate(SERVE_RATE_RPS)
        while t < seconds:
            arrivals.append((t, *self.draw(self.light_mix)))
            t += self.light_rng.expovariate(SERVE_RATE_RPS)
        origin = time.perf_counter()

        async def one(offset, request, expected, label):
            due = origin + offset
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            led.samples["serve_late"].append(time.perf_counter() - due)
            answer = await self.server.submit(request)
            led.samples["serve_light"].append(time.perf_counter() - due)
            self._check(answer, expected, label, record)

        await asyncio.gather(*(one(*a) for a in arrivals))

    async def _closed(self, seconds: float, record: bool) -> None:
        """Tenants that each wait for a reply before the next request."""
        led = self.led
        start = time.perf_counter()
        end = start + seconds
        last = [start]

        async def tenant() -> None:
            while time.perf_counter() < end:
                request, expected, label = self.draw(self.closed_mix)
                t0 = time.perf_counter()
                answer = await self.server.submit(request)
                last[0] = time.perf_counter()
                led.samples["serve_closed"].append(last[0] - t0)
                led.counts["serve_closed_ok"] += answer.ok
                # Closed-loop draws depend on timing: not recorded.
                self._check(answer, expected, label, False)

        await asyncio.gather(*(tenant() for _ in range(SERVE_TENANTS)))
        led.samples["serve_closed_window"].append(last[0] - start)


# ----------------------------------------------------------------------
# stream-online
# ----------------------------------------------------------------------


class StreamPath(Path):
    """Counter streams on every board and one contention run, cycled a
    few per slice, plus the CSV trace replay in every slice."""

    def __init__(self, led: Ledger) -> None:
        from repro.model.framework import Framework

        super().__init__(led)
        self.framework = Framework()
        self.units = itertools.cycle(list(self.fx.streams) + ["contention"])

    def step(self, slice_no: int) -> None:
        record = slice_no < MIN_ROUNDS
        for _ in range(STREAM_UNITS):
            unit = next(self.units)
            if unit == "contention":
                self._contention(record)
            else:
                self._stream(unit, record)
        self.led.checkpoint()
        self._replay()

    def _stream(self, case, record: bool) -> None:
        from repro.stream.engine import StreamTuner

        led = self.led
        what = f"stream {case.label}"
        try:
            t0 = time.perf_counter()
            result = StreamTuner(self.framework, case.source,
                                 self.fx.devices[case.board],
                                 stream_config()).run()
            led.samples["stream_run"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        led.counts["stream_decisions"] += result.decisions
        led.op(case.expected_final is None
               or result.final_model == case.expected_final,
               f"{what}: ended on {result.final_model}, batch answer "
               f"{case.expected_final}")
        if record:
            led.answers["stream"].setdefault(case.label,
                                             stream_digest(result))

    def _contention(self, record: bool) -> None:
        from repro.stream.engine import MultiAppStreamTuner

        fx, led = self.fx, self.led
        board = fx.plan.contention_board
        what = f"contention run on {board}"
        try:
            t0 = time.perf_counter()
            multi = MultiAppStreamTuner(self.framework,
                                        fx.contention_sources(),
                                        fx.devices[board],
                                        stream_config()).run()
            led.samples["stream_run"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        led.counts["stream_decisions"] += sum(a.decisions for a in multi.apps)
        digest = contention_digest(multi)
        led.op(digest == fx.contention_reference,
               f"{what}: differs from the set-up run of the same streams")
        if record:
            led.answers["stream"].setdefault(f"contention/{board}", digest)

    def _replay(self) -> None:
        from repro.stream.engine import StreamTuner
        from repro.stream.sources import TraceWindowSource

        fx, led = self.fx, self.led
        board = fx.plan.trace_board
        what = f"trace replay on {board}"
        try:
            t0 = time.perf_counter()
            source = TraceWindowSource.from_csv(
                fx.trace_csv, chunk_size=trace_config().chunk_size,
                workload_name="trace-kernel", board_name=board)
            result = StreamTuner(self.framework, source, fx.devices[board],
                                 trace_config()).run()
            led.samples["stream_trace"].append(time.perf_counter() - t0)
        except Exception:
            led.crashed(what)
            return
        led.counts["trace_events"] += result.events
        led.op(stream_digest(result) == fx.trace_reference,
               f"{what}: CSV replay differs from the in-memory replay")


PATHS = {
    "cli": CliPath,
    "tune": TunePath,
    "serve": ServePath,
    "stream": StreamPath,
}


def round_order(names, focus) -> List[str]:
    """One round's slices: every focus path twice, at opposite points of
    the round, and every other path once in between."""
    lead = [name for name in names if name in focus]
    rest = [name for name in names if name not in focus]
    half = len(rest) // 2
    return lead + rest[:half] + lead + rest[half:]


def run_rounds(paths: Dict[str, Path], focus, seconds: float,
               clock=None) -> int:
    """Run rounds of slices (:func:`round_order`), at least
    ``MIN_ROUNDS`` rounds and then while another round of median length
    ends nearer to ``seconds`` than stopping does; returns the rounds.
    With a ``hostspeed.HostClock``, the ledger calibrates the host speed
    before the first slice and at every checkpoint: after each slice and
    between the phases of a slice (``Ledger.checkpoint``).

    Nothing of the program's runs between slices: it keeps its heap,
    span buffer and store contents, and the garbage collector runs when
    the program's allocations trigger it.
    """
    start = time.perf_counter()
    lengths: List[float] = []
    slices = dict.fromkeys(paths, 0)
    order = round_order(list(paths), focus)
    led = next(iter(paths.values())).led
    if clock is not None:
        led.start_clock(clock)
    try:
        while True:
            elapsed = time.perf_counter() - start
            if len(lengths) >= MIN_ROUNDS and (
                    elapsed + sorted(lengths)[len(lengths) // 2] / 2
                    >= seconds):
                return len(lengths)
            for name in order:
                if seconds > 0:
                    led.run_share = (time.perf_counter() - start) / seconds
                paths[name].step(slices[name])
                slices[name] += 1
                led.checkpoint()
            lengths.append(time.perf_counter() - start - elapsed)
    finally:
        for path in paths.values():
            path.close()
