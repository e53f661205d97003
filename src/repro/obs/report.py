"""``TuneReport`` — every intermediate of one ``Framework.tune`` run.

The framework's :class:`~repro.model.framework.TuningReport` answers
*what* was recommended; this record answers *why*: the raw profile
counters, the cache-usage percentages, the thresholds the decision
consulted, the zone it landed in, the raw-vs-capped speedup estimate,
and the caveats/confidence of a degraded run — all pulled from the very
objects the decision flow used, so the recorded intermediates exactly
match the values behind the verdict.  Build one from any answer with
:meth:`TuneReport.from_tuning`; ``repro tune --report out.json``
serializes it and :meth:`TuneReport.from_json` round-trips it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

#: Schema version stamped into every serialized report.
TUNE_REPORT_VERSION = 1


def _nan_safe(value: Any) -> Any:
    """NaN/inf → ``None`` so the JSON stays standard-compliant."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class TuneReport:
    """A serializable record of one decision-flow run."""

    workload: str
    board: str
    current_model: str
    degraded: bool
    #: Raw :class:`~repro.profiling.counters.AppProfile` counters, or
    #: ``None`` when profiling failed in degraded mode.
    profile: Optional[Dict[str, Any]]
    #: Device characterization summary (thresholds, peaks, caps), or
    #: ``None`` when characterization failed.
    device: Optional[Dict[str, Any]]
    #: Cache-usage percentages exactly as the decision consumed them
    #: (eqns 1-2); NaN degrades to ``None`` on serialization.
    cpu_cache_usage_pct: float
    gpu_cache_usage_pct: float
    #: Thresholds the decision consulted (from the recommendation, so a
    #: degraded run records whatever was actually available).
    thresholds: Dict[str, float]
    #: Fig-3 zone the GPU usage landed in (1/2/3), ``None`` if degraded.
    zone: Optional[int]
    decision: Dict[str, Any]
    #: Raw vs capped speedup estimate (eqns 3-4), or ``None``.
    estimate: Optional[Dict[str, Any]]
    #: Wall-clock seconds per tune stage (monotonic clock).
    timings_s: Dict[str, float] = field(default_factory=dict)
    version: int = TUNE_REPORT_VERSION

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tuning(cls, report) -> "TuneReport":
        """Build from a :class:`~repro.model.framework.TuningReport`.

        Every value (stage timings included) is read off the answer
        itself — the same profile/device/recommendation objects the
        decision flow used; nothing is recomputed.
        """
        rec = report.recommendation
        profile = (dataclasses.asdict(report.profile)
                   if report.profile is not None else None)
        device = None
        if report.device is not None:
            dev = report.device
            device = {
                "board_name": dev.board_name,
                "io_coherent": dev.io_coherent,
                "gpu_cache_throughput": dict(dev.gpu_cache_throughput),
                "cpu_cache_throughput": dict(dev.cpu_cache_throughput),
                "gpu_peak_throughput": dev.gpu_peak_throughput,
                "gpu_threshold_pct": dev.gpu_threshold_pct,
                "gpu_zone2_pct": dev.gpu_zone2_pct,
                "cpu_threshold_pct": dev.cpu_threshold_pct,
                "sc_zc_max_speedup": dev.sc_zc_max_speedup,
                "zc_sc_max_speedup": dev.zc_sc_max_speedup,
            }
        estimate = None
        if rec.estimate is not None:
            estimate = {
                "raw": rec.estimate.raw,
                "capped": rec.estimate.capped,
                "cap": rec.estimate.cap,
                "direction": rec.estimate.direction,
                "percent": rec.estimate.percent,
            }
        return cls(
            workload=report.workload_name,
            board=report.board_name,
            current_model=report.current_model,
            degraded=report.degraded,
            profile=profile,
            device=device,
            cpu_cache_usage_pct=report.cpu_cache_usage_pct,
            gpu_cache_usage_pct=report.gpu_cache_usage_pct,
            thresholds={
                "cpu_threshold_pct": rec.cpu_threshold_pct,
                "gpu_threshold_pct": rec.gpu_threshold_pct,
                "gpu_zone2_pct": rec.gpu_zone2_pct,
            },
            zone=int(rec.zone) if rec.zone is not None else None,
            decision={
                "model": rec.model.value,
                "reason": rec.reason,
                "confidence": rec.confidence.value,
                "caveats": list(rec.caveats),
                "energy_motivated": rec.energy_motivated,
                "suggests_switch": rec.suggests_switch,
            },
            estimate=estimate,
            timings_s=dict(report.timings_s),
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-standard dict (non-finite floats become ``None``)."""

        def scrub(node):
            if isinstance(node, dict):
                return {k: scrub(v) for k, v in node.items()}
            if isinstance(node, (list, tuple)):
                return [scrub(v) for v in node]
            return _nan_safe(node)

        return scrub(dataclasses.asdict(self))

    def to_json(self, indent: int = 2) -> str:
        """Serialize (stable key order, standard JSON)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TuneReport":
        """Rebuild from :meth:`to_dict` (``None`` usages → NaN)."""
        def pct(value):
            return float("nan") if value is None else value

        fields = dict(data)
        fields["cpu_cache_usage_pct"] = pct(fields.get("cpu_cache_usage_pct"))
        fields["gpu_cache_usage_pct"] = pct(fields.get("gpu_cache_usage_pct"))
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in fields.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "TuneReport":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
