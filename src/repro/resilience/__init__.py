"""repro.resilience — the policy layer the serve tier will sit on.

PR 1 made faults *injectable* and PR 5 made runs *observable*; this
package makes the pipeline provably *survive* its failure modes:

- :mod:`repro.resilience.deadline` — cooperative deadlines threaded
  through ``Framework.tune``/``tune_many``, the micro-benchmark suite
  and the parallel runner (checkpoints in-process, hard future
  timeouts for pool workers), raising structured
  ``DEADLINE_EXCEEDED`` errors with partial-progress details;
- :mod:`repro.resilience.retry` — declarative
  :class:`~repro.resilience.retry.RetryPolicy` (max attempts,
  exponential backoff, deterministic seeded jitter, retryable-code
  allowlist) replacing the ad-hoc bounded retries;
- :mod:`repro.resilience.breaker` — per-seam circuit breakers
  (closed/open/half-open) shedding calls on seams that keep failing,
  with state transitions emitted as :mod:`repro.obs` events/gauges;
- :mod:`repro.resilience.singleflight` — keyed single-flight with
  lock-file dedup so concurrent characterization-cache misses for one
  board compute once (stampede protection);
- :mod:`repro.resilience.chaos` — seeded chaos schedules composing the
  :mod:`repro.robustness` faults (plus delay/hang timing faults) over
  full ``tune_many`` runs, asserting that guards hold, every failure
  surfaces a structured code, budgets are respected and nothing hangs
  (``repro chaos`` on the CLI).  Import it as
  ``repro.resilience.chaos`` — it sits above the framework and is kept
  out of this namespace to avoid an import cycle.

Everything here is opt-in and ambient-off by default: without an
active deadline, breaker registry or retry budget, the hooks cost one
context-variable read or branch, preserving the <2 % disabled-overhead
budget the obs layer established.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.breaker": ("BreakerRegistry", "BreakerState",
                                 "CircuitBreaker"),
    "repro.resilience.deadline": ("Deadline", "active_deadline",
                                  "checkpoint", "deadline_scope"),
    "repro.resilience.retry": ("RetryPolicy",),
    "repro.resilience.singleflight": ("SingleFlight",),
})

__all__ = [
    "BreakerRegistry",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "SingleFlight",
    "active_deadline",
    "checkpoint",
    "deadline_scope",
]
