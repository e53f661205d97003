"""Audit: every timing-affecting backend knob re-keys the store.

A persistent characterization computed under one timing backend must
never be served to another — and within the simulated backend, any
:class:`~repro.sim.config.SimConfig` change alters timing, so *every*
field must reach the cache key.  This test enumerates the dataclass
fields so adding a knob without re-keying fails CI.
"""

import dataclasses

from repro.microbench.suite import MicrobenchmarkSuite
from repro.perf.cache import cache_key
from repro.sim.backend import AnalyticBackend, SimulatedBackend
from repro.sim.config import SimConfig
from repro.soc.board import get_board


def key_for(backend):
    suite = MicrobenchmarkSuite(backend=backend)
    return cache_key(get_board("tx2"), suite.cache_signature())


class TestBackendInKey:
    def test_signature_carries_backend_token(self):
        suite = MicrobenchmarkSuite(backend=SimulatedBackend())
        signature = suite.cache_signature()
        assert signature["backend"] == {
            "name": "simulated",
            "config": SimConfig().signature(),
        }

    def test_analytic_and_simulated_never_collide(self):
        assert key_for(AnalyticBackend()) != key_for(SimulatedBackend())

    def test_default_backend_is_analytic_key(self):
        assert key_for(AnalyticBackend()) == cache_key(
            get_board("tx2"), MicrobenchmarkSuite().cache_signature()
        )


class TestEveryConfigFieldKeyed:
    def test_signature_covers_all_fields(self):
        names = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(SimConfig().signature()) == names

    def test_each_field_changes_the_key(self):
        base = key_for(SimulatedBackend())
        # A distinct, still-valid value per field.
        perturbed = {
            "max_window_lines": 1 << 16,
            "max_sim_transactions": 1 << 20,
            "dram_banks": 16,
            "dram_row_bytes": 4096,
            "row_hit_cycles": 5,
            "row_miss_cycles": 21,
            "row_hit_efficiency": 0.8,
            "row_miss_efficiency": 0.4,
            "contention_quantum_bytes": 8192,
            "seed": 1,
        }
        assert set(perturbed) == {f.name for f in dataclasses.fields(SimConfig)}
        for name, value in perturbed.items():
            config = dataclasses.replace(SimConfig(), **{name: value})
            changed = key_for(SimulatedBackend(config=config))
            assert changed != base, f"SimConfig.{name} does not re-key the store"
