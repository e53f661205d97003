"""The profiler's fault seam survives the profile memo and store.

A profile that the memo or the store already holds was measured
outside any fault plan; under injection every profile call must still
simulate (so the fault fires) and nothing perturbed may be memoized or
persisted.
"""

import pytest

from repro.model.framework import Framework
from repro.perf.cache import ShardedCharacterizationStore
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.soc.board import get_board


def _entries(directory):
    return {path.name: path.read_bytes()
            for path in ShardedCharacterizationStore(directory).entries()}


@pytest.mark.fault
@pytest.mark.parametrize("spec,expected", [
    ("counter-noise:kernel_runtime_s:0.5", "counter-noise"),
    ("stage-delay:profile:0.001", "stage-delay"),
])
def test_stored_profile_never_masks_an_injected_fault(
        tmp_path, shwfs_workload_tx2, spec, expected):
    board = get_board("tx2")
    framework = Framework(cache_dir=str(tmp_path))
    clean = framework.tune(shwfs_workload_tx2, board)
    stored = _entries(tmp_path)
    assert any("-profile-" in name for name in stored)

    with inject_faults(FaultPlan.from_cli(3, [spec])) as injector:
        perturbed = framework.tune(shwfs_workload_tx2, board)
    assert injector.log.counts() == {expected: 1}
    if expected == "counter-noise":
        assert perturbed.profile != clean.profile

    # nothing perturbed reached the store or the memo
    assert _entries(tmp_path) == stored
    assert framework.tune(shwfs_workload_tx2, board) == clean
    assert Framework(cache_dir=str(tmp_path)).tune(
        shwfs_workload_tx2, board) == clean
