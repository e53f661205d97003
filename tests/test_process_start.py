"""What a ``repro tune`` process loads.

A warm store answers a tune with one lookup per entry kind and one
``decide`` (paper Fig. 2), so the process imports the board presets,
the workload builder, the content key, the store and the decision path,
and neither NumPy nor a timing model.  Each run here is a fresh
interpreter: an import made by another test cannot hide one.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: The two cells the warm process answers.
CELLS = [["tune", "shwfs", "nano"], ["tune", "orbslam", "xavier", "--model", "ZC"]]

#: Modules a warm tune must not load.
NOT_LOADED = {
    "numpy",
    "repro.soc.soc", "repro.soc.hierarchy", "repro.soc.stream",
    "repro.soc.analytic",
    "repro.sim.engine", "repro.sim.dramsim", "repro.sim.contention",
    "repro.profiling.profiler",
    "repro.apps.shwfs.centroid", "repro.apps.shwfs.optics",
    "repro.apps.orbslam.orb", "repro.apps.orbslam.fast",
    "repro.apps.orbslam.brief", "repro.apps.orbslam.matching",
    "repro.analysis.validation", "repro.resilience.chaos",
}

#: Packages none of whose modules a warm tune may load.
NOT_LOADED_PACKAGES = ("repro.comm", "repro.serve", "repro.stream",
                       "repro.explore")

#: Runs ``repro.cli.main`` on each argv in ``sys.argv[1]`` (JSON); the
#: last line of stdout is the exit codes and ``sys.modules``.
_RUN = """
import json, sys
from repro.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _fresh_process(cells, store):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(pathlib.Path(repro.__file__).parents[1]), env.get("PYTHONPATH")]))
    argvs = [cell + ["--cache-dir", str(store)] for cell in cells]
    out = subprocess.run([sys.executable, "-c", _RUN, json.dumps(argvs)],
                         env=env, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    text, _, last = out.stdout.rstrip("\n").rpartition("\n")
    result = json.loads(last)
    assert result["codes"] == [0] * len(cells), out.stderr[-2000:]
    return text, set(result["modules"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The cells answered by a process on an empty store, then by a
    fresh process on the store the first one filled."""
    store = tmp_path_factory.mktemp("store")
    cold = _fresh_process(CELLS, store)
    warm = _fresh_process(CELLS, store)
    return cold, warm


def test_a_cold_store_process_answers_and_fills_the_store(runs):
    (cold_text, cold_modules), (warm_text, _) = runs
    assert cold_text.count("recommendation") == len(CELLS)
    assert "repro.soc.hierarchy" in cold_modules  # it characterized
    assert warm_text == cold_text


def test_a_warm_tune_loads_only_the_lookup_path(runs):
    _, (_, modules) = runs
    assert not modules & NOT_LOADED
    assert not [name for name in modules
                if name.startswith(NOT_LOADED_PACKAGES)]


def test_a_simulated_backend_process_loads_the_simulator(tmp_path):
    text, modules = _fresh_process(
        [["tune", "shwfs", "nano", "--backend", "simulated"]], tmp_path)
    assert "recommendation" in text
    assert {"numpy", "repro.sim.engine", "repro.sim.dramsim"} <= modules
