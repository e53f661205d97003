"""Lazy package exports resolve.

A package ``__init__`` maps each exported name to its module
(:func:`repro._lazy.lazy_exports`); a typo in that map would otherwise
fail only on the name's first use.  Each check runs in a fresh
interpreter, so no earlier import can mask a missing one.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: Every package whose ``__init__`` exports lazily.
LAZY_PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(ROOT).parts)
    for path in ROOT.rglob("__init__.py")
    if "lazy_exports(" in path.read_text(encoding="utf-8")
)

_CHECK = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
unresolved = [name for name in package.__all__
              if getattr(package, name, None) is None]
unlisted = sorted(set(package.__all__) - set(dir(package)))
try:
    getattr(package, "no_such_name")
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"unresolved": unresolved, "unlisted": unlisted,
                  "unknown": unknown}))
"""


def _fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def test_the_packages_on_the_tune_path_export_lazily():
    assert {"repro", "repro.comm", "repro.model", "repro.soc",
            "repro.perf"} <= set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_in_a_fresh_interpreter(package):
    result = json.loads(_fresh(_CHECK, package))
    assert result == {"unresolved": [], "unlisted": [],
                      "unknown": "AttributeError"}


def test_builtin_models_resolve_from_the_base_module_alone():
    code = ("import sys, repro.comm.base as base; "
            "print(sorted(type(base.get_model(m)).__name__ "
            "for m in ('SC', 'UM', 'ZC')))")
    assert _fresh(code).strip() == (
        "['StandardCopyModel', 'UnifiedMemoryModel', 'ZeroCopyModel']")
