"""The runtime imports no third-party package.

``import repro`` is paid by every CLI cold start, every farm worker and
every benchmark child; networkx alone used to be more than half of it.
networkx is a test-only dependency now (the reference oracle of the SCV
checker's differential tests) and numpy was never used — this guard
keeps either from drifting back into the import graph.
"""

import glob
import os
import re
import subprocess
import sys

import repro

RUNTIME_MODULES = ("repro", "repro.cli", "repro.verify", "repro.synth",
                   "repro.farm")
BANNED = ("networkx", "numpy")


def test_runtime_imports_neither_networkx_nor_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import importlib, sys\n"
        f"for name in {RUNTIME_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print([m for m in {BANNED!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_simulator_core_does_not_know_about_attribution():
    """Stall sites report to the one listener in their ``tracer`` slot;
    ``core/``, ``mem/`` and ``fences/`` carry no second hook set — no
    ``.attrib`` slot, no ``attach_attrib``, no ``attrib.*`` call (the
    word *attribute* is not what this is about)."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    hits = []
    for sub in ("core", "mem", "fences"):
        for path in sorted(glob.glob(os.path.join(pkg, sub, "*.py"))):
            with open(path) as fh:
                hits += [f"{path}:{n}: {line.rstrip()}"
                         for n, line in enumerate(fh, 1)
                         if re.search(r"attrib(?!ute)", line)]
    assert not hits, "\n".join(hits)
