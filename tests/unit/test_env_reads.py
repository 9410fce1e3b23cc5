"""A run's settings are read from the environment at one edge only.

Library code takes its settings (sanitizer mode, resource budget, farm
store) as values; the commands resolve them once and hand them down, and
a farm job carries them in its config, so they are part of its content
key.  A worker that reads its own environment would let a warm store
serve a row made under other settings.  This pins the readers that
remain: one variable each, in three modules.
"""

import os
import re

import repro

#: module (relative to src/repro) -> the variables it may read
ALLOWED = {
    "sanitizer/core.py": ["REPRO_SANITIZE"],
    "farm/campaign.py": ["REPRO_FARM_WORKERS", "REPRO_FARM_DB"],
    "farm/spec.py": ["REPRO_CODE_REV"],
}
READ = re.compile(r"\benviron\b|\bgetenv\b|\bputenv\b")


def _sources():
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    for root, _, files in os.walk(pkg):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, pkg), fh.read()


def test_only_the_edge_modules_read_the_environment():
    reads = {}
    for rel, text in _sources():
        lines = [line.strip() for line in text.splitlines()
                 if READ.search(line)]
        if lines:
            reads[rel.replace(os.sep, "/")] = lines
    assert sorted(reads) == sorted(ALLOWED), reads
    for rel, names in ALLOWED.items():
        found = [re.findall(r"REPRO_\w+", line) for line in reads[rel]]
        assert found == [[name] for name in names], (rel, reads[rel])


def test_no_budget_variable_is_left():
    hits = [rel for rel, text in _sources() if "REPRO_MAX_" in text]
    assert hits == []
