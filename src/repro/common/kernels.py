"""Kept only for ``bench/layer_trace.py``, which resolves the queue class
through ``make_queue()`` and is frozen for this PR; nothing in ``src/``
imports this module.  Delete it once the bench names ``EventQueue``."""
from repro.common.events import EventQueue


def make_queue():
    return EventQueue(), "object"
