"""Observability: fence-episode tracing, cycle attribution, exporters.

The subsystem has three layers:

* :mod:`repro.obs.tracer` — the :class:`Tracer`: typed span/instant
  records emitted by guard-checked hooks inside the simulator (fence
  episodes, bounce→retry chains, Order/CO directory transactions, W+
  recovery timelines, L1 miss/writeback and NoC message spans), stored
  flat and formatted only at export; :class:`TraceEvent` is the view.
* :mod:`repro.obs.attrib` — the :class:`CycleAttribution`: every core's
  cycles split into an exact busy / fence-stall / other / idle tree.
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` — Chrome
  ``trace_event`` JSON (Perfetto / ``chrome://tracing``), a compact
  JSONL stream, and the ``repro run --trace`` text timeline.

One listener slot: every hook site in the simulator is guarded by a
plain ``tracer is None`` check on a cached field — no dynamic dispatch,
no null-object method calls — so the unobserved hot path stays within
noise of the pre-observability kernel (referee: ``bench/``'s
``sweep_hot`` workload and its bound).  Two listeners may sit in that
slot: a :class:`Tracer` (every component) or a
:class:`CycleAttribution` (cores, write buffers and L1s only — it
answers the tracer's hook names and ignores most of them; see
:mod:`repro.obs.attrib`).  What the probes cost when *on* is refereed
by ``bench/``'s ``probes_on`` workload and its ``*.on_over_off`` ratios.
"""

from repro.obs.attrib import CycleAttribution
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "CycleAttribution",
    "NULL_TRACER",
    "Observability",
    "TraceEvent",
    "Tracer",
]


class _Both:
    """Tracer *and* attribution on one run (only tests ask for both):
    a hook call on a core, write buffer or L1 reaches the two of them."""

    def __init__(self, tracer, attrib):
        self._heard_by, self.bind = (attrib, tracer), attrib.bind

    def __getattr__(self, hook):  # once per hook name, then cached
        attributed, traced = (getattr(x, hook) for x in self._heard_by)

        def both(*args, **kwargs):
            attributed(*args, **kwargs)
            return traced(*args, **kwargs)  # wf_unwind_all's count

        setattr(self, hook, both)
        return both


class Observability:
    """One run's worth of observability state: tracer + cycle
    attribution.

    Construct, pass to :func:`repro.workloads.base.run_workload` (or
    call :meth:`attach` on a hand-built machine before ``run()``), then
    read ``tracer`` / ``attrib`` after the run::

        obs = Observability()
        run = run_workload("fib", FenceDesign.W_PLUS, obs=obs)
        write_chrome_trace("t.json", obs.tracer)
    """

    def __init__(
        self,
        trace: bool = True,
        max_events=None,
        attrib: bool = False,
    ):
        self.tracer = Tracer(max_events=max_events) if trace else None
        self.attrib = CycleAttribution() if attrib else None

    def attach(self, machine) -> "Observability":
        """Wire this session into *machine* (before ``machine.run()``)."""
        if self.tracer is not None:
            machine.attach_tracer(self.tracer)
        if self.attrib is not None:
            machine.attach_attrib(
                self.attrib if self.tracer is None
                else _Both(self.tracer, self.attrib))
        return self
