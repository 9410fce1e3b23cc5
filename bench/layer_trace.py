"""Host-time layer profile of the simulator, taken from outside.

Nothing under ``src/`` knows about this file.  :class:`LayerTracer`
installs class- and module-level wrappers around the public entry
points of each simulator stratum (the tables :data:`CLASS_LAYERS` and
:data:`FUNCTION_LAYERS` below),
runs one benchmark body, and removes them again.  Every wrapped call
is a *span*: a stack of open spans gives each one its parent and its
self time (duration minus the time its child spans cover).  Fine spans
are aggregated online per stratum (``calls``, ``self_s``); coarse spans
(workload > leg > case/job > construct/setup/run/check/export) are kept
in memory and written out by the caller when the body has ended.

Three mechanisms reach code that is not a plain public method:

* **handlers** — the callback handed to the queue's ``schedule`` /
  ``schedule_at`` / ``unsafe_schedule_at`` is wrapped and charged to
  the stratum its label prefix names (``cpu.`` / ``l1.`` / ``dir.`` /
  ``cfence.``; anything else is a housekeeping pump);
* **generators** — the function passed to ``Machine.spawn`` is proxied
  so every ``next``/``send`` on the workload generator is a span;
* **continuations** — the ``on_done`` / ``on_bounce`` callables the
  core hands to ``L1Controller.read`` / ``issue_store`` / ``issue_rmw``
  are wrapped and charged back to ``core.cpu`` (otherwise the whole CPU
  consumer loop would be billed to whichever L1 handler resumed it).

What this cannot see: a closure one layer hands another through an
object attribute (``Transaction.on_done``) runs on the invoking
handler's account, and the cost of the wrappers themselves lands in the
*caller's* self time.  ``trace.overhead_x`` says how large that is.

All times here are **host** seconds.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: stratum names, in report order; ``other`` is the unattributed rest
STRATA: Tuple[str, ...] = (
    "common.events",
    "core.cpu",
    "workloads.gen",
    "mem.l1controller",
    "mem.directory",
    "mem.noc",
    "mem.writebuffer",
    "mem.cache",
    "core.bypass_set",
    "fences",
    "sim.machine",
    "sim.scv",
    "sim.pumps",
    "workloads.setup",
    "verify",
    "synth",
    "faults.chaos",
    "faults.injector",
    "obs.tracer",
    "obs.export",
    "obs.attrib",
    "sanitizer",
    "farm.store",
    "farm.worker",
    "farm.campaign",
    "other",
)
_INDEX = {name: i for i, name in enumerate(STRATA)}

#: event-label prefix -> stratum of the handler; any other label is a
#: housekeeping pump (watchdog, governor, sanitizer, metrics)
LABEL_PREFIXES = (
    ("cpu.", "core.cpu"),
    ("l1.", "mem.l1controller"),
    ("dir.", "mem.directory"),
    ("cfence.", "fences"),
)
PUMP_STRATUM = "sim.pumps"

#: placeholders for rows whose classes are looked up at install time
_QUEUE = "<resolved queue class>"
_POLICIES = "<every FencePolicy subclass>"
_WORKLOADS = "<every Workload subclass>"

#: (stratum, "module:Class", options).  Options: ``only`` names the
#: methods to wrap (default: every non-underscore plain function the
#: class defines); ``init`` also wraps ``__init__``; ``coarse`` maps a
#: method to the coarse-span name it records; ``callbacks`` maps a
#: method to (parameter names, stratum) whose callables are wrapped;
#: ``special`` maps a method to the :class:`LayerTracer` method that
#: adapts it before it becomes a span; ``threads`` makes the wrappers
#: transparent off the tracing thread.
CLASS_LAYERS = (
    ("common.events", _QUEUE, {
        "only": ("schedule", "schedule_at", "unsafe_schedule_at",
                 "cancel", "run"),
        "special": {"schedule": "_scheduler", "schedule_at": "_scheduler",
                    "unsafe_schedule_at": "_scheduler"},
    }),
    ("core.cpu", "repro.core.cpu:Core", {}),
    ("mem.l1controller", "repro.mem.l1controller:L1Controller", {
        "callbacks": {
            "read": (("on_done",), "core.cpu"),
            "issue_store": (("on_done", "on_bounce"), "core.cpu"),
            "issue_rmw": (("on_done", "on_bounce"), "core.cpu"),
        },
    }),
    ("mem.directory", "repro.mem.directory:DirectoryBank", {}),
    ("mem.noc", "repro.mem.noc:MeshNoc", {}),
    ("mem.writebuffer", "repro.mem.writebuffer:WriteBuffer", {}),
    ("mem.cache", "repro.mem.cache:SetAssocCache", {}),
    ("core.bypass_set", "repro.core.bypass_set:BypassSet", {}),
    ("fences", _POLICIES, {}),
    ("sim.machine", "repro.sim.machine:Machine", {
        "only": ("spawn", "run"), "init": True,
        "coarse": {"__init__": "construct", "run": "run"},
        "special": {"spawn": "_spawner", "run": "_run_observer"},
    }),
    ("sim.scv", "repro.sim.scv:DependenceRecorder", {}),
    ("workloads.setup", _WORKLOADS, {
        "only": ("setup", "check"),
        "coarse": {"setup": "setup", "check": "check"},
    }),
    ("synth", "repro.synth.search:PlacementOracle", {}),
    ("faults.injector", "repro.faults.injector:FaultInjector", {}),
    ("obs.tracer", "repro.obs.tracer:Tracer", {}),
    ("obs.attrib", "repro.obs.attrib:CycleAttribution", {}),
    ("sanitizer", "repro.sanitizer.core:Sanitizer", {}),
    ("farm.store", "repro.farm.store:FarmStore", {
        "init": True, "threads": True,
    }),
)

#: (stratum, "module:function", coarse-span name or None)
FUNCTION_LAYERS = (
    ("sim.scv", "repro.sim.scv:find_scv", None),
    ("sim.scv", "repro.sim.scv:build_dependence_graph", None),
    ("verify", "repro.verify.engine:run_verification", None),
    ("verify", "repro.verify.oracles:run_program", "case"),
    ("verify", "repro.verify.generator:generate_program", None),
    ("verify", "repro.verify.perturb:schedule_points", None),
    ("verify", "repro.verify.perturb:adversary_points", None),
    ("synth", "repro.synth.engine:run_synthesis", None),
    ("synth", "repro.synth.search:synthesize", None),
    ("synth", "repro.synth.cost:measure_cycles", None),
    ("synth", "repro.synth.cost:site_probes", None),
    ("faults.chaos", "repro.faults.chaos:run_chaos_matrix", None),
    ("faults.chaos", "repro.faults.chaos:run_chaos_case", None),
    ("obs.export", "repro.obs.export:write_jsonl", "export"),
    ("obs.export", "repro.obs.analyze:load_jsonl", "export"),
    ("obs.export", "repro.obs.analyze:replay_attribution", "export"),
    ("farm.worker", "repro.farm.worker:run_worker", None),
    ("farm.worker", "repro.farm.exec:execute_job", "job"),
    ("farm.campaign", "repro.farm.campaign:submit", None),
    ("farm.campaign", "repro.farm.campaign:run_campaign", None),
    ("farm.campaign", "repro.farm.campaign:collect", None),
    ("farm.campaign", "repro.farm.clients:farm_chaos_cases", None),
)


class TraceSpecError(Exception):
    """An entry point named in the layer table no longer exists."""


def _resolve(target: str):
    """``"module:attr"`` -> the object, or :class:`TraceSpecError`."""
    module_name, _, attr = target.partition(":")
    try:
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise TraceSpecError(f"{target}: {exc}") from None


def _all_subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _target_classes(target: str) -> list:
    """The classes one :data:`CLASS_LAYERS` row stands for."""
    if target == _QUEUE:
        from repro.common.kernels import make_queue

        return [type(make_queue()[0])]
    if target == _POLICIES:
        from repro.common.params import FenceDesign
        from repro.fences.base import FencePolicy, policy_class

        for design in FenceDesign:
            policy_class(design)  # imports the design's module
        return [FencePolicy] + _all_subclasses(FencePolicy)
    if target == _WORKLOADS:
        from repro.workloads.base import Workload, load_all_workloads

        load_all_workloads()
        return [Workload] + _all_subclasses(Workload)
    return [_resolve(target)]


def _class_methods(cls, opts: dict) -> List[str]:
    """Names of the plain functions of *cls* the row asks to wrap."""
    own = vars(cls)
    only = opts.get("only")
    if only is None:
        names = [n for n, v in own.items()
                 if not n.startswith("_") and inspect.isfunction(v)]
    else:
        names = [n for n in only if inspect.isfunction(own.get(n))]
    if opts.get("init") and inspect.isfunction(own.get("__init__")):
        names.append("__init__")
    return names


def entry_points() -> List[Tuple[str, str]]:
    """Every ``(stratum, "module:Class.method" | "module:function")``
    the table resolves to on the current tree.

    Raises :class:`TraceSpecError` when a named class, method, function
    or callback parameter is gone — a rename must fail loudly here, not
    show up later as ``calls = 0``.
    """
    points = []
    for stratum, target, opts in CLASS_LAYERS:
        classes = _target_classes(target)
        wrapped_any = set()
        for cls in classes:
            for name in _class_methods(cls, opts):
                wrapped_any.add(name)
                points.append(
                    (stratum, f"{cls.__module__}:{cls.__name__}.{name}"))
        wanted = set(opts.get("only", ()))
        if opts.get("init"):
            wanted.add("__init__")
        missing = wanted - wrapped_any
        if missing or not wrapped_any:
            raise TraceSpecError(
                f"{target}: no method {sorted(missing) or 'at all'} to wrap")
        for method, (params, _stratum) in opts.get("callbacks", {}).items():
            fn = vars(classes[0]).get(method)
            have = inspect.signature(fn).parameters if fn else ()
            gone = [p for p in params if p not in have]
            if gone:
                raise TraceSpecError(
                    f"{target}.{method}: no parameter {gone}")
    for stratum, target, _coarse in FUNCTION_LAYERS:
        if not inspect.isfunction(_resolve(target)):
            raise TraceSpecError(f"{target}: not a function")
        points.append((stratum, target))
    return points


class LayerTracer:
    """Install the wrappers, account spans, remove the wrappers.

    Use as a context manager around one benchmark body; build no
    machine before entering it (instances cache bound methods)."""

    def __init__(self):
        n = len(STRATA)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        #: child-time accumulators of the open spans; slot 0 is the root
        self._stack: List[float] = [0.0]
        #: coarse spans: [name, start, end, parent index]
        self.coarse: List[list] = []
        self._coarse_open: List[int] = [-1]
        #: ``(events executed, MachineStats)`` of every machine run, for
        #: the simulated per-layer counters
        self.machines: List[tuple] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: (function, wrapper) of every traced module function
        self._rebound: List[Tuple[object, object]] = []
        self._label_index: Dict[str, int] = {}
        self._thread = threading.get_ident()
        self._t_enter = 0.0
        #: wall between ``__enter__`` and ``__exit__``
        self.wall_s = 0.0
        self._handler_code = None
        self._installed = False

    # -- span accounting -------------------------------------------------

    def _fine(self, fn: Callable, idx: int) -> Callable:
        """*fn* as a fine span of stratum *idx*."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        now = perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - t0
                self_s[idx] += dur - stack.pop()
                calls[idx] += 1
                stack[-1] += dur

        return span

    def _coarse(self, fn: Callable, idx: int, name: str) -> Callable:
        """*fn* as a fine span that is also kept as a coarse span."""
        fine = self._fine(fn, idx)
        records = self.coarse
        open_ids = self._coarse_open
        now = perf_counter

        def span(*args, **kwargs):
            rec = [name, now(), 0.0, open_ids[-1]]
            open_ids.append(len(records))
            records.append(rec)
            try:
                return fine(*args, **kwargs)
            finally:
                rec[2] = now()
                open_ids.pop()

        return span

    def span(self, name: str):
        """Context manager: a coarse span opened by the benchmark body
        itself (workload, leg, case).  Its own time is ``other``."""
        return _BodySpan(self, name)

    def snapshot(self) -> List[float]:
        """Copy of the per-stratum self times, for per-leg deltas."""
        return list(self.self_s)

    # -- the three special mechanisms -------------------------------------

    def _handler(self, fn: Callable, label: str) -> Callable:
        idx = self._label_index.get(label)
        if idx is None:
            stratum = PUMP_STRATUM
            for prefix, name in LABEL_PREFIXES:
                if label.startswith(prefix):
                    stratum = name
                    break
            idx = self._label_index[label] = _INDEX[stratum]
        return self._fine(fn, idx)

    def _scheduler(self, fn: Callable) -> Callable:
        """A queue ``schedule*`` method that wraps the callback it is
        handed (once — ``schedule_at`` delegates to ``schedule``)."""
        if list(inspect.signature(fn).parameters)[2:] != ["fn", "label"]:
            raise TraceSpecError(
                f"{fn.__qualname__}: expected (self, when, fn, label)")
        handler = self._handler
        handler_code = self._handler_code

        def schedule(queue, when, fn_, label=""):
            if getattr(fn_, "__code__", None) is not handler_code:
                fn_ = handler(fn_, label)
            return fn(queue, when, fn_, label)

        return schedule

    def _with_callbacks(self, fn: Callable, params: Tuple[str, ...],
                        idx: int) -> Callable:
        """*fn* with the callables bound to *params* wrapped as spans
        of stratum *idx* (the core's continuations)."""
        names = list(inspect.signature(fn).parameters)
        positions = [(names.index(p), p) for p in params]
        fine = self._fine
        code = self._handler_code

        def call(*args, **kwargs):
            args = list(args)
            for pos, name in positions:
                if pos < len(args):
                    if getattr(args[pos], "__code__", None) is not code:
                        args[pos] = fine(args[pos], idx)
                elif name in kwargs:
                    if getattr(kwargs[name], "__code__", None) is not code:
                        kwargs[name] = fine(kwargs[name], idx)
            return fn(*args, **kwargs)

        return call

    def _spawner(self, fn: Callable) -> Callable:
        """``Machine.spawn`` with the thread function proxied."""
        gen_idx = _INDEX["workloads.gen"]
        fine = self._fine

        def spawn(machine, thread_fn, *args, **kwargs):
            def proxied(ctx):
                return _GeneratorProxy(thread_fn(ctx), fine, gen_idx)

            return fn(machine, proxied, *args, **kwargs)

        return spawn

    def _run_observer(self, fn: Callable) -> Callable:
        """``Machine.run`` that also notes the machine's counters."""
        machines = self.machines

        def run(machine, *args, **kwargs):
            try:
                return fn(machine, *args, **kwargs)
            finally:
                machines.append((machine.queue.executed, machine.stats))

        return run

    def _main_thread_only(self, wrapped: Callable, fn: Callable) -> Callable:
        """Farm heartbeat threads call ``FarmStore`` too; the span stack
        belongs to the tracing thread alone."""
        owner = self._thread
        ident = threading.get_ident

        def guarded(*args, **kwargs):
            if ident() != owner:
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)

        return guarded

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        entry_points()  # resolve everything first: fail before patching
        # the code object every fine span shares, to recognise callables
        # that are already wrapped
        self._handler_code = self._fine(lambda: None, 0).__code__
        for stratum, target, opts in CLASS_LAYERS:
            idx = _INDEX[stratum]
            coarse = opts.get("coarse", {})
            callbacks = opts.get("callbacks", {})
            special = opts.get("special", {})
            for cls in _target_classes(target):
                for name in _class_methods(cls, opts):
                    fn = vars(cls)[name]
                    inner = fn
                    if name in callbacks:
                        params, cb_stratum = callbacks[name]
                        inner = self._with_callbacks(
                            fn, params, _INDEX[cb_stratum])
                    elif name in special:
                        inner = getattr(self, special[name])(fn)
                    if name in coarse:
                        new = self._coarse(inner, idx, coarse[name])
                    else:
                        new = self._fine(inner, idx)
                    if opts.get("threads"):
                        new = self._main_thread_only(new, fn)
                    self._patch(cls, name, new)
        for stratum, target, coarse in FUNCTION_LAYERS:
            fn = _resolve(target)
            idx = _INDEX[stratum]
            new = (self._coarse(fn, idx, coarse) if coarse
                   else self._fine(fn, idx))
            self._rebound.append((fn, new))
        self._rebind(forward=True)
        self._installed = True

    def _rebind(self, forward: bool) -> None:
        """Point every ``repro.*`` module global that *is* a traced
        function at its wrapper (or back): callers import by name."""
        pairs = (self._rebound if forward
                 else [(new, fn) for fn, new in self._rebound])
        # ids are unique among live objects, and _rebound keeps both alive
        table = {id(old): new for old, new in pairs}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in table:
                    setattr(module, attr, table[id(value)])

    def remove(self) -> None:
        if not self._installed:
            return
        self._rebind(forward=False)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._rebound.clear()
        self._installed = False

    def __enter__(self) -> "LayerTracer":
        if not self._installed:
            self.install()
        self._t_enter = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._t_enter
        self.remove()

    # -- results --------------------------------------------------------------

    def strata(self) -> Dict[str, dict]:
        """``{stratum: {calls, self_s, self_share}}``; ``other`` is what
        the root span did not hand to any child."""
        own = list(self.self_s)
        own[_INDEX["other"]] = self.wall_s - self._stack[0]
        return {
            name: {
                "calls": self.calls[i],
                "self_s": own[i],
                "self_share": own[i] / self.wall_s if self.wall_s else 0.0,
            }
            for i, name in enumerate(STRATA)
        }

    def coarse_spans(self) -> List[dict]:
        """Coarse spans with times relative to the start of the body."""
        t0 = self._t_enter
        return [
            {"id": i, "parent": rec[3], "name": rec[0],
             "start_s": rec[1] - t0, "end_s": rec[2] - t0}
            for i, rec in enumerate(self.coarse)
        ]


class _BodySpan:
    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: LayerTracer, name: str):
        self._tracer = tracer
        self._rec = [name, 0.0, 0.0, -1]

    def __enter__(self):
        tracer = self._tracer
        self._rec[1] = perf_counter()
        self._rec[3] = tracer._coarse_open[-1]
        tracer._coarse_open.append(len(tracer.coarse))
        tracer.coarse.append(self._rec)
        return self

    def __exit__(self, *exc):
        self._rec[2] = perf_counter()
        self._tracer._coarse_open.pop()


class _GeneratorProxy:
    """Stands in for a workload generator; ``send`` is a span."""

    __slots__ = ("_gen", "send")

    def __init__(self, gen, fine: Callable, idx: int):
        self._gen = gen
        self.send = fine(gen.send, idx)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()
