"""Replayable simulated threads.

A workload thread is a generator function ``fn(ctx)`` yielding
:mod:`repro.core.isa` operations.  :class:`SimThread` wraps the
generator and keeps a *committed log* of (operation, result) pairs.

That log is the W+ register checkpoint (paper §3.3.3): rolling back to
a checkpoint re-creates the generator and replays the logged prefix —
with zero simulated time — then resumes live execution.  This works
because threads are required to be deterministic functions of the
results the simulator hands back (per-thread RNGs restart from their
seed on every (re)creation via :class:`ThreadContext`).
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, List, Optional, Tuple

from repro.common.errors import ThreadReplayError
from repro.core import isa


class ThreadContext:
    """Per-thread facilities handed to the workload generator.

    ``rng`` restarts from ``seed`` each time the generator is
    (re)constructed, so replayed prefixes draw the same random numbers.
    The first draw after a (re)construction builds it (litmus, chaos
    and farm programs never draw, and seeding was most of ``spawn``);
    from then on it is a plain instance attribute — ``cached_property``
    is a non-data descriptor, so a hot ``ctx.rng.random()`` skips it.
    """

    def __init__(self, tid: int, num_threads: int, seed: int, shared=None):
        self.tid = tid
        self.num_threads = num_threads
        self.seed = seed
        self.shared = shared  # workload-defined shared-state handle

    @cached_property
    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def _reset_rng(self) -> None:
        self.__dict__.pop("rng", None)


class SimThread:
    """One simulated thread with checkpoint/rollback support."""

    def __init__(self, fn: Callable, ctx: ThreadContext, keep_log: bool = True):
        self._fn = fn
        self.ctx = ctx
        self.tid = ctx.tid
        self.finished = False
        #: the replay log as parallel lists (ops / results) — parallel
        #: rather than (op, result) tuples so the next_op hot path does
        #: two list writes instead of allocating a tuple per op.  Only
        #: W+ ever rolls back; other designs pass ``keep_log=False``
        #: and pay neither the log writes nor the log memory.
        self._keep_log = keep_log
        self._log_ops: List[object] = []
        self._log_results: List[object] = []
        #: committed-op count (always maintained; == len(_log_ops) when
        #: the log is kept)
        self._ops = 0
        self._gen = None
        self._started = False
        self._create_generator()
        #: count of rollbacks performed (stats/debugging)
        self.rollbacks = 0

    def _create_generator(self) -> None:
        self.ctx._reset_rng()
        self._gen = self._fn(self.ctx)
        self._started = False
        # re-arm the first-call path; it swaps ``next_op`` to the
        # keep-log-specialized started path after the first op.
        self.next_op = self._next_op_first

    # --- forward execution -------------------------------------------
    #
    # ``next_op`` is called once per committed operation — the hottest
    # call in the simulator after the event queue — so it is state-
    # specialized: the first call primes the generator and rebinds the
    # instance's ``next_op`` to a started-path variant that skips the
    # started/keep-log branches on every subsequent call.

    def _next_op_first(self, prev_result=None):
        """Advance the generator; returns the next op or None when done.

        *prev_result* is the result of the previously-yielded op; it is
        committed to the replay log together with that op.
        """
        if self._started:
            # caller cached the bound method across the rebind (the
            # core binds ``thread.next_op`` to a local per micro-batch)
            if self._keep_log:
                return self._next_op_log(prev_result)
            return self._next_op_nolog(prev_result)
        if self.finished:
            return None
        try:
            op = next(self._gen)
        except StopIteration:
            self.finished = True
            return None
        self._started = True
        if self._keep_log:
            # provisional log entry; result filled in on the next call
            self._log_ops.append(op)
            self._log_results.append(None)
            self.next_op = self._next_op_log
        else:
            self.next_op = self._next_op_nolog
        self._ops += 1
        return op

    #: class-level default so ``thread.next_op`` resolves before
    #: ``_create_generator`` installs the instance binding
    next_op = _next_op_first

    def _next_op_nolog(self, prev_result=None):
        if self.finished:
            return None
        try:
            op = self._gen.send(prev_result)
        except StopIteration:
            self.finished = True
            return None
        self._ops += 1
        return op

    def _next_op_log(self, prev_result=None):
        if self.finished:
            return None
        try:
            # commit the previous op's result before advancing
            self._log_results[-1] = prev_result
            op = self._gen.send(prev_result)
        except StopIteration:
            self.finished = True
            return None
        self._log_ops.append(op)
        self._log_results.append(None)
        self._ops += 1
        return op

    # --- checkpointing --------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the current committed position (cheap: an index).

        Call when the current op (typically a wf) has been *issued*; all
        previously yielded ops are in the log.  The returned token
        restores execution to just after the op most recently yielded.
        """
        if not self._keep_log:
            raise ThreadReplayError(
                f"thread {self.tid}: created without a replay log"
            )
        return len(self._log_ops)

    def rollback(self, token: int) -> None:
        """Discard execution past *token* and replay the prefix.

        Replay is instantaneous in simulated time.  Raises
        :class:`ThreadReplayError` if the thread yields a different
        operation sequence during replay (nondeterminism).
        """
        if token > len(self._log_ops):
            raise ThreadReplayError(
                f"thread {self.tid}: checkpoint {token} beyond log "
                f"({len(self._log_ops)} entries)"
            )
        prefix_ops = self._log_ops[:token]
        prefix_results = self._log_results[:token]
        self._create_generator()
        self._log_ops = []
        self._log_results = []
        self._ops = 0
        self.finished = False
        self.rollbacks += 1
        for i, expected_op in enumerate(prefix_ops):
            op = self.next_op(None if i == 0 else prefix_results[i - 1])
            if op != expected_op:
                raise ThreadReplayError(
                    f"thread {self.tid}: replay divergence at op {i}: "
                    f"expected {expected_op!r}, got {op!r}"
                )
        # the last prefix op has been re-yielded; its result will be
        # supplied by the core when it resumes with next_op(result).

    def fast_forward(self, results) -> None:
        """Advance a fresh thread through its first ``len(results) + 1``
        ops, giving each earlier op its recorded result, as
        :meth:`rollback` replays its log; the last op's result comes
        from the core when it resumes."""
        self.next_op(None)
        next_op = self.next_op  # the started path, bound by that call
        for result in results:
            next_op(result)

    @property
    def ops_committed(self) -> int:
        return self._ops
