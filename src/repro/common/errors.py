"""Exception types raised by the simulator."""


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulatorError):
    """A machine or workload parameter is invalid."""


class DeadlockError(SimulatorError):
    """The simulated machine reached global quiescence with live threads.

    Raised by the deadlock detector (``repro.sim.deadlock``) when the
    event queue drains while one or more simulated threads have not
    finished.  This is the observable symptom of the naive
    all-weak-fence design of Figure 3a in the paper.
    """

    def __init__(self, message, blocked_cores=(), diagnostics=None,
                 diagnostics_path=None):
        super().__init__(message)
        self.blocked_cores = tuple(blocked_cores)
        #: post-mortem bundle captured by the watchdog at raise time
        #: (per-core WB/BS contents, in-flight events, trace tail);
        #: None when raised outside the watchdog.
        self.diagnostics = diagnostics
        #: path of the JSON artifact the bundle was written to, when the
        #: machine had a diagnostics directory configured.
        self.diagnostics_path = diagnostics_path


class ProtocolError(SimulatorError):
    """The coherence protocol reached an inconsistent state (a bug)."""


class SanitizerError(SimulatorError):
    """The runtime protocol sanitizer found a structural violation.

    Raised (in ``strict`` mode) at the first check that observes broken
    machine state: a directory entry out of sync with the L1s, two
    writable copies of a line, Bypass-Set entries outside a weak-fence
    episode, a non-FIFO write buffer, or a message that can no longer be
    delivered.  See ``docs/SANITIZER.md`` for the invariant catalog.
    """

    def __init__(self, message, violation=None, diagnostics=None,
                 diagnostics_path=None):
        super().__init__(message)
        #: the first violation record: dict with ``invariant``,
        #: ``cycle``, ``core``, ``line`` and ``detail`` keys.
        self.violation = violation
        #: post-mortem bundle in the watchdog format (PR 4), augmented
        #: with the violation record; None when no machine was bound.
        self.diagnostics = diagnostics
        #: path of the JSON artifact, when ``Machine.diag_dir`` was set.
        self.diagnostics_path = diagnostics_path


class ThreadReplayError(SimulatorError):
    """A thread diverged during checkpoint replay.

    Simulated threads must be deterministic functions of the values the
    simulator hands back for each yielded operation; W+ rollback relies
    on replaying that prefix.  Divergence means the thread broke the
    contract (e.g. consulted an unseeded RNG or wall-clock time).
    """


class SCViolationError(SimulatorError):
    """An execution was found to violate sequential consistency."""

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


# ----------------------------------------------------------------------
# CLI exit codes, uniform across subcommands.  0 is success (a budget
# cutoff is a degraded success) and 2 a usage error (argparse's own
# code); the others are named because scripts and CI branch on them.
# 3 is retired and must not be reused.  README "CLI exit codes" and
# docs/SANITIZER.md "Exit codes" restate this table.
# ----------------------------------------------------------------------
EXIT_ORACLE = 1      # a correctness oracle failed (SC, conservation, chaos)
EXIT_DEADLOCK = 4    # the simulated machine deadlocked / the watchdog fired
EXIT_SANITIZER = 5   # protocol-sanitizer violation (strict raise, warn count)

#: error escaping a command handler -> (exit code, stderr label)
EXIT_BY_ERROR = {
    SanitizerError: (EXIT_SANITIZER, "sanitizer violation"),
    DeadlockError: (EXIT_DEADLOCK, "deadlock"),
    SCViolationError: (EXIT_ORACLE, "SC violation"),
}
