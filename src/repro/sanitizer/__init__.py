"""Runtime protocol sanitizer (see ``docs/SANITIZER.md``).

Continuous in-flight validation of the structural invariants the
paper's fence designs depend on: directory sharer/owner lists vs the
actual L1 line states, single-writer MESI ownership, Bypass-Set
membership legality per design, write-buffer FIFO/retirement ordering,
event-queue time monotonicity, and W+ recovery-drain completeness.

Attach with :meth:`repro.sim.machine.Machine.attach_sanitizer`; every
hook site guards on a cached ``sanitizer is None`` (the same zero-cost
contract as the tracer and fault injector), so an unsanitized run
executes the exact golden instruction stream.
"""

from repro.common.errors import SanitizerError
from repro.sanitizer.core import (
    DEFAULT_INTERVAL,
    EVENT_HORIZON,
    MODES,
    Sanitizer,
)

__all__ = [
    "DEFAULT_INTERVAL",
    "EVENT_HORIZON",
    "MODES",
    "Sanitizer",
    "SanitizerError",
]
