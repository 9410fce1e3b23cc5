"""Job and campaign specifications: content addressing and sharding.

A **job** is one independent simulation, identified entirely by its
content: ``(kind, design, workload, config, seed, code-rev)``.  The
sha256 of that canonical tuple is the job's **content key** — the
primary key of the farm's result cache, so an identical job submitted
twice (same campaign, a later campaign, a re-run after a crash, or a
duplicate execution under an expired lease) resolves to exactly one
result row.

A **campaign** is a deterministic grid of jobs ("all designs ×
workloads × seeds").  Its id is the content address of the spec, so
re-submitting an identical campaign is idempotent and completes from
the cache with zero new simulations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign

#: job kinds the executor knows how to run (repro.farm.exec)
KINDS = ("matrix", "chaos", "synth")

_CODE_REV: Optional[str] = None


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigError(f"unknown job kind {kind!r}; one of {KINDS}")


def canonical_json(obj) -> str:
    """Stable, whitespace-free JSON — the hashing/equality form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def code_rev() -> str:
    """The code revision baked into content keys.

    ``REPRO_CODE_REV`` overrides (hermetic builds, CI); otherwise the
    repository's short git revision; ``unknown`` when neither exists.
    Cached per process — fork-spawned workers inherit it.
    """
    global _CODE_REV
    env = os.environ.get("REPRO_CODE_REV")
    if env:
        return env
    if _CODE_REV is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            rev = out.stdout.strip()
            _CODE_REV = rev if out.returncode == 0 and rev else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            _CODE_REV = "unknown"
    return _CODE_REV


def _design_name(design) -> str:
    """Canonical design identity: the enum *name* (``S_PLUS``), which
    is also what ``run_matrix`` grids use."""
    if isinstance(design, FenceDesign):
        return design.name
    if design in FenceDesign.__members__:
        return design
    # accept values ("S+") too, normalizing to names
    return FenceDesign(design).name


@dataclass(frozen=True)
class JobSpec:
    """One content-addressed simulation job.

    ``workload`` is the workload name for matrix jobs, the
    fault-scenario name for chaos jobs and the program spec (``sb``,
    ``random:7``) for synth jobs; ``seed`` is, respectively, the
    machine, injection or adversary-schedule seed.  ``config`` is
    canonical JSON of everything else that shapes the run (sanitize
    mode, budget, a synth job's search settings), so per-job settings
    flow through the store unchanged and participate in the content
    key.  Chaos and synth jobs read neither ``cores`` nor ``scale``.
    """

    kind: str
    workload: str
    design: str  # FenceDesign name, e.g. "S_PLUS"
    seed: int
    cores: int = 0
    scale: float = 0.0
    config: str = "{}"
    code_rev: str = ""

    @staticmethod
    def make(kind: str, workload: str, design, seed: int,
             cores: int = 0, scale: float = 0.0,
             config: Optional[dict] = None,
             rev: Optional[str] = None) -> "JobSpec":
        _check_kind(kind)
        return JobSpec(
            kind=kind,
            workload=workload,
            design=_design_name(design),
            seed=int(seed),
            cores=int(cores),
            scale=float(scale),
            config=canonical_json(config or {}),
            code_rev=rev if rev is not None else code_rev(),
        )

    @property
    def fence_design(self) -> FenceDesign:
        return FenceDesign[self.design]

    def config_dict(self) -> dict:
        return json.loads(self.config)

    @cached_property
    def _canonical(self) -> str:
        # frozen: computed once; not a field: outside ==, hash, asdict
        return canonical_json(dataclasses.asdict(self))

    def content_key(self) -> str:
        return hashlib.sha256(self._canonical.encode()).hexdigest()[:40]

    def to_json(self) -> str:
        return self._canonical

    @staticmethod
    def from_json(blob: str) -> "JobSpec":
        return JobSpec(**json.loads(blob))


@dataclass(frozen=True)
class CampaignSpec:
    """A deterministic grid of jobs.

    ``workloads`` are workload names (matrix), fault scenarios (chaos)
    or program specs (synth); ``designs`` are :class:`FenceDesign`
    names; ``seeds`` mean what :class:`JobSpec`'s ``seed`` does.  ``expand``
    enumerates the grid in a fixed order (workload-major, then design,
    core count, seed) — sharding across workers is emergent from
    lease-based claiming, but the job *set* and every job's identity
    are deterministic, so any interleaving of workers, crashes and
    restarts converges to the same result rows.
    """

    kind: str
    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    seeds: Tuple[int, ...]
    core_counts: Tuple[int, ...] = (8,)
    scale: float = 1.0
    config: str = "{}"
    code_rev: str = ""

    @staticmethod
    def make(kind: str, workloads: Sequence[str], designs: Sequence,
             seeds: Sequence[int], core_counts: Sequence[int] = (8,),
             scale: float = 1.0, config: Optional[dict] = None,
             rev: Optional[str] = None) -> "CampaignSpec":
        _check_kind(kind)
        return CampaignSpec(
            kind=kind,
            workloads=tuple(workloads),
            designs=tuple(_design_name(d) for d in designs),
            seeds=tuple(int(s) for s in seeds),
            core_counts=tuple(int(c) for c in core_counts),
            scale=float(scale),
            config=canonical_json(config or {}),
            code_rev=rev if rev is not None else code_rev(),
        )

    def expand(self) -> List[JobSpec]:
        jobs: List[JobSpec] = []
        for workload in self.workloads:
            for design in self.designs:
                for cores in self.core_counts:
                    for seed in self.seeds:
                        jobs.append(JobSpec(
                            kind=self.kind,
                            workload=workload,
                            design=design,
                            seed=seed,
                            cores=cores,
                            scale=self.scale,
                            config=self.config,
                            code_rev=self.code_rev,
                        ))
        return jobs

    @cached_property
    def _canonical(self) -> str:
        return canonical_json(dataclasses.asdict(self))

    def campaign_id(self) -> str:
        return "c" + hashlib.sha256(
            self._canonical.encode()).hexdigest()[:16]

    def to_json(self) -> str:
        return self._canonical

    @staticmethod
    def from_json(blob: str) -> "CampaignSpec":
        d = json.loads(blob)
        # a store file outlives the code that wrote it
        _check_kind(d["kind"])
        return CampaignSpec(
            kind=d["kind"],
            workloads=tuple(d["workloads"]),
            designs=tuple(d["designs"]),
            seeds=tuple(d["seeds"]),
            core_counts=tuple(d.get("core_counts", (8,))),
            scale=d.get("scale", 1.0),
            config=d.get("config", "{}"),
            code_rev=d.get("code_rev", ""),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "workloads": list(self.workloads),
            "designs": [FenceDesign[d].value for d in self.designs],
            "seeds": len(self.seeds),
            "core_counts": list(self.core_counts),
            "scale": self.scale,
            "jobs": (len(self.workloads) * len(self.designs)
                     * len(self.core_counts) * len(self.seeds)),
            "code_rev": self.code_rev,
        }
