"""2D mesh network-on-chip latency and traffic model.

The paper's machine (Table 2) is a 2D mesh with 5 cycles/hop and
256-bit links.  We model message latency as ``hops * hop_cycles`` with
dimension-ordered (XY) routing distance, plus serialization cycles for
multi-flit (data) messages, and we account every byte for the Table-4
traffic columns.  Link contention is not queued (documented
approximation in DESIGN.md): fence behaviour in the paper is governed by
latency and occupancy, not NoC saturation, and its own traffic numbers
show the network far from saturated.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.common.params import MachineParams, mesh_side
from repro.common.stats import MachineStats
from repro.mem.messages import Msg, message_bytes


@functools.lru_cache(maxsize=None)
def _shared_tables(line_bytes: int, link_bytes: int, hop_cycles: int,
                   dim: int):
    """``(bytes per kind, serialization cycles per kind, latency memo)``
    for every mesh with these four parameters.

    Geometry and message sizes are fixed for a machine's lifetime and
    are pure functions of the arguments, so one set of tables serves
    every :class:`MeshNoc` built with them: byte counts per kind are
    precomputed and point-to-point latencies memoized — both sit on the
    per-message hot path of every coherence transaction.  The tables
    are lists indexed by ``Msg.idx`` and the latency memo key is a flat
    int, so no enum member is ever hashed here.  (*hop_cycles* and
    *dim* shape no table; the memoized latencies depend on them.)
    """
    nbytes = [message_bytes(kind, line_bytes) for kind in Msg]
    ser_cycles = [
        max(1, -(-n // link_bytes)) - 1  # (flits - 1)
        for n in nbytes
    ]
    return nbytes, ser_cycles, {}


class MeshNoc:
    """Latency/traffic model for a square 2D mesh of tiles.

    Tiles 0..N-1 hold one core + one L2/directory bank each; an extra
    virtual node models the off-chip memory port attached to tile 0
    (paper: "connected to one network port").
    """

    #: node id used for the off-chip memory controller
    MEMORY_NODE = -1

    def __init__(self, params: MachineParams, stats: MachineStats):
        self.params = params
        self.stats = stats
        self.dim = mesh_side(max(params.num_cores, params.num_banks))
        self._bytes, self._ser_cycles, self._latency_cache = _shared_tables(
            params.line_bytes, params.link_bytes, params.mesh_hop_cycles,
            self.dim,
        )
        #: observability hook (set by Machine.attach_tracer)
        self.tracer = None
        #: fault-injection hook (set by Machine.attach_faults)
        self.faults = None

    def coords(self, node: int) -> Tuple[int, int]:
        """XY coordinates of a tile (memory port sits at tile 0)."""
        if node == self.MEMORY_NODE:
            node = 0
        return node % self.dim, node // self.dim

    def hops(self, src: int, dst: int) -> int:
        """Manhattan (XY-routed) hop count between two tiles."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src: int, dst: int, kind: Msg) -> int:
        """Cycles for a message of *kind* from *src* to *dst*."""
        # flat int key (node ids are tiny; +1 shifts MEMORY_NODE to 0)
        key = (src + 1) * 262144 + (dst + 1) * 64 + kind.idx
        lat = self._latency_cache.get(key)
        if lat is None:
            hop_lat = max(1, self.hops(src, dst)) * self.params.mesh_hop_cycles
            lat = self._latency_cache[key] = hop_lat + self._ser_cycles[kind.idx]
        return lat

    def send_cost(self, src: int, dst: int, kind: Msg, line,
                  retry: bool = False) -> int:
        """Account traffic and return the delivery latency in cycles.
        *line* (``None`` for a GRT message) names the message to the
        fault injector."""
        idx = kind.idx
        nbytes = self._bytes[idx]
        stats = self.stats
        stats.network_bytes += nbytes
        if retry:
            stats.retry_bytes += nbytes
        key = (src + 1) * 262144 + (dst + 1) * 64 + idx
        cache = self._latency_cache
        lat = cache.get(key)
        if lat is None:
            hop_lat = max(1, self.hops(src, dst)) * self.params.mesh_hop_cycles
            lat = cache[key] = hop_lat + self._ser_cycles[idx]
        if self.faults is not None:
            # delay jitter / drops perturb this delivery only — the
            # memoized base latency above stays clean
            extra = self.faults.noc_perturb(src, dst, kind.value, line)
            if extra:
                lat = lat + extra
        if self.tracer is not None:
            self.tracer.noc_msg(src, dst, kind.value, nbytes, lat, retry)
        return lat
