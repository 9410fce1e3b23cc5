"""Unit tests for the mesh NoC latency/traffic model."""

from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.mem.messages import HEADER_BYTES, Msg, message_bytes
from repro.mem.noc import MeshNoc


def make_noc(num_cores=8):
    params = MachineParams().with_cores(num_cores)
    return MeshNoc(params, MachineStats(num_cores)), params


def test_message_sizes():
    assert message_bytes(Msg.GETS, 32) == HEADER_BYTES
    assert message_bytes(Msg.DATA, 32) == HEADER_BYTES + 32
    assert message_bytes(Msg.ORDER, 32) == HEADER_BYTES + 8
    assert message_bytes(Msg.INV, 32) == HEADER_BYTES


def test_hop_count_xy_routing():
    noc, _ = make_noc(8)  # 3x3 mesh
    assert noc.hops(0, 0) == 0
    assert noc.hops(0, 1) == 1
    assert noc.hops(0, 4) == 2   # (0,0) -> (1,1)
    assert noc.hops(0, 8) == 4   # (0,0) -> (2,2)
    assert noc.hops(2, 6) == 4   # (2,0) -> (0,2)


def test_latency_scales_with_hops_and_size():
    noc, p = make_noc(8)
    near = noc.latency(0, 1, Msg.GETS)
    far = noc.latency(0, 8, Msg.GETS)
    assert far > near
    control = noc.latency(0, 1, Msg.GETS)
    data = noc.latency(0, 1, Msg.DATA)
    assert data > control  # serialization of the extra flit(s)


def test_local_delivery_still_costs_a_hop():
    noc, p = make_noc(4)
    assert noc.latency(2, 2, Msg.ACK) >= p.mesh_hop_cycles


def test_traffic_accounting_and_retry_attribution():
    noc, _ = make_noc(4)
    noc.send_cost(0, 1, Msg.GETX)
    assert noc.stats.network_bytes == HEADER_BYTES
    assert noc.stats.retry_bytes == 0
    noc.send_cost(0, 1, Msg.GETX, retry=True)
    assert noc.stats.network_bytes == 2 * HEADER_BYTES
    assert noc.stats.retry_bytes == HEADER_BYTES


def test_memory_node_maps_to_tile_zero():
    noc, _ = make_noc(8)
    assert noc.coords(MeshNoc.MEMORY_NODE) == noc.coords(0)


def test_mesh_side_is_the_smallest_square_that_fits():
    from repro.common.params import mesh_side

    assert [mesh_side(n) for n in (1, 2, 4, 5, 8, 9, 32)] == \
        [1, 2, 2, 3, 3, 3, 6]
    for tiles in (1, 2, 4, 5, 8, 9, 32):
        side = mesh_side(tiles)
        assert (side - 1) ** 2 < tiles <= side ** 2
        assert make_noc(tiles)[0].dim == side


def test_mesh_is_sized_by_the_larger_of_cores_and_banks():
    params = MachineParams(num_cores=2, num_banks=8)
    assert MeshNoc(params, MachineStats(2)).dim == 3


def test_same_geometry_shares_tables_but_not_counters():
    a, _ = make_noc(4)
    b, _ = make_noc(4)
    assert a._bytes is b._bytes and a._latency_cache is b._latency_cache
    lat = a.send_cost(0, 3, Msg.DATA)
    assert b.latency(0, 3, Msg.DATA) == lat
    assert (a.stats.network_bytes, b.stats.network_bytes) == \
        (HEADER_BYTES + 32, 0)


def test_latency_memo_is_keyed_by_what_latency_depends_on():
    from dataclasses import replace

    base = MachineParams().with_cores(4)
    lat = MeshNoc(base, MachineStats(4)).latency(0, 3, Msg.DATA)
    for other in (replace(base, mesh_hop_cycles=11),
                  replace(base, link_bytes=8),
                  replace(base, line_bytes=64),
                  base.with_cores(9)):
        noc = MeshNoc(other, MachineStats(other.num_cores))
        fresh = max(1, noc.hops(0, 3)) * other.mesh_hop_cycles + \
            noc._ser_cycles[Msg.DATA.idx]
        assert noc.latency(0, 3, Msg.DATA) == fresh
        assert fresh != lat
