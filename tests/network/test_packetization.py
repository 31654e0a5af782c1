"""Per-size packetization cache: same packets, same bytes, per-network MTU.

``PacketNetwork`` splits each transfer size into MTU packets once and reuses
the result; the cached sizes must be bit-for-bit what the per-transfer
``min``/subtract loop produces, and every delivery path must account the
same bytes.
"""

from __future__ import annotations

import pytest

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.packet import PacketNetwork
from repro.network.topology import star

MTU = 1500.0
SIZES = [1, MTU - 1, MTU, MTU + 1, 7 * MTU, 976.5625 * 3, 1e6 / 3]


def loop_sizes(size_bytes, mtu_bytes):
    """The per-transfer packetization loop the cache replaces."""
    n_packets = max(1, int((size_bytes + mtu_bytes - 1) // mtu_bytes))
    sizes = []
    remaining_bytes = size_bytes
    for _ in range(n_packets):
        chunk = min(mtu_bytes, remaining_bytes)
        remaining_bytes -= chunk
        sizes.append(float(chunk))
    return sizes


def bits(values):
    return [float(v).hex() for v in values]


def deliver(size, **network_kwargs):
    """One transfer of ``size`` on a fresh network over warm ports.

    A first transfer on a second network takes the ports out of LPI, so
    the measured transfer runs on warm ports while the measured network's
    byte counter still starts from zero.
    """
    engine = Engine()
    # Fast links keep even the largest size inside every port's LPI timer.
    topo = star(engine, 2, link_config=LinkConfig(rate_bps=100e9))
    warm = PacketNetwork(engine, topo, mtu_bytes=MTU)
    net = PacketNetwork(engine, topo, mtu_bytes=MTU, **network_kwargs)
    done = []
    engine.schedule_at(0.0, warm.transfer, 0, 1, 4000.0, lambda: None)
    engine.schedule_at(2e-4, net.transfer, 0, 1, size, lambda: done.append(engine.now))
    engine.run()
    assert len(done) == 1
    return net


@pytest.mark.parametrize("size", SIZES)
def test_cached_sizes_bit_match_the_loop(size):
    net = deliver(size)
    packets = net._packetizations[size]
    expected = loop_sizes(size, MTU)
    assert bits(packets.sizes) == bits(expected)
    assert bits([packets.total]) == bits([sum(expected)])
    rate = net.topology.link_between("h0", "sw0").current_rate_bps
    assert bits(packets.tx_times(rate)) == bits([s * 8.0 / rate for s in expected])


@pytest.mark.parametrize("size", SIZES)
def test_bytes_delivered_equal_on_every_path(size):
    expected = bits([sum(loop_sizes(size, MTU))])
    train = deliver(size, fast_path=True)
    per_packet = deliver(size, fast_path=False)
    n_packets = len(loop_sizes(size, MTU))
    # Single-packet transfers skip the train.
    assert train.trains_engaged == (1 if n_packets >= 2 else 0)
    assert per_packet.trains_engaged == 0
    for net in (train, per_packet):
        assert bits([net.bytes_delivered]) == expected
        assert net.packets_delivered == n_packets


def test_networks_with_different_mtus_never_share_an_entry():
    engine = Engine()
    topo = star(engine, 2)
    coarse = PacketNetwork(engine, topo, mtu_bytes=1500.0)
    fine = PacketNetwork(engine, topo, mtu_bytes=1000.0)
    size = 7 * 1500.0
    coarse.transfer(0, 1, size, lambda: None)
    engine.run()
    fine.transfer(0, 1, size, lambda: None)
    engine.run()
    assert coarse._packetizations[size] is not fine._packetizations[size]
    assert bits(coarse._packetizations[size].sizes) == bits(loop_sizes(size, 1500.0))
    assert bits(fine._packetizations[size].sizes) == bits(loop_sizes(size, 1000.0))
    assert fine.packets_delivered == 11 and coarse.packets_delivered == 7
