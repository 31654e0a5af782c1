"""Both communication models refuse inputs they cannot simulate.

A NaN size used to complete a flow at t=NaN and crash packetization with
"cannot convert float NaN to integer"; an infinite flow never completed.
Each ``transfer()`` now raises ``ValueError`` before touching the network.
A NaN or infinite MTU, a queue limit below one packet, and a NaN link rate
or propagation delay are refused at construction, naming the field.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.packet import PacketNetwork
from repro.network.topology import star

NETWORKS = {"flow": FlowNetwork, "packet": PacketNetwork}


@pytest.mark.parametrize("model", sorted(NETWORKS))
@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf, -1.0])
def test_transfer_rejects_bad_size(model, size):
    engine = Engine()
    network = NETWORKS[model](engine, star(engine, 4))
    queued = engine.queued_count()  # the switch's own power timers
    with pytest.raises(ValueError, match="finite and non-negative"):
        network.transfer(0, 1, size, lambda: None)
    assert engine.queued_count() == queued


@pytest.mark.parametrize("model", sorted(NETWORKS))
def test_zero_and_finite_sizes_still_complete(model):
    engine = Engine()
    network = NETWORKS[model](engine, star(engine, 4))
    done = []
    network.transfer(0, 1, 0.0, lambda: done.append("empty"))
    network.transfer(0, 1, 3000.0, lambda: done.append("data"))
    engine.run()
    assert done == ["empty", "data"]


@pytest.mark.parametrize("size", [math.nan, math.inf, 0.0])
def test_send_packet_rejects_bad_size(size):
    engine = Engine()
    network = PacketNetwork(engine, star(engine, 2))
    queued = engine.queued_count()
    with pytest.raises(ValueError, match="positive and finite"):
        network.send_packet("h0", "h1", size)
    assert engine.queued_count() == queued


@pytest.mark.parametrize("mtu", [math.nan, math.inf, 0.0, -1500.0])
def test_packet_network_rejects_bad_mtu(mtu):
    engine = Engine()
    with pytest.raises(ValueError, match="mtu_bytes"):
        PacketNetwork(engine, star(engine, 2), mtu_bytes=mtu)


@pytest.mark.parametrize("limit", [0, -3])
def test_packet_network_rejects_queue_limit_below_one(limit):
    engine = Engine()
    with pytest.raises(ValueError, match="max_queue_packets"):
        PacketNetwork(engine, star(engine, 2), max_queue_packets=limit)


@pytest.mark.parametrize("field, value", [
    ("rate_bps", math.nan), ("rate_bps", math.inf), ("rate_bps", 0.0),
    ("propagation_delay_s", math.nan), ("propagation_delay_s", math.inf),
    ("propagation_delay_s", -1e-6),
])
def test_link_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        LinkConfig(**{field: value})


def test_smallest_valid_inputs_still_deliver():
    engine = Engine()
    topo = star(engine, 2, link_config=LinkConfig(propagation_delay_s=0.0))
    network = PacketNetwork(engine, topo, mtu_bytes=1.0, max_queue_packets=1)
    done = []
    network.transfer(0, 1, 1.0, lambda: done.append(engine.now))
    engine.run()
    assert len(done) == 1 and network.packets_delivered == 1
