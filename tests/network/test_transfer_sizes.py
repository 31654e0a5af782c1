"""Both communication models refuse transfer sizes that are not finite.

A NaN size used to complete a flow at t=NaN and crash packetization with
"cannot convert float NaN to integer"; an infinite flow never completed.
Each ``transfer()`` now raises ``ValueError`` before touching the network.
"""

from __future__ import annotations

import math

import pytest

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
