"""Network substrate (paper §III-B, Fig. 3).

Models a complete data center interconnect:

* :class:`Switch` — chassis + line cards + ports, each with hierarchical
  power states (port: active/LPI/off; line card: active/sleep/off; switch:
  on/sleep) and the default queue-threshold/timer sleep controllers;
* :class:`Link` — capacity + propagation delay, with optional dynamic link
  rate adaptation (ALR);
* :class:`Topology` builders — fat-tree and flattened butterfly
  (switch-only), CamCube (server-only), BCube (hybrid), star, and arbitrary
  custom graphs;
* :class:`Router` — static shortest-path routing with deterministic ECMP
  tie-breaking;
* :class:`FlowNetwork` — flow-based communication with max-min fair
  bandwidth sharing;
* :class:`PacketNetwork` — packet-based store-and-forward communication with
  per-output-port queues.

Both communication models expose ``transfer(src_server_id, dst_server_id,
size_bytes, callback, on_drop=None)``, the interface the global scheduler
uses to move DAG results between servers.  Only packets are ever dropped, so
only :class:`PacketNetwork` calls ``on_drop``.
"""

from repro.network.link import Link
from repro.network.switch import LineCard, LineCardState, Port, PortState, Switch, SwitchState
from repro.network.topology import (
    Topology,
    bcube,
    camcube,
    fat_tree,
    flattened_butterfly,
    star,
)
from repro.network.routing import Router
from repro.network.flow import Flow, FlowNetwork
from repro.network.packet import Packet, PacketNetwork

__all__ = [
    "Flow",
    "FlowNetwork",
    "LineCard",
    "LineCardState",
    "Link",
    "Packet",
    "PacketNetwork",
    "Port",
    "PortState",
    "Router",
    "Switch",
    "SwitchState",
    "Topology",
    "bcube",
    "camcube",
    "fat_tree",
    "flattened_butterfly",
    "star",
]
