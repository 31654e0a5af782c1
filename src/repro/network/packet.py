"""Packet-based communication: store-and-forward with output-port queues.

The finer-grained of the paper's two communication models (§III-B):
messages are split into MTU-sized packets routed hop by hop.  Each directed
link has an output queue at its sending node; a packet occupies the link for
``size / rate`` seconds, then propagates to the next node.  Port/line-card
power states are driven by actual transmissions, so idle ports drop to LPI
between packets — the effect the §V-B switch validation measures.  A queue
that sends packets back-to-back over an awake link keeps the link's activity
open between them instead of ending and re-beginning it, which would change
nothing there (``Link.awake``; DESIGN.md, "Per-packet path").

Queuing delay, per-switch forwarding and (optional, finite) packet buffers
with tail-drop are modeled; drops are counted, stranded transfers are
counted too, and ``transfer(..., on_drop=...)`` lets experiments fail loudly
instead of waiting forever on a transfer whose packet was tail-dropped.

Data-plane fast path (the scalability lever behind the paper's >20K-server
claim, Table I).  A ``transfer()`` whose route is entirely idle is modeled
as a *packet train*: the whole store-and-forward pipeline is computed
analytically from the classic pipeline recurrence

    dep[h][i] = max(arr[h][i], dep[h][i-1]) + size_i * 8 / rate

and scheduled as roughly one begin + one end event per hop (instead of ~2
events per packet per hop), reading port/line-card wake latencies live at
each hop's window start so power accounting is unchanged.  The moment any
other packet touches a link direction the train reserved, the train
*materializes* back into ordinary per-packet simulation with identical
state, so delivered timestamps are bit-for-bit those of the per-packet
model.  See DESIGN.md for the eligibility gates and the equivalence
argument.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.engine import Engine, EventHandle
from repro.core.stats import LatencyCollector
from repro.network.link import Link
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.telemetry import session as telemetry

DEFAULT_MTU_BYTES = 1500
#: Distinct transfer sizes whose packetization a network keeps at once.
_PACKETIZATION_CACHE_SIZE = 1024


class Packet:
    """One packet traversing a fixed route.

    ``queues`` holds the output queue of each hop of ``path``; the network
    resolves it once per transfer and sets it before the first hop.
    """

    _ids = itertools.count()

    __slots__ = ("packet_id", "size_bytes", "path", "queues", "hop_index",
                 "sent_at", "on_delivered", "on_dropped")

    def __init__(
        self,
        size_bytes: float,
        path: List[str],
        sent_at: float,
        on_delivered: Optional[Callable[["Packet"], None]] = None,
        on_dropped: Optional[Callable[["Packet"], None]] = None,
    ):
        if not 0.0 < size_bytes < math.inf:
            raise ValueError(f"packet size must be positive and finite, got {size_bytes}")
        self.packet_id = next(Packet._ids)
        self.size_bytes = float(size_bytes)
        self.path = path
        self.hop_index = 0
        self.sent_at = sent_at
        self.on_delivered = on_delivered
        self.on_dropped = on_dropped

    def __repr__(self) -> str:
        return f"<Packet {self.packet_id} {self.path[0]}->{self.path[-1]} hop={self.hop_index}>"


class _OutputQueue:
    """FIFO output queue for one direction of one link."""

    def __init__(self, network: "PacketNetwork", link: Link, src: str, dst: str):
        self.network = network
        self.engine = network.engine
        self.link = link
        self.src = src
        self.dst = dst
        self.key = (src, dst)
        self.queue: Deque[Packet] = deque()
        self.transmitting = False

    def enqueue(self, packet: Packet) -> None:
        # A packet joining a hop a train reserved would contend with the
        # train's analytic schedule; fold the train back into per-packet
        # state first, then queue normally behind it.
        network = self.network
        if network._reserved:
            train = network._reserved.get(self.key)
            if train is not None:
                network.trains_materialized_enqueue += 1
                train.materialize()
        limit = network.max_queue_packets
        if limit is not None and len(self.queue) >= limit:
            network.packets_dropped += 1
            if packet.on_dropped is not None:
                packet.on_dropped(packet)
            return
        self.queue.append(packet)
        if not self.transmitting:
            self._start_next()

    def _start_next(self) -> None:
        packet = self.queue.popleft()
        self.transmitting = True
        self.network.packet_hops += 1
        wake = self.link.begin_activity(self.src, self.dst)
        tx_time = packet.size_bytes * 8.0 / self.link.current_rate_bps
        self.engine.post(wake + tx_time, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        link = self.link
        network = self.network
        if self.queue and link.awake():
            # Back-to-back on awake ports: ending and re-beginning the
            # activity here would change nothing (DESIGN.md, "Per-packet
            # path"), so hold it open and start the next packet directly.
            # Its wake latency would be 0.0, and 0.0 + tx_time == tx_time.
            engine = self.engine
            now = engine._now
            engine.post_at(now + link.propagation_delay_s, network._hop_arrived, packet)
            packet = self.queue.popleft()
            network.packet_hops += 1
            network.packet_hops_held += 1
            engine.post_at(now + packet.size_bytes * 8.0 / link.current_rate_bps,
                           self._tx_done, packet)
            return
        link.end_activity(self.src, self.dst)
        self.engine.post(link.propagation_delay_s, network._hop_arrived, packet)
        if self.queue:
            self._start_next()
        else:
            self.transmitting = False


class _Packetization:
    """One transfer size split into MTU packets, shared by every transfer of
    that size on a network.

    ``sizes`` comes from the per-transfer ``min``/subtract loop, ``total`` is
    their ``sum`` and ``tx_times(rate)`` their ``size * 8 / rate`` transmit
    times, so the analytic schedule does the per-packet model's float ops.
    """

    __slots__ = ("sizes", "total", "_tx_times")

    def __init__(self, size_bytes: float, mtu_bytes: float):
        n_packets = max(1, int((size_bytes + mtu_bytes - 1) // mtu_bytes))
        sizes: List[float] = []
        remaining_bytes = size_bytes
        for _ in range(n_packets):
            chunk = min(mtu_bytes, remaining_bytes)
            remaining_bytes -= chunk
            sizes.append(float(chunk))
        self.sizes: Tuple[float, ...] = tuple(sizes)
        self.total = sum(self.sizes)
        self._tx_times: Dict[float, List[float]] = {}

    def tx_times(self, rate: float) -> List[float]:
        """Per-packet transmit times at ``rate`` bits/s."""
        times = self._tx_times.get(rate)
        if times is None:
            times = self._tx_times[rate] = [size * 8.0 / rate for size in self.sizes]
        return times


class _Train:
    """One in-flight packet train.

    The pipeline advances hop by hop: each hop's window event calls
    ``begin_activity`` (reading the true wake latency at that instant),
    derives the per-packet departure times analytically, and schedules the
    hop's ``end_activity`` plus the next hop's window.

    ``materialize()`` converts the remaining analytic schedule back into
    real :class:`Packet` objects and per-packet events with identical
    timestamps; it runs whenever competing traffic touches a reserved hop.
    """

    __slots__ = ("network", "engine", "path", "hops", "packets", "callback",
                 "t0", "alive", "deps", "begun", "window_open", "handles")

    def __init__(self, network: "PacketNetwork", path: List[str],
                 hops: List[Tuple[Link, str, str]], packets: _Packetization,
                 callback: Callable[[], None]):
        self.network = network
        self.engine = network.engine
        self.path = path
        self.hops = hops
        self.packets = packets
        self.callback = callback
        self.t0 = self.engine.now
        self.alive = False
        # deps[h] = per-packet departure times off hop h (None until the
        # hop's window begins).
        self.deps: List[Optional[List[float]]] = [None] * len(hops)
        self.begun = 0  # hops whose window has begun
        self.window_open = [False] * len(hops)  # begun but end not yet run
        self.handles: List[EventHandle] = []

    # ------------------------------------------------------------------
    # Analytic pipeline schedule
    # ------------------------------------------------------------------
    def _hop_departures(self, h: int, window_start_extra: float) -> List[float]:
        """Departure times off hop ``h``, replicating per-packet float ops.

        ``window_start_extra`` is the wake latency folded into the first
        packet's transmission (per-packet posts ``wake + tx`` as one sum).
        Later packets start at ``max(arrival, previous departure)``; the
        ``max`` matters only for 1-ulp scheduling gaps, where the per-packet
        model restarts from the arrival instant with zero wake.
        """
        link = self.hops[h][0]
        tx = self.packets.tx_times(link.current_rate_bps)
        if h == 0:
            t = self.t0 + (window_start_extra + tx[0])
            return list(itertools.accumulate(tx[1:], initial=t))
        prop = link.propagation_delay_s
        prev_deps = self.deps[h - 1]
        t = prev_deps[0] + prop + (window_start_extra + tx[0])
        deps = [t]
        for i in range(1, len(tx)):
            arr = prev_deps[i] + prop
            if arr > t:
                t = arr
            t = t + tx[i]
            deps.append(t)
        return deps

    def _arrival(self, h: int, i: int) -> float:
        """Arrival time of packet ``i`` into the node after hop ``h``."""
        return self.deps[h][i] + self.hops[h][0].propagation_delay_s

    # ------------------------------------------------------------------
    # Hop-by-hop windows with live wake latencies
    # ------------------------------------------------------------------
    def engage(self) -> None:
        """Start the train; hop 0's window opens immediately."""
        self.alive = True
        self._reserve()
        self.network.trains_engaged += 1
        self._begin_hop(0)

    def _begin_hop(self, h: int) -> None:
        link, u, v = self.hops[h]
        wake = link.begin_activity(u, v)
        deps = self._hop_departures(h, wake)
        self.deps[h] = deps
        self.begun = h + 1
        self.window_open[h] = True
        schedule_at = self.engine.schedule_at
        self.handles.append(schedule_at(deps[-1], self._end_hop, h))
        prop = link.propagation_delay_s
        if h + 1 < len(self.hops):
            self.handles.append(schedule_at(deps[0] + prop, self._begin_hop, h + 1))
        else:
            self.handles.append(schedule_at(deps[-1] + prop, self._complete))

    def _end_hop(self, h: int) -> None:
        self.window_open[h] = False
        link, u, v = self.hops[h]
        link.end_activity(u, v)

    # ------------------------------------------------------------------
    # Completion and stats settlement
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.alive = False
        self._unreserve()
        network = self.network
        last = len(self.hops) - 1
        t0 = self.t0
        deps = self.deps[last]
        prop = self.hops[last][0].propagation_delay_s
        network.packet_delay.extend((d + prop) - t0 for d in deps)
        network.packets_delivered += len(deps)
        network.bytes_delivered += self.packets.total
        self.callback()

    # ------------------------------------------------------------------
    # Reservation bookkeeping
    # ------------------------------------------------------------------
    def _reserve(self) -> None:
        # Hop windows read wake latencies live and the link is full duplex
        # (per-direction queues, rates and activity), so a train holds only
        # its own direction: opposite-direction trains coexist, the pattern
        # every collective phase produces.
        reserved = self.network._reserved
        for _link, u, v in self.hops:
            reserved[(u, v)] = self

    def _unreserve(self) -> None:
        reserved = self.network._reserved
        for _link, u, v in self.hops:
            if reserved.get((u, v)) is self:
                del reserved[(u, v)]

    # ------------------------------------------------------------------
    # Materialization: fold back into per-packet simulation
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Replace the analytic schedule with equivalent per-packet state.

        Called when competing traffic touches a reserved hop.  Every train
        packet is located on the route at the current instant (in service,
        queued, in propagation, or already delivered) from the departure
        tables, and real :class:`Packet` objects and events are created for
        the remainder.  An open window with no packet left in service ends
        its link activity at the instant the per-packet model ended it.
        """
        if not self.alive:
            return
        self.alive = False
        self._unreserve()
        self.network.trains_materialized += 1
        tm = self.engine.now
        ts = telemetry.ACTIVE
        if ts is not None and ts.net is not None:
            ts.net.instant("net", "train-materialize", "net/trains", tm)
        for handle in self.handles:
            if handle.pending:
                handle.cancel()
        self.handles = []
        sizes = self.packets.sizes
        n = len(sizes)
        n_hops = len(self.hops)

        begun_hops = self.begun
        held = [h for h in range(begun_hops) if self.window_open[h]]

        network = self.network
        state = {"remaining": n}

        def one_arrived(_packet: Packet) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                self.callback()

        post_at = self.engine.post_at
        path, t0 = self.path, self.t0
        queues = network._queues_on(path)

        def make_packet(i: int, hop_index: int) -> Packet:
            packet = Packet(sizes[i], path, t0, one_arrived)
            packet.queues = queues
            packet.hop_index = max(0, hop_index)
            return packet

        at_hop: Dict[int, List[Tuple[int, Packet]]] = {}
        for i in range(n):
            for h in range(n_hops):
                arrival = self.t0 if h == 0 else self._arrival(h - 1, i)
                if h >= begun_hops or arrival > tm:
                    # Still propagating toward hop h (arrival >= tm: a hop
                    # is unbegun only while its first arrival is pending).
                    packet = make_packet(i, h - 1)
                    post_at(arrival, network._hop_arrived, packet)
                    break
                if self.deps[h][i] > tm:
                    packet = make_packet(i, h)
                    at_hop.setdefault(h, []).append((i, packet))
                    break
            else:
                arrival = self._arrival(n_hops - 1, i)
                if arrival > tm:
                    packet = make_packet(i, n_hops - 1)
                    post_at(arrival, network._hop_arrived, packet)
                else:
                    # Already delivered in the analytic world; settle stats.
                    network.packets_delivered += 1
                    network.bytes_delivered += sizes[i]
                    network.packet_delay.record(arrival - self.t0)
                    state["remaining"] -= 1
        for h, entries in at_hop.items():
            queue = queues[h]
            queue.transmitting = True
            # First packet is mid-transmission: its tx-done is already in
            # the analytic timetable; the rest wait in FIFO order.
            first_i, first_packet = entries[0]
            post_at(self.deps[h][first_i], queue._tx_done, first_packet)
            for _i, packet in entries[1:]:
                queue.queue.append(packet)
        # A held window with no in-service packet is either past its last
        # departure (end event pending at exactly ``tm``) or in an ulp-scale
        # scheduling gap between back-to-back packets.  Either way the
        # per-packet model has already ended the activity at the last
        # departure instant: settle that end now, with the LPI deadline it
        # would have armed.
        for h in held:
            if h in at_hop:
                continue
            link, u, v = self.hops[h]
            deps = self.deps[h]
            link.end_activity(u, v, quiet_since=deps[bisect_right(deps, tm) - 1])


class PacketNetwork:
    """The packet-level communication model over a topology."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        router: Optional[Router] = None,
        mtu_bytes: float = DEFAULT_MTU_BYTES,
        max_queue_packets: Optional[int] = None,
        local_transfer_delay_s: float = 0.0,
        fast_path: bool = True,
    ):
        if not 0 < mtu_bytes < math.inf:
            raise ValueError(f"mtu_bytes must be finite and positive, got {mtu_bytes}")
        if max_queue_packets is not None and max_queue_packets < 1:
            raise ValueError(
                f"max_queue_packets must be None or >= 1, got {max_queue_packets}"
            )
        self.engine = engine
        self.topology = topology
        self.router = router or Router(topology)
        self.mtu_bytes = mtu_bytes
        self.max_queue_packets = max_queue_packets
        self.local_transfer_delay_s = local_transfer_delay_s
        self.fast_path = fast_path
        self._queues: Dict[Tuple[str, str], _OutputQueue] = {}
        self._reserved: Dict[Tuple[str, str], _Train] = {}
        # size_bytes -> its packetization under this network's MTU.
        self._packetizations: Dict[float, _Packetization] = {}
        self._transfer_seq = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.bytes_delivered = 0.0
        self.transfers_stranded = 0
        self.trains_engaged = 0
        self.trains_materialized = 0
        # Materializations by cause: per-packet traffic reached a reserved
        # hop (enqueue), or a new transfer/send_packet crossed one (route).
        self.trains_materialized_enqueue = 0
        self.trains_materialized_route = 0
        # Hop transmissions on the per-packet path, and how many of them
        # started back-to-back with the link activity held open.
        self.packet_hops = 0
        self.packet_hops_held = 0
        self.packet_delay = LatencyCollector("packet_delay")

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def send_packet(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        on_delivered: Optional[Callable[[Packet], None]] = None,
        flow_key: Optional[str] = None,
        on_dropped: Optional[Callable[[Packet], None]] = None,
    ) -> Packet:
        """Inject a single packet from node ``src`` to node ``dst``."""
        path = self.router.route(src, dst, flow_key=flow_key)
        if len(path) < 2:
            raise ValueError(f"packet needs at least one hop, got path {path}")
        self._clear_reservations(path)
        packet = Packet(size_bytes, path, self.engine.now, on_delivered, on_dropped)
        packet.queues = queues = self._queues_on(path)
        queues[0].enqueue(packet)
        return packet

    def transfer(
        self,
        src_server_id: int,
        dst_server_id: int,
        size_bytes: float,
        callback: Callable[[], None],
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        """Scheduler-facing transfer: packetize and call back on completion.

        With finite buffers a dropped packet makes the transfer hang — the
        realistic consequence of loss without a retransmission protocol.
        The first drop marks the transfer stranded (``transfers_stranded``)
        and fires ``on_drop`` (once, with the dropped packet) so experiments
        fail loudly instead of waiting forever.

        A transfer of two or more packets on an idle route is modeled as a
        packet train (see the module docstring); timestamps and power
        accounting are identical to per-packet simulation.
        """
        if not 0 <= size_bytes < math.inf:
            raise ValueError(
                f"transfer size must be finite and non-negative, got {size_bytes}"
            )
        if src_server_id == dst_server_id or size_bytes == 0:
            self.engine.post(self.local_transfer_delay_s, callback)
            return
        src = self.topology.server_node(src_server_id)
        dst = self.topology.server_node(dst_server_id)
        self._transfer_seq += 1
        flow_key = f"{src}->{dst}#{self._transfer_seq}"
        path = self.router.route(src, dst, flow_key=flow_key)
        cache = self._packetizations
        packets = cache.get(size_bytes)
        if packets is None:
            # Packetizing is a pure function of the size, so dropping the
            # cache only costs recomputation; the cap bounds workloads whose
            # transfer sizes never repeat.
            if len(cache) >= _PACKETIZATION_CACHE_SIZE:
                cache.clear()
            packets = cache[size_bytes] = _Packetization(size_bytes, self.mtu_bytes)
        sizes = packets.sizes
        n_packets = len(sizes)

        ts = telemetry.ACTIVE
        rec = ts.net if ts is not None else None
        if rec is not None:
            # _transfer_seq is per-network, so the async id is deterministic
            # (Packet ids come from a process-global counter and are not).
            xid = self._transfer_seq
            rec.begin(
                "net", "transfer", "net/transfers", self.engine.now, xid,
                args={"src": src, "dst": dst, "bytes": size_bytes,
                      "packets": n_packets},
            )
            inner_callback = callback

            def callback() -> None:
                rec.end("net", "transfer", "net/transfers", self.engine.now, xid)
                inner_callback()

        # Single-packet trains gain nothing over per-packet events.
        if self.fast_path and self.max_queue_packets is None and n_packets >= 2:
            hops = self.router.links_on_path(path)
            if self._train_eligible(path, hops):
                if rec is not None:
                    rec.instant(
                        "net", "train-engage", "net/trains",
                        self.engine.now, args={"packets": n_packets},
                    )
                _Train(self, path, hops, packets, callback).engage()
                return

        # Per-packet fallback.  Materialize any trains holding links on this
        # path *before* injecting, so resumed events are posted in the same
        # relative order as the per-packet world would have posted them —
        # exact-time ties at shared queues then resolve identically.
        self._clear_reservations(path)
        state = {"remaining": n_packets, "stranded": False}

        def _one_arrived(_packet: Packet) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                callback()

        def _one_dropped(packet: Packet) -> None:
            if not state["stranded"]:
                state["stranded"] = True
                self.transfers_stranded += 1
                if on_drop is not None:
                    on_drop(packet)

        now = self.engine.now
        queues = self._queues_on(path)
        first = queues[0]
        for size in sizes:
            packet = Packet(size, path, now, _one_arrived, _one_dropped)
            packet.queues = queues
            first.enqueue(packet)

    # ------------------------------------------------------------------
    # Fast-path eligibility
    # ------------------------------------------------------------------
    def _train_eligible(self, path: List[str],
                        hops: List[Tuple[Link, str, str]]) -> bool:
        """True when the route can be simulated analytically.

        Gates: every directed hop idle and unreserved (the reverse direction
        may carry traffic — links are full duplex, with per-direction queues
        and rates, and hop windows read port wake latencies live), uniform
        link rate with no adaptive-rate stepping (the pipeline recurrence
        assumes equal service rates), positive LPI timers (a zero timer can
        race the back-to-back restart), and every on-route switch ON.
        """
        reserved = self._reserved
        rate: Optional[float] = None
        for link, u, v in hops:
            if link.config.adaptive_rates_bps:
                return False
            if rate is None:
                rate = link.current_rate_bps
            elif link.current_rate_bps != rate:
                return False
            if link.active_count(u, v):
                return False
            # A train may hold (u, v) before its window there opens or after
            # it ends.
            if (u, v) in reserved:
                return False
            for port in link.ports.values():
                if port.profile.lpi_timer_s <= 0.0:
                    return False
        switches = self.topology.switches
        for node in path:
            switch = switches.get(node)
            if switch is not None and not switch.is_on:
                return False
        return True

    def _clear_reservations(self, path: List[str]) -> None:
        """Materialize every train holding a link on ``path``."""
        if not self._reserved:
            return
        for u, v in zip(path, path[1:]):
            train = self._reserved.get((u, v))
            if train is not None:
                self.trains_materialized_route += 1
                train.materialize()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _queue_for(self, src: str, dst: str) -> _OutputQueue:
        key = (src, dst)
        queue = self._queues.get(key)
        if queue is None:
            link = self.topology.link_between(src, dst)
            queue = _OutputQueue(self, link, src, dst)
            self._queues[key] = queue
        return queue

    def _queues_on(self, path: List[str]) -> List[_OutputQueue]:
        """The output queue of each hop of ``path``, in order."""
        queue_for = self._queue_for
        return [queue_for(u, v) for u, v in zip(path, path[1:])]

    def _hop_arrived(self, packet: Packet) -> None:
        hop = packet.hop_index + 1
        packet.hop_index = hop
        queues = packet.queues
        if hop < len(queues):
            queues[hop].enqueue(packet)
            return
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        self.packet_delay.record(self.engine.now - packet.sent_at)
        if packet.on_delivered is not None:
            packet.on_delivered(packet)

    def __repr__(self) -> str:
        return (
            f"<PacketNetwork delivered={self.packets_delivered} "
            f"dropped={self.packets_dropped}>"
        )
