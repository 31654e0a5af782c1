"""Packet-based communication: store-and-forward with output-port queues.

The finer-grained of the paper's two communication models (§III-B):
messages are split into MTU-sized packets routed hop by hop.  Each directed
link has an output queue at its sending node; a packet occupies the link for
``size / rate`` seconds, then propagates to the next node.  Port/line-card
power states are driven by actual transmissions, so idle ports drop to LPI
between packets — the effect the §V-B switch validation measures.

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
each hop's window start so power accounting is unchanged.  When every
relevant power timer provably cannot fire mid-train, the *express* path
collapses the whole transfer to a single completion event.  The moment any
other packet touches a link the train reserved, the train *materializes*
back into ordinary per-packet simulation with identical state, so delivered
timestamps are bit-for-bit those of the per-packet model.  See DESIGN.md
for the eligibility gates and the equivalence argument.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.engine import Engine, EventHandle
from repro.core.stats import LatencyCollector
from repro.network.link import Link
from repro.network.routing import Router
from repro.network.switch import PortState, LineCardState
from repro.network.topology import Topology
from repro.telemetry import session as telemetry

DEFAULT_MTU_BYTES = 1500
#: Distinct transfer sizes whose packetization a network keeps at once.
_PACKETIZATION_CACHE_SIZE = 1024


class Packet:
    """One packet traversing a fixed route."""

    _ids = itertools.count()

    __slots__ = ("packet_id", "size_bytes", "path", "hop_index", "sent_at",
                 "on_delivered", "on_dropped")

    def __init__(
        self,
        size_bytes: float,
        path: List[str],
        sent_at: float,
        on_delivered: Optional[Callable[["Packet"], None]] = None,
        on_dropped: Optional[Callable[["Packet"], None]] = None,
    ):
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
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
        self.queue: Deque[Packet] = deque()
        self.transmitting = False

    def enqueue(self, packet: Packet) -> None:
        # A packet joining a hop a train reserved would contend with the
        # train's analytic schedule; fold the train back into per-packet
        # state first, then queue normally behind it.
        train = self.network._reserved.get((self.src, self.dst))
        if train is not None:
            train.materialize()
        limit = self.network.max_queue_packets
        if limit is not None and len(self.queue) >= limit:
            self.network.packets_dropped += 1
            if packet.on_dropped is not None:
                packet.on_dropped(packet)
            return
        self.queue.append(packet)
        if not self.transmitting:
            self._start_next()

    def _start_next(self) -> None:
        packet = self.queue.popleft()
        self.transmitting = True
        wake = self.link.begin_activity(self.src, self.dst)
        tx_time = packet.size_bytes * 8.0 / self.link.current_rate_bps
        self.engine.post(wake + tx_time, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.link.end_activity(self.src, self.dst)
        self.engine.post(self.link.propagation_delay_s, self.network._hop_arrived, packet)
        if self.queue:
            self._start_next()
        else:
            self.transmitting = False

    @property
    def depth(self) -> int:
        return len(self.queue) + (1 if self.transmitting else 0)


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
    """One in-flight fast-path transfer (packet train or express).

    In **train** mode the pipeline advances hop by hop: each hop's window
    event calls ``begin_activity`` (reading the true wake latency at that
    instant), derives the per-packet departure times analytically, and
    schedules the hop's ``end_activity`` plus the next hop's window.  In
    **express** mode every wake latency is provably zero and no power timer
    can fire mid-train, so the entire schedule is computed up front, all
    hops begin immediately, and a single completion event settles the
    accounting.

    ``materialize()`` converts the remaining analytic schedule back into
    real :class:`Packet` objects and per-packet events with identical
    timestamps; it runs whenever competing traffic touches a reserved link.
    """

    __slots__ = ("network", "engine", "path", "hops", "packets", "callback",
                 "t0", "mode", "alive", "deps", "begun", "window_open",
                 "handles", "port_restores", "card_restores", "hop_ends")

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
        self.mode = "train"
        self.alive = False
        # deps[h] = per-packet departure times off hop h (None until the
        # hop's window begins in train mode; all precomputed in express).
        self.deps: List[Optional[List[float]]] = [None] * len(hops)
        self.begun = 0  # hops whose window has begun (train mode)
        self.window_open = [False] * len(hops)  # begun but end not yet run
        self.handles: List[EventHandle] = []
        # Timer state cancelled by the express up-front begin_activity calls,
        # kept so materialize() can restore hops whose window never opened.
        self.port_restores: List[List[Tuple[object, Optional[float]]]] = []
        self.card_restores: Dict[int, Tuple[object, Optional[float]]] = {}
        self.hop_ends: List[float] = []

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
    # Train mode: hop-by-hop windows with live wake latencies
    # ------------------------------------------------------------------
    def engage(self) -> None:
        """Start in train mode; hop 0's window opens immediately."""
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
    # Express mode: one completion event for the whole transfer
    # ------------------------------------------------------------------
    def try_express(self) -> bool:
        """Engage in express mode if zero-wake delivery is provable.

        Requires every port on the route ACTIVE (and every line card awake
        with no cross-traffic), and every LPI/sleep timer unable to fire
        before the train clears, so each hop's wake latency is exactly 0 and
        the full schedule is known now.  Returns False (leaving no trace)
        when any gate fails.
        """
        hops = self.hops
        for h in range(len(hops)):
            self.deps[h] = self._hop_departures(h, 0.0)
        self.hop_ends = [deps[-1] for deps in self.deps]
        t_end = self._arrival(len(hops) - 1, len(self.packets.sizes) - 1)
        horizon = t_end - self.t0
        for h, (link, _u, _v) in enumerate(hops):
            for port in link.ports.values():
                if port.state is not PortState.ACTIVE:
                    return False
                if port.profile.lpi_timer_s <= horizon:
                    return False
                timer = port._lpi_timer
                if timer is not None and timer.pending and timer.time <= t_end:
                    return False
                # The hop's busy window must end early enough that arming
                # its LPI timer from the completion event is still exact.
                if self.hop_ends[h] + port.profile.lpi_timer_s <= t_end:
                    return False
                card = port.linecard
                if card.state is not LineCardState.ACTIVE:
                    return False
                if not card.all_ports_quiet:
                    return False
                sleep_s = card.profile.sleep_timer_s
                if sleep_s is not None and sleep_s <= horizon:
                    return False
                timer = card._sleep_timer
                if timer is not None and timer.pending and timer.time <= t_end:
                    return False
        # All gates passed: take the links now, remembering the timers the
        # begins cancel so an aborted window can be restored exactly.
        self.mode = "express"
        self.alive = True
        self._reserve()
        for link, u, v in hops:
            restores: List[Tuple[object, Optional[float]]] = []
            for port in link.ports.values():
                timer = port._lpi_timer
                restores.append(
                    (port, timer.time if timer is not None and timer.pending else None)
                )
                card = port.linecard
                if id(card) not in self.card_restores:
                    timer = card._sleep_timer
                    self.card_restores[id(card)] = (
                        card,
                        timer.time if timer is not None and timer.pending else None,
                    )
            self.port_restores.append(restores)
            link.begin_activity(u, v)
        self.handles.append(self.engine.schedule_at(t_end, self._complete))
        self.network.trains_express += 1
        return True

    # ------------------------------------------------------------------
    # Completion and stats settlement
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.alive = False
        self._unreserve()
        if self.mode == "express":
            for h, (link, u, v) in enumerate(self.hops):
                link.end_activity(u, v, quiet_since=self.hop_ends[h])
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
        reserved = self.network._reserved
        for _link, u, v in self.hops:
            reserved[(u, v)] = self
            if self.mode == "express":
                # Express precomputed the whole schedule assuming untouched
                # ports, so even reverse-direction traffic (which shares the
                # same ports) must fold it back.  Windowed trains read wake
                # latencies live at each hop start and the link is full
                # duplex (per-direction queues, rates and activity), so they
                # hold only their own direction — opposite-direction trains
                # coexist, the pattern every collective phase produces.
                reserved[(v, u)] = self

    def _unreserve(self) -> None:
        reserved = self.network._reserved
        for _link, u, v in self.hops:
            if reserved.get((u, v)) is self:
                del reserved[(u, v)]
            if reserved.get((v, u)) is self:
                del reserved[(v, u)]

    # ------------------------------------------------------------------
    # Materialization: fold back into per-packet simulation
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Replace the analytic schedule with equivalent per-packet state.

        Called when competing traffic touches a reserved link.  Every train
        packet is located on the route at the current instant (in service,
        queued, in propagation, or already delivered) from the departure
        tables, real :class:`Packet` objects and events are created for the
        remainder, and link activity held by windows that never opened is
        returned (restoring the power timers those windows cancelled).
        """
        if not self.alive:
            return
        self.alive = False
        self._unreserve()
        self.network.trains_materialized += 1
        tm = self.engine.now
        ts = telemetry.ACTIVE
        if ts is not None and ts.net is not None:
            ts.net.instant(
                "net", "train-materialize", "net/trains", tm,
                args={"mode": self.mode},
            )
        for handle in self.handles:
            if handle.pending:
                handle.cancel()
        self.handles = []
        sizes = self.packets.sizes
        n = len(sizes)
        n_hops = len(self.hops)

        if self.mode == "express":
            # Windows that never opened are unwound as if their begin had
            # never happened, restoring the timers it cancelled; opened
            # windows keep their held activity for settlement below.
            # Window starts are strictly increasing, so opened is a prefix.
            begun_hops = n_hops
            for h in range(1, n_hops):
                if self._arrival(h - 1, 0) > tm:
                    begun_hops = h
                    break
            kept_cards = set()
            for h in range(begun_hops):
                link = self.hops[h][0]
                kept_cards.update(id(p.linecard) for p in link.ports.values())
            for h in range(begun_hops, n_hops):
                link, u, v = self.hops[h]
                link.cancel_activity(u, v)
                for port, deadline in self.port_restores[h]:
                    if deadline is not None:
                        port._arm_lpi_timer_at(deadline)
            for card, deadline in self.card_restores.values():
                if deadline is not None and id(card) not in kept_cards:
                    card._arm_sleep_timer_at(deadline)
            held = list(range(begun_hops))
        else:
            begun_hops = self.begun
            held = [h for h in range(begun_hops) if self.window_open[h]]

        network = self.network
        state = {"remaining": n}

        def one_arrived(_packet: Packet) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                self.callback()

        post_at = self.engine.post_at
        at_hop: Dict[int, List[Tuple[int, Packet]]] = {}
        for i in range(n):
            for h in range(n_hops):
                arrival = self.t0 if h == 0 else self._arrival(h - 1, i)
                if h >= begun_hops or arrival > tm:
                    # Still propagating toward hop h (arrival >= tm: a hop
                    # is unbegun only while its first arrival is pending).
                    packet = self._make_packet(i, h - 1, one_arrived)
                    post_at(arrival, network._hop_arrived, packet)
                    break
                if self.deps[h][i] > tm:
                    packet = self._make_packet(i, h, one_arrived)
                    at_hop.setdefault(h, []).append((i, packet))
                    break
            else:
                arrival = self._arrival(n_hops - 1, i)
                if arrival > tm:
                    packet = self._make_packet(i, n_hops - 1, one_arrived)
                    post_at(arrival, network._hop_arrived, packet)
                else:
                    # Already delivered in the analytic world; settle stats.
                    network.packets_delivered += 1
                    network.bytes_delivered += sizes[i]
                    network.packet_delay.record(arrival - self.t0)
                    state["remaining"] -= 1
        for h, entries in at_hop.items():
            _link, u, v = self.hops[h]
            queue = network._queue_for(u, v)
            queue.transmitting = True
            # First packet is mid-transmission: its tx-done is already in
            # the analytic timetable; the rest wait in FIFO order.
            first_i, first_packet = entries[0]
            post_at(self.deps[h][first_i], queue._tx_done, first_packet)
            for _i, packet in entries[1:]:
                queue.queue.append(packet)
        # A held window with no in-service packet is either past its last
        # departure (end event pending at exactly ``tm``, or an express hop
        # already quiet) or in an ulp-scale scheduling gap between
        # back-to-back packets.  Either way the per-packet model has already
        # ended the activity at the last departure instant: settle that end
        # now, with the LPI deadline it would have armed.
        for h in held:
            if h in at_hop:
                continue
            link, u, v = self.hops[h]
            deps = self.deps[h]
            link.end_activity(u, v, quiet_since=deps[bisect_right(deps, tm) - 1])

    def _make_packet(self, i: int, hop_index: int,
                     on_delivered: Callable[[Packet], None]) -> Packet:
        packet = Packet(self.packets.sizes[i], self.path, self.t0, on_delivered)
        packet.hop_index = max(0, hop_index)
        return packet


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
        express: bool = True,
    ):
        if mtu_bytes <= 0:
            raise ValueError(f"MTU must be positive, got {mtu_bytes}")
        self.engine = engine
        self.topology = topology
        self.router = router or Router(topology)
        self.mtu_bytes = mtu_bytes
        self.max_queue_packets = max_queue_packets
        self.local_transfer_delay_s = local_transfer_delay_s
        self.fast_path = fast_path
        self.express = express
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
        self.trains_express = 0
        self.trains_materialized = 0
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
        self._forward(packet)
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

        On an idle route the transfer is modeled as a packet train / express
        delivery (see the module docstring); timestamps and power accounting
        are identical to per-packet simulation.
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
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

        if self.fast_path and self.max_queue_packets is None:
            hops = self.router.links_on_path(path)
            if self._train_eligible(path, hops):
                train = _Train(self, path, hops, packets, callback)
                if self.express and train.try_express():
                    if rec is not None:
                        rec.instant(
                            "net", "train-express", "net/trains",
                            self.engine.now, args={"packets": n_packets},
                        )
                    return
                if n_packets >= 2:
                    if rec is not None:
                        rec.instant(
                            "net", "train-engage", "net/trains",
                            self.engine.now, args={"packets": n_packets},
                        )
                    train.engage()
                    return
                # Single-packet trains gain nothing over per-packet events.

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

        for size in sizes:
            packet = Packet(size, path, self.engine.now, _one_arrived, _one_dropped)
            self._forward(packet)

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
            # An entry for (u, v) is either a train on this direction or an
            # express train holding its reverse; both forbid batching here.
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

    def _forward(self, packet: Packet) -> None:
        u = packet.path[packet.hop_index]
        v = packet.path[packet.hop_index + 1]
        self._queue_for(u, v).enqueue(packet)

    def _hop_arrived(self, packet: Packet) -> None:
        packet.hop_index += 1
        if packet.hop_index >= len(packet.path) - 1:
            self.packets_delivered += 1
            self.bytes_delivered += packet.size_bytes
            self.packet_delay.record(self.engine.now - packet.sent_at)
            if packet.on_delivered is not None:
                packet.on_delivered(packet)
            return
        self._forward(packet)

    # ------------------------------------------------------------------
    def queue_depth(self, src: str, dst: str) -> int:
        """Current output-queue depth (packets) for a directed hop.

        Packets inside an in-flight train are not visible here until the
        train materializes; reserved hops report 0.
        """
        key = (src, dst)
        queue = self._queues.get(key)
        return queue.depth if queue is not None else 0

    def __repr__(self) -> str:
        return (
            f"<PacketNetwork delivered={self.packets_delivered} "
            f"dropped={self.packets_dropped}>"
        )
