"""Flow-based communication with max-min fair bandwidth sharing (§III-B).

When dependent tasks communicate they can "send a single flow of data";
multiple flows share links, each link has a rate capacity, and "multiple
flows ... can simultaneously travel along a link if it has not yet been
saturated".  This module implements the classic fluid-flow model:

* every active flow gets the max-min fair share over its route;
* whenever the flow set changes, progress is banked, rates are recomputed by
  progressive water-filling, and completion events are rescheduled;
* flows traversing sleeping switches first wake them (charging the wake
  latency), which is how the joint server-network policy's costs arise;
* optional dynamic link-rate adaptation steps idle/lightly-used links down.

The water-filling invariants (per-link allocation never exceeds capacity;
every flow is bottlenecked somewhere) are enforced by property-based tests.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import Engine, EventHandle
from repro.core.stats import LatencyCollector
from repro.network.link import Link
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.telemetry import session as telemetry

DirectedLink = Tuple[Link, str, str]


class Flow:
    """One in-flight data transfer over a fixed route."""

    _ids = itertools.count()

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "path",
        "hops",
        "size_bits",
        "remaining_bits",
        "rate_bps",
        "callback",
        "created_at",
        "started_at",
        "last_update",
        "completion",
        "propagation_s",
        "__weakref__",  # a trace recorder numbers flows through weak references
    )

    def __init__(
        self,
        src: str,
        dst: str,
        path: List[str],
        hops: List[DirectedLink],
        size_bits: float,
        callback: Callable[[], None],
        created_at: float,
        flow_id: Optional[int] = None,
    ):
        # A FlowNetwork allocates ids from its own counter so restored
        # checkpoints (which reset the process-global itertools.count) can
        # never collide with in-flight flows; the class counter remains the
        # fallback for directly constructed flows.
        self.flow_id = next(Flow._ids) if flow_id is None else flow_id
        self.src = src
        self.dst = dst
        self.path = path
        self.hops = hops
        self.size_bits = size_bits
        self.remaining_bits = size_bits
        self.rate_bps = 0.0
        self.callback = callback
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.last_update = created_at
        self.completion: Optional[EventHandle] = None
        # The route's one-way propagation delay, summed when the flow starts.
        self.propagation_s = 0.0

    def __repr__(self) -> str:
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} "
            f"{self.remaining_bits/8e6:.2f}MB left @ {self.rate_bps/1e9:.3f}Gbps>"
        )


def max_min_rates(
    flows: List[Flow], capacity_of: Callable[[DirectedLink], float]
) -> Dict[int, float]:
    """Progressive water-filling: max-min fair rates for a set of flows.

    Args:
        flows: active flows, each with its directed-link route.
        capacity_of: capacity lookup per directed link.

    Returns:
        flow_id -> rate (bits/s).  Guarantees per-direction link usage never
        exceeds capacity and every flow is capped by a saturated link.
    """
    # One record per directed link, in first-use order:
    # [residual capacity, unfixed users, users].
    links: Dict[DirectedLink, list] = {}
    for flow in flows:
        for hop in flow.hops:
            record = links.get(hop)
            if record is None:
                links[hop] = [capacity_of(hop), 1, [flow]]
            else:
                record[1] += 1
                record[2].append(flow)

    rates: Dict[int, float] = {}
    unfixed = {flow.flow_id for flow in flows}
    while unfixed:
        # The bottleneck: the smallest fair share a link still offers.
        best = None
        for residual, count, _ in links.values():
            if count:
                share = residual / count
                if best is None or share < best:
                    best = share
        if best is None:
            # The unfixed flows cross no link (a flow with no hops).
            break
        # Fix every unfixed flow crossing a link at the bottleneck share;
        # pick the links before any residual moves.
        limit = best * (1 + 1e-12)
        bottlenecks = [
            users for residual, count, users in links.values()
            if count and residual / count <= limit
        ]
        for users in bottlenecks:
            for flow in users:
                if flow.flow_id not in unfixed:
                    continue
                unfixed.remove(flow.flow_id)
                rates[flow.flow_id] = best
                for hop in flow.hops:
                    record = links[hop]
                    left = record[0] - best
                    record[0] = left if left > 0.0 else 0.0
                    record[1] -= 1
    return rates


def _current_rate(hop: DirectedLink) -> float:
    return hop[0].current_rate_bps


def _peak_rate(hop: DirectedLink) -> float:
    return hop[0].peak_rate_bps


class FlowNetwork:
    """The flow-level communication model over a topology."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        router: Optional[Router] = None,
        auto_wake_switches: bool = True,
        adapt_link_rates: bool = False,
        local_transfer_delay_s: float = 0.0,
    ):
        self.engine = engine
        self.topology = topology
        self.router = router or Router(topology)
        self.auto_wake_switches = auto_wake_switches
        self.adapt_link_rates = adapt_link_rates
        self.local_transfer_delay_s = local_transfer_delay_s
        self.active_flows: Dict[int, Flow] = {}
        # Flows parked while sleeping switches on their path wake up,
        # keyed by flow id; the barrier is kept so a stale wake (from a
        # path abandoned mid-wake by a re-route) can be recognised.
        self._pending_wake: Dict[int, Tuple[Flow, "_WakeBarrier"]] = {}
        # Flows whose endpoints were partitioned apart by failures; they
        # resume via retry_stranded() once a repair restores a path.
        self._stranded: List[Flow] = []
        self._transfer_seq = 0
        self._flow_seq = 0
        self.flows_completed = 0
        self.rate_recomputes = 0
        self.flows_rerouted = 0
        self.flows_stranded = 0
        self.bits_delivered = 0.0
        self.flow_completion_time = LatencyCollector("flow_completion_time")

    # ------------------------------------------------------------------
    # Public interface used by the global scheduler
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_server_id: int,
        dst_server_id: int,
        size_bytes: float,
        callback: Callable[[], None],
        on_drop: Optional[Callable[..., None]] = None,
    ) -> Optional[Flow]:
        """Move ``size_bytes`` between servers; ``callback`` fires on arrival.

        Same-server transfers complete after ``local_transfer_delay_s`` (data
        never leaves the machine).  Returns the created flow, if any.
        ``on_drop`` is never called: a flow loses no data.  It is accepted
        so both network models take the same arguments.
        """
        if not 0 <= size_bytes < math.inf:
            raise ValueError(
                f"transfer size must be finite and non-negative, got {size_bytes}"
            )
        if src_server_id == dst_server_id or size_bytes == 0:
            self.engine.post(self.local_transfer_delay_s, callback)
            return None
        src = self.topology.server_node(src_server_id)
        dst = self.topology.server_node(dst_server_id)
        now = self.engine.now
        flow = self._build_flow(src, dst, size_bytes * 8.0, callback, now)
        ts = telemetry.ACTIVE
        if ts is not None and ts.net is not None:
            rec = ts.net
            rec.begin(
                "net", "flow", "net/flows", now, rec.seq_id("flow", flow),
                args={"src": src, "dst": dst, "bytes": size_bytes},
            )
        self._launch(flow)
        return flow

    def _build_flow(
        self,
        src: str,
        dst: str,
        size_bits: float,
        callback: Callable[[], None],
        now: float,
    ) -> Flow:
        # Per-network transfer counter, not the repr of a shared
        # itertools.count: distinct transfers between the same pair must get
        # distinct flow keys so ECMP actually spreads them.
        self._transfer_seq += 1
        path = self.router.route(src, dst, flow_key=f"{src}->{dst}#{self._transfer_seq}")
        hops = self.router.links_on_path(path)
        if not hops:
            raise ValueError(f"degenerate route {path}")
        self._flow_seq += 1
        return Flow(
            src, dst, path, hops, size_bits, callback, now,
            flow_id=self._flow_seq,
        )

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def _launch(self, flow: Flow) -> None:
        """Start a flow on its current path, waking sleeping switches first."""
        sleeping = [
            sw for sw in self.router.switches_on_path(flow.path) if not sw.is_on
        ]
        if sleeping:
            if not self.auto_wake_switches:
                raise RuntimeError(
                    f"route {flow.path} crosses sleeping switches "
                    f"{[s.name for s in sleeping]} and auto-wake is disabled"
                )
            barrier = _WakeBarrier(len(sleeping), self, flow)
            self._pending_wake[flow.flow_id] = (flow, barrier)
            for sw in sleeping:
                sw.request_wake(barrier.arrive)
        else:
            self._start_flow(flow)

    def _wake_complete(self, flow: Flow, barrier: "_WakeBarrier") -> None:
        entry = self._pending_wake.get(flow.flow_id)
        if entry is None or entry[1] is not barrier:
            # The flow was re-routed (or stranded) while these switches woke;
            # this wake belongs to the abandoned path.
            return
        del self._pending_wake[flow.flow_id]
        self._start_flow(flow)

    def _start_flow(self, flow: Flow) -> None:
        now = self.engine.now
        flow.started_at = now
        flow.last_update = now
        flow.propagation_s = sum(link.propagation_delay_s for link, _, _ in flow.hops)
        for link, u, v in flow.hops:
            link.begin_activity(u, v)
        self.active_flows[flow.flow_id] = flow
        self._recompute()

    def _complete_flow(self, flow: Flow) -> None:
        flow.completion = None
        now = self.engine.now
        flow.remaining_bits = 0.0
        self.active_flows.pop(flow.flow_id, None)
        for link, u, v in flow.hops:
            link.end_activity(u, v)
        self.flows_completed += 1
        self.bits_delivered += flow.size_bits
        self.flow_completion_time.record(now - flow.created_at)
        ts = telemetry.ACTIVE
        if ts is not None and ts.net is not None:
            rec = ts.net
            rec.end(
                "net", "flow", "net/flows", now, rec.seq_id("flow", flow),
                args={"fct_s": now - flow.created_at},
            )
        self._recompute()
        flow.callback()

    def _recompute(self) -> None:
        """Re-run water-filling, bank progress, reschedule completions."""
        self.rate_recomputes += 1
        flows = list(self.active_flows.values())
        if flows:
            # An adapting network may step a link back up to its peak rate.
            rates = max_min_rates(
                flows, _peak_rate if self.adapt_link_rates else _current_rate
            )
            now = self.engine.now
            schedule_at = self.engine.schedule_at
            complete = self._complete_flow
            # Water-filling reads only routes, so each flow banks its progress
            # at its old rate here.  Every completion is re-issued in flow
            # order: sequence numbers break same-time ties.
            for flow in flows:
                elapsed = now - flow.last_update
                if elapsed > 0 and flow.rate_bps > 0:
                    left = flow.remaining_bits - flow.rate_bps * elapsed
                    flow.remaining_bits = left if left > 0.0 else 0.0
                flow.last_update = now
                rate = flow.rate_bps = rates.get(flow.flow_id, 0.0)
                if flow.completion is not None:
                    flow.completion.cancel()
                if rate <= 0:
                    flow.completion = None
                    continue
                remaining_s = flow.remaining_bits / rate
                if flow.remaining_bits == flow.size_bits:
                    # Propagation is charged once: the route's total one-way delay.
                    remaining_s += flow.propagation_s
                flow.completion = schedule_at(now + remaining_s, complete, flow)
        if self.adapt_link_rates:
            self._adapt_rates(flows)

    def _adapt_rates(self, flows: List[Flow]) -> None:
        """Step adaptive links down to the demand actually allocated on them."""
        demand: Dict[Tuple, float] = {}
        links: Dict[Tuple, Link] = {}
        for flow in flows:
            for link, u, v in flow.hops:
                k = (id(link), u, v)
                demand[k] = demand.get(k, 0.0) + flow.rate_bps
                links[k] = link
        # Idle adaptive links drop to their minimum rate.
        seen_links = {k[0] for k in links}
        for link in self.topology.links.values():
            if not link.config.adaptive_rates_bps:
                continue
            if id(link) in seen_links:
                peak = max(
                    demand.get((id(link), link.u, link.v), 0.0),
                    demand.get((id(link), link.v, link.u), 0.0),
                )
            else:
                peak = 0.0
            link.adapt_rate(peak)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def reroute_around_failures(self) -> int:
        """Move flows off paths that cross a failed link or switch.

        Each broken flow's progress is banked, its old hops are released,
        and it restarts on a fresh shortest path (waking switches as
        needed).  Flows whose endpoints are partitioned apart are parked
        and resumed by :meth:`retry_stranded` after a repair.  Returns the
        number of flows displaced (re-routed plus stranded).
        """
        now = self.engine.now
        broken: List[Flow] = []
        for flow in self.active_flows.values():
            elapsed = now - flow.last_update
            if elapsed > 0 and flow.rate_bps > 0:
                flow.remaining_bits = max(
                    0.0, flow.remaining_bits - flow.rate_bps * elapsed
                )
            flow.last_update = now
            if not self.topology.path_is_up(flow.path):
                broken.append(flow)
        for flow in broken:
            if flow.completion is not None and flow.completion.pending:
                flow.completion.cancel()
            flow.completion = None
            flow.rate_bps = 0.0
            del self.active_flows[flow.flow_id]
            for link, u, v in flow.hops:
                link.end_activity(u, v)
        # Flows still waiting on switch wakes never started, so they hold no
        # link activity; dropping the pending entry orphans their barrier.
        waiting = [
            flow
            for flow, _barrier in self._pending_wake.values()
            if not self.topology.path_is_up(flow.path)
        ]
        for flow in waiting:
            del self._pending_wake[flow.flow_id]
        for flow in broken + waiting:
            if not self._relaunch(flow):
                self.flows_stranded += 1
                self._stranded.append(flow)
        self._recompute()
        return len(broken) + len(waiting)

    def retry_stranded(self) -> int:
        """Resume stranded flows whose endpoints are reachable again.

        Called after a repair restores connectivity; returns the number of
        flows that found a path and restarted.
        """
        if not self._stranded:
            return 0
        still_stranded: List[Flow] = []
        resumed = 0
        for flow in self._stranded:
            if self._relaunch(flow):
                resumed += 1
            else:
                still_stranded.append(flow)
        self._stranded = still_stranded
        return resumed

    def _relaunch(self, flow: Flow) -> bool:
        """Re-route a displaced flow; returns False when no path survives."""
        path = self.router.try_route(
            flow.src, flow.dst, flow_key=f"{flow.src}->{flow.dst}#{flow.flow_id}"
        )
        if path is None:
            return False
        flow.path = path
        flow.hops = self.router.links_on_path(path)
        self.flows_rerouted += 1
        self._launch(flow)
        return True

    # ------------------------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self.active_flows)

    @property
    def stranded_flow_count(self) -> int:
        return len(self._stranded)

    def __repr__(self) -> str:
        return f"<FlowNetwork flows={len(self.active_flows)} done={self.flows_completed}>"


class _WakeBarrier:
    """Resume a parked flow once N switch wakes have completed.

    Holds the network and flow directly (not a closure over them) so a
    checkpointed world with flows mid-wake pickles cleanly.
    """

    def __init__(self, count: int, network: FlowNetwork, flow: Flow):
        self.remaining = count
        self.network = network
        self.flow = flow

    def arrive(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.network._wake_complete(self.flow, self)
