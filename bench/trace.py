"""The per-layer ledger: spans and counters recorded from outside ``src/``.

:class:`LayerTracer` times a traced repetition in two ways, both installed
just before :meth:`Model.run` and removed right after it:

* **dispatch spans** — an ``Engine`` dispatch hook wraps every event; the
  event belongs to the package of the object that owns its callback
  (``type(cb.__self__).__module__`` cut to ``repro.<pkg>``);
* **entry-point spans** — timing wrappers on the public calls that cross
  layers (job intake, policy decisions, task submission and completion,
  network transfers, routing, pool materialization, the job factory).

Spans nest.  A layer's self time is its spans' time minus the time of the
spans they contain, so the self times of all layers plus the loop time
outside every span add up to the run time.  Spans are aggregated as they
close (per layer, per entry point) and kept in memory; nothing is written
during the run.

:func:`read_counters` reads the work counts the simulator already keeps in
public attributes; it runs on plain and traced repetitions alike.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import FunctionType
from typing import Callable, Dict, List, Tuple

from repro.network.flow import FlowNetwork
from repro.network.packet import PacketNetwork
from repro.network.routing import Router
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.policies import DispatchPolicy
from repro.server.pool import ServerPool
from repro.server.server import Server

#: The layers whose self time the ledger reports, named after ``repro``
#: packages; the event kernel itself is ``core.loop_s``.
LAYERS = ("server", "power", "scheduling", "network", "workload")


def _policy_classes() -> List[type]:
    """Every dispatch policy class that defines its own ``select_server``."""
    found, todo = [], [DispatchPolicy]
    while todo:
        cls = todo.pop()
        if "select_server" in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def layer_of_module(module: str) -> str:
    """``repro.server.pool`` -> ``server``; anything outside repro -> ``other``."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"


class LayerTracer:
    """Times one run by layer.  Use as ``install()`` … ``remove()``."""

    def __init__(self, model):
        self.model = model
        self.self_s: Dict[str, float] = defaultdict(float)
        self.events: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        #: Total time inside outermost spans; run time minus this is loop time.
        self.top_s = 0.0
        self._open: List[float] = []  # child time of each open span
        self._depth: Dict[str, int] = defaultdict(int)
        self._owner_layer: Dict[object, str] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, layer: str, elapsed: float) -> None:
        opened = self._open
        self.self_s[layer] += elapsed - opened.pop()
        if opened:
            opened[-1] += elapsed
        else:
            self.top_s += elapsed

    def _layer_of(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            key = type(owner)
        elif isinstance(callback, FunctionType):
            key = callback
        else:
            key = type(callback)
        layer = self._owner_layer.get(key)
        if layer is None:
            layer = self._owner_layer[key] = layer_of_module(key.__module__)
        return layer

    def _dispatch(self, _time: float, callback, args) -> None:
        layer = self._layer_of(callback)
        self.events[layer] += 1
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            self._close(layer, time.perf_counter() - start)

    def _timed(self, layer: str, name: str, fn: Callable) -> Callable:
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Calls and inclusive time count the outermost call of a name
            # only (a policy may delegate to another policy).
            outer = depth[name] == 0
            depth[name] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                if outer:
                    self.calls[name] += 1
                    self.inclusive_s[name] += elapsed
                self._close(layer, elapsed)

        return wrapper

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, layer: str, name: str) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self._timed(layer, name, getattr(owner, attr)))

    def entry_points(self) -> List[Tuple[object, str, str, str]]:
        """(owner, attribute, layer, span name) for every wrapped call."""
        points = [
            (GlobalScheduler, "submit_job", "scheduling", "submit_job"),
            (Server, "submit_task", "server", "submit_task"),
            (PacketNetwork, "transfer", "network", "transfer"),
            (FlowNetwork, "transfer", "network", "transfer"),
            (Router, "route", "network", "route"),
            (ServerPool, "materialize", "server", "materialize"),
        ]
        points += [(cls, "select_server", "scheduling", "select_server")
                   for cls in _policy_classes()]
        points += [(server, "on_task_complete", "scheduling", "on_task_complete")
                   for server in self.model.servers
                   if server.on_task_complete is not None]
        if self.model.factory is not None:
            points.append((type(self.model.factory), "__call__", "workload", "job_factory"))
        return points

    def install(self) -> None:
        for owner, attr, layer, name in self.entry_points():
            self._patch(owner, attr, layer, name)
        self.model.engine.set_dispatch_hook(self._dispatch)

    def remove(self) -> None:
        self.model.engine.set_dispatch_hook(None)
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def metrics(self, run_s: float) -> Dict[str, float]:
        """The span-derived layer metrics of a finished traced run."""
        out: Dict[str, float] = {"core.loop_s": run_s - self.top_s}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["other.self_s"] = sum(
            (t for layer, t in self.self_s.items() if layer not in LAYERS), 0.0
        )
        for layer in ("server", "power", "network"):
            out[f"{layer}.events"] = self.events.get(layer, 0)
        out["server.submit_task_calls"] = self.calls.get("submit_task", 0)
        out["scheduling.select_server_calls"] = self.calls.get("select_server", 0)
        out["scheduling.select_server_s"] = self.inclusive_s.get("select_server", 0.0)
        out["network.transfer_calls"] = self.calls.get("transfer", 0)
        out["network.transfer_s"] = self.inclusive_s.get("transfer", 0.0)
        out["network.route_calls"] = self.calls.get("route", 0)
        out["network.route_s"] = self.inclusive_s.get("route", 0.0)
        return out


def read_counters(model) -> Dict[str, float]:
    """Work counts from the simulator's public attributes, after a run."""
    scheduler, network, pool = model.scheduler, model.network, model.pool
    engaged = getattr(network, "trains_engaged", 0)
    materialized = getattr(network, "trains_materialized", 0)
    captures = pool.captures if pool is not None else 0
    materializations = pool.materializations if pool is not None else 0
    router = getattr(network, "router", None)
    return {
        "core.events": model.engine.events_executed,
        "jobs_completed": scheduler.jobs_completed,
        "workload.jobs_injected": scheduler.jobs_submitted,
        "server.tasks_submitted": sum(s.tasks_submitted for s in model.servers),
        "pool.captures": captures,
        "pool.materializations": materializations,
        "pool.peak_pooled": pool.peak_pooled if pool is not None else 0,
        "pool.materialize_per_capture": materializations / captures if captures else 0.0,
        "power.sleep_transitions": sum(
            s.residency.transition_count(dst="SysSleep") for s in model.servers
        ),
        "scheduling.transfers_launched": scheduler.transfers_launched,
        "network.packets_delivered": getattr(network, "packets_delivered", 0),
        "network.trains_engaged": engaged,
        "network.trains_materialized": materialized,
        "network.train_yield": 1.0 - materialized / engaged if engaged else 0.0,
        "network.flows_completed": getattr(network, "flows_completed", 0),
        "network.table_builds": router.table_builds if router is not None else 0,
    }
