"""The traced repetition measures the same run, and its ledger adds up."""

import time

import pytest

from bench.trace import LayerTracer, read_counters
from bench.workloads import WORKLOADS
from repro.network.packet import PacketNetwork
from repro.scheduling.placement import GroupPlacementPolicy
from repro.server.server import Server

SEED = 9


def _plain(name):
    model = WORKLOADS[name].make(SEED, **WORKLOADS[name].small)
    model.run()
    return model


def _entry_owners(model):
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _layer, _name in LayerTracer(model).entry_points()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_plain_and_ledger_closes(name):
    plain = _plain(name)
    model = WORKLOADS[name].make(SEED, **WORKLOADS[name].small)
    before = _entry_owners(model)

    tracer = LayerTracer(model)
    tracer.install()
    start = time.perf_counter()
    model.run()
    run_s = time.perf_counter() - start
    tracer.remove()

    # Same simulation, same work counts.
    assert model.digest() == plain.digest()
    assert read_counters(model) == read_counters(plain)

    # Wrappers and the hook are gone.
    assert _entry_owners(model) == before
    assert model.engine.dispatch_hook is None
    assert "__wrapped__" not in vars(Server.submit_task)
    assert "__wrapped__" not in vars(PacketNetwork.transfer)
    assert "__wrapped__" not in vars(GroupPlacementPolicy.select_server)

    layers = tracer.metrics(run_s)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["core.loop_s"] == pytest.approx(run_s, rel=0.05)
    assert layers["core.loop_s"] > 0

    # Wrapper call counts agree with the simulator's own counters.
    counters = read_counters(model)
    assert layers["server.submit_task_calls"] == counters["server.tasks_submitted"]
    assert layers["network.transfer_calls"] == counters["scheduling.transfers_launched"]
    assert tracer.calls["submit_job"] == counters["workload.jobs_injected"]
    dispatched = sum(tracer.events.values())
    assert dispatched == model.engine.events_executed
