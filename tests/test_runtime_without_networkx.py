"""The simulator runs without networkx.

networkx is a test-only dependency: the tests that cross-check the
simulator's own graph code against an independent implementation import it,
and nothing under ``src/`` does.  This test starts a fresh interpreter,
checks that ``import repro.cli`` loads no networkx, then makes every later
``import networkx`` raise ImportError and drives each runtime path that
touches a topology:

* ``joint``: fat-tree build, routing, switch sleep and the flow model;
* ``ai-training`` (ring and all-to-all): group placement, packet trains and
  the per-packet path;
* ``validate-switch``: the star topology under the server farm;
* a transfer workload on a k=4 fat tree whose switches and links fail and
  repair mid-traffic, so flows re-route, strand and resume.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.cli

    assert "networkx" not in sys.modules, "importing repro.cli loaded networkx"
    sys.modules["networkx"] = None  # every later `import networkx` raises

    repro.cli.main(["joint", "--utilizations", "0.3", "--fat-tree-k", "4",
                    "--num-jobs", "20"])
    repro.cli.main(["ai-training", "--group-sizes", "4", "--algorithms", "ring",
                    "all_to_all", "--fat-tree-k", "4", "--steps", "1",
                    "--bytes", "10000"])
    repro.cli.main(["validate-switch", "--duration", "5"])

    import numpy as np

    from repro.core.config import FaultConfig, LinkConfig
    from repro.core.engine import Engine
    from repro.core.rng import RandomSource
    from repro.faults.injector import FaultInjector
    from repro.network.flow import FlowNetwork
    from repro.network.topology import fat_tree

    engine = Engine()
    topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
    network = FlowNetwork(engine, topo)
    injector = FaultInjector(
        engine,
        FaultConfig(enabled=True, switch_mtbf_s=2.0, switch_mttr_s=0.02,
                    link_mtbf_s=1.0, link_mttr_s=0.02),
        RandomSource(11), topology=topo, network=network,
    )
    injector.start()
    done, refused = [], []

    def start(src, dst, size):
        # Only transfers with a path start, so every one lands by t=1 (one
        # started across a partition would strand until a repair; see
        # tests/network/test_partitioned_transfers.py).
        if network.router.try_route(topo.server_node(src), topo.server_node(dst)) is None:
            refused.append(src)
        else:
            network.transfer(src, dst, size, lambda: done.append(engine.now))

    rng = np.random.default_rng(11)
    n_transfers = 200
    for _ in range(n_transfers):
        src, dst = (int(x) for x in rng.choice(topo.n_servers, size=2, replace=False))
        engine.schedule(float(rng.uniform(0.0, 0.5)), start, src, dst,
                        float(rng.integers(1_000, 2_000_000)))
    engine.run(until=1.0)
    assert injector.failures_injected > 0 and injector.repairs_applied > 0
    assert network.flows_rerouted > 0 and network.flows_stranded > 0
    assert len(done) + len(refused) == n_transfers, (len(done), len(refused))
    print("faulted fat tree:", injector.failures_injected, "failures,",
          network.flows_rerouted, "re-routed,", network.flows_stranded, "stranded,",
          len(done), "delivered")
    """
)


def test_simulator_runs_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "Fig. 11a" in out
    assert "AI training" in out
    assert "Fig. 13" in out
    assert "faulted fat tree:" in out
