"""Counted water-filling against the list-rebuilding reference, bit for bit.

``reference_max_min_rates`` is the water-filling the flow model used before
it kept a per-link count of unfixed users.  Both must fix the same flows in
the same rounds at the same shares, computed from the same division
operands, so every rate is compared by ``repr`` and the result dicts must
also agree in insertion order.  Capacities are drawn both from a few values
(so exact and ulp-near ties between links occur) and from a continuous
range.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import DirectedLink, Flow, max_min_rates
from repro.network.routing import Router
from repro.network.topology import Topology, fat_tree


def reference_max_min_rates(
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
    # Key directed links by identity of the link plus the direction.
    def key(hop: DirectedLink):
        link, u, v = hop
        return (id(link), u, v)

    residual: Dict[Tuple, float] = {}
    users: Dict[Tuple, List[Flow]] = {}
    for flow in flows:
        for hop in flow.hops:
            k = key(hop)
            if k not in residual:
                residual[k] = capacity_of(hop)
                users[k] = []
            users[k].append(flow)

    rates: Dict[int, float] = {}
    unfixed = {flow.flow_id: flow for flow in flows}
    while unfixed:
        # Fair share currently offered by each link still carrying unfixed flows.
        best_share = None
        for k, flow_list in users.items():
            active = [f for f in flow_list if f.flow_id in unfixed]
            if not active:
                continue
            share = residual[k] / len(active)
            if best_share is None or share < best_share:
                best_share = share
        if best_share is None:
            # Remaining flows traverse only links with no constraint left —
            # cannot happen since every flow has at least one hop.
            break  # pragma: no cover
        # Fix every unfixed flow crossing a link at the bottleneck share.
        newly_fixed: List[Flow] = []
        for k, flow_list in users.items():
            active = [f for f in flow_list if f.flow_id in unfixed]
            if not active:
                continue
            share = residual[k] / len(active)
            if share <= best_share * (1 + 1e-12):
                newly_fixed.extend(active)
        for flow in newly_fixed:
            if flow.flow_id not in unfixed:
                continue
            rates[flow.flow_id] = best_share
            del unfixed[flow.flow_id]
            for hop in flow.hops:
                residual[key(hop)] = max(0.0, residual[key(hop)] - best_share)
    return rates


_ENGINE = Engine()
FAT_TREE_ROUTER = Router(fat_tree(_ENGINE, 4, link_config=LinkConfig(rate_bps=1e9)))
CHAIN_LENGTH = 6
_chain = Topology(_ENGINE, "chain")
for _i in range(CHAIN_LENGTH):
    _chain.add_server(_i)
for _i in range(CHAIN_LENGTH - 1):
    _chain.connect(f"h{_i}", f"h{_i + 1}", LinkConfig(rate_bps=1e9))
CHAIN_ROUTER = Router(_chain)

#: A few capacities, so that fair shares of different links tie exactly
#: (1e9 over two flows is 5e8 over one) or within the 1e-12 tolerance.
TIED_CAPACITIES = (5e8, 1e9, 2.5e9, 1e10 / 3, 1e10)


def _flow(router: Router, path: List[str]) -> Flow:
    return Flow(path[0], path[-1], path, router.links_on_path(path), 1e6, lambda: None, 0.0)


@st.composite
def flow_sets(draw) -> Tuple[List[Flow], Dict[Tuple, float]]:
    n_flows = draw(st.integers(min_value=1, max_value=16))
    flows = []
    if draw(st.booleans()):
        hosts = st.integers(min_value=0, max_value=15)
        for _ in range(n_flows):
            src = draw(hosts)
            dst = draw(hosts.filter(lambda h: h != src))
            key = draw(st.integers(min_value=0, max_value=999))
            path = FAT_TREE_ROUTER.route(f"h{src}", f"h{dst}", flow_key=str(key))
            flows.append(_flow(FAT_TREE_ROUTER, path))
    else:
        # Parking lot: each flow spans a stretch of the chain, either way.
        for _ in range(n_flows):
            lo = draw(st.integers(min_value=0, max_value=CHAIN_LENGTH - 2))
            hi = draw(st.integers(min_value=lo + 1, max_value=CHAIN_LENGTH - 1))
            path = [f"h{i}" for i in range(lo, hi + 1)]
            if draw(st.booleans()):
                path.reverse()
            flows.append(_flow(CHAIN_ROUTER, path))
    if draw(st.booleans()):
        capacity = st.sampled_from(TIED_CAPACITIES)
    else:
        capacity = st.floats(min_value=1e8, max_value=1e10)
    capacities: Dict[Tuple, float] = {}
    for flow in flows:
        for link, u, v in flow.hops:
            if (id(link), u, v) not in capacities:
                capacities[(id(link), u, v)] = draw(capacity)
    return flows, capacities


def _both(flows: List[Flow], capacities: Dict[Tuple, float]):
    def capacity_of(hop: DirectedLink) -> float:
        link, u, v = hop
        return capacities[(id(link), u, v)]

    def as_reprs(rates: Dict[int, float]) -> List[Tuple[int, str]]:
        return [(flow_id, repr(rate)) for flow_id, rate in rates.items()]

    return (
        as_reprs(max_min_rates(flows, capacity_of)),
        as_reprs(reference_max_min_rates(flows, capacity_of)),
    )


@given(flow_sets())
@settings(max_examples=400, deadline=None)
def test_counted_water_filling_matches_reference(case):
    counted, reference = _both(*case)
    assert counted == reference


def test_shares_one_ulp_apart_are_fixed_together():
    # Two disjoint links: 1e10/3 for three flows, and (1e10 - 1e10/3)/2 for
    # two, one ulp lower.  The 1e-12 tolerance fixes all five in one round
    # at the lower share.
    three = [_flow(CHAIN_ROUTER, ["h0", "h1"]) for _ in range(3)]
    two = [_flow(CHAIN_ROUTER, ["h1", "h2"]) for _ in range(2)]
    capacities = {
        (id(three[0].hops[0][0]), "h0", "h1"): 1e10,
        (id(two[0].hops[0][0]), "h1", "h2"): 1e10 - 1e10 / 3,
    }
    lower = (1e10 - 1e10 / 3) / 2
    assert 0 < 1e10 / 3 - lower <= 1e10 / 3 * 1e-12
    counted, reference = _both(three + two, capacities)
    assert counted == reference
    assert {rate for _, rate in counted} == {repr(lower)}


def test_flow_crossing_no_link_gets_no_rate():
    hopless = Flow("h0", "h0", ["h0"], [], 1e6, lambda: None, 0.0)
    routed = _flow(CHAIN_ROUTER, ["h0", "h1"])
    capacities = {(id(link), u, v): 1e9 for link, u, v in routed.hops}
    assert _both([hopless], capacities) == ([], [])
    counted, reference = _both([hopless, routed], capacities)
    assert counted == reference == [(routed.flow_id, repr(1e9))]
