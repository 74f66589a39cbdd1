"""Pinned routes: the stdlib BFS reproduces the routes of the graph library
it replaced.

``tests/model/test_topology_hashseed.py`` shows routes do not depend on
``PYTHONHASHSEED``; this file pins *which* routes they are.  The digests
and the all-pairs table were computed with ``networkx.shortest_path``
before :class:`~repro.model.topology.Overlay` switched to its own
breadth-first search, so any change of tie-break shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.model.topology import RoutingError, fat_tree_overlay, leaf_spine_overlay
from repro.workloads.registry import (
    entry_for,
    format_workload_spec,
    list_aliases,
    list_workloads,
    workload_from_spec,
)

#: sha256 of the canonical JSON ``{flow: [route.nodes, route.links]}``.
#: The ``base:shape=pow*`` rows carry the digests recorded under the
#: retired ``base-pow*`` names; routes do not depend on the utility shape.
ROUTE_DIGESTS = {
    "base:shape=log": "1bf533fc812ebadc31685dbe0421a301d53f9c1db2db2b4dc688aa8eb435bb1c",
    "base:shape=pow25": "1bf533fc812ebadc31685dbe0421a301d53f9c1db2db2b4dc688aa8eb435bb1c",
    "base:shape=pow50": "1bf533fc812ebadc31685dbe0421a301d53f9c1db2db2b4dc688aa8eb435bb1c",
    "base:shape=pow75": "1bf533fc812ebadc31685dbe0421a301d53f9c1db2db2b4dc688aa8eb435bb1c",
    "bottleneck:consumer_nodes=2,flows=3,link_capacity=100.0": (
        "60b420628efae9bd588156b9e35c10a84332ed4c8bdbbad086b9c424d8c61176"
    ),
    "cnodes-x2": "4c1556ce152339c80d0c316afd1c2ab153a951571dc2595ea3ec67832eee69e6",
    "cnodes-x4": "c92f828d4ad861f3a3b643420af8242312470b6a643a6b8e636f708c39ddaedc",
    "cnodes-x8": "39b497f50fcb1f9ad356289db461bc2fd09fb93aa2f3f59cdb120c1faecc16e1",
    "cnodes:factor=2,shape=log": (
        "4c1556ce152339c80d0c316afd1c2ab153a951571dc2595ea3ec67832eee69e6"
    ),
    "fattree:edges_per_flow=2,flows=8,k=4": (
        "ba4be760cf964aa69955de3b52025e00e003a98a2bf097d694602bf1bb0285ee"
    ),
    "fault-churn:crash_rate=0.01,horizon=400.0,seed=0,warmup=60.0": (
        "1bf533fc812ebadc31685dbe0421a301d53f9c1db2db2b4dc688aa8eb435bb1c"
    ),
    "flows-x2": "a1a6bcf2ca05da9f450e2c85f458ca464a8d2e55fd0a5804989697e9414f245c",
    "flows-x4": "1f0b775b5e724225533a1baa9d4adb71f9cd646b51f19831a45284a8d1feefd9",
    "flows:factor=2,shape=log": (
        "a1a6bcf2ca05da9f450e2c85f458ca464a8d2e55fd0a5804989697e9414f245c"
    ),
    "generated:consumer_nodes=3,flows=6,seed=0": (
        "72966272d6b69ab4c9abb4ef88e96444dca989a23346fc1fcec5837cd2549029"
    ),
    "latest-price:consumer_nodes=2,consumers_per_class=2000": (
        "a5dcc969c2281d53020f15e61f5fff9f2ba7fa2592b4ca0a8c6c843af26b71bf"
    ),
    "leafspine:flows=1024,leaves=100,leaves_per_flow=4,spines=100": (
        "e043564e173a81186da297eaed08885cf7ec497f25e495bc694a9a452717cef3"
    ),
    "leafspine:flows=16,leaves=8,leaves_per_flow=2,spines=4": (
        "d14fea843fb20c940ac292ccba8b864826fc47d03228a9ae7a0490c6c1d066c4"
    ),
    "micro:capacity=2000.0,rate_max=20.0,rate_min=1.0": (
        "b1effc320b1d1b7ca525d26f6045bd9ab0ec3425c03d860ce41d223df2c1cfac"
    ),
    "trade-data:gold_consumers=50,public_consumers=5000": (
        "e652e3a415d6e98456097294f77c1b6eda33b6286b0b1ad55459cb4ec1c738cf"
    ),
    "tree:branching=2,depth=3,flows=4": (
        "01b07cf10003729784525a0d4257b461ddf234de692affb764ab13608eb8e118"
    ),
}

#: ``{overlay: {source: {target: path or null}}}`` over every node pair.
SHORTEST_PATHS = Path(__file__).parent / "fixtures" / "shortest_paths.json"

OVERLAYS = {
    "leaf_spine_overlay(3, 6)": lambda: leaf_spine_overlay(3, 6, leaf_capacity=5.0),
    "fat_tree_overlay(4)": lambda: fat_tree_overlay(4, edge_capacity=5.0),
}


def route_digest(spec: str) -> str:
    problem = workload_from_spec(spec)
    payload = {
        flow_id: [list(route.nodes), list(route.links)]
        for flow_id, route in problem.routes.items()
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec", sorted(ROUTE_DIGESTS))
def test_route_digest_is_pinned(spec):
    assert route_digest(spec) == ROUTE_DIGESTS[spec]


def test_every_registered_workload_and_alias_is_pinned():
    specs = {
        format_workload_spec(name, entry_for(name).defaults)
        for name in list_workloads()
    }
    assert specs | set(list_aliases()) <= set(ROUTE_DIGESTS)


@pytest.mark.parametrize("name", sorted(OVERLAYS))
def test_all_pairs_shortest_paths_are_pinned(name):
    expected = json.loads(SHORTEST_PATHS.read_text())[name]
    overlay = OVERLAYS[name]()
    assert list(expected) == list(overlay.nodes)
    for source, row in expected.items():
        for target, path in row.items():
            if path is None:
                with pytest.raises(RoutingError, match="no path"):
                    overlay.shortest_path(source, target)
            else:
                assert overlay.shortest_path(source, target) == path
