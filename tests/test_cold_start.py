"""What a tier loads: each check imports in a fresh interpreter.

A proxy shard, the router and the origin load the modules they serve
with and nothing of the simulator's topologies, the sweep engine's
process pool, the figure code or the fleet aggregator; the simulator
loads nothing of the live tiers; the Experiment-1 path (generate, write
and read a CLF log, validate, summarise, MaxNeeded) loads no sweep
engine, topology, durability or obs code; a package ``__init__`` loads
none of its submodules; and once a tier is serving, answering a request
imports nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

LIVE_TIERS = ["repro.proxy.server", "repro.proxy.router", "repro.proxy.origin"]

#: What the live tiers never run: the aggregator and report renderers,
#: the figure code, the sweep engine and its process pool, the
#: simulated topologies and the workload generators.
NOT_SERVING = [
    "repro.obs.telemetry", "repro.obs.summarize", "repro.analysis",
    "repro.core.sweep", "repro.core.multilevel", "repro.workloads",
    "concurrent.futures.process",
]

LAZY_PACKAGES = [
    "repro.analysis", "repro.core", "repro.des", "repro.httpnet",
    "repro.proxy", "repro.trace", "repro.workloads",
]


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; return what it printed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout)


def loaded_after(*modules):
    """The module names a fresh interpreter holds after importing
    ``modules``."""
    return run_fresh(
        "import json, sys\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(json.dumps(sorted(sys.modules)))"
    )


def under(loaded, prefixes):
    """The loaded modules that are one of ``prefixes`` or inside one."""
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def test_a_live_tier_loads_only_what_it_serves():
    loaded = loaded_after(*LIVE_TIERS)
    assert under(loaded, NOT_SERVING) == []
    assert "repro.obs.tracing" in loaded  # the trace context's home


def test_a_fleet_shard_process_loads_no_simulator():
    """``python -m repro fleet shard`` (spawned again after every crash)
    imports the command line and the fleet module before it serves."""
    loaded = loaded_after("repro.cli", "repro.proxy.fleet")
    assert under(loaded, [
        "repro.analysis.figures", "repro.core.sweep", "repro.core.multilevel",
        "repro.workloads.generator", "concurrent.futures.process",
    ]) == []
    assert under(loaded_after("repro.cli"), [
        "repro.analysis", "repro.core.sweep", "repro.workloads",
    ]) == []


def test_the_simulator_loads_no_live_tier():
    loaded = loaded_after("repro.core.simulator")
    assert under(loaded, [
        "repro.proxy", "repro.httpnet", "repro.analysis", "repro.core.sweep",
        "concurrent.futures.process",
    ]) == []


def test_the_experiment_1_path_loads_no_engine():
    """Experiment 1 (an infinite cache gives MaxNeeded) feeds every other
    experiment; its runner and the ingest modules leave the sweep engine,
    the two topologies, the journal and the obs stack unloaded."""
    loaded = loaded_after(
        "repro.core.experiments", "repro.workloads.generator",
        "repro.trace.reader", "repro.trace.writer", "repro.trace.stats",
        "repro.trace.validation",
    )
    assert under(loaded, [
        "repro.core.sweep", "repro.core.multilevel", "repro.core.partitioned",
        "repro.durability", "repro.obs", "concurrent.futures",
    ]) == []


def test_the_trace_package_loads_no_core():
    assert under(loaded_after("repro.trace"), ["repro.core"]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_package_init_loads_nothing(package):
    loaded = loaded_after(package)
    assert under(loaded, ["repro"]) == ["repro", "repro._lazy", package]


SERVE = """
import json, sys
from repro.httpnet.client import fetch
from repro.proxy.origin import OriginServer, SyntheticSite
from repro.proxy.router import FleetRouter, StaticDirectory
from repro.proxy.server import CachingProxy
from repro.proxy.store import ProxyStore

origin = OriginServer(SyntheticSite()).start()
proxy = CachingProxy(
    ProxyStore(capacity=1 << 20), resolver=lambda host: origin.address,
).start()
router = FleetRouter(StaticDirectory({0: proxy.address})).start()
before = sorted(sys.modules)
statuses = [
    fetch(proxy.address, "http://cold.edu/a.html").status,   # miss
    fetch(proxy.address, "http://cold.edu/a.html").status,   # hit
    fetch(router.address, "http://cold.edu/b.html").status,  # routed
]
after = sorted(sys.modules)
stats = proxy.store.stats
print(json.dumps({
    "statuses": statuses, "hits": stats.hits, "misses": stats.misses,
    "new": sorted(set(after) - set(before)),
}))
for server in (router, proxy, origin):
    server.stop()
"""


def test_serving_imports_nothing():
    """The first miss, the first hit and the first routed request load
    no module of ours: every import a request needs happened at
    start-up."""
    out = run_fresh(SERVE)
    assert out["statuses"] == [200, 200, 200]
    assert (out["hits"], out["misses"]) == (1, 2)
    assert out["new"] == []
