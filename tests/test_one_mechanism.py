"""One mechanism each: the next hand-rolled copy fails here, by path.

``repro.httpnet.server`` owns the accept loop and the request-head
reader; ``repro.httpnet.client`` owns connecting out and reading a
response; ``repro.durability`` owns the checksummed-JSONL trailer;
``repro.obs.metrics`` owns the sample quantile; ``repro.obs.summarize``
owns reading Prometheus text; a replay's day series is stored once, in
its ``MetricsCollector``, and ``repro.obs.timeseries`` builds the only
view of it; ``bench/run.py``, outside the package, is the one perf
harness; ``repro.cli`` declares the one command line (its serve loop,
the only signal handler besides the sweep's checkpointing drain);
``repro.proxy.fleet`` wires the one fleet from one shard spec; and
``repro.obs.telemetry`` renders the one fleet dashboard while
``repro.obs.summarize`` formats the one fleet verdict line;
``repro.core.simulator.replay`` is the one replay loop, each simulated
topology is its own result, and ``repro.trace.tools`` owns the one
timestamp merge; ``SimCache._make_room`` is the one eviction loop and
``HeapIndex.pop_head`` is reached from it alone, while each sort key's
value is one expression that ``KeyPolicy`` compiles into its sort value
and heap record; ``repro.durability`` encodes each journal line once,
no body is ever base64-encoded, and a proxy store's state is one
journal that ``rewrite_journal`` compacts, with no manifest beside it,
as is a sweep checkpoint, whose journal header names its sweep;
``SizeModel.draw`` writes the one size draw, and the workload generator
draws only through the public ``random`` API.  A new
server, client, export, benchmark runner, flag, fleet, dashboard or
replay loop that grows its own fails here instead of drifting apart
from the shared one (as the router's deadline-less head reader once
did).
"""

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"


def files_containing(needle):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if needle in path.read_text(encoding="utf-8")
    )


def test_one_accept_loop():
    assert files_containing(".accept(") == ["httpnet/server.py"]


def test_one_request_head_reader():
    assert files_containing("recv(4096)") == ["httpnet/server.py"]


# The load generator's slowloris probe trickles a request head and then
# watches for the cut-off, which is exactly what a well-behaved client
# does not do: it must hand-roll its socket.
CLIENT_SIDE = ["httpnet/client.py", "proxy/loadgen.py"]


def test_one_upstream_client():
    assert files_containing("create_connection(") == CLIENT_SIDE


def test_one_response_reader():
    assert files_containing("recv(65536)") == CLIENT_SIDE


def test_one_checksummed_jsonl_trailer():
    assert files_containing('"sha256"') == ["durability.py"]


def test_one_sample_quantile():
    assert files_containing("len(ordered)") == ["obs/metrics.py"]
    assert files_containing("def sample_quantile") == ["obs/metrics.py"]
    assert files_containing("def histogram_quantile") == ["obs/metrics.py"]


def test_the_package_carries_no_benchmark():
    assert files_containing("BENCH_") == []
    assert files_containing("def run_bench") == []


def test_one_exposition_reader():
    assert files_containing("def parse_prometheus_text") == [
        "obs/summarize.py"
    ]
    assert files_containing('.startswith(name + " ")') == []


def test_the_day_series_is_stored_once():
    """Replay drivers and figures touch no recorder: the view over a
    collector is built in ``obs/timeseries.py`` and only the fleet's
    telemetry aggregator ticks one live."""
    assert files_containing("SimStreamTicker(") == ["obs/timeseries.py"]
    assert files_containing(".tick(") == [
        "obs/telemetry.py", "obs/timeseries.py",
    ]
    assert [
        path for path in files_containing("timeseries=")
        if path.startswith(("core/", "analysis/"))
    ] == []


def test_one_command_line():
    assert files_containing("add_argument(") == ["cli.py"]
    assert files_containing("signal.signal(") == ["cli.py", "core/sweep.py"]


def test_one_fleet_wiring_from_one_shard_spec():
    assert files_containing("FleetSupervisor(") == ["proxy/fleet.py"]
    assert files_containing("TelemetryAggregator(") == ["proxy/fleet.py"]
    assert files_containing("FleetRouter(") == [
        "proxy/fleet.py", "proxy/router.py",
    ]
    assert files_containing("--shard-id") == []


def test_one_fleet_dashboard_and_verdict_line():
    """The SLO block is produced and read in one file, the verdict line
    is formatted in one, and the fleet renders no HTML."""
    assert files_containing("burn_rates") == ["obs/telemetry.py"]
    assert files_containing("restart(s)") == ["obs/summarize.py"]
    assert files_containing("<!DOCTYPE") == []


def test_one_replay_loop():
    """Only ``replay`` tests day boundaries, and no module replays
    through the allocating ``SimCache.access``."""
    assert files_containing("day_end") == ["core/simulator.py"]
    assert files_containing(".access(request") == []
    assert files_containing("AccessResult(") == ["core/cache.py"]


def test_one_object_per_topology_and_one_merge():
    assert files_containing("def result(self)") == []
    assert files_containing("heapq.merge") == ["trace/tools.py"]


def test_one_eviction_loop():
    assert files_containing("def evict_next") == []
    assert files_containing("pop_head(") == ["core/cache.py"]
    assert files_containing("_make_room(") == ["core/cache.py", "core/periodic.py"]


def test_each_sort_key_is_one_expression():
    assert files_containing("_sort_tuple") == []
    assert files_containing("def compile_keys(") == ["core/keys.py"]


def test_no_body_is_base64_encoded():
    """A put journals its body raw and compaction rewrites the same raw
    records; base64 survives only to decode a format-1 journal's puts."""
    import inspect

    from repro.proxy import store

    assert files_containing("b64encode") == []
    assert files_containing("b64decode") == ["proxy/store.py"]
    assert inspect.getsource(store).count("b64decode") == 1
    assert "b64decode" in inspect.getsource(store._record_to_document)


def test_a_store_generation_is_one_journal():
    """The proxy keeps no manifest, and ``rewrite_journal`` is the
    store's one compaction step."""
    import inspect

    from repro.proxy import store

    for needle in ("write_manifest", "read_manifest"):
        assert [path for path in files_containing(needle)
                if path.startswith("proxy/")] == []
    assert inspect.getsource(store).count("rewrite_journal(") == 1
    assert "truncate=" not in inspect.getsource(store)


def test_a_state_directory_is_one_journal():
    """No module keeps a manifest: a sweep checkpoint's identity is its
    journal's header, and every checkpoint open is one rewrite."""
    import inspect

    from repro.core import sweep

    for needle in ("write_manifest", "read_manifest", "MANIFEST"):
        assert files_containing(needle) == []
    source = inspect.getsource(sweep)
    assert source.count("rewrite_journal(") == 1
    assert "Journal(" not in source
    assert "truncate=" not in source


def test_each_journal_line_is_encoded_once():
    import inspect

    from repro.durability import Journal, _journal_line

    source = inspect.getsource(_journal_line).split('"""')[-1]
    assert source.count("canonical_json(") == 1
    assert "checksum(" not in source
    assert "canonical_json(" not in inspect.getsource(Journal)


def test_the_size_draw_is_written_once():
    """``SizeModel.draw`` is the one lognormal/Pareto routine: the catalog
    draws a type's sizes through it in one batch, ``sample`` one size."""
    import inspect

    from repro.workloads import sizes

    assert files_containing(".normalvariate") == ["workloads/sizes.py"]
    assert files_containing(".lognormvariate") == []
    assert inspect.getsource(sizes).count(".normalvariate") == 1
    assert inspect.getsource(sizes).count("** power") == 1
    assert "self.draw(rng, 1)" in inspect.getsource(sizes.SizeModel.sample)


def test_workloads_draw_through_the_public_random_api():
    """DESIGN §6.2: the generator's draws are a contract with the stdlib's
    public ``random`` API, so no workload module reaches inside it."""
    for internal in ("gauss_next", "NV_MAGICCONST", "_randbelow", "getrandbits"):
        assert [
            path for path in files_containing(internal)
            if path.startswith("workloads/")
        ] == [], internal
