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
``repro.core.simulator.replay`` is the one replay loop, over the day
slices a ``CompiledTrace`` cuts once, ``SimCache.access_run`` the one
access path, each simulated topology is its own result, and ``repro.trace.tools`` owns the one
timestamp merge; ``SimCache._make_room`` is the one eviction loop and
``HeapIndex.pop_head`` is reached from it alone, while each sort key's
value is one expression that ``KeyPolicy`` compiles into its sort value
and heap record; ``repro.durability`` encodes each journal line once,
no body is ever base64-encoded, and a proxy store's state is one
journal that ``rewrite_journal`` compacts, with no manifest beside it,
as is a sweep's store of finished jobs (one class, whose journal
header carries a result cache's schema or a checkpoint's sweep);
``SizeModel.draw`` writes the one size draw, and the workload generator
draws only through the public ``random`` API; ``repro._lazy`` resolves
every package's exports, so no package ``__init__`` imports its own
submodules (``repro.obs`` keeps the four its ``Obs`` composes), and a
component handed no ``Obs`` builds its own through ``Obs.private()``.  A new
server, client, export, benchmark runner, flag, fleet, dashboard or
replay loop that grows its own fails here instead of drifting apart
from the shared one (as the router's deadline-less head reader once
did).
"""

import ast
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
# does not do: it connects through ``connect`` but reads on its own.
CLIENT_SIDE = ["httpnet/client.py", "proxy/loadgen.py"]


def test_one_upstream_client():
    assert files_containing("create_connection(") == ["httpnet/client.py"]


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
    """Only ``CompiledTrace`` tests day boundaries (once a trace, into
    the day slices), only ``replay`` walks those slices, and no module
    replays through the allocating ``SimCache.access``."""
    assert files_containing("day_end") == ["trace/compiled.py"]
    assert files_containing(".day_slices") == [
        "core/simulator.py", "trace/compiled.py",
    ]
    assert files_containing(".access(request") == []
    assert files_containing("AccessResult(") == ["core/cache.py"]


def _functions_using(tree, names):
    """``(function, name)`` for each read of one of ``names``, by the
    innermost function around it (``None`` at module level)."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Name) and node.id in names
            and isinstance(node.ctx, ast.Load)
        ):
            found.add((function, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _parse(relative):
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def test_the_section_1_1_rules_are_written_once():
    """``SimCache.access_run`` is the one access path: the only code that
    yields a modified or too-large miss code; ``access_code`` is a
    one-row run and ``access`` wraps it; and no simulator or analysis
    module calls ``access_code`` a request at a time in a loop."""
    rules = {"MISS_MODIFIED", "MISS_TOO_LARGE"}
    producers = {
        (str(path.relative_to(SRC)), function)
        for path in SRC.rglob("*.py")
        for function, _ in _functions_using(
            ast.parse(path.read_text(encoding="utf-8")), rules,
        )
    }
    assert producers == {("core/cache.py", "access_run")}

    methods = {
        node.name: node for node in ast.walk(_parse("core/cache.py"))
        if isinstance(node, ast.FunctionDef)
    }

    def calls(method):
        return {
            node.func.attr for node in ast.walk(methods[method])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }

    assert "access_run" in calls("access_code")
    assert "access_code" in calls("access")

    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp,
             ast.DictComp)
    per_request = [
        str(path.relative_to(SRC))
        for package in ("core", "analysis")
        for path in sorted((SRC / package).rglob("*.py"))
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "access_code"
    ]
    assert per_request == []


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


def test_one_sweep_store():
    """A sweep's finished jobs are one journal: ``core/sweep.py`` has one
    persistence class (the result cache, which a checkpoint is with the
    sweep's identity in its header), and it writes through
    ``rewrite_journal`` and ``Journal.append`` alone — no per-file
    envelope, no quarantine directory, no directory scan."""
    import inspect

    from repro.core import sweep

    tree = ast.parse(inspect.getsource(sweep))
    disk = {"read_journal", "rewrite_journal", "Journal", "glob", "rglob"}

    def names(node):
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                yield inner.id
            elif isinstance(inner, ast.Attribute):
                yield inner.attr

    classes = [
        node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    assert [
        node.name for node in classes
        if any(name in disk or name.startswith("atomic_write")
               for name in names(node))
    ] == ["ResultCache"]
    called = [
        call.func for call in ast.walk(tree) if isinstance(call, ast.Call)
    ]
    attributes = {f.attr for f in called if isinstance(f, ast.Attribute)}
    functions = {f.id for f in called if isinstance(f, ast.Name)}
    assert not {name for name in attributes | functions
                if name.startswith("atomic_write")}
    assert "open" not in functions
    assert not attributes & {
        "glob", "rglob", "iterdir", "write_text", "write_bytes", "write",
        "replace", "rename", "unlink", "read_text", "read_bytes",
    }
    assert "rewrite_journal" in functions and "append" in attributes
    assert "quarantine" not in inspect.getsource(sweep.ResultCache)


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


def test_one_lazy_export_helper():
    """A package ``__init__`` loads nothing: its exports are one table
    read by ``repro._lazy.lazy_exports``, and only ``repro.obs``
    imports the submodules its ``Obs`` class composes."""
    composed = {"events", "metrics", "profile", "tracing"}
    lazy = []
    for init in sorted(SRC.rglob("__init__.py")):
        package = ".".join(("repro",) + init.parent.relative_to(SRC).parts)
        tree = ast.parse(init.read_text(encoding="utf-8"))
        own = {
            node.module[len(package) + 1:].split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith(package + ".")
        }
        assert own == (composed if package == "repro.obs" else set()), package
        if "lazy_exports(__name__" in init.read_text(encoding="utf-8"):
            lazy.append(package)
    assert lazy == [
        f"repro.{name}" for name in (
            "analysis", "core", "des", "httpnet", "proxy", "trace",
            "workloads",
        )
    ]
    assert files_containing("def __getattr__(") == ["_lazy.py"]


def test_a_private_obs_is_built_one_way():
    """A component handed no ``Obs`` builds ``Obs.private()`` (metrics
    and events, no spans), and no module calls ``Obs(...)`` directly: the
    sweep engine builds its run and worker contexts with ``Obs.create``,
    recording spans only for a caller that records them."""
    direct, defaults = [], set()
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Obs"):
                direct.append(relative)
            if isinstance(node, ast.IfExp) and "Obs" in ast.unparse(node.orelse):
                defaults.add((relative, ast.unparse(node.orelse)))
    assert direct == []
    assert {call for _, call in defaults} == {"Obs.private()"}
    assert sorted({path for path, _ in defaults}) == [
        "obs/telemetry.py", "proxy/chaos.py", "proxy/fleet.py",
        "proxy/origin.py", "proxy/router.py", "proxy/server.py",
    ]
