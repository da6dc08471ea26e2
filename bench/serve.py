#!/usr/bin/env python3
"""The benchmark's server child: an origin plus one proxy shard, or an
origin plus N shards behind the rendezvous router.

    python3 bench/serve.py <config.json>

The config (written by ``wl_live.py``) holds the generated inputs —
every URL with the one size it is served at, the capacity per shard —
and nothing about the seed that made them.  Protocol, one JSON object
per line:

* stdout, once listening: ``{"ready": true, "target": [host, port],
  "shards": [[host, port], ...]}`` — ``target`` is the router when there
  is one, else the shard;
* stdin ``stop`` (or EOF): one line of final counters is written (store
  and origin counts, ``ru_maxrss``), exit 0.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import harness


def main(argv) -> int:
    harness.bootstrap()
    from repro.core import size_policy
    from repro.proxy import CachingProxy, ProxyStore
    from repro.proxy.origin import OriginServer
    from repro.proxy.replay import TraceOriginSite
    from repro.proxy.router import FleetRouter, StaticDirectory

    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    site = TraceOriginSite()
    for url, size in config["documents"].items():
        site.register(url, size)
    origin = OriginServer(site=site).start()

    proxies = []
    for shard in range(config["shards"]):
        state_dir = None
        if config["journaled"]:
            state_dir = Path(config["state_dir"]) / f"shard-{shard}"
        store = ProxyStore(
            capacity=config["capacity"], policy=size_policy(),
            seed=config["tie_break_seed"], state_dir=state_dir,
            fsync=config["fsync"],
        )
        proxies.append(CachingProxy(
            store, resolver=lambda host: origin.address,
        ).start())

    router = None
    if config["routed"]:
        router = FleetRouter(StaticDirectory({
            shard: proxy.address for shard, proxy in enumerate(proxies)
        })).start()
    target = router.address if router is not None else proxies[0].address
    print(json.dumps({
        "ready": True, "target": list(target),
        "shards": [list(proxy.address) for proxy in proxies],
    }), flush=True)

    for line in sys.stdin:
        if line.strip() == "stop":
            break

    # The client is closed-loop and has finished, so nothing is in
    # flight: read the counters and exit.  (The servers' own stop() waits
    # two seconds per acceptor thread; their threads are daemons.)
    shards = []
    for proxy in proxies:
        store = proxy.store
        shards.append({
            "hits": store.stats.hits,
            "misses": store.stats.misses,
            "insertions": store.stats.insertions,
            "evictions": store.stats.evictions,
            "journal_appends": store.stats.journal_appends,
            "journal_errors": store.stats.journal_errors,
            "journal_bytes": (
                store.journal_path.stat().st_size
                if store.state_dir is not None else 0
            ),
            "used_bytes": store.used_bytes,
            "max_used_bytes": store.max_used_bytes,
            "capacity": store.capacity,
            "proxy_errors": proxy.stats.errors,
        })
    print(json.dumps({
        "shards": shards,
        "origin_requests": origin.request_count,
        "failovers": int(router.m.failover.value) if router is not None else 0,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
