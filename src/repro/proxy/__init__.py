"""Operational proxy substrate: a runnable HTTP/1.0 caching proxy.

Where :mod:`repro.core` *simulates* caches over traces, this subpackage
implements the object the paper models: a proxy server that stores document
bodies, estimates copy consistency (Section 1's cases (1)-(3)), and evicts
with the same pluggable removal policies — demonstrating the paper's
Section 1.3 argument that a maintained sorted list makes on-demand removal
cheap in a live server.

* :mod:`repro.proxy.consistency` -- freshness estimation and conditional
  GET decisions.
* :mod:`repro.proxy.store` -- a thread-safe document store driven by any
  :mod:`repro.core` removal policy.
* :mod:`repro.proxy.origin` -- a toy origin server for demos and tests.
* :mod:`repro.proxy.server` -- the caching proxy itself (retries, per-origin
  circuit breakers, stale-if-error serving; see :mod:`repro.retry`).
* :mod:`repro.proxy.chaos` -- fault-injected trace replay and degradation
  reports (see :mod:`repro.faults`).
* :mod:`repro.proxy.overload` -- bounded admission and the saturation
  ladder (full -> hit-only -> shed) both fleet tiers share.
* :mod:`repro.proxy.router` -- the rendezvous-hashing front tier with
  automatic failover.
* :mod:`repro.proxy.fleet` -- the shard supervisor (process lifecycle,
  crash-loop detection, warm restarts) and the seeded fleet chaos
  harness.
* :mod:`repro.proxy.loadgen` -- a seeded open-loop load generator
  driving calibrated workloads through real sockets.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "consistency": "ConsistencyEstimator Freshness",
    "store": "CachedDocument ProxyStore StoreStats",
    "origin": "OriginServer SyntheticSite",
    "overload": "AdmissionController OverloadPolicy",
    "server": "CachingProxy OriginError ProxyStats",
})
