"""Discrete-event simulation engine and the proxy latency model.

The paper's simulator was "a discrete event world view simulation model"
(Appendix A); its traces lacked the timing data needed to study the third
benefit of caching — end-user latency — so the paper could only argue that
high HR/WHR implies lower latency when the proxy is not saturated.

This subpackage supplies the missing piece as an extension:
:class:`~repro.des.engine.EventLoop` is a small event-scheduling core, and
:mod:`repro.des.proxymodel` builds a queueing model of a proxy in front of
slow origins to estimate the latency reduction a removal policy delivers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": "Event EventLoop",
    "proxymodel": "LatencyParameters LatencyReport estimate_latency",
})
