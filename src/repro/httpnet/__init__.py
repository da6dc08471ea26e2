"""HTTP/1.0 networking substrate.

The paper's backbone workloads (BR, BL) were collected by running tcpdump
on the department Ethernet, recording the data-field prefix of every packet
with TCP port 80 at either endpoint, then passing the capture through a
filter that "decodes the HTTP packet headers and generates a log file of
all non-aborted document requests in the common log format".

This subpackage rebuilds that pipeline:

* :mod:`repro.httpnet.message` -- byte-level HTTP/1.0 request/response
  parsing and serialisation (also used by the live proxy in
  :mod:`repro.proxy`).
* :mod:`repro.httpnet.server` -- the one threaded socket server (accept
  loop, bounded pool or thread-per-connection, deadline-bounded head
  reader) the live proxy, router and origin are built on.
* :mod:`repro.httpnet.client` -- the one-shot blocking client
  (``fetch`` / ``request``) and the pooled ``UpstreamClient`` the live
  tiers keep connections open with.
* :mod:`repro.httpnet.packets` -- a TCP segment/flow model and a
  packetiser that turns transactions into segment streams.
* :mod:`repro.httpnet.sniffer` -- flow reassembly of port-80 segments into
  HTTP transactions (the tcpdump side).
* :mod:`repro.httpnet.logfilter` -- transactions to common-log-format lines
  and :class:`~repro.trace.record.Request` records (the filter side).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "message": (
        "HttpMessageError HttpRequest HttpResponse format_http_date "
        "parse_http_date"
    ),
    "packets": "Flow TcpSegment FlowAssembler packetize",
    "sniffer": "Sniffer Transaction",
    "logfilter": "transaction_to_request transactions_to_clf",
    "client": "fetch request",
})
