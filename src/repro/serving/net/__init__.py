"""The network serving edge: TCP front-end, wire protocol, clients.

`repro.serving` turns one trained system into an in-process service;
this package turns that service into a *network* service:

* :mod:`~repro.serving.net.protocol` — the versioned, length-prefixed,
  CRC32-checked binary wire format (``docs/protocol.md`` is the spec),
* :class:`~repro.serving.net.server.NetServer` — an asyncio TCP
  front-end that decodes request frames straight into the existing
  :class:`~repro.serving.server.RumbaServer` admission queue, so
  batching, backpressure, degradation, retries, and chaos apply
  unchanged to remote traffic,
* :class:`~repro.serving.net.client.RumbaClient` — the blocking client,
  with connection reuse and request-id multiplexing (many in-flight
  requests per socket).

Most callers should go through the facade instead of this package::

    from repro import serving
    net = serving.serve("fft", listen="127.0.0.1:0")
    with serving.connect(net.address) as client:
        result = client.submit_wait(inputs, deadline_s=5.0)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "NetHandle": "client", "NetResult": "client", "RumbaClient": "client",
    "NetServer": "server",
    "PROTOCOL_VERSION": "protocol", "ProtocolError": "protocol",
    "parse_address": "protocol",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
