"""Network serving — the quality-managed service behind a TCP socket.

Stands up a Rumba server on an ephemeral localhost port via the
``serving.serve`` facade, then drives it the ways a real deployment
would: a blocking client with many multiplexed in-flight requests and a
typed-error round trip (a bad deadline comes back as the same
``ConfigurationError`` an in-process caller sees).  Everything the serving stack does in process — batching,
backpressure, degradation, retries — applies unchanged to this traffic;
the wire format is specified in ``docs/protocol.md``.

Run:  PYTHONPATH=src python examples/network_serving.py
"""

import numpy as np

from repro import serving
from repro.errors import ConfigurationError
from repro.serving import BatchingConfig, ServerConfig


def main() -> None:
    print("Starting an fft server on an ephemeral TCP port...")
    net = serving.serve(
        "fft",
        config=ServerConfig(
            n_workers=2,
            batching=BatchingConfig(max_batch_requests=8,
                                    flush_interval_s=0.002),
        ),
        listen="127.0.0.1:0",
    )
    host, port = net.address
    print(f"  listening on {host}:{port}")

    try:
        with serving.connect(net.address) as client:
            print(f"  WELCOME: app={client.app} scheme={client.scheme} "
                  f"features={client.features} "
                  f"protocol=v{client.protocol_version}")

            rng = np.random.default_rng(7)
            block = rng.random((64, client.features))

            print("\nOne blocking request:")
            result = client.submit_wait(block, deadline_s=10.0)
            print(f"  {result.n_elements} elements via {result.worker} in "
                  f"{result.latency_s * 1e3:.2f} ms "
                  f"(fixed {result.fix_fraction * 100:.1f}%)")

            print("\n24 requests multiplexed on the one connection:")
            handles = [client.submit(rng.random((16, client.features)),
                                     deadline_s=10.0) for _ in range(24)]
            results = [h.result(30.0) for h in handles]
            print(f"  all {len(results)} completed; mean latency "
                  f"{np.mean([r.latency_s for r in results]) * 1e3:.2f} ms")

            print("\nTyped errors round-trip:")
            try:
                client.submit_wait(block, deadline_s=-1.0)
            except ConfigurationError as exc:
                print(f"  ConfigurationError over the wire: {exc}")

            stats = client.stats()
            print(f"\nRemote stats(): state={stats['state']} "
                  f"offered={stats['requests_offered']} "
                  f"shed={stats['requests_shed']}")
    finally:
        net.stop()
    print("\nServer stopped cleanly.")


if __name__ == "__main__":
    main()
