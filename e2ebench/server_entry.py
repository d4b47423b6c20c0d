"""Traced server child: ``python -m repro.server`` with spans installed.

Builds the same app the real entry point builds (a ``ResultCache`` with
the given size and disk tier, ``create_app``) and serves it through
``repro.server.http.run``, after wrapping the layers in the benchmark's
spans.  Each HTTP request is one root span, identified by the client's
``x-bench-id`` header.  The spans are written to ``--trace-out`` when the
server stops (SIGINT).
"""

from __future__ import annotations

import argparse
import sys

from spans import Tracer, install_server, trace_executor


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    install_server(tracer)
    from repro.server.app import ReproApp, create_app
    from repro.server.cache import ResultCache
    from repro.server.http import run

    handle = ReproApp.__call__

    async def traced_call(self, scope, receive, send):
        rid = dict(scope.get("headers", ())).get(b"x-bench-id", b"")
        with tracer.span("app", request_id=rid.decode() or None):
            await handle(self, scope, receive, send)

    ReproApp.__call__ = traced_call
    app = create_app(cache=ResultCache(maxsize=args.cache_size,
                                       disk_dir=args.cache_dir))
    trace_executor(tracer, app.jobs.executor)
    try:
        run(app, host="127.0.0.1", port=0)
    finally:
        app.close()
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
