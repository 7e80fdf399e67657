"""Run the shipped ``repro serve`` with spans around its layer boundaries.

Usage::

    python traced_serve.py SPANS.json serve --store DIR [serve options]

Before calling the CLI entry point this wraps, at class level, the
public methods where one layer calls the next:

* ``ServiceFrontend.handle_*`` (service) and
  ``AuthenticationServer.handle_*`` (protocols);
* ``IdentificationEngine.find_by_sketch_batch``, ``get``,
  ``get_version``, ``add``, ``rotate`` and ``revoke`` (engine, with the
  ``core.index`` scan underneath ``find_by_sketch_batch``);
* ``EnrollmentJournal.append_entry`` (engine.journal);
* ``VerifyTableCache.verify`` and ``verify_batch`` (crypto).

The stack that serves is therefore the shipped one, unchanged.  Spans
stay in memory and are written to ``SPANS.json`` when the server exits
(on SIGINT).  Each span is ``[name, start, end, thread, kind, keys,
items, out]``: times from ``time.monotonic`` (one clock for every
process on the host), the op kind of the request being served, the
``id`` of each request message the span handles (linking a frontend
span to the server handler span that served it), and per-call counts
(probes and candidates of a scan, signatures of a batch verify).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Handler name -> the op kind a request of that handler belongs to.
HANDLER_KINDS = {
    "handle_identification_request": "identify",
    "handle_identification_batch": "identify",
    "handle_identification_response": "respond",
    "handle_identification_decline": "respond",
    "handle_verification_request": "verify-req",
    "handle_verification_response": "verify-resp",
    "handle_verification_response_batch": "verify-resp",
    "handle_enrollment": "write",
    "handle_rotate": "write",
    "handle_revoke": "write",
}

_local = threading.local()


def _keys(payload) -> list[int]:
    if isinstance(payload, (list, tuple)):
        return [id(item) for item in payload]
    return [id(payload)]


def _wrap(cls, method: str, name: str, spans: list, handler: bool = False,
          count=None) -> None:
    """Replace ``cls.method`` with a span-recording wrapper.

    ``handler`` spans set the op kind their thread is serving (from the
    method name) and key the span by its request message(s); ``count``
    maps ``(args, result)`` to the span's ``(items, out)`` counts.
    """
    original = getattr(cls, method)
    kind = HANDLER_KINDS.get(method, method)

    @functools.wraps(original)
    def traced(self, *args, **kwargs):
        outer = getattr(_local, "kind", "")
        if handler:
            _local.kind = kind
        start = time.monotonic()
        result = None
        try:
            result = original(self, *args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            if handler:
                _local.kind = outer
            items, out = count(args, result) if count and result is not None \
                else (0, 0)
            spans.append((name, start, end, threading.get_ident(),
                          kind if handler else outer,
                          _keys(args[0]) if handler and args else [],
                          items, out))

    setattr(cls, method, traced)


def install(spans: list) -> None:
    """Wrap every traced method; spans are appended to ``spans``."""
    from repro.crypto.signatures import VerifyTableCache
    from repro.engine.engine import IdentificationEngine
    from repro.engine.journal import EnrollmentJournal
    from repro.protocols.server import AuthenticationServer
    from repro.service.frontend import ServiceFrontend

    for cls, layer in ((ServiceFrontend, "frontend"),
                       (AuthenticationServer, "server")):
        for method in HANDLER_KINDS:
            if hasattr(cls, method):
                _wrap(cls, method, f"{layer}.{method}", spans, handler=True)
    _wrap(IdentificationEngine, "find_by_sketch_batch", "engine.scan", spans,
          count=lambda args, result: (len(result),
                                      sum(len(m) for m in result)))
    for method in ("get", "get_version"):
        _wrap(IdentificationEngine, method, "engine.get", spans)
    for method in ("add", "rotate", "revoke"):
        _wrap(IdentificationEngine, method, "engine.write", spans)
    _wrap(EnrollmentJournal, "append_entry", "journal.append", spans)
    _wrap(VerifyTableCache, "verify", "crypto.verify", spans,
          count=lambda args, result: (1, 0))
    _wrap(VerifyTableCache, "verify_batch", "crypto.verify_batch", spans,
          count=lambda args, result: (len(args[1]), 0))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    spans: list = []
    install(spans)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(spans, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
