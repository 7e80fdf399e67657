"""Per-layer metrics from the traced server's spans and the client's leg.

Self time is computed per thread: a span's length minus the direct
child spans that cover it on the same thread.  A frontend span and the
server handler span that served it run on different threads; they are
linked through the request message they share (``keys``).

Stage medians reconcile with end-to-end latency per message kind::

    rtt = net.self + frontend.self + handler.self + handler.children

and per client op::

    op latency = rtt(first leg) [+ device.respond + rtt(second leg)]

``recon.residual_ms.*`` is what the medians leave unexplained.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Message kinds, in the order metrics are listed.
KINDS = ("identify", "respond", "verify-req", "verify-resp", "write")
#: The AuthenticationServer handlers the frontend can call.
HANDLERS = (
    "handle_identification_batch",
    "handle_identification_request",
    "handle_identification_response",
    "handle_identification_decline",
    "handle_verification_request",
    "handle_verification_response",
    "handle_verification_response_batch",
    "handle_enrollment",
    "handle_rotate",
    "handle_revoke",
)
#: Client op family -> the message kinds of its round trips.
OP_LEGS = {"identify": ("identify", "respond"),
           "verify": ("verify-req", "verify-resp"),
           "write": ("write",)}

NAME, START, END, THREAD, KIND, KEYS, ITEMS, OUT = range(8)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def nesting(spans: list) -> tuple[list[float], list[int | None]]:
    """(self seconds, parent index) of every span, per thread."""
    by_thread: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_thread[span[THREAD]].append(i)
    self_s = [span[END] - span[START] for span in spans]
    parent: list[int | None] = [None] * len(spans)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][START], -spans[i][END]))
        stack: list[int] = []
        for i in indices:
            while stack and spans[stack[-1]][END] <= spans[i][START]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                self_s[stack[-1]] -= spans[i][END] - spans[i][START]
            stack.append(i)
    return self_s, parent


def layer_metrics(spans: list, leg, probe_s: list[float],
                  untraced_ops_per_s: float,
                  traced_ops_per_s: float) -> dict[str, float]:
    """Every per-layer metric (0 where the workload has no such work)."""
    spans = [s for s in spans if leg.start <= s[START] <= leg.end]
    self_s, parent = nesting(spans)
    ops = max(len(leg.ops), 1)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def named(name: str, top: bool = False) -> list[int]:
        prefix = name.split(".")[0] + "."
        return [i for i, s in enumerate(spans) if s[NAME] == name and not (
            top and parent[i] is not None
            and spans[parent[i]][NAME].startswith(prefix))]

    m: dict[str, float] = {}
    # -- engine (+ core.index) ------------------------------------------------
    scans = named("engine.scan")
    probes = sum(spans[i][ITEMS] for i in scans)
    m["engine.scan_ms"] = median(dur(i) for i in scans) * 1e3
    m["engine.scan_us_per_probe"] = \
        sum(dur(i) for i in scans) / probes * 1e6 if probes else 0.0
    m["engine.candidates_per_probe"] = \
        sum(spans[i][OUT] for i in scans) / probes if probes else 0.0
    m["engine.get_ms"] = median(
        dur(i) for i in named("engine.get", True)) * 1e3
    m["engine.write_ms"] = median(
        dur(i) for i in named("engine.write", True)) * 1e3
    # -- engine.journal -------------------------------------------------------
    appends = named("journal.append")
    writes = [i for i, s in enumerate(spans)
              if s[NAME].startswith("server.") and s[KIND] == "write"]
    m["journal.append_ms"] = median(dur(i) for i in appends) * 1e3
    m["journal.appends_per_write"] = \
        len(appends) / len(writes) if writes else 0.0
    # -- crypto ---------------------------------------------------------------
    per_signature: list[float] = []
    for i in named("crypto.verify", True):
        per_signature.append(dur(i))
    for i in named("crypto.verify_batch", True):
        if spans[i][ITEMS]:
            per_signature += [dur(i) / spans[i][ITEMS]] * spans[i][ITEMS]
    m["crypto.verify_ms"] = median(per_signature) * 1e3
    m["crypto.verify_calls_per_op"] = len(per_signature) / ops
    # -- protocols: server handlers (self) and the device ---------------------
    for handler in HANDLERS:
        m[f"server.self_ms.{handler}"] = median(
            self_s[i] for i in named(f"server.{handler}")) * 1e3
    m["device.probe_ms"] = median(probe_s) * 1e3
    m["device.respond_ms"] = median(leg.respond_s) * 1e3
    # -- service: frontend spans, linked to the handler span that served them
    served: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[NAME].startswith("server."):
            for key in span[KEYS]:
                served[key].append(i)
    front: dict[str, list[float]] = defaultdict(list)
    wait: dict[str, list[float]] = defaultdict(list)
    h_self: dict[str, list[float]] = defaultdict(list)
    h_child: dict[str, list[float]] = defaultdict(list)
    for i, span in enumerate(spans):
        if not span[NAME].startswith("frontend."):
            continue
        kind = span[KIND]
        front[kind].append(dur(i))
        handler = next((h for h in served.get(span[KEYS][0], ())
                        if span[START] <= spans[h][START]
                        and spans[h][END] <= span[END]), None)
        if handler is None:
            wait[kind].append(dur(i))
            continue
        wait[kind].append(dur(i) - dur(handler))
        h_self[kind].append(self_s[handler])
        h_child[kind].append(dur(handler) - self_s[handler])
    rtt: dict[str, list[float]] = defaultdict(list)
    for kind, sent, replied in leg.rtts:
        rtt[kind].append(replied - sent)
    for kind in KINDS:
        m[f"frontend.ms.{kind}"] = median(front[kind]) * 1e3
        m[f"frontend.self_ms.{kind}"] = median(wait[kind]) * 1e3
    batch_sizes = {h: [len(spans[i][KEYS]) for i in named(f"server.{h}")]
                   for h in ("handle_identification_batch",
                             "handle_verification_response_batch")}
    m["frontend.identify_batch"] = median(
        batch_sizes["handle_identification_batch"])
    m["frontend.verify_batch"] = median(
        batch_sizes["handle_verification_response_batch"])
    m["frontend.refusals"] = float(leg.failures().get("refusal", 0))
    # -- net ------------------------------------------------------------------
    for kind in KINDS:
        m[f"net.rtt_ms.{kind}"] = median(rtt[kind]) * 1e3
        m[f"net.self_ms.{kind}"] = \
            m[f"net.rtt_ms.{kind}"] - m[f"frontend.ms.{kind}"] \
            if rtt[kind] else 0.0
    m["net.bytes_per_op"] = leg.wire_bytes / ops
    # -- stage sums -----------------------------------------------------------
    for kind in KINDS:
        stages = (m[f"net.self_ms.{kind}"] + m[f"frontend.self_ms.{kind}"]
                  + (median(h_self[kind]) + median(h_child[kind])) * 1e3)
        m[f"recon.residual_ms.{kind}"] = \
            m[f"net.rtt_ms.{kind}"] - stages if rtt[kind] else 0.0
    for family, kinds in OP_LEGS.items():
        latencies = [op.latency_ms for op in leg.ops
                     if op.ok and op.family == family]
        stages = sum(m[f"net.rtt_ms.{kind}"] for kind in kinds)
        if len(kinds) > 1:
            stages += m["device.respond_ms"]
        m[f"recon.residual_ms.{family}-op"] = \
            median(latencies) - stages if latencies else 0.0
    m["trace.overhead_pct"] = \
        (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100 \
        if untraced_ops_per_s else 0.0
    return m
