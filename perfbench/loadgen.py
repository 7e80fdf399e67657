"""Closed-loop, event-driven load over one pipelined connection.

One load thread keeps a fixed number of ops in flight on a single
``PipelinedNetworkClient``; the client's reader thread resolves reply
futures, whose callbacks hand the replies back to the load thread through
one queue.  That is the whole load generator: two threads, one
connection.  The device's ``Rep``, keygen and signature run live on the
load thread, because challenges are fresh.

Every answer is checked and nothing is retried: a refused, expired,
timed-out or wrong op counts as failed, classified as

* ``wrong_answer`` -- the server's verdict is not the true one;
* ``wrong_helper`` -- the device could not reproduce a genuine user's
  key from the helper data the server sent;
* ``refusal`` -- a typed overload/expired/retry/closed error reply;
* ``internal`` -- any other error reply;
* ``timeout`` -- no reply, or the connection failed.

An op is *unsafe* when the server named the wrong identity (a stranger
identified, or a genuine user identified as someone else).
"""

from __future__ import annotations

import queue
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.exceptions import RecoveryError
from repro.protocols.messages import (
    EnrollmentAck,
    ErrorReply,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    RevokeAck,
    RevokeRequest,
    RotateAck,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
)

from workloads import Op

#: Error-reply codes that are the server refusing load, not failing.
REFUSAL_CODES = ("overload", "expired", "retry", "closed")
#: A leg with no reply for this long fails every op still in flight.
STALL_TIMEOUT_S = 30.0


@dataclass
class OpResult:
    """One finished op: its family, times (``time.monotonic``) and verdict."""

    family: str
    start: float
    end: float
    failure: str | None = None
    unsafe: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class LegResult:
    """Everything one closed-loop leg observed on the client side."""

    start: float = 0.0
    end: float = 0.0
    ops: list[OpResult] = field(default_factory=list)
    #: (message kind, send time, reply time) per round trip.
    rtts: list[tuple[str, float, float]] = field(default_factory=list)
    #: Seconds per live ``respond_*`` call (Rep, keygen, sign).
    respond_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    exhausted: bool = False

    def failures(self) -> Counter:
        return Counter(op.failure for op in self.ops if op.failure)


class _Flight:
    """An op in flight: what it waits for and what it has seen."""

    __slots__ = ("op", "start", "msg_kind", "sent", "declined")

    def __init__(self, op: Op, start: float) -> None:
        self.op = op
        self.start = start
        self.msg_kind = ""
        self.sent = 0.0
        self.declined = False


class ClosedLoop:
    """Drives ops through ``client`` with ``concurrency`` in flight.

    ``enrolled`` carries identities this launch has enrolled (acked)
    across legs, so revokes always target a live identity.
    """

    def __init__(self, client, device, concurrency: int) -> None:
        self.client = client
        self.device = device
        self.concurrency = concurrency
        self.enrolled: deque[str] = deque()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._deferred: deque[Op] = deque()
        self._live: set[_Flight] = set()

    def run(self, ops, seconds: float | None = None,
            count: int | None = None) -> LegResult:
        """Run ops from the iterator for ``seconds`` or ``count`` ops.

        A leg stops starting ops when either limit is reached, then
        waits for the ops in flight (which still count).
        """
        leg = LegResult()
        ops = iter(ops)
        bytes_before = self.client.total_bytes
        leg.start = time.monotonic()
        deadline = None if seconds is None else leg.start + seconds
        started = 0

        def start_next() -> bool:
            nonlocal started
            if count is not None and started >= count:
                return False
            if deadline is not None and time.monotonic() >= deadline:
                return False
            op = self._next(ops, leg)
            if op is None:
                return False
            self._start(op)
            started += 1
            return True

        while len(self._live) < self.concurrency and start_next():
            pass
        while self._live:
            try:
                flight, future, replied = self._done.get(
                    timeout=STALL_TIMEOUT_S)
            except queue.Empty:
                # The connection is wedged: fail what is in flight.
                self.client.close()
                now = time.monotonic()
                leg.ops.extend(OpResult(f.op.family, f.start, now, "timeout")
                               for f in self._live)
                self._live.clear()
                break
            result = self._advance(flight, future, replied, leg)
            if result is not None:
                leg.ops.append(result)
                self._live.discard(flight)
                start_next()
        leg.end = time.monotonic()
        leg.wire_bytes = self.client.total_bytes - bytes_before
        return leg

    # -- op plumbing ----------------------------------------------------------

    def _next(self, ops, leg: LegResult) -> Op | None:
        """The next op to start; a revoke waits until a target is acked."""
        if self._deferred and self.enrolled:
            return self._deferred.popleft()
        for op in ops:
            if op.kind == "revoke" and not self.enrolled:
                self._deferred.append(op)
                continue
            return op
        leg.exhausted = True
        return None

    def _start(self, op: Op) -> None:
        flight = _Flight(op, time.monotonic())
        self._live.add(flight)
        if op.kind == "verify":
            message = VerificationRequest(user_id=op.user_id)
        elif op.kind == "revoke":
            message = RevokeRequest.make(self.enrolled.popleft())
        else:
            message = op.message
        self._send(flight, message, _FIRST_LEG[op.kind])

    def _send(self, flight: _Flight, message, msg_kind: str) -> None:
        flight.msg_kind = msg_kind
        flight.sent = time.monotonic()
        done = self._done
        try:
            future = self.client.submit(message)
        except Exception as exc:  # noqa: BLE001 -- a dead connection
            done.put((flight, exc, flight.sent))
            return
        future.add_done_callback(
            lambda f: done.put((flight, f, time.monotonic())))

    def _advance(self, flight: _Flight, future, replied: float,
                 leg: LegResult) -> OpResult | None:
        """Feed one reply to its op; return the result once it is done."""
        op = flight.op

        def finish(failure: str | None = None,
                   unsafe: bool = False) -> OpResult:
            return OpResult(op.family, flight.start, time.monotonic(),
                            failure, unsafe)

        if isinstance(future, Exception) or future.exception() is not None:
            return finish("timeout")
        leg.rtts.append((flight.msg_kind, flight.sent, replied))
        reply = future.result()
        if isinstance(reply, ErrorReply):
            return finish("refusal" if reply.code in REFUSAL_CODES
                          else "internal")
        if op.kind == "identify":
            return self._identify(flight, reply, leg, finish)
        if op.kind == "verify":
            return self._verify(flight, reply, leg, finish)
        return self._write(op, reply, finish)

    def _identify(self, flight: _Flight, reply, leg: LegResult, finish):
        op = flight.op
        if isinstance(reply, IdentificationChallenge):
            start = time.monotonic()
            try:
                response = self.device.respond_identification(
                    op.reading, reply.helper_data, reply.challenge,
                    reply.session_id)
            except RecoveryError:
                # Not this reading's record: let the server try its next
                # candidate, exactly as the protocol runner does.
                flight.declined = True
                self._send(flight, IdentificationDecline(
                    session_id=reply.session_id), "respond")
                return None
            leg.respond_s.append(time.monotonic() - start)
            self._send(flight, response, "respond")
            return None
        if not isinstance(reply, IdentificationOutcome):
            return finish("wrong_answer")
        named = reply.user_id if reply.identified else None
        if named == op.user_id:
            return finish()
        if named is not None:
            return finish("wrong_answer", unsafe=True)
        return finish("wrong_helper" if flight.declined else "wrong_answer")

    def _verify(self, flight: _Flight, reply, leg: LegResult, finish):
        op = flight.op
        if isinstance(reply, VerificationChallenge):
            start = time.monotonic()
            try:
                response = self.device.respond_verification(
                    op.reading, reply.helper_data, reply.challenge,
                    reply.session_id)
            except RecoveryError:
                return finish("wrong_helper")
            leg.respond_s.append(time.monotonic() - start)
            self._send(flight, response, "verify-resp")
            return None
        if not isinstance(reply, VerificationOutcome):
            return finish("wrong_answer")
        if reply.verified and reply.user_id == op.user_id:
            return finish()
        return finish("wrong_answer", unsafe=reply.verified)

    def _write(self, op: Op, reply, finish) -> OpResult:
        if op.kind == "enroll":
            ok = isinstance(reply, EnrollmentAck) and reply.accepted \
                and reply.user_id == op.user_id
            if ok:
                self.enrolled.append(op.user_id)
        elif op.kind == "rotate":
            ok = isinstance(reply, RotateAck) and reply.accepted
        else:
            ok = isinstance(reply, RevokeAck) and reply.revoked_count() == 1
        return finish(None if ok else "wrong_answer")


#: The message kind of each op's first round trip.
_FIRST_LEG = {"identify": "identify", "verify": "verify-req",
              "enroll": "write", "rotate": "write", "revoke": "write"}
