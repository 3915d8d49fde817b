"""The load generator: one thread, closed loop, keep-alive connections.

Callers of this system are batch clients that wait for a reply, so
each connection sends its next request only after the previous reply
arrived in full.  One ``selectors`` loop drives every connection from
the runner's own thread; requests were encoded before the timed
window and replies are kept as raw bytes and checked after it, so
the generator's share of a round trip stays small (it is measured:
``client_cpu_share``).
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import time
from dataclasses import dataclass

import numpy as np

from inputs import Request

_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:\s*(\d+)", re.IGNORECASE)
#: No reply for this long ends the pass; the unanswered requests fail.
IDLE_LIMIT_S = 60.0


@dataclass
class Reply:
    request: Request
    latency_s: float
    status: int          # 0 = transport failure (no complete reply)
    body: bytes


@dataclass
class PassResult:
    wall_s: float
    client_cpu_s: float
    replies: list[Reply]     # every request of the pass, answered or not


class _Connection:
    def __init__(self, host: str, port: int, stream: list[Request]):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = stream
        self.next = 0
        self.sent_at = 0.0
        self.buffer = bytearray()
        self.expected: int | None = None  # reply length, once its head is in
        self.body_start = 0

    def send_next(self) -> bool:
        if self.next >= len(self.stream):
            return False
        self.buffer.clear()
        self.expected = None
        self.sent_at = time.perf_counter()
        self.sock.sendall(self.stream[self.next].wire)
        return True

    def feed(self) -> Reply | None:
        """Consume readable bytes; a :class:`Reply` once one is whole."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        if self.expected is None:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return None
            length = _CONTENT_LENGTH.search(self.buffer, 0, head_end + 2)
            self.body_start = head_end + 4
            self.expected = self.body_start + (int(length.group(1)) if length else 0)
        if len(self.buffer) < self.expected:
            return None
        latency = time.perf_counter() - self.sent_at
        status = int(self.buffer[9:12])
        reply = Reply(self.stream[self.next], latency, status,
                      bytes(self.buffer[self.body_start : self.expected]))
        self.next += 1
        return reply

    def abandon(self) -> list[Reply]:
        """Everything not answered counts as failed, not as skipped."""
        rest = [Reply(r, 0.0, 0, b"") for r in self.stream[self.next :]]
        self.next = len(self.stream)
        return rest


def drive(host: str, port: int, streams: list[list[Request]]) -> PassResult:
    """Run every stream to its end, one connection each."""
    selector = selectors.DefaultSelector()
    conns = [_Connection(host, port, stream) for stream in streams]
    replies: list[Reply] = []
    cpu_start = time.process_time()
    started = time.perf_counter()
    try:
        for conn in conns:
            if conn.send_next():
                selector.register(conn.sock, selectors.EVENT_READ, conn)
        while selector.get_map():
            events = selector.select(IDLE_LIMIT_S)
            if not events:
                break
            for key, _ in events:
                conn = key.data
                try:
                    reply = conn.feed()
                    if reply is None:
                        continue
                    replies.append(reply)
                    if not conn.send_next():
                        selector.unregister(conn.sock)
                except OSError:
                    selector.unregister(conn.sock)
                    replies.extend(conn.abandon())
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_start
    finally:
        selector.close()
        for conn in conns:
            replies.extend(conn.abandon())
            conn.sock.close()
    return PassResult(wall, cpu, replies)


def reply_is_correct(reply: Reply) -> bool:
    """200, and for a lookup ``found``/``values`` equal to the oracle —
    so a virtual point reported as found is a failure."""
    if reply.status != 200:
        return False
    try:
        answer = json.loads(reply.body)
    except ValueError:
        return False
    request = reply.request
    if request.kind == "insert":
        return answer.get("accepted") == request.keys.size
    expect = request.expect
    if answer.get("found") != [v is not None for v in expect]:
        return False
    values = answer.get("values")
    return isinstance(values, list) and len(values) == len(expect) and all(
        v is None or got == v for v, got in zip(expect, values)
    )


def latencies_ms(replies: list[Reply], kind: str) -> np.ndarray:
    return np.asarray(
        [r.latency_s * 1e3 for r in replies if r.request.kind == kind and r.status],
        dtype=np.float64,
    )
