"""Public-channel transports: in-memory loopback and TCP stream sockets.

Both transports move the exact frames produced by ``messages.encode``, so
a session transcript is byte-identical whichever carrier it ran over.
Endpoints enforce strictly increasing sequence numbers per sender and
surface peer aborts as exceptions.  Every frame they send carries session
id 0, and the ``sid`` of a received frame is not checked: the ``Hello``
exchange alone fixes which session a connection runs.  Each receive waits
at most the endpoint's ``timeout_s``.  An endpoint keeps its frames and
counts the bits they disclose as each passes, never a decoded message.
"""

from __future__ import annotations

import queue
import socket as socketlib
from typing import NoReturn

from .messages import (
    MAX_BODY_BYTES,
    Abort,
    Kind,
    Message,
    MessageFormatError,
    decode,
    encode,
    leak_meter,
    message_for,
)


class ChannelTimeout(TimeoutError):
    """No message arrived within the receive timeout."""


class ProtocolError(RuntimeError):
    """The peer violated the wire protocol (sequence, kind, format)."""


class SessionAborted(RuntimeError):
    def __init__(self, reason: str, local: bool):
        super().__init__(reason or "session aborted")
        self.reason = reason
        self.local = local


class TransportClosed(RuntimeError):
    pass


DEFAULT_TIMEOUT_S = 30.0


class Endpoint:
    """One side of a two-party channel.

    Subclasses implement ``_send_frame``/``_recv_frame``.  The endpoint
    assigns outbound sequence numbers, checks inbound ones, and keeps the
    transcript, ``frames`` (sent or accepted, in local order), and its
    ``leak_meter`` count ``disclosed_bits``, taken as each frame passes.
    """

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.timeout_s = timeout_s
        self._next_seq = 0
        self._last_peer_seq = -1
        self.frames: list[bytes] = []
        self.disclosed_bits = 0

    def _send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def _recv_frame(self, timeout_s: float) -> bytes:
        raise NotImplementedError

    def send(self, payload) -> Message:
        message = message_for(0, self._next_seq, payload)
        self._next_seq += 1
        frame = encode(message)
        self.frames.append(frame)
        self.disclosed_bits += leak_meter((message,))
        self._send_frame(frame)
        return message

    def recv(self) -> Message:
        try:
            frame = self._recv_frame(self.timeout_s)
            message = decode(frame)
        except ValueError as exc:
            # MessageFormatError: any malformed frame, an oversized length
            # prefix included
            reason = f"malformed frame: {exc}"
            self.abort(reason)
            raise ProtocolError(reason) from exc
        if message.seq <= self._last_peer_seq:
            reason = f"sequence regression: {message.seq} after {self._last_peer_seq}"
            self.abort(reason)
            raise ProtocolError(reason)
        self._last_peer_seq = message.seq
        self.frames.append(frame)
        self.disclosed_bits += leak_meter((message,))
        return message

    def expect(self, *kinds: Kind) -> Message:
        """Receive one message of the given kind(s); abort handling built in."""
        message = self.recv()
        if message.kind is Kind.ABORT:
            raise SessionAborted(message.payload.reason, local=False)
        if kinds and message.kind not in kinds:
            wanted = ",".join(k.value for k in kinds)
            reason = f"expected {wanted}, got {message.kind.value}"
            self.abort(reason)
            raise ProtocolError(reason)
        return message

    def abort(self, reason: str) -> None:
        try:
            self.send(Abort(reason=reason))
        except Exception:
            pass

    def fail(self, reason: str) -> NoReturn:
        """Tell the peer why the exchange ends here, then end it."""
        self.abort(reason)
        raise SessionAborted(reason, local=True)

    def close(self) -> None:
        pass


class LoopbackEndpoint(Endpoint):
    def __init__(self, outbox: queue.SimpleQueue, inbox: queue.SimpleQueue,
                 timeout_s: float = DEFAULT_TIMEOUT_S):
        super().__init__(timeout_s)
        self._outbox = outbox
        self._inbox = inbox

    def _send_frame(self, frame: bytes) -> None:
        self._outbox.put(frame)

    def _recv_frame(self, timeout_s: float) -> bytes:
        try:
            return self._inbox.get(timeout=timeout_s)
        except queue.Empty:
            raise ChannelTimeout(f"no message within {timeout_s} s") from None


def loopback_pair(timeout_s: float = DEFAULT_TIMEOUT_S) -> tuple[Endpoint, Endpoint]:
    """Two connected in-memory endpoints: FIFO, lossless, ordered."""
    # SimpleQueue is implemented in C: a hand-off between the two parties'
    # threads takes no Python-level lock or condition variable
    ab: queue.SimpleQueue = queue.SimpleQueue()
    ba: queue.SimpleQueue = queue.SimpleQueue()
    a = LoopbackEndpoint(outbox=ab, inbox=ba, timeout_s=timeout_s)
    b = LoopbackEndpoint(outbox=ba, inbox=ab, timeout_s=timeout_s)
    return a, b


class SocketEndpoint(Endpoint):
    def __init__(self, sock: socketlib.socket, timeout_s: float = DEFAULT_TIMEOUT_S):
        super().__init__(timeout_s)
        self._sock = sock

    def _send_frame(self, frame: bytes) -> None:
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc

    def _recv_exact(self, n: int, timeout_s: float) -> bytes:
        self._sock.settimeout(timeout_s)
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(n - got)
            except socketlib.timeout:
                raise ChannelTimeout(f"no data within {timeout_s} s") from None
            except OSError as exc:
                raise TransportClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _recv_frame(self, timeout_s: float) -> bytes:
        header = self._recv_exact(4, timeout_s)
        body_len = int.from_bytes(header, "big")
        # reject before reading: recv would allocate the untrusted length
        if body_len > MAX_BODY_BYTES:
            raise MessageFormatError(f"frame body of {body_len} bytes exceeds {MAX_BODY_BYTES}")
        body = self._recv_exact(body_len, timeout_s) if body_len else b""
        return header + body

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect(addr: tuple[str, int], timeout_s: float = DEFAULT_TIMEOUT_S) -> SocketEndpoint:
    sock = socketlib.create_connection(addr, timeout=timeout_s)
    sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
    return SocketEndpoint(sock, timeout_s)


def serve_one(addr: tuple[str, int], timeout_s: float = DEFAULT_TIMEOUT_S,
              ready_callback=None) -> SocketEndpoint:
    """Listen on ``addr``, accept exactly one peer, return its endpoint."""
    listener = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
    listener.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
    try:
        listener.bind(addr)
        listener.listen(1)
        if ready_callback is not None:
            ready_callback(listener.getsockname())
        listener.settimeout(timeout_s)
        try:
            sock, _peer = listener.accept()
        except socketlib.timeout:
            raise ChannelTimeout(f"no connection within {timeout_s} s") from None
        sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
        return SocketEndpoint(sock, timeout_s)
    finally:
        listener.close()
