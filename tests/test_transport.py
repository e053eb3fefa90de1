import socket
import threading
import tracemalloc

import numpy as np
import pytest

from fsqkd.messages import (
    Abort,
    Done,
    Hello,
    Kind,
    SampleReveal,
    decode,
    encode,
    message_for,
)
from fsqkd.transport import (
    ChannelTimeout,
    ProtocolError,
    SessionAborted,
    connect,
    loopback_pair,
    serve_one,
)


class TestLoopback:
    def test_hello_crosses_intact(self):
        a, b = loopback_pair()
        payload = Hello(version=1, params_digest=bytes(range(16)), seed=42)
        a.send(payload)
        got = b.recv()
        assert got.kind is Kind.HELLO
        assert got.payload == payload

    def test_fifo_order(self):
        a, b = loopback_pair()
        a.send(Abort(reason="first"))
        a.send(Abort(reason="second"))
        assert b.recv().payload.reason == "first"
        assert b.recv().payload.reason == "second"

    def test_empty_receive_times_out(self):
        a, _b = loopback_pair(timeout_s=0.01)
        with pytest.raises(ChannelTimeout):
            a.recv()

    def test_sequence_regression_detected(self):
        a, b = loopback_pair()
        b._inbox.put(encode(message_for(5, Done())))
        b._inbox.put(encode(message_for(3, Done())))
        b.recv()
        with pytest.raises(ProtocolError):
            b.recv()

    def test_abort_surfaces_as_exception(self):
        a, b = loopback_pair()
        a.send(Abort(reason="bad hash"))
        with pytest.raises(SessionAborted, match="bad hash"):
            b.expect(Kind.DONE)

    @pytest.mark.parametrize("body", [
        b"not a protocol frame",
        # well-formed body whose SiftIndices payload declares 2**33 indices
        b"\x02\x00\x80\x80\x80\x80\x20",
    ], ids=["garbage", "index-count"])
    def test_malformed_frame_aborts(self, body):
        a, b = loopback_pair()
        b._inbox.put(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError):
            b.recv()
        assert a.recv().kind is Kind.ABORT

    def test_unexpected_kind_rejected(self):
        a, b = loopback_pair()
        a.send(Done())
        with pytest.raises(ProtocolError):
            b.expect(Kind.HELLO)


class TestSockets:
    def _pair(self):
        ready = threading.Event()
        box = {}

        def server():
            def on_ready(addr):
                box["addr"] = addr
                ready.set()
            box["server"] = serve_one(("127.0.0.1", 0), timeout_s=5.0,
                                      ready_callback=on_ready)

        thread = threading.Thread(target=server)
        thread.start()
        assert ready.wait(5.0)
        client = connect(box["addr"], timeout_s=5.0)
        thread.join(5.0)
        return box["server"], client

    def test_messages_cross_the_socket(self):
        server, client = self._pair()
        try:
            client.send(Hello(version=1, params_digest=bytes(16), seed=9))
            got = server.recv()
            assert got.kind is Kind.HELLO
            assert got.payload.seed == 9
            server.send(Done())
            assert client.recv().kind is Kind.DONE
        finally:
            server.close()
            client.close()

    def test_large_payload_integrity(self):
        server, client = self._pair()
        try:
            bits = np.random.default_rng(1).integers(0, 2, 300_000).astype(np.uint8)
            client.send(SampleReveal(bits=bits))
            got = server.recv()
            assert np.array_equal(got.payload.bits, bits)
        finally:
            server.close()
            client.close()

    def test_oversized_length_prefix_aborts(self):
        # a raw peer announces a 4 GiB body; the endpoint must refuse it
        # before reading, answer Abort and raise, without allocating it
        ready = threading.Event()
        box = {}

        def server():
            def on_ready(addr):
                box["addr"] = addr
                ready.set()
            endpoint = serve_one(("127.0.0.1", 0), timeout_s=5.0, ready_callback=on_ready)
            tracemalloc.start()
            try:
                endpoint.recv()
            except ProtocolError as exc:
                box["error"] = exc
            finally:
                box["peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                endpoint.close()

        thread = threading.Thread(target=server)
        thread.start()
        assert ready.wait(5.0)
        with socket.create_connection(box["addr"], timeout=5.0) as peer:
            peer.sendall(b"\xff\xff\xff\xff")
            reply = b""
            while True:
                chunk = peer.recv(4096)
                if not chunk:
                    break
                reply += chunk
        thread.join(5.0)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), ProtocolError)
        assert box["peak"] < 2**20
        assert decode(reply).kind is Kind.ABORT

    def test_connect_refused(self):
        with pytest.raises(OSError):
            connect(("127.0.0.1", 1), timeout_s=1.0)
