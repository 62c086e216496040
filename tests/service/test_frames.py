"""Plain frames: codec round trips, abuse paths, negotiation.

Length-prefixed frame encode/decode, truncated frames, oversized
frames, mid-frame disconnects, and JSON↔frames negotiation (including
the fallback against servers that do not speak this rung) — over both
the threaded TCP server and the asyncio fleet transport.
"""

import json
import socket
import struct
import threading

import pytest

from repro.fleet import AsyncTransport
from repro.service import PedClient, PedRequestError, PedServer, serve_tcp
from repro.service import protocol
from repro.service.protocol import ProtocolError, WireCodec

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


# ----------------------------------------------------------------------
# codec round trips
# ----------------------------------------------------------------------


def framed_pair(max_frame_bytes=protocol.MAX_REQUEST_BYTES):
    """A client codec and a server codec that negotiated frames."""

    client = WireCodec(client=True)
    server = WireCodec(max_frame_bytes)
    server.feed(client.encode(client.ask(protocol.FRAMES_OP, 0)))
    client.feed(server.encode(server.negotiate(server.next())))
    assert client.next()["result"] == {"frames": "plain"}
    assert client.mode == server.mode == protocol.FRAMES
    return client, server


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def test_raw_frame_round_trip():
    client, server = framed_pair()
    env = {"ok": True, "result": {"x": 1}}
    data = client.encode(env)
    assert data == frame(b"\x00" + json.dumps(env, sort_keys=True).encode())
    server.feed(data)
    assert server.next() == env
    assert server.next() is None


def test_byte_split_feeding():
    """Frames reassemble regardless of how the stream fragments."""

    client, server = framed_pair()
    envs = [
        {"id": i, "op": "loops", "session": "s", "n": i} for i in range(8)
    ]
    blob = b"".join(client.encode(e) for e in envs)
    out = []
    for i in range(0, len(blob), 7):
        server.feed(blob[i : i + 7])
        while True:
            env = server.next()
            if env is None:
                break
            out.append(env)
    assert out == envs


def test_truncated_frame_never_completes():
    client, server = framed_pair()
    data = client.encode({"id": 1, "op": "ping"})
    server.feed(data[: len(data) - 3])  # disconnect mid-frame
    assert server.next() is None  # bytes parked, no crash, no envelope
    server.feed(data[len(data) - 3 :])
    assert server.next() == {"id": 1, "op": "ping"}


def test_oversized_frame_is_rejected_then_skipped():
    client, server = framed_pair(max_frame_bytes=64)
    big = b"\x00" + json.dumps({"id": 9, "op": "x", "pad": "z" * 200}).encode()
    server.feed(frame(big) + client.encode({"id": 10, "op": "ping"}))
    with pytest.raises(ProtocolError) as exc:
        server.next()
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    assert not exc.value.fatal
    # The codec skipped the oversized body; the next frame decodes.
    assert server.next() == {"id": 10, "op": "ping"}


def test_oversized_frame_skip_spans_feeds():
    """The skip survives the oversized body arriving in later chunks."""

    client, server = framed_pair(max_frame_bytes=64)
    data = frame(b"\x00" + b"z" * 1000)
    server.feed(data[:100])
    with pytest.raises(ProtocolError):
        server.next()
    server.feed(data[100:])  # rest of the bad body: swallowed
    assert server.next() is None
    server.feed(client.encode({"id": 1, "op": "ping"}))
    assert server.next() == {"id": 1, "op": "ping"}


def test_bad_frames_raise_structured_errors():
    """A bad frame is answered and skipped; the next one decodes.  Any
    kind but 0 is bad, the retired v5/v6 kinds 1-4 among them."""

    _, server = framed_pair()
    for payload in (
        b"\x07junk",
        b"\x00not json",
        b"\x00[1, 2]",
        b"\x02" + struct.pack(">H", 1) + b"k" + b"\x00" * 8,
        b"\x04",
        b"",
    ):
        server.feed(frame(payload))
        with pytest.raises(ProtocolError) as exc:
            server.next()
        assert exc.value.type == protocol.BAD_REQUEST
        assert not exc.value.fatal
    server.feed(frame(b'\x00{"id": 3}'))
    assert server.next() == {"id": 3}


# ----------------------------------------------------------------------
# negotiation + end-to-end sessions, threaded and asyncio transports
# ----------------------------------------------------------------------


@pytest.fixture(params=["threaded", "asyncio"])
def server(request):
    srv = PedServer(max_workers=4)
    if request.param == "threaded":
        tcp = serve_tcp(srv)
        threading.Thread(
            target=tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        yield srv, tcp.server_address[1]
        tcp.shutdown()
        tcp.server_close()
    else:
        transport = AsyncTransport(srv)
        port = transport.start_background()
        yield srv, port
        transport.stop_background()
    srv.close()


def test_binary_session_end_to_end(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        assert c.negotiate_frames() is True  # idempotent
        opened = c.request("open", session="s", source=SIMPLE)
        assert opened["units"] == ["p"]
        loops = c.request("loops", session="s", unit="p")["loops"]
        assert loops[0]["parallelizable"] is True
        c.request(
            "edit", session="s", start=4, end=4,
            text="         a(i) = i + 1",
        )
        loops = c.request("loops", session="s", unit="p")["loops"]
        assert loops[0]["parallelizable"] is True
        assert c.request("ping")["protocol"] == protocol.PROTOCOL_VERSION


def test_binary_streaming_events(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        events = list(c.stream("open", session="s", source=SIMPLE))
        assert events[-1].kind == "result"
        kinds = {e.kind for e in events}
        assert "analysis.progress" in kinds
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_binary_saves_bytes_on_streamed_edit_session(server):
    """A streamed edit session transfers fewer reply/event bytes off
    JSON lines than on them.  Plain frames cost four bytes more per
    envelope than a JSON line, so the saving comes from the compress
    rung on top of them."""

    _, port = server

    def run_session(binary: bool) -> int:
        with PedClient.connect(port=port) as c:
            if binary:
                assert c.negotiate_compression() is True
            sid = f"bin{binary}"
            c.request("open", session=sid, source=SIMPLE)
            for i in range(6):
                c.request(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = i + {i}",
                )
                c.request("loops", session=sid, unit="p")
                c.request("deps", session=sid, unit="p")
            return c.bytes_received

    json_bytes = run_session(binary=False)
    bin_bytes = run_session(binary=True)
    assert bin_bytes < json_bytes, (bin_bytes, json_bytes)


def test_json_only_client_still_connects(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.request("ping")["pong"] is True
        c.request("open", session="plain", source=SIMPLE)
        assert c.request("loops", session="plain", unit="p")["loops"]


def test_json_and_binary_clients_coexist(server):
    _, port = server
    with PedClient.connect(port=port) as b, PedClient.connect(port=port) as j:
        assert b.negotiate_frames() is True
        b.request("open", session="b", source=SIMPLE)
        j.request("open", session="j", source=SIMPLE)
        assert b.request("loops", session="b", unit="p")["loops"]
        assert j.request("loops", session="j", unit="p")["loops"]


def test_bad_negotiation_mode_keeps_json(server):
    """Unknown modes, the v7 ``binary`` among them, are refused."""

    _, port = server
    with PedClient.connect(port=port) as c:
        for mode in ("gzip", "binary"):
            with pytest.raises(PedRequestError) as exc:
                c.request("frames", mode=mode)
            assert exc.value.type == protocol.BAD_REQUEST
            # The connection stays on JSON lines and keeps working.
            assert c.request("ping")["pong"] is True


def test_mid_frame_disconnect_leaves_server_healthy(server):
    """A client that negotiates, sends half a frame and vanishes must
    not take the server (or other connections) down."""

    _, port = server
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    fh = sock.makefile("rb")
    sock.sendall(b'{"id": 1, "op": "frames", "mode": "plain"}\n')
    reply = json.loads(fh.readline())
    assert reply["ok"] is True and reply["result"]["frames"] == "plain"
    data = frame(b'\x00{"id": 2, "op": "ping"}')
    sock.sendall(data[: len(data) // 2])
    sock.close()
    with PedClient.connect(port=port) as c:
        assert c.request("ping")["pong"] is True


def _legacy_server(etype: str) -> int:
    """A one-connection JSON-lines server that answers ``ping`` and
    refuses every other op with ``etype``; returns its port."""

    def serve(sock_server):
        conn, _ = sock_server.accept()
        rf = conn.makefile("rb")
        wf = conn.makefile("wb")
        for line in rf:
            req = json.loads(line)
            if req.get("op") == "ping":
                reply = {"id": req["id"], "ok": True,
                         "result": {"pong": True, "protocol": 4}}
            else:
                reply = {
                    "id": req["id"],
                    "ok": False,
                    "error": {
                        "type": etype,
                        "message": f"refused {req.get('op')!r}",
                    },
                }
            wf.write((json.dumps(reply) + "\n").encode())
            wf.flush()
        sock_server.close()

    lsock = socket.create_server(("127.0.0.1", 0))
    threading.Thread(target=serve, args=(lsock,), daemon=True).start()
    return lsock.getsockname()[1]


def test_negotiation_falls_back_against_pre_v5_server():
    """An older server routes ``frames`` to its handler table and says
    ``unknown-op``; the client stays on JSON lines, connected."""

    with PedClient.connect(port=_legacy_server("unknown-op")) as c:
        assert c.negotiate_frames() is False
        assert c.request("ping")["pong"] is True  # still JSON lines


def test_negotiation_falls_back_against_v7_server():
    """A v7 server knows ``frames`` but not the ``plain`` mode and says
    ``bad-request``; the client stays on JSON lines, connected."""

    with PedClient.connect(port=_legacy_server("bad-request")) as c:
        assert c.negotiate_compression() is False
        assert c.request("ping")["pong"] is True  # still JSON lines
