"""The compress rung: one deflate stream per direction.

Codec round trips (including arbitrary envelope sequences in arbitrary
byte splits), the inflate bound, oversized frames, corrupt streams, the
``frames`` -> ``compress`` negotiation ladder on both transports, and
the invisibility bar: a compressed connection sees the identical event
sequence and fingerprint a raw JSON connection sees — serially and with
``jobs=2``.
"""

import json
import socket
import struct
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import AsyncTransport
from repro.service import PedClient, PedRequestError, PedServer, serve_tcp
from repro.service import protocol
from repro.service.protocol import ProtocolError, WireCodec
from repro.workloads.generator import generate_program

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


def codec_pair(rung=protocol.COMPRESS, max_frame_bytes=None):
    """A client codec and a server codec that climbed to ``rung``."""

    client = WireCodec(client=True)
    server = WireCodec(max_frame_bytes or protocol.MAX_REQUEST_BYTES)
    ops = [protocol.FRAMES_OP, protocol.COMPRESS_OP]
    for op in ops[: 1 + (rung == protocol.COMPRESS)]:
        server.feed(client.encode(client.ask(op, op)))
        client.feed(server.encode(server.negotiate(server.next())))
        assert client.next()["ok"] is True
    assert client.mode == server.mode == rung
    return client, server


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def deflate(data: bytes) -> bytes:
    co = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    return co.compress(data) + co.flush(zlib.Z_SYNC_FLUSH)


def drain(codec):
    out = []
    while True:
        env = codec.next()
        if env is None:
            return out
        out.append(env)


# ----------------------------------------------------------------------
# codec round trips
# ----------------------------------------------------------------------


def test_compressed_frame_round_trip_and_savings():
    client, server = codec_pair()
    plain, _ = codec_pair(protocol.FRAMES)
    env = {"id": 1, "op": "pane", "rows": ["a(i) = a(i-1)"] * 80}
    plain_len = len(plain.encode(dict(env)))
    data = client.encode(dict(env))
    assert len(data) < plain_len / 2
    server.feed(data)
    assert server.next() == env


def test_context_takeover_shrinks_repeats():
    """The second similar envelope compresses against the first: the
    deflate window spans every envelope the connection carried."""

    client, server = codec_pair()
    rows = [f"row {i}: a(i) = a(i-1)" for i in range(120)]
    first = {"id": 1, "op": "pane", "session": "s", "rows": rows}
    second = {"id": 2, "op": "pane", "session": "s", "rows": rows[:-1] + ["x"]}
    f1 = client.encode(dict(first))
    f2 = client.encode(dict(second))
    assert len(f2) < len(f1) / 4
    server.feed(f1 + f2)
    assert drain(server) == [first, second]


def test_burst_write_byte_at_a_time():
    """One write carrying a burst (one sync flush) decodes in order when
    it arrives a byte at a time; seq stamps follow encode order."""

    client, server = codec_pair()
    envs = [
        {"id": 1, "event": "analysis.progress", "data": {"n": i}}
        for i in range(8)
    ] + [{"id": 1, "ok": True, "result": {}}]
    blob = server.encode(*envs)
    out = []
    for i in range(len(blob)):
        client.feed(blob[i : i + 1])
        out.extend(drain(client))
    assert out == envs
    assert [e["seq"] for e in out] == sorted(e["seq"] for e in out)


def test_compressed_frame_byte_at_a_time():
    client, server = codec_pair()
    env = {"id": 3, "op": "pane", "rows": ["same line"] * 90}
    blob = client.encode(dict(env))
    out = []
    for i in range(len(blob)):
        server.feed(blob[i : i + 1])
        out.extend(drain(server))
    assert out == [env]


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_envelopes = st.lists(
    st.dictionaries(st.text(max_size=8), _json_values, max_size=5),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    rung=st.sampled_from([protocol.FRAMES, protocol.COMPRESS]),
    envelopes=_envelopes,
    bursts=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    cuts=st.lists(st.integers(1, 64), min_size=1, max_size=40),
)
def test_arbitrary_sequences_round_trip_in_any_split(
    rung, envelopes, bursts, cuts
):
    """Envelopes written in arbitrary bursts and read back in arbitrary
    byte splits round-trip exactly, both directions, on both rungs."""

    client, server = codec_pair(rung)
    for writer, reader in ((client, server), (server, client)):
        sent = [json.loads(json.dumps(e)) for e in envelopes]
        blob, i, k = b"", 0, 0
        while i < len(sent):
            n = bursts[k % len(bursts)]
            blob += writer.encode(*sent[i : i + n])
            i, k = i + n, k + 1
        got, pos, k = [], 0, 0
        while pos < len(blob):
            step = cuts[k % len(cuts)]
            reader.feed(blob[pos : pos + step])
            got.extend(drain(reader))
            pos, k = pos + step, k + 1
        assert got == sent


# ----------------------------------------------------------------------
# hostile inputs
# ----------------------------------------------------------------------


def test_compressed_zip_bomb_capped():
    """A frame that inflates past the cap is skipped with
    payload-too-large without being buffered, and the stream reads on."""

    client, server = codec_pair(max_frame_bytes=4096)
    body = b"\x00" + json.dumps({"id": 1, "pad": "z" * 1_000_000}).encode()
    data = client._deflater.compress(frame(body))
    data += client.encode({"id": 2, "op": "ping"})
    assert len(data) < 4096  # the bomb is small on the wire
    server.feed(data)
    with pytest.raises(ProtocolError) as exc:
        server.next()
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    assert not exc.value.fatal
    assert len(server._buf) <= 4096
    assert drain(server) == [{"id": 2, "op": "ping"}]


def test_inflate_bounded_by_the_cap():
    """However much compressed input is fed, a reader holds at most one
    maximal frame of inflated bytes."""

    client, server = codec_pair(max_frame_bytes=6000)
    envs = [{"id": i, "pad": "y" * 5000} for i in range(40)]
    server.feed(client.encode(*envs))
    got = []
    while True:
        assert len(server._buf) <= 6000 + 5
        env = server.next()
        if env is None:
            break
        got.append(env)
    assert got == envs


def test_oversize_skip_spans_a_compressed_frame():
    """An oversized frame inside the deflate stream is skipped even when
    its bytes arrive over several feeds."""

    client, server = codec_pair(max_frame_bytes=512)
    big = {"id": 9, "pad": [f"row {i}" for i in range(300)]}
    blob = client.encode(big) + client.encode({"id": 10, "op": "ping"})
    half = len(blob) // 2
    server.feed(blob[:half])
    with pytest.raises(ProtocolError) as exc:
        server.next()
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    assert server._skip > 0  # the rest of the frame is still to come
    server.feed(blob[half:])
    assert drain(server) == [{"id": 10, "op": "ping"}]


def test_corrupt_deflate_stream_is_fatal():
    """A corrupt stream cannot be resynchronized: the codec raises one
    fatal bad-request and then yields nothing."""

    client, server = codec_pair()
    server.feed(b"\xff\xff\xff\xff garbage")
    with pytest.raises(ProtocolError) as exc:
        server.next()
    assert exc.value.type == protocol.BAD_REQUEST
    assert exc.value.fatal
    server.feed(client.encode({"id": 1, "op": "ping"}))
    assert server.next() is None


def test_v6_frame_kinds_rejected_inside_the_stream():
    """Frames of the retired kinds 1-4 are bad requests, skipped one by
    one; the stream carries on."""

    client, server = codec_pair()
    deflater = client._deflater
    for payload in (b"\x03\x00\x00x", b"\x04", b"\x01\x00\x01k{}"):
        data = deflater.compress(frame(payload))
        server.feed(data + deflater.flush(zlib.Z_SYNC_FLUSH))
        with pytest.raises(ProtocolError) as exc:
            server.next()
        assert exc.value.type == protocol.BAD_REQUEST
        assert not exc.value.fatal
    server.feed(client.encode({"id": 5}))
    assert server.next() == {"id": 5}


# ----------------------------------------------------------------------
# negotiation ladder + end-to-end invisibility, both transports
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


def test_compress_requires_frames_first(server):
    """The ladder is strict: ``compress`` on a JSON connection is a
    structured bad-request, and the connection stays usable."""

    _, port = server
    with PedClient.connect(port=port) as c:
        with pytest.raises(PedRequestError) as exc:
            c.request(protocol.COMPRESS_OP, mode=protocol.COMPRESS_MODE)
        assert exc.value.type == protocol.BAD_REQUEST
        assert c.request("ping")["pong"] is True


def test_unknown_compression_mode_rejected(server):
    """Unknown modes, the v7 ``zlib`` among them, are refused."""

    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        for mode in ("lz4", "zlib"):
            with pytest.raises(PedRequestError) as exc:
                c.request(protocol.COMPRESS_OP, mode=mode)
            assert exc.value.type == protocol.BAD_REQUEST
            assert c.request("ping")["pong"] is True


def test_negotiate_compression_idempotent(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        assert c.negotiate_compression() is True
        opened = c.request("open", session="s", source=SIMPLE)
        assert opened["units"] == ["p"]


def test_compressed_session_parity(server):
    """Identical event sequences and fingerprints, raw vs compressed."""

    _, port = server

    def run(mode: str):
        events = []
        with PedClient.connect(port=port) as c:
            if mode == "compress":
                assert c.negotiate_compression() is True
            sid = f"par-{mode}"
            for ev in c.stream("open", session=sid, source=SIMPLE):
                if ev.kind != "result":
                    events.append(
                        (ev.kind, json.dumps(ev.data, sort_keys=True))
                    )
            for i in range(4):
                for ev in c.stream(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = i + {i}",
                ):
                    if ev.kind != "result":
                        events.append(
                            (ev.kind, json.dumps(ev.data, sort_keys=True))
                        )
            fp = c.request("fingerprint", session=sid)
        return events, fp

    raw_events, raw_fp = run("json")
    z_events, z_fp = run("compress")
    assert z_events == raw_events
    assert z_fp == raw_fp


def test_compressed_stream_ordering(server):
    """Seqs strictly increase and every event precedes the terminal
    reply's seq."""

    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        events = list(c.stream("open", session="ord", source=SIMPLE))
    assert events[-1].kind == "result"
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert all(s < events[-1].seq for s in seqs[:-1])


def test_parity_with_parallel_jobs():
    """A jobs=2 server streams the same events a serial one does."""

    def run(jobs: int):
        srv = PedServer(jobs=jobs, max_workers=4)
        tcp = serve_tcp(srv)
        threading.Thread(
            target=tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        try:
            with PedClient.connect(port=tcp.server_address[1]) as c:
                assert c.negotiate_compression() is True
                events = [
                    (ev.kind, json.dumps(ev.data, sort_keys=True))
                    for ev in c.stream("open", session="j", source=SIMPLE)
                    if ev.kind != "result"
                ]
                fp = c.request("fingerprint", session="j")
            return sorted(events), fp
        finally:
            tcp.shutdown()
            tcp.server_close()
            srv.close()

    serial_events, serial_fp = run(1)
    par_events, par_fp = run(2)
    assert par_fp == serial_fp
    assert par_events == serial_events


def test_net_counters_surface_in_metrics(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        c.request("open", session="m", source=SIMPLE)
        metrics = c.request("metrics", session="m")["metrics"]
    assert metrics["net.bytes_in"] > 0
    assert metrics["net.bytes_out"] > 0
    assert metrics["net.bytes_out_raw"] >= metrics["net.bytes_out"]
    assert 0 < metrics["net.compress_ratio"] <= 1.0
    assert "net.flushes" in metrics and metrics["net.flushes"] > 0


# ----------------------------------------------------------------------
# codec safety over the real transports
# ----------------------------------------------------------------------


def _raw_compressed(port, max_frame_bytes=None):
    """A socket that climbed to compress by hand, with its codec."""

    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    codec = WireCodec(client=True)
    for op in (protocol.FRAMES_OP, protocol.COMPRESS_OP):
        sock.sendall(codec.encode(codec.ask(op, op)))
        assert _read_one(sock, codec)["ok"] is True
    assert codec.mode == protocol.COMPRESS
    return sock, codec


def _read_one(sock, codec):
    while True:
        env = codec.next()
        if env is not None:
            return env
        data = sock.recv(65536)
        if not data:
            return None
        codec.feed(data)


def test_oversized_frame_answered_and_connection_carries_on(server):
    srv, port = server
    sock, codec = _raw_compressed(port)
    try:
        pad = "z" * (srv.max_request_bytes + 10)
        big = {"id": 1, "op": "ping", "pad": pad}
        sock.sendall(codec.encode(big) + codec.encode({"id": 2, "op": "ping"}))
        err = _read_one(sock, codec)
        assert err["ok"] is False
        assert err["error"]["type"] == protocol.PAYLOAD_TOO_LARGE
        pong = _read_one(sock, codec)
        assert pong["id"] == 2 and pong["result"]["pong"] is True
    finally:
        sock.close()


def test_corrupt_stream_answered_then_closed(server):
    """A corrupt deflate stream gets one structured bad-request, then
    the server closes the connection — it never hangs."""

    _, port = server
    sock, codec = _raw_compressed(port)
    try:
        sock.sendall(b"\xff\xff\xff\xff garbage")
        err = _read_one(sock, codec)
        assert err["ok"] is False
        assert err["error"]["type"] == protocol.BAD_REQUEST
        assert _read_one(sock, codec) is None  # EOF: connection closed
    finally:
        sock.close()
    with PedClient.connect(port=port) as c:
        assert c.request("ping")["pong"] is True


def test_second_source_read_is_fast_on_compress(server):
    """Reading a 60-routine program's source twice on the compress rung
    returns what JSON lines returns, and the second read is not slowed
    by diffing the reply against the first."""

    _, port = server
    source = generate_program(n_routines=60)
    with PedClient.connect(port=port) as plain, PedClient.connect(
        port=port
    ) as packed:
        plain.request("open", session="big", source=source, wait=300)
        expect = plain.request("source", session="big")
        assert packed.negotiate_compression() is True
        assert packed.request("source", session="big") == expect
        t0 = time.perf_counter()
        second = packed.request("source", session="big", wait=60)
        elapsed = time.perf_counter() - t0
    assert second == expect
    assert elapsed < 1.0, elapsed
