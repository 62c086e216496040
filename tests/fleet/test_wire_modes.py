"""Mixed-peer wire modes across the fleet: client <-> router <-> shards.

The wire ladder is per-connection, so every hop combination must work
and agree byte-for-byte on what the client sees: a compressed client
over uncompressed shard hops, a raw JSON client over compressed shard
hops, and both ends compressed.
"""

import threading

import pytest

from repro.fleet import AsyncTransport, FleetRouter
from repro.service import PedClient, PedServer

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)
PROGRAMS = [{"name": f"p{i}", "source": SIMPLE} for i in range(6)]


def _build(wire: str):
    shards, addrs = [], []
    for _ in range(2):
        srv = PedServer(max_workers=2)
        transport = AsyncTransport(srv)
        port = transport.start_background()
        shards.append((srv, transport))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01, wire=wire)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    return shards, router, rtransport, rport


def _teardown(shards, router, rtransport):
    rtransport.stop_background()
    router.close()
    for srv, transport in shards:
        transport.stop_background()
        srv.close()


def _run(client_mode: str, wire: str):
    shards, router, rtransport, rport = _build(wire)
    try:
        events = []
        lock = threading.Lock()

        def on_event(ev):
            with lock:
                events.append(
                    (ev.data.get("program"), ev.data.get("done"),
                     ev.data.get("total"))
                )

        with PedClient.connect(port=rport) as client:
            if client_mode == "compress":
                assert client.negotiate_compression() is True
            handle = client.submit(
                "corpus.submit", programs=PROGRAMS, job="j", wait=True,
                stream=True, on_event=on_event,
            )
            reply = handle.result(120)
            value = client.request(
                "corpus.query", job="j", aggregate="summary", wait=60
            )["value"]
        progress = [e for e in events if e[0]]
        return {
            "reply": {k: reply[k]
                      for k in ("total", "done", "errors", "complete")},
            "value": value,
            "programs": sorted(p for p, _, _ in progress),
            "dones": sorted(d for _, d, _ in progress),
            "totals": sorted({t for _, _, t in progress}),
            "router_counters": dict(router.stats.counters),
        }
    finally:
        _teardown(shards, router, rtransport)


@pytest.mark.parametrize(
    "client_mode,wire",
    [
        ("json", "json"),
        ("compress", "json"),  # compressed client, uncompressed shards
        ("json", "compress"),  # raw client, compressed shard hops
        ("compress", "compress"),
    ],
)
def test_mixed_peer_fleet_parity(client_mode, wire):
    result = _run(client_mode, wire)
    assert result["reply"] == {
        "total": 6, "done": 6, "errors": 0, "complete": True,
    }
    # Fleet-wide renumbering survives every hop combination: each
    # program reported once, done counts 1..6, totals fleet-wide.
    assert result["programs"] == sorted(p["name"] for p in PROGRAMS)
    assert result["dones"] == [1, 2, 3, 4, 5, 6]
    assert result["totals"] == [6]
    counters = result["router_counters"]
    if wire == "compress":
        assert counters.get("router.wire_frames", 0) == 2
        assert counters.get("router.wire_compress", 0) == 2
    else:
        assert counters.get("router.wire_compress", 0) == 0


def test_all_modes_agree_on_aggregates():
    results = [
        _run(client_mode, wire)
        for client_mode, wire in [
            ("json", "json"), ("compress", "json"),
            ("json", "compress"), ("compress", "compress"),
        ]
    ]
    base = results[0]
    for other in results[1:]:
        assert other["value"] == base["value"]
        assert other["reply"] == base["reply"]
        assert other["programs"] == base["programs"]
