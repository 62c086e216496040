"""Experiment W2 — bytes on the wire across protocol levels.

An interactive session should cost a fraction of its JSON-lines bytes
once a connection climbs the negotiation ladder (``frames`` ->
``compress``): on the top rung every envelope's frame runs through one
deflate stream per direction, so it compresses against everything the
connection carried before it.  This bench measures exactly that, twice:

* an 8-edit streamed editing session against a threaded server, run
  three times — JSON lines, plain frames, compressed frames — and
* a corpus submit fanned over a 2-shard fleet behind a router, with the
  client and the shard hops at the same level.

Each run records bytes received/sent (the client's own wire counters),
event throughput, and the session fingerprint.  The qualitative shape
asserted before timing: every mode yields the *identical* event
sequence and fingerprint (the stack is invisible except for cost), and
the compressed session ships at least 2.5x fewer bytes than frames
alone.  ``benchmarks/out/wire.json`` gets the numbers;
``bytes_ratio_frames_over_compress`` (``wire.bytes_ratio``) and
``fleet_bytes_ratio_json_over_compress``
(``wire.fleet_json_over_compress``) are gated in
``benchmarks/baselines.json``.
"""

import json
import threading
import time

import pytest

from repro.fleet import AsyncTransport, FleetRouter
from repro.service import PedClient, PedServer, serve_tcp
from repro.workloads.generator import generate_program

from conftest import save_artifact

MODES = ("json", "frames", "compress")
EDITS = 8
#: Line 9 of the generated program seeds ``f0`` — editing its additive
#: constant dirties the main program unit without changing the parse
#: shape, so every edit re-analyzes and streams progress.
EDIT_LINE = 9
EDIT_TEXT = "            f0(i, j) = 0.01 * i + 0.1 * j + {k}.0"


def _negotiate(client: PedClient, mode: str) -> None:
    if mode in ("frames", "compress"):
        assert client.negotiate_frames(), "server must speak frames"
    if mode == "compress":
        assert client.negotiate_compression(), "server must speak compress"


def _event_key(ev) -> tuple:
    return (ev.kind, json.dumps(ev.data, sort_keys=True))


def _streamed_session(mode: str) -> dict:
    """One fresh server + one client session: open, then 8 edits."""

    source = generate_program(n_routines=8)
    srv = PedServer(max_workers=4)
    tcp = serve_tcp(srv)
    thread = threading.Thread(
        target=tcp.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        with PedClient.connect(port=tcp.server_address[1]) as client:
            _negotiate(client, mode)
            events = []
            t0 = time.perf_counter()
            for ev in client.stream(
                "open", session="w", source=source, wait=300
            ):
                if ev.kind != "result":
                    events.append(_event_key(ev))
            for k in range(EDITS):
                for ev in client.stream(
                    "edit",
                    session="w",
                    start=EDIT_LINE,
                    end=EDIT_LINE,
                    text=EDIT_TEXT.format(k=k),
                    wait=300,
                ):
                    if ev.kind != "result":
                        events.append(_event_key(ev))
            seconds = time.perf_counter() - t0
            fingerprint = client.request("fingerprint", session="w")
            return {
                "mode": mode,
                "bytes_received": client.bytes_received,
                "bytes_sent": client.bytes_sent,
                "events": events,
                "events_per_s": len(events) / seconds if seconds else 0.0,
                "seconds": seconds,
                "fingerprint": fingerprint,
            }
    finally:
        tcp.shutdown()
        tcp.server_close()
        srv.close()
        thread.join(2)


def _fleet_submit(mode: str) -> dict:
    """Corpus submit over a 2-shard fleet, both hops at ``mode``."""

    programs = [
        {"name": f"p{i}", "source": generate_program(n_routines=2 + i % 3)}
        for i in range(6)
    ]
    shards = []
    addrs = []
    for _ in range(2):
        srv = PedServer(max_workers=2)
        t = AsyncTransport(srv)
        port = t.start_background()
        shards.append((srv, t))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01, wire=mode)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    try:
        with PedClient.connect(port=rport) as client:
            _negotiate(client, mode)
            progress = []
            t0 = time.perf_counter()
            handle = client.submit(
                "corpus.submit",
                programs=programs,
                job="w",
                wait=True,
                stream=True,
                on_event=lambda ev: progress.append(
                    (ev.data.get("program"), ev.data.get("total"))
                ),
            )
            reply = handle.result(300)
            seconds = time.perf_counter() - t0
            value = client.request(
                "corpus.query", job="w", aggregate="summary", wait=60
            )["value"]
            return {
                "mode": mode,
                "bytes_received": client.bytes_received,
                "bytes_sent": client.bytes_sent,
                "events_per_s": len(progress) / seconds if seconds else 0.0,
                "seconds": seconds,
                "programs": sorted(p for p, _ in progress if p),
                "totals": sorted({t for _, t in progress if t}),
                "complete": reply["complete"],
                "value": value,
            }
    finally:
        rtransport.stop_background()
        router.close()
        for srv, t in shards:
            t.stop_background()
            srv.close()


def test_wire_bytes_across_protocol_levels(benchmark):
    session = {mode: _streamed_session(mode) for mode in MODES}

    # Invisibility first: identical event sequences and fingerprints.
    for mode in ("frames", "compress"):
        assert session[mode]["events"] == session["json"]["events"], (
            f"{mode} changed the client-visible event sequence"
        )
        assert (
            session[mode]["fingerprint"] == session["json"]["fingerprint"]
        ), f"{mode} changed the session fingerprint"
    assert len(session["json"]["events"]) >= EDITS, (
        "the edit stream must push progress events"
    )

    ratio_frames = (
        session["frames"]["bytes_received"]
        / session["compress"]["bytes_received"]
    )
    ratio_json = (
        session["json"]["bytes_received"]
        / session["compress"]["bytes_received"]
    )
    assert ratio_frames >= 2.5, (
        f"compression must ship >=2.5x fewer bytes than "
        f"frames alone, got {ratio_frames:.2f}x"
    )

    fleet = {mode: _fleet_submit(mode) for mode in MODES}
    for mode in ("frames", "compress"):
        assert fleet[mode]["programs"] == fleet["json"]["programs"]
        assert fleet[mode]["totals"] == fleet["json"]["totals"] == [6]
        assert fleet[mode]["value"] == fleet["json"]["value"], (
            f"{mode} changed the fleet aggregate"
        )
        assert fleet[mode]["complete"]
    fleet_ratio = (
        fleet["json"]["bytes_received"] / fleet["compress"]["bytes_received"]
    )
    assert fleet_ratio > 1.0, (
        f"a compressed fleet hop must not cost more bytes than JSON, "
        f"got {fleet_ratio:.2f}x"
    )

    strip = lambda r: {k: v for k, v in r.items() if k != "events"}  # noqa: E731
    save_artifact(
        "wire.json",
        json.dumps(
            {
                "edits": EDITS,
                "session": {m: strip(session[m]) for m in MODES},
                "fleet": fleet,
                "bytes_ratio_frames_over_compress": ratio_frames,
                "bytes_ratio_json_over_compress": ratio_json,
                "fleet_bytes_ratio_json_over_compress": fleet_ratio,
            },
            indent=2,
            default=str,
        )
        + "\n",
    )
    benchmark.pedantic(
        lambda: _streamed_session("compress"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
