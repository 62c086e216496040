"""Session-server protocol: concurrency, timeouts, cancellation, errors.

The server under test runs in-process over TCP on an ephemeral port;
clients are real :class:`PedClient` connections, so these tests cover
the full wire path (framing, correlation ids, out-of-order replies).
The stdio transport gets a separate subprocess smoke test.
"""

import threading
import time

import pytest

from repro.service import PedClient, PedRequestError, PedServer, serve_tcp
from repro.workloads import SUITE

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


@pytest.fixture
def server():
    srv = PedServer(max_workers=4)
    tcp = serve_tcp(srv)
    thread = threading.Thread(
        target=tcp.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv, tcp.server_address[1]
    tcp.shutdown()
    tcp.server_close()
    srv.close()


@pytest.fixture
def client(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        yield c


def test_ping(client):
    reply = client.request("ping")
    assert reply["pong"] is True
    assert reply["protocol"] == 8


def test_open_query_edit_lifecycle(client):
    opened = client.request("open", session="s", source=SIMPLE)
    assert opened["units"] == ["p"]
    loops = client.request("loops", session="s", unit="p")["loops"]
    assert loops[0]["parallelizable"] is True
    message = client.request(
        "edit", session="s", start=4, end=4, text="         a(i) = i + 1"
    )["message"]
    assert "replaced" in message
    assert "i + 1" in client.request("source", session="s")["source"]
    client.request("undo", session="s")
    assert "i + 1" not in client.request("source", session="s")["source"]
    assert client.request("close", session="s") == {"closed": "s"}
    assert client.request("list") == {"sessions": []}


def test_two_clients_interleave_on_different_sessions(server):
    """Requests from two clients against two sessions interleave: each
    session's operations stay serialized, the sessions themselves run
    concurrently, and every reply reaches the right client."""

    _, port = server
    with PedClient.connect(port=port) as c1, PedClient.connect(
        port=port
    ) as c2:
        c1.request("open", session="one", source=SUITE["onedim"].source)
        c2.request("open", session="two", source=SUITE["slab2d"].source)

        # Fire a batch of interleaved queries without waiting in between.
        pending = []
        for _ in range(5):
            pending.append(("one", c1.submit("loops", session="one", unit="build")))
            pending.append(("two", c2.submit("parallel_summary", session="two")))
            pending.append(("one", c1.submit("deps", session="one", unit="deposit")))
        for which, p in pending:
            result = p.result(30)
            if "loops" in result:
                assert result["unit"] == "build"
            if "units" in result:
                assert result["units"][0]["unit"]

        # Both sessions are intact and independent afterwards.
        assert c1.request("list")["sessions"] == ["one", "two"]
        one = c1.request("parallel_summary", session="one")
        two = c2.request("parallel_summary", session="two")
        assert {u["unit"] for u in one["units"]} != {
            u["unit"] for u in two["units"]
        }


def test_same_session_mutations_serialize(server):
    """Two clients hammering one session: per-session locking keeps the
    undo stack consistent (every edit fully applied then fully undone)."""

    _, port = server
    with PedClient.connect(port=port) as c1, PedClient.connect(
        port=port
    ) as c2:
        c1.request("open", session="s", source=SIMPLE)
        pending = []
        for i in range(6):
            client = c1 if i % 2 == 0 else c2
            pending.append(
                client.submit(
                    "edit",
                    session="s",
                    start=4,
                    end=4,
                    text=f"         a(i) = i + {i}",
                )
            )
        for p in pending:
            p.result(30)
        for _ in range(6):
            c1.request("undo", session="s")
        assert (
            c1.request("source", session="s")["source"].splitlines()[3]
            == "         a(i) = i"
        )


def test_request_timeout(client):
    with pytest.raises(PedRequestError) as err:
        client.request("sleep", seconds=5, timeout=0.2)
    assert err.value.type == "timeout"
    # The server is still healthy afterwards.
    assert client.request("ping")["pong"] is True


def test_cancellation_of_running_request(client):
    pending = client.submit("sleep", seconds=10)
    time.sleep(0.2)  # let it start
    pending.cancel()
    with pytest.raises(PedRequestError) as err:
        pending.result(5)
    assert err.value.type == "cancelled"


def test_structured_errors(client):
    with pytest.raises(PedRequestError) as err:
        client.request("loops", session="ghost")
    assert err.value.type == "unknown-session"

    client.request("open", session="dup", source=SIMPLE)
    with pytest.raises(PedRequestError) as err:
        client.request("open", session="dup", source=SIMPLE)
    assert err.value.type == "session-exists"

    with pytest.raises(PedRequestError) as err:
        client.request("frobnicate")
    assert err.value.type == "unknown-op"

    with pytest.raises(PedRequestError) as err:
        client.request("edit", session="dup", start=999, end=999, text="")
    assert err.value.type == "ped-error"

    # A ped-error leaves the session usable.
    assert client.request("loops", session="dup", unit="p")["loops"]


def test_bad_edit_rolls_back_session(client):
    client.request("open", session="s", source=SIMPLE)
    before = client.request("source", session="s")["source"]
    with pytest.raises(PedRequestError) as err:
        client.request(
            "edit", session="s", start=3, end=3, text="      do 10 i ="
        )
    assert err.value.type == "ped-error"
    assert "edit rejected" in err.value.message
    assert client.request("source", session="s")["source"] == before


def test_request_latency_metrics(server):
    srv, port = server
    with PedClient.connect(port=port) as c:
        c.request("ping")
        c.request("open", session="m", source=SIMPLE)
        c.request("loops", session="m", unit="p")
    snapshot = srv.stats.snapshot()
    for op in ("req.ping", "req.open", "req.loops"):
        assert op in snapshot["stages"], op
        assert snapshot["stages"][op]["runs"] >= 1
        assert snapshot["stages"][op]["seconds"] >= 0
    # Per-session engine stats are separately addressable.
    with PedClient.connect(port=port) as c:
        per_session = c.request("stats", session="m")
        assert per_session["stages"]["total"]["runs"] >= 1
