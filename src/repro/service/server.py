"""Service transports: stdio and TCP front ends for the session host.

The service stack is split in three (see the ISSUE-5 refactor):

* :mod:`repro.service.protocol` — the wire grammar: request framing,
  reply/event envelopes, sequence ids, error types.
* :mod:`repro.service.session_host` — :class:`PedServer`, the
  transport-agnostic core hosting the named sessions.
* this module — the byte-moving edge: a :class:`_Connection` per client
  that reads request lines, hands them to the host's worker pool and
  writes back whatever envelopes result.

Per connection, a :class:`~repro.service.protocol.Sequencer` stamps
every outgoing envelope with a monotonic ``seq`` *at write time, under
the write lock*, so the client can assert a total order over the
interleaved stream regardless of which worker thread produced each
line.  A streaming request's events are emitted synchronously by its
handler thread and its terminal reply written after the handler
returns, so events always carry smaller ``seq`` values than the reply.

Each connection also registers itself as a broadcast listener with the
host: ``invalidation`` events (an edit in one session dirtied units
another session holds) are fanned out to every connected client as
events with ``"id": null``.

Framing errors — unparsable JSON, a non-object request, a line over the
request size limit — are answered through the same structured error
envelope as handler errors (``bad-request`` / ``payload-too-large``),
never by dropping the line or the connection.

Connections start on JSON lines; a client on a byte-capable transport
(TCP, real stdio) may climb to plain frames and then to one deflate
stream per direction with inline ``frames`` / ``compress`` requests —
see the :mod:`repro.service.protocol` docstring.  A
:class:`~repro.service.protocol.WireCodec` holds each connection's rung,
``seq`` stamps and ``net.*`` accounting; this module only moves its
bytes: one write per envelope, so one ``Z_SYNC_FLUSH`` per envelope on
a compressed connection.

For back compatibility this module re-exports the host's public names
(``PedServer``, ``PROTOCOL_VERSION``), so pre-split imports keep
working.
"""

from __future__ import annotations

import io
import logging
import socketserver
import sys
import threading
from typing import Dict

from . import protocol
from .protocol import PROTOCOL_VERSION, ProtocolError
from .session_host import PedServer

__all__ = [
    "PedServer",
    "PROTOCOL_VERSION",
    "serve_stdio",
    "serve_tcp",
]

log = logging.getLogger(__name__)


class _Connection:
    """One client: reads requests, writes envelopes as they come.

    Requests are handed to the server's worker pool so one slow request
    (or one slow *session* — sessions serialize internally) never blocks
    the rest of the stream; a per-connection write lock keeps the
    interleaved envelopes whole and orders the ``seq`` stamps.
    ``cancel`` is handled inline on the reader thread — it must work
    precisely when the workers are busy.  ``rfile``/``wfile`` are byte
    streams (``rfile`` with ``read1``); text streams work too, on JSON
    lines only.
    """

    def __init__(self, server: PedServer, rfile, wfile) -> None:
        self.server = server
        self.rfile = rfile
        self.wfile = wfile
        self._text_in = not hasattr(rfile, "read1")
        self._text_out = isinstance(wfile, io.TextIOBase)
        self._write_lock = threading.Lock()
        self._listener_token = None
        self._codec = protocol.WireCodec(
            server.max_request_bytes,
            stats=getattr(server, "stats", None),
            binary=not (self._text_in or self._text_out),
        )

    # -- writing -------------------------------------------------------

    def _write(self, envelope: Dict) -> None:
        """Stamp ``seq`` and write one envelope.

        The stamp happens under the write lock, so ``seq`` order and
        wire order are the same thing — the guarantee the client's
        stream API asserts on.
        """

        with self._write_lock:
            data = self._codec.encode(envelope)
            try:
                self.wfile.write(
                    data.decode("utf-8") if self._text_out else data
                )
                self.wfile.flush()
            except (BrokenPipeError, ValueError, OSError):
                pass  # client went away; nothing to tell it

    def _broadcast(self, kind: str, data: Dict) -> None:
        """Host-originated event (no owning request): ``"id": null``."""

        self._write(protocol.event_envelope(None, kind, data))

    # -- request execution ---------------------------------------------

    def _finish(self, rid, reply: Dict, timed_out: threading.Event) -> None:
        if not timed_out.is_set():
            self._write(reply)

    def _run_request(self, req: Dict) -> None:
        rid = req.get("id")
        timed_out = threading.Event()

        def emit(kind: str, data: Dict) -> None:
            # Streamed events die with the request's deadline too: a
            # timed-out client has already been answered.
            if not timed_out.is_set():
                self._write(protocol.event_envelope(rid, kind, data))

        future = self.server._work.submit(self.server.execute, req, emit)
        future.add_done_callback(
            lambda f: self._finish(
                rid,
                f.result()
                if not f.cancelled()
                else protocol.reply_error(
                    rid, protocol.CANCELLED, "request cancelled"
                ),
                timed_out,
            )
        )
        timeout = req.get("timeout")
        if timeout is not None:
            def _watchdog():
                try:
                    future.result(timeout=float(timeout))
                except Exception:  # noqa: BLE001 — includes TimeoutError
                    if not future.done():
                        # Deadline passed: answer now, flag the body so a
                        # cooperative op stops, and drop the late result.
                        timed_out.set()
                        self.server.request_cancel(rid)
                        self._write(
                            protocol.reply_error(
                                rid,
                                protocol.TIMEOUT,
                                f"no result within {timeout}s",
                            )
                        )

            threading.Thread(target=_watchdog, daemon=True).start()

    # -- the read loop -------------------------------------------------

    def _dispatch(self, req: Dict) -> bool:
        """One parsed request; False once the stream should end."""

        if self.server.shutdown_event.is_set():
            self._write(
                protocol.reply_error(
                    req.get("id"),
                    protocol.SHUTTING_DOWN,
                    "server stopping",
                )
            )
            return False
        op = req.get("op")
        if op in (protocol.FRAMES_OP, protocol.COMPRESS_OP):
            with self._write_lock:  # writers read the codec's switches
                reply = self._codec.negotiate(req)
            self._write(reply)
            return True
        if op == "cancel":
            self.server.request_cancel(req.get("target"))
            self._write(
                protocol.reply_ok(
                    req.get("id"), {"cancelled": req.get("target")}
                )
            )
            return True
        if op == "shutdown":
            # Inline: the reply must reach the client before this
            # connection (and then the server) winds down.
            self._write(self.server.execute(req))
            return False
        self._run_request(req)
        return True

    def _chunks(self):
        if self._text_in:
            for line in self.rfile:
                yield line.encode("utf-8")
            return
        while True:
            data = self.rfile.read1(65536)
            if not data:
                return
            yield data

    def run(self) -> None:
        self._listener_token = self.server.add_listener(self._broadcast)
        self.server.connections.enter()
        codec = self._codec
        try:
            for data in self._chunks():
                codec.feed(data)
                while True:
                    try:
                        req = codec.next()
                    except ProtocolError as exc:
                        # Answered like any bad request; the codec has
                        # skipped the bad line or frame, unless the
                        # stream itself is corrupt.
                        self._write(
                            protocol.reply_error(
                                exc.request_id, exc.type, str(exc)
                            )
                        )
                        if exc.fatal:
                            return
                        continue
                    if req is None:
                        break
                    if not self._dispatch(req):
                        return
                if self.server.shutdown_event.is_set():
                    return
        except (ValueError, OSError):
            pass  # stream torn down under the reader
        finally:
            self.server.connections.leave()
            self.server.remove_listener(self._listener_token)


def serve_stdio(server: PedServer, rfile=None, wfile=None) -> None:
    """Serve one client over stdio (used by ``ped serve --stdio``).

    When the streams expose their byte-level ``buffer`` (real stdio
    does), the connection runs on it, which makes stdio eligible for the
    frame and compression rungs.  Plain text streams (``StringIO``)
    still work, JSON-lines only.
    """

    rfile = rfile or sys.stdin
    wfile = wfile or sys.stdout
    _Connection(
        server,
        getattr(rfile, "buffer", rfile),
        getattr(wfile, "buffer", wfile),
    ).run()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    ped: PedServer


class _TCPHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one thread per client connection
        server: _ThreadingTCPServer = self.server  # type: ignore[assignment]
        _Connection(server.ped, self.rfile, self.wfile).run()
        if server.ped.shutdown_event.is_set():
            threading.Thread(target=server.shutdown, daemon=True).start()


def serve_tcp(
    server: PedServer, host: str = "127.0.0.1", port: int = 0
) -> _ThreadingTCPServer:
    """Bind a threaded TCP front end; the caller runs ``serve_forever``.

    Returns the bound socketserver (``.server_address`` has the actual
    port when 0 was requested — handy for tests).
    """

    tcp = _ThreadingTCPServer((host, port), _TCPHandler)
    tcp.ped = server
    return tcp
