"""The asyncio transport: thousands of connections on one event loop.

The threaded front end (:mod:`repro.service.server`) burns an OS thread
per client, which tops out around the low hundreds of connections.
This transport multiplexes every connection onto one :mod:`asyncio`
loop while *reusing the host unchanged*: request bodies still run on
the host's worker-thread pool (``host.executor``) through the exact
``execute(req, emit)`` entry the threaded transport calls, so the two
front ends cannot drift in behavior — same envelopes, same error types,
same ``seq`` guarantees, byte-identical results.

**Host interface.**  Anything with ``execute(req, emit)``,
``executor``, ``shutdown_event``, ``max_request_bytes``,
``add_listener`` / ``remove_listener``, ``request_cancel`` and a
``connections`` gauge can sit behind this transport — the session host
(:class:`~repro.service.session_host.PedServer`) and the fleet router
(:class:`~repro.fleet.router.FleetRouter`) both do.

**Per-connection machinery.**  A
:class:`~repro.service.protocol.WireCodec` holds the connection's rung
(JSON lines, frames or deflate), its ``seq`` stamps and its ``net.*``
accounting; this module moves the bytes.

* *Reader*: feeds each received chunk to the codec and dispatches the
  requests it yields.  A bad line or frame is answered with the
  codec's structured error (``payload-too-large`` / ``bad-request``)
  and the connection reads on; a corrupt deflate stream is answered
  and the connection closes.
* *Writer*: one task draining a bounded outbound queue; it encodes
  everything already queued as one burst (single consumer, so queue
  order *is* seq order *is* wire order) and awaits ``drain()`` once per
  burst — one write, and on a compressed connection one
  ``Z_SYNC_FLUSH``, per burst instead of per envelope.
  Worker threads enqueue via ``run_coroutine_threadsafe(...).result()``,
  which blocks the producing handler until the queue has room: a slow
  client throttles its own requests' event streams, never the loop.
* *Lifecycle*: each connection registers a broadcast listener and
  counts itself in the host's connection gauge.  A client disconnecting
  mid-stream just tears down its own queue — in-flight handlers finish
  and their replies are dropped, the server lives on.

**Graceful drain.**  ``shutdown`` (the op, or :meth:`AsyncTransport.
stop_background`) stops the accept loop, lets in-flight requests answer
within ``drain_timeout``, then closes the remaining connections.
"""

from __future__ import annotations

import asyncio
import logging
import sys
import threading
from typing import Dict, Optional, Set

from ..service import protocol
from ..service.protocol import ProtocolError

__all__ = ["AsyncTransport", "serve_async_tcp", "serve_async_stdio"]

log = logging.getLogger(__name__)

#: Bound on the per-connection outbound queue (envelopes, not bytes).
OUTBOUND_QUEUE = 256
#: Reader chunk size.
CHUNK = 64 * 1024
#: Cap on envelopes written per burst before the writer must drain —
#: bounds the bytes buffered in the transport between drains.
BURST_MAX = 64


class _AsyncConnection:
    """One client on the event loop."""

    def __init__(
        self,
        transport: "AsyncTransport",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.transport = transport
        self.host = transport.host
        self.reader = reader
        self.writer = writer
        self._outq: "asyncio.Queue[Optional[Dict]]" = asyncio.Queue(
            maxsize=OUTBOUND_QUEUE
        )
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._torn_down = False
        self._inflight: Set[asyncio.Task] = set()
        self._listener_token = None
        self._writer_task: Optional[asyncio.Task] = None
        self._codec = protocol.WireCodec(
            self.host.max_request_bytes,
            stats=getattr(self.host, "stats", None),
        )

    # -- sending -------------------------------------------------------

    async def _send(self, envelope: Dict) -> None:
        if not self._closing:
            await self._outq.put(envelope)

    def _send_threadsafe(self, envelope: Dict) -> None:
        """Enqueue from a worker thread, blocking while the queue is
        full — the backpressure edge between handlers and the wire."""

        if self._closing:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._send(envelope), self._loop
            ).result(timeout=60.0)
        except Exception:  # noqa: BLE001 — connection died underneath
            pass

    def _broadcast(self, kind: str, data: Dict) -> None:
        self._send_threadsafe(protocol.event_envelope(None, kind, data))

    async def _write_loop(self) -> None:
        try:
            while True:
                # Burst-drain: encode everything already queued as one
                # write and await ``drain()`` once per burst — under
                # event-storm load the kernel sees one large write, not
                # N tiny ones.
                burst = [await self._outq.get()]
                while len(burst) < BURST_MAX:
                    try:
                        burst.append(self._outq.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                stop = None in burst
                if stop:
                    burst = burst[: burst.index(None)]
                if burst:
                    self.writer.write(self._codec.encode(*burst))
                    await self.writer.drain()
                if stop:
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away; nothing to tell it

    # -- request execution ---------------------------------------------

    def _run_request(self, req: Dict) -> None:
        rid = req.get("id")
        timed_out = threading.Event()

        def emit(kind: str, data: Dict) -> None:
            if not timed_out.is_set():
                self._send_threadsafe(
                    protocol.event_envelope(rid, kind, data)
                )

        fut = self._loop.run_in_executor(
            self.host.executor, self.host.execute, req, emit
        )

        async def waiter() -> None:
            timeout = req.get("timeout")
            try:
                if timeout is not None:
                    try:
                        reply = await asyncio.wait_for(
                            asyncio.shield(fut), float(timeout)
                        )
                    except asyncio.TimeoutError:
                        timed_out.set()
                        self.host.request_cancel(rid)
                        fut.add_done_callback(
                            lambda f: f.exception()  # retrieve, drop
                        )
                        await self._send(
                            protocol.reply_error(
                                rid,
                                protocol.TIMEOUT,
                                f"no result within {timeout}s",
                            )
                        )
                        return
                else:
                    reply = await fut
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — must answer
                reply = protocol.reply_error(
                    rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            await self._send(reply)

        task = self._loop.create_task(waiter())
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # -- the read loop -------------------------------------------------

    async def _dispatch(self, req: Dict) -> bool:
        """One parsed request; ``False`` ends the connection."""

        if self.host.shutdown_event.is_set():
            await self._send(
                protocol.reply_error(
                    req.get("id"),
                    protocol.SHUTTING_DOWN,
                    "server stopping",
                )
            )
            return False
        if req.get("op") in (protocol.FRAMES_OP, protocol.COMPRESS_OP):
            await self._send(self._codec.negotiate(req))
            return True
        if req.get("op") == "cancel":
            self.host.request_cancel(req.get("target"))
            await self._send(
                protocol.reply_ok(
                    req.get("id"), {"cancelled": req.get("target")}
                )
            )
            return True
        if req.get("op") == "shutdown":
            # Inline: the reply must reach the client before this
            # connection (and then the transport) winds down.
            reply = await self._loop.run_in_executor(
                self.host.executor, self.host.execute, req
            )
            await self._send(reply)
            self.transport.begin_shutdown()
            return False
        self._run_request(req)
        return True

    async def run(self) -> None:
        self._listener_token = self.host.add_listener(self._broadcast)
        self.host.connections.enter()
        self._writer_task = self._loop.create_task(self._write_loop())
        codec = self._codec
        try:
            while not self.host.shutdown_event.is_set():
                try:
                    chunk = await self.reader.read(CHUNK)
                except (ConnectionError, OSError):
                    break
                if not chunk:
                    break  # EOF: client closed (possibly mid-request)
                codec.feed(chunk)
                if not await self._dispatch_ready():
                    break
        finally:
            await self._teardown()

    async def _dispatch_ready(self) -> bool:
        """Dispatch every complete request; ``False`` ends the
        connection."""

        while True:
            try:
                req = self._codec.next()
            except ProtocolError as exc:
                # The codec has skipped the bad line or frame, unless
                # the stream itself is corrupt.
                await self._send(
                    protocol.reply_error(exc.request_id, exc.type, str(exc))
                )
                if exc.fatal:
                    return False
                continue
            if req is None:
                return True
            if not await self._dispatch(req):
                return False

    async def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        self._closing = True
        self.host.remove_listener(self._listener_token)
        self.host.connections.leave()
        # Let queued envelopes flush, then stop the writer.
        try:
            await asyncio.wait_for(self._outq.put(None), timeout=1.0)
        except asyncio.TimeoutError:
            pass
        if self._writer_task is not None:
            try:
                await asyncio.wait_for(self._writer_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._writer_task.cancel()
        for task in list(self._inflight):
            task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def finish_requests(self, timeout: float) -> None:
        """Graceful-drain helper: wait for in-flight requests."""

        pending = [t for t in self._inflight if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)


class AsyncTransport:
    """The asyncio front end for one host (session server or router)."""

    def __init__(
        self,
        host,
        bind: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.bind = bind
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_AsyncConnection] = set()
        self._shutdown = None  # asyncio.Event, created on the loop
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- loop-side lifecycle -------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``self.port`` gets the real port)."""

        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.bind, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _AsyncConnection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)
            if self.host.shutdown_event.is_set():
                self.begin_shutdown()

    def begin_shutdown(self) -> None:
        """Flag the transport to drain and stop (loop-side, idempotent)."""

        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until the host (or :meth:`begin_shutdown`) stops us."""

        if self._server is None:
            await self.start()

        async def poll_host() -> None:
            # The host's shutdown_event is a *threading* event (set by
            # handler threads); bridge it onto the loop.
            while not self.host.shutdown_event.is_set():
                await asyncio.sleep(0.1)
            self.begin_shutdown()

        poller = asyncio.get_running_loop().create_task(poll_host())
        try:
            await self._shutdown.wait()
        finally:
            poller.cancel()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests answer, then close."""

        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            await conn.finish_requests(self.drain_timeout)
        for conn in list(self._connections):
            await conn._teardown()

    # -- thread-side helpers (tests, embedding) ------------------------

    def start_background(self) -> int:
        """Run the transport on a dedicated thread; returns the port."""

        def runner() -> None:
            async def main() -> None:
                await self.start()
                self._ready.set()
                await self.serve_until_shutdown()

            try:
                asyncio.run(main())
            except Exception:  # noqa: BLE001 — surface in logs, not stderr
                log.exception("async transport died")
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="fleet-async", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("async transport failed to start")
        return self.port

    def stop_background(self, timeout: float = 10.0) -> None:
        """Drain and stop a :meth:`start_background` transport."""

        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.begin_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=timeout)


def serve_async_tcp(host, bind: str = "127.0.0.1", port: int = 0) -> None:
    """Serve ``host`` over asyncio TCP until shutdown (blocking)."""

    transport = AsyncTransport(host, bind=bind, port=port)

    async def main() -> None:
        await transport.start()
        print(
            f"ped fleet server (asyncio) listening on "
            f"{transport.bind}:{transport.port}",
            file=sys.stderr,
            flush=True,
        )
        await transport.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def serve_async_stdio(host, rpipe=None, wpipe=None) -> None:
    """Serve one client on stdin/stdout through the asyncio machinery.

    The same connection class as TCP — framing, backpressure, seq
    stamping — attached to pipe transports instead of a socket.
    """

    async def main() -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader),
            rpipe if rpipe is not None else sys.stdin.buffer,
        )
        w_transport, w_protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin,
            wpipe if wpipe is not None else sys.stdout.buffer,
        )
        writer = asyncio.StreamWriter(w_transport, w_protocol, reader, loop)
        shim = AsyncTransport(host)
        shim._loop = loop
        shim._shutdown = asyncio.Event()
        conn = _AsyncConnection(shim, reader, writer)
        await conn.run()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
