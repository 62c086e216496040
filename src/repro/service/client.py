"""A thin Python client for the Ped session server.

Speaks the JSON-lines envelope protocol of
:mod:`repro.service.protocol` over any line-oriented transport: a TCP
connection (:meth:`PedClient.connect`), a spawned ``python -m repro
serve --stdio`` subprocess (:meth:`PedClient.spawn`) or an in-process
pipe pair (tests).  A reader thread matches replies to requests by id,
so many requests may be in flight at once; :meth:`request` is the
blocking convenience wrapper and :meth:`submit` the asynchronous one.

On a byte-level transport (``connect`` and ``spawn`` both provide one)
:meth:`negotiate_frames` moves the connection onto length-prefixed
frames and :meth:`negotiate_compression` climbs one rung further, to one
deflate stream per direction, so each envelope costs only what is new
against everything the connection carried before it.  Both rungs are
invisible above the wire: ``stream()``/``on_event`` callers see the
exact same events either way.  Both calls degrade gracefully: a server
that does not speak the rung answers with an error and the connection
stays at whatever level it reached.  ``bytes_sent`` /
``bytes_received`` count wire traffic in every mode.

>>> client = PedClient.connect(port=7077)
>>> client.request("open", session="w", source=fortran_text)
>>> client.request("loops", session="w", unit="main")
>>> client.close()

**Streaming.**  A request sent with ``stream=True`` receives typed
server-push events before its terminal reply.  Two consumption styles:

* *Iterator* — :meth:`stream` yields each :class:`ServerEvent` as it
  arrives and finally a synthetic ``result`` event carrying the terminal
  reply (and its ``seq``), so ordering is assertable end to end::

      for ev in client.stream("open", session="w", source=src):
          if ev.kind == "analysis.progress":
              print(ev.data["phase"], ev.seq)
          elif ev.kind == "result":
              units = ev.data["units"]

* *Callback* — ``submit(..., stream=True, on_event=fn)`` invokes ``fn``
  with each event on the reader thread while the returned handle
  resolves as usual.

Connection-wide broadcasts (``invalidation`` events with a ``null``
id — another session's edit dirtied units this client may hold) go to
listeners registered with :meth:`add_event_listener`.

Failed requests raise :class:`PedRequestError`, carrying the server's
structured error ``type`` (``ped-error``, ``timeout``, ``cancelled``…)
and message.  An ``unknown-op`` reply raises the sharper
:class:`UnsupportedOpError`, whose ``op`` attribute names the operation
the server does not speak — feature-detection against older servers
catches that one type instead of string-matching messages.

**Transport failures.**  A connect refusal, a reset socket or a broken
pipe raises :class:`ServerUnavailableError` (type ``connection``) — a
typed signal callers can branch on instead of catching raw ``OSError``.
:meth:`PedClient.connect` takes ``retries``/``backoff``/``jitter``:
transient connect errors are retried with exponential backoff plus
jitter up to the bound.  Retries default *off* so tests (and anything
asserting fail-fast behavior) see the first error immediately; the
fleet router turns them on.
"""

from __future__ import annotations

import itertools
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from . import protocol

#: Frame size cap on the *client's* receive side.  Server replies (whole
#: panes, corpus rollups) dwarf requests, so the client accepts far more
#: than the server's request cap.
MAX_REPLY_FRAME_BYTES = 256 * 1024 * 1024


class PedRequestError(Exception):
    """A structured error reply from the server."""

    def __init__(self, etype: str, message: str) -> None:
        super().__init__(f"{etype}: {message}")
        self.type = etype
        self.message = message


class ServerUnavailableError(PedRequestError):
    """The server cannot be reached (connect refused/reset, send on a
    dead socket, or the retry budget exhausted).  Carries the underlying
    OS error text; ``attempts`` counts how many connects were tried."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__("connection", message)
        self.attempts = attempts


class UnsupportedOpError(PedRequestError):
    """The server answered ``unknown-op``: it does not speak this
    operation (an older server, or a typo).  ``op`` names the operation
    the client asked for, so feature-detection code can branch on it."""

    def __init__(self, op: str, message: str) -> None:
        super().__init__("unknown-op", message)
        self.op = op


def _error_from(op: Optional[str], err: Dict) -> PedRequestError:
    """The typed exception for one structured error reply."""

    etype = err.get("type", "unknown")
    message = err.get("message", "unknown error")
    if etype == "unknown-op":
        return UnsupportedOpError(op or "", message)
    return PedRequestError(etype, message)


@dataclass
class ServerEvent:
    """One server-push event (or the synthetic terminal ``result``)."""

    kind: str
    data: Dict = field(default_factory=dict)
    seq: Optional[int] = None
    request_id: object = None


#: Sentinel pushed into a stream queue when the terminal reply lands.
_DONE = object()


def _is_binary(f) -> bool:
    """True when ``f`` reads/writes bytes rather than text."""

    mode = getattr(f, "mode", None)
    if isinstance(mode, str) and mode:
        return "b" in mode
    # Pipes and wrappers without a mode: a zero-length read tells the
    # truth without consuming anything (writers have no cheap probe;
    # transports always pair like with like).
    try:
        probe = f.read(0)
    except (AttributeError, OSError, ValueError):
        return False
    return isinstance(probe, bytes)


class PedClient:
    """One protocol connection; safe to use from multiple threads."""

    def __init__(self, rfile, wfile, *, on_close=None) -> None:
        self._rfile = rfile
        self._wfile = wfile
        self._on_close = on_close
        # Byte-level streams (socket/pipe makefiles in "b" mode) can
        # climb the wire rungs; text streams (StringIO pairs) stay on
        # JSON lines.
        self._rbinary = _is_binary(rfile)
        self._wbinary = _is_binary(wfile)
        self._codec = protocol.WireCodec(
            MAX_REPLY_FRAME_BYTES,
            binary=self._rbinary and self._wbinary,
            client=True,
        )
        self._write_lock = threading.Lock()
        self._pending: Dict[object, Future] = {}
        self._ops: Dict[object, str] = {}
        self._pending_lock = threading.Lock()
        self._event_sinks: Dict[object, Callable[[ServerEvent], None]] = {}
        self._reply_seq: Dict[object, Optional[int]] = {}
        self._listeners: Dict[int, Callable[[ServerEvent], None]] = {}
        self._listener_ids = itertools.count(1)
        self._ids = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="ped-client-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        jitter: float = 0.25,
        timeout: Optional[float] = None,
    ) -> "PedClient":
        """Connect to a ``ped serve --port`` server.

        ``retries`` bounds how many *additional* connect attempts follow
        a transient failure (refused/reset/unreachable); attempt ``i``
        sleeps ``backoff * 2**i`` seconds first, stretched by up to
        ``jitter`` fraction of random extra so a fleet of reconnecting
        clients does not thunder in lockstep.  Exhausting the budget
        raises :class:`ServerUnavailableError` (never a raw ``OSError``).
        """

        attempts = max(0, int(retries)) + 1
        last: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                delay = backoff * (2 ** (attempt - 1))
                delay *= 1.0 + random.random() * max(0.0, jitter)
                time.sleep(delay)
            try:
                sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                sock.settimeout(None)
                break
            except OSError as exc:
                last = exc
        else:
            raise ServerUnavailableError(
                f"cannot connect to {host}:{port} after {attempts} "
                f"attempt(s): {last}",
                attempts=attempts,
            ) from last
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")

        def _close():
            # ``makefile`` objects hold io-refs on the fd, and the
            # reader thread keeps ``rfile`` open — a bare ``close()``
            # would leave the TCP connection half-alive (no FIN) and
            # the reader blocked forever.  ``shutdown`` tears the
            # stream down for real and wakes the reader with EOF.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

        return cls(rfile, wfile, on_close=_close)

    @classmethod
    def spawn(cls, argv=None, **popen_kwargs) -> "PedClient":
        """Spawn ``python -m repro serve --stdio`` and attach to it."""

        argv = argv or [sys.executable, "-m", "repro", "serve", "--stdio"]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            **popen_kwargs,
        )

        def _close():
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.wait(timeout=10)

        client = cls(proc.stdout, proc.stdin, on_close=_close)
        client.process = proc
        return client

    # ------------------------------------------------------------------
    # broadcast listeners
    # ------------------------------------------------------------------

    def add_event_listener(
        self, fn: Callable[[ServerEvent], None]
    ) -> int:
        """Register ``fn`` for connection-wide broadcast events
        (``invalidation``); returns a token for
        :meth:`remove_event_listener`.  Called on the reader thread."""

        token = next(self._listener_ids)
        with self._pending_lock:
            self._listeners[token] = fn
        return token

    def remove_event_listener(self, token: int) -> None:
        with self._pending_lock:
            self._listeners.pop(token, None)

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        return self._codec.bytes_out

    @property
    def bytes_received(self) -> int:
        return self._codec.bytes_in

    def _chunks(self):
        rfile = self._rfile
        if not self._rbinary:
            for line in rfile:
                yield line.encode("utf-8")
            return
        read1 = getattr(rfile, "read1", rfile.read)
        while True:
            data = read1(65536)
            if not data:
                return
            yield data

    def _read_loop(self) -> None:
        why = "connection closed"
        codec = self._codec
        try:
            for data in self._chunks():
                codec.feed(data)
                while True:
                    try:
                        env = codec.next()
                    except protocol.ProtocolError as exc:
                        if exc.fatal:
                            why = f"connection closed: {exc}"
                            return
                        # A line or frame the client cannot decode: skip
                        # it — the affected request times out rather
                        # than poisoning the connection.
                        continue
                    if env is None:
                        break
                    if "event" in env:
                        self._handle_event(env)
                    else:
                        self._handle_reply(env)
        except (OSError, ValueError):
            pass  # stream torn down under the reader
        finally:
            self._fail_pending(why)

    def _handle_event(self, env: Dict) -> None:
        ev = ServerEvent(
            kind=env.get("event", ""),
            data=env.get("data") or {},
            seq=env.get("seq"),
            request_id=env.get("id"),
        )
        if ev.request_id is None:
            with self._pending_lock:
                sinks = list(self._listeners.values())
            for fn in sinks:
                try:
                    fn(ev)
                except Exception:  # noqa: BLE001 — listener bug ≠ reader death
                    pass
            return
        with self._pending_lock:
            sink = self._event_sinks.get(ev.request_id)
        if sink is not None:
            try:
                sink(ev)
            except Exception:  # noqa: BLE001
                pass

    def _handle_reply(self, reply: Dict) -> None:
        rid = reply.get("id")
        with self._pending_lock:
            future = self._pending.pop(rid, None)
            op = self._ops.pop(rid, None)
            had_sink = self._event_sinks.pop(rid, None) is not None
            if had_sink:
                # Only streaming requests read the terminal seq back;
                # recording it for every reply would leak the map.
                self._reply_seq[rid] = reply.get("seq")
        if future is None or future.done():
            return
        if reply.get("ok"):
            future.set_result(reply.get("result"))
        else:
            future.set_exception(
                _error_from(op, reply.get("error") or {})
            )

    def _fail_pending(self, why: str) -> None:
        with self._pending_lock:
            pending, self._pending = dict(self._pending), {}
            self._ops.clear()
            self._event_sinks.clear()
        for future in pending.values():
            if not future.done():
                future.set_exception(PedRequestError("connection", why))

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def submit(
        self,
        op: str,
        *,
        stream: bool = False,
        on_event: Optional[Callable[[ServerEvent], None]] = None,
        **params,
    ) -> "PendingReply":
        """Send one request; returns a handle resolving to its result.

        ``stream=True`` (implied by ``on_event``) opts the request into
        server-push events; ``on_event`` receives each
        :class:`ServerEvent` on the reader thread.
        """

        rid = params.pop("id", None)
        if rid is None:
            rid = next(self._ids)
        if on_event is not None:
            stream = True
        req = {"id": rid, "op": op, **params}
        if stream:
            req["stream"] = True
        future: Future = Future()
        with self._pending_lock:
            self._pending[rid] = future
            self._ops[rid] = op
            if on_event is not None:
                self._event_sinks[rid] = on_event
        try:
            with self._write_lock:
                self._write_envelope(req)
        except (BrokenPipeError, ValueError, OSError) as exc:
            with self._pending_lock:
                self._pending.pop(rid, None)
                self._ops.pop(rid, None)
                self._event_sinks.pop(rid, None)
            raise ServerUnavailableError(f"send failed: {exc}")
        return PendingReply(self, rid, future)

    def _write_envelope(self, req: Dict) -> None:
        """Send one request under the held write lock."""

        data = self._codec.encode(req)
        self._wfile.write(data if self._wbinary else data.decode("utf-8"))
        self._wfile.flush()

    def request(self, op: str, *, wait: Optional[float] = 30.0, **params):
        """Send one request and wait for its result (or raise)."""

        return self.submit(op, **params).result(wait)

    def negotiate_frames(self, wait: Optional[float] = 30.0) -> bool:
        """Move the connection onto plain frames; True on success.

        Returns False — and the connection stays on JSON lines, fully
        usable — when the transport is text-level or the server refuses
        (``bad-request`` from a server that predates this rung's mode,
        ``unknown-op`` from one older still).
        """

        return self._negotiate(protocol.FRAMES_OP, protocol.FRAMES, wait)

    def negotiate_compression(self, wait: Optional[float] = 30.0) -> bool:
        """Climb to one deflate stream per direction; True on success.

        Negotiates frames first when needed — the ladder is strictly
        ``frames`` → ``compress``.  Returns False (connection fully
        usable at whatever rung it reached) when the transport is
        text-level or the server refuses.
        """

        return self.negotiate_frames(wait) and self._negotiate(
            protocol.COMPRESS_OP, protocol.COMPRESS, wait
        )

    def _negotiate(self, op: str, rung: str, wait: Optional[float]) -> bool:
        """One rung.  The write lock is held across the exchange: the
        request must be the last envelope this side sends on the old
        rung, so concurrent submitters block for one round trip and then
        come out on the new one."""

        if self._codec.reached(rung):
            return True
        if not self._codec.binary:
            return False
        rid = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            self._pending[rid] = future
            self._ops[rid] = op
        with self._write_lock:
            try:
                self._write_envelope(self._codec.ask(op, rid))
            except (BrokenPipeError, ValueError, OSError) as exc:
                with self._pending_lock:
                    self._pending.pop(rid, None)
                    self._ops.pop(rid, None)
                raise ServerUnavailableError(f"send failed: {exc}")
            try:
                future.result(wait)
            except PedRequestError:
                return False
            # The reader switched the codec before resolving the future.
            return self._codec.reached(rung)

    def stream(
        self, op: str, *, wait: Optional[float] = 60.0, **params
    ) -> Iterator[ServerEvent]:
        """Send a streaming request; yield its events as they arrive.

        The final yielded item is a synthetic ``result`` event whose
        ``data`` is the terminal reply's result and whose ``seq`` is the
        reply's sequence id (always greater than every event's — the
        protocol guarantee).  A structured error reply raises
        :class:`PedRequestError` instead of yielding ``result``.
        """

        events: "queue.Queue" = queue.Queue()
        pending = self.submit(
            op, stream=True, on_event=events.put, **params
        )
        pending._future.add_done_callback(lambda _f: events.put(_DONE))
        while True:
            item = events.get(timeout=wait)
            if item is _DONE:
                # Drain events that raced the terminal reply.
                while True:
                    try:
                        late = events.get_nowait()
                    except queue.Empty:
                        break
                    if late is not _DONE:
                        yield late
                result = pending.result(0)
                with self._pending_lock:
                    seq = self._reply_seq.pop(pending.id, None)
                yield ServerEvent(
                    kind="result",
                    data=result,
                    seq=seq,
                    request_id=pending.id,
                )
                return
            yield item

    # ------------------------------------------------------------------
    # corpus batch convenience wrappers
    # ------------------------------------------------------------------

    def corpus_submit(
        self,
        programs,
        *,
        job: Optional[str] = None,
        wait: bool = False,
        timeout: Optional[float] = 300.0,
        **params,
    ):
        """Submit ``{name: source}`` (or ``[(name, source), ...]``)
        programs as one corpus batch; ``wait=True`` blocks until the
        whole batch is analyzed."""

        if isinstance(programs, dict):
            programs = sorted(programs.items())
        payload = [
            {"name": name, "source": source} for name, source in programs
        ]
        if job is not None:
            params["job"] = job
        if wait:
            params["wait"] = True
        return self.submit(
            "corpus.submit", programs=payload, **params
        ).result(timeout)

    def corpus_status(self, job: str):
        return self.request("corpus.status", job=job)

    def corpus_query(self, job: str, aggregate: str):
        """One fleet-wide rollup (``summary``, ``obstacles``, ``tiers``
        or ``transforms``) over a corpus job's finished results."""

        return self.request("corpus.query", job=job, aggregate=aggregate)

    def corpus_results(self, job: str):
        """The raw per-program result records of one corpus job."""

        return self.request("corpus.results", job=job)

    # -- event-sourced session ops (protocol v7) ------------------------

    def session_log(
        self,
        session: str,
        start: int = 0,
        count: Optional[int] = None,
        wait: Optional[float] = 30.0,
    ):
        """A page of the session's mutation journal (live or persisted)."""

        req = {"session": session, "start": start}
        if count is not None:
            req["count"] = count
        return self.request("session.log", wait=wait, **req)

    def session_replay(
        self,
        session: str,
        upto: Optional[int] = None,
        wait: Optional[float] = 120.0,
    ):
        """Rebuild the session's state at journal record ``upto`` (all
        records when omitted) and return its analysis fingerprint."""

        req = {"session": session}
        if upto is not None:
            req["upto"] = upto
        return self.request("session.replay", wait=wait, **req)

    def session_restore(
        self,
        session: str,
        replace: bool = False,
        wait: Optional[float] = 120.0,
    ):
        """Resurrect a session from its journal persisted on the server."""

        req = {"session": session}
        if replace:
            req["replace"] = True
        return self.request("session.restore", wait=wait, **req)

    def cancel(self, target) -> None:
        """Ask the server to cancel request ``target`` (fire and forget)."""

        self.submit("cancel", target=target)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            with self._write_lock:
                self._wfile.close()
        except (OSError, ValueError):
            pass
        if self._on_close is not None:
            self._on_close()
        self._fail_pending("client closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PendingReply:
    """Handle for one in-flight request."""

    def __init__(self, client: PedClient, rid, future: Future) -> None:
        self.client = client
        self.id = rid
        self._future = future

    def result(self, timeout: Optional[float] = 30.0):
        return self._future.result(timeout=timeout)

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> None:
        """Request server-side cancellation of this call."""

        self.client.cancel(self.id)
