"""The Ped wire protocol: envelopes, sequence ids and the wire codec.

Transport-agnostic half of the session server.  Everything that crosses
a connection is an *envelope* — a JSON object — carried on one of three
*rungs*: JSON lines (the default every peer speaks), length-prefixed
frames, or those frames inside one deflate stream per direction (see
*Wire rungs* below).  An envelope is one of three shapes:

* **Request** (client → server)::

      {"id": ..., "op": ..., "session": ..., "stream": true?, ...params}

  ``id`` is the client's correlation key (any JSON scalar).  A request
  carrying ``"stream": true`` opts into server-push events before its
  terminal reply.

* **Reply** (server → client, terminal — exactly one per request)::

      {"id": ..., "ok": true,  "seq": N, "result": {...}}
      {"id": ..., "ok": false, "seq": N, "error": {"type": ..., "message": ...}}

* **Event** (server → client, zero or more, only for streaming requests
  and broadcasts)::

      {"id": ..., "event": "analysis.progress", "seq": N, "data": {...}}

  ``id`` names the originating request, or is ``null`` for connection-
  wide broadcasts (``invalidation``).  Event kinds: ``analysis.progress``
  (one per pipeline phase / per analyzed unit, and — for a streaming
  ``corpus.submit`` — one ``corpus.program`` record per finished corpus
  program) and ``invalidation`` (an edit in one session dirtied records
  another session holds).

**Ordering.**  Every outbound envelope carries ``seq``, a per-connection
monotonic sequence id assigned at write time: within one connection,
``seq`` strictly increases in wire order, and all events of a request
precede its terminal reply (events are written synchronously by the
request's handler; the reply is written after the handler returns).
Replies to *different* requests may interleave freely — ``id`` is the
correlation key, ``seq`` the total order.

**Framing errors.**  :func:`parse_request` turns a raw line into a
request dict or raises :class:`ProtocolError` with a structured error
type the transport can answer with directly: ``bad-request`` (malformed
JSON, non-object payload) or ``payload-too-large`` (line over the
server's byte limit; the request id is recovered when possible so the
error still correlates).  Error types emitted across the protocol:
``bad-request``, ``payload-too-large``, ``unknown-op``,
``unknown-session``, ``session-exists``, ``ped-error``, ``timeout``,
``cancelled``, ``shutting-down``, ``shard-lost`` (a fleet router lost
the shard holding the request's key mid-flight and ran out of retries)
and ``internal``.

**Memo gossip payloads.**  The cross-shard memo exchange (``memo.pull``
/ ``memo.push``) moves shared pair-test memo entries — nested tuples of
JSON scalars — over the wire; :func:`encode_memo_entries` /
:func:`decode_memo_entries` are the canonical tuple↔list codecs, so a
pulled entry pushed to a sibling shard round-trips to the exact key the
memo indexes on.

**Wire rungs (v8).**  A connection starts on JSON lines.  A client may
climb two rungs, each negotiated by an inline request that the
transport answers itself (it never reaches the session host):

* ``{"op": "frames", "mode": "plain"}`` — every envelope becomes one
  *frame*: a 4-byte big-endian length, one kind byte (always ``0``),
  then the envelope's JSON bytes; the length counts the kind byte and
  the JSON.  There is no other frame kind and no cross-frame state.
* ``{"op": "compress", "mode": "deflate"}`` — valid only once frames
  are on.  The same frame bytes then run through one raw-deflate stream
  per direction of the connection, with one ``Z_SYNC_FLUSH`` per socket
  write, so every write is decodable on arrival and each envelope
  compresses against everything the connection carried before it (the
  design of WebSocket permessage-deflate with context takeover,
  RFC 7692).

The ok reply (``{"frames": "plain"}`` / ``{"compress": "deflate"}``)
is the last envelope the server writes on the old rung, and the
request the last one the client writes on it, so both directions switch
at a known byte.  A peer that does not know the op or the mode — a v7
server says ``bad-request`` to these mode strings, an older one
``unknown-op`` — answers with an error and both sides stay where they
were.

:class:`WireCodec` is the whole of it, I/O-free: one per connection
end, used by the threaded server, the asyncio transport and the client.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from typing import Dict, List, Optional

#: Protocol/feature revision, echoed by ``ping``.  v2: streaming events,
#: ``seq`` stamps, ``metrics``/``fingerprint`` ops, structured framing
#: errors (``payload-too-large``).  v3: pipeline-graph ops
#: (``graph.describe``, ``graph.last``, ``graph.plan``) and corpus batch
#: ops (``corpus.submit``, ``corpus.status``, ``corpus.query``) with
#: per-program ``analysis.progress`` events.  v4: fleet serving —
#: ``corpus.results``, memo gossip ops (``memo.pull``, ``memo.push``),
#: ``server.connections.*``/``server.uptime_s`` gauges in ``metrics``
#: and the ``shard-lost`` error type.  v5 and v6: delta frames, then
#: dictionary-seeded compression with event coalescing.  v7: event-sourced
#: sessions — ``session.log`` (paged journal read), ``session.replay``
#: (rebuild the session at record N with streamed ``journal.replay``
#: progress) and ``session.restore`` (resurrect a killed server's
#: session from its persisted journal), plus the ``journal.*`` counters
#: in ``metrics``.  v8: the v5/v6 wire layers give way to plain frames
#: and one deflate stream per direction (``frames`` mode ``plain``,
#: ``compress`` mode ``deflate``).  The envelope grammar itself is
#: unchanged since v2, so v3 clients interoperate with v8 servers (the
#: wire rungs and journal ops are strictly opt-in).
PROTOCOL_VERSION = 8

#: Default cap on one request line; oversized requests get a structured
#: ``payload-too-large`` error instead of an ad-hoc disconnect.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

# Error types (the closed set the protocol may emit).
BAD_REQUEST = "bad-request"
PAYLOAD_TOO_LARGE = "payload-too-large"
UNKNOWN_OP = "unknown-op"
UNKNOWN_SESSION = "unknown-session"
SESSION_EXISTS = "session-exists"
PED_ERROR = "ped-error"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
SHUTTING_DOWN = "shutting-down"
SHARD_LOST = "shard-lost"
INTERNAL = "internal"

# Event kinds.
EV_PROGRESS = "analysis.progress"
EV_INVALIDATION = "invalidation"


class ProtocolError(Exception):
    """A framing-level error with a structured ``type`` and, when it
    could be recovered from the offending line, the request ``id``.
    ``fatal`` marks an error after which the stream cannot be read on."""

    fatal = False

    def __init__(self, etype: str, message: str, request_id=None) -> None:
        super().__init__(message)
        self.type = etype
        self.request_id = request_id


class Sequencer:
    """Thread-safe monotonic counter: one per connection, stamping every
    outbound envelope so clients can assert total wire order."""

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._n += 1
            return self._n


def parse_request(
    line: str,
    max_bytes: int = MAX_REQUEST_BYTES,
    size: Optional[int] = None,
) -> Dict:
    """One raw line → a request dict, or :class:`ProtocolError`.

    ``size`` is the line's wire byte length when the transport already
    knows it (every byte-oriented transport does — it decoded the line
    from those bytes).  Without it the cap is enforced from the
    character count: a line of ``n`` characters occupies at most ``4n``
    UTF-8 bytes, so only lines within a factor 4 of the cap pay for a
    measuring re-encode — the old unconditional per-request copy was
    the service hot path's single biggest allocation.

    Oversized lines are rejected *after* a best-effort id recovery so
    the structured error still correlates with the client's request.
    """

    if size is None:
        n = len(line)
        if n * 4 <= max_bytes:
            size = n
        else:
            size = len(line.encode("utf-8", errors="replace"))
    if size > max_bytes:
        raise ProtocolError(
            PAYLOAD_TOO_LARGE,
            f"request over the {max_bytes}-byte limit",
            request_id=_recover_id(line),
        )
    try:
        req = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(BAD_REQUEST, f"bad JSON: {exc}")
    if not isinstance(req, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    return req


def _recover_id(line: str):
    """The ``id`` of a request we are about to reject, if parseable."""

    try:
        req = json.loads(line)
        if isinstance(req, dict):
            rid = req.get("id")
            if isinstance(rid, (str, int, float)) or rid is None:
                return rid
    except ValueError:
        pass
    return None


# ----------------------------------------------------------------------
# envelope builders (the transport stamps ``seq`` at write time)
# ----------------------------------------------------------------------


def reply_ok(rid, result) -> Dict:
    return {"id": rid, "ok": True, "result": result}


def reply_error(rid, etype: str, message: str) -> Dict:
    return {
        "id": rid,
        "ok": False,
        "error": {"type": etype, "message": message},
    }


def event_envelope(rid, kind: str, data: Optional[Dict] = None) -> Dict:
    return {"id": rid, "event": kind, "data": data or {}}


def encode(envelope: Dict) -> str:
    """One envelope → its wire line (no trailing newline)."""

    return json.dumps(envelope, sort_keys=True)


def is_event(envelope: Dict) -> bool:
    return "event" in envelope


def is_reply(envelope: Dict) -> bool:
    return "ok" in envelope and "event" not in envelope


# ----------------------------------------------------------------------
# the wire codec: JSON lines, frames, one deflate stream per direction
# ----------------------------------------------------------------------

#: The negotiation ops a transport answers inline, and the one mode
#: string each accepts.
FRAMES_OP = "frames"
COMPRESS_OP = "compress"
FRAMES_MODE = "plain"
COMPRESS_MODE = "deflate"

#: The three rungs, in climbing order.
JSON, FRAMES, COMPRESS = "json", "frames", "compress"
_RANK = {JSON: 0, FRAMES: 1, COMPRESS: 2}
_RUNG_OF = {
    FRAMES_OP: (FRAMES_MODE, FRAMES),
    COMPRESS_OP: (COMPRESS_MODE, COMPRESS),
}

#: zlib level of the per-connection deflate stream (6: zlib's default).
COMPRESS_LEVEL = 6

#: The only frame kind: the envelope's JSON follows the kind byte.
FRAME_JSON = 0

#: Slack past the size cap still buffered on JSON lines, so a line a
#: little over the limit arrives whole and its error keeps the id; a
#: longer one is answered at once and discarded as it streams in.
LINE_SLACK = 64 * 1024

_HEAD = struct.Struct(">IB")


class WireCodec:
    """One end of one connection: rung, ``seq`` stamps, encoding,
    decoding and ``net.*`` accounting, with no I/O of its own.

    The caller serializes :meth:`encode` calls and writes each result as
    one socket write, in call order; it feeds received bytes to
    :meth:`feed` and pulls envelopes with :meth:`next`.  A server codec
    (``client=False``) stamps ``seq`` on every envelope it encodes and
    answers negotiation requests through :meth:`negotiate`; a client
    codec builds them with :meth:`ask` and switches when :meth:`next`
    reads the ok reply.  ``binary=False`` marks a text-only transport,
    which stays on JSON lines.

    Bytes fed and written are counted in :attr:`bytes_in` and
    :attr:`bytes_out`.  When ``stats`` is given, they are bumped into
    its ``net.bytes_in`` / ``net.bytes_out`` counters too, with
    ``net.bytes_out_raw`` (what the written traffic would have cost
    uncompressed) and ``net.flushes`` (one per :meth:`encode`).
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_REQUEST_BYTES,
        *,
        stats=None,
        binary: bool = True,
        client: bool = False,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.stats = stats
        self.binary = binary
        self.client = client
        #: Outbound rung; the inbound one switches at its own byte.
        self.mode = JSON
        self._in = JSON
        self._seq = Sequencer()
        #: Server: (reply, rung) pairs — the outbound rung switches
        #: right after that reply is encoded.
        self._switches: List = []
        #: Client: (id, op, mode) of the negotiation in flight.
        self._asked = None
        self._deflater = None
        self._inflater = None
        #: Received bytes on JSON lines and frames; inflated bytes once
        #: compressed, with the compressed input left in ``_ztail``.
        self._buf = bytearray()
        self._ztail = b""
        self._scan = 0
        self._discarding = False
        self._skip = 0
        self._broken = False
        self.bytes_in = 0
        self.bytes_out = 0

    def reached(self, rung: str) -> bool:
        return _RANK[self.mode] >= _RANK[rung]

    # -- outbound ------------------------------------------------------

    def encode(self, *envelopes: Dict) -> bytes:
        """Envelopes → the bytes of one socket write (one sync flush)."""

        out = []
        raw = 0
        deflated = False
        for env in envelopes:
            if not self.client:
                env["seq"] = self._seq.next()
            body = json.dumps(env, sort_keys=True).encode("utf-8")
            if self.mode == JSON:
                data = body + b"\n"
            else:
                data = _HEAD.pack(len(body) + 1, FRAME_JSON) + body
            raw += len(data)
            if self.mode == COMPRESS:
                out.append(self._deflater.compress(data))
                deflated = True
            else:
                out.append(data)
            if self._switches and env is self._switches[0][0]:
                self._set_out(self._switches.pop(0)[1])
        if deflated:
            out.append(self._deflater.flush(zlib.Z_SYNC_FLUSH))
        data = b"".join(out)
        self.bytes_out += len(data)
        if self.stats is not None:
            self.stats.bump("net.bytes_out", len(data))
            self.stats.bump("net.bytes_out_raw", raw)
            self.stats.bump("net.flushes")
        return data

    def _set_out(self, rung: str) -> None:
        if rung == COMPRESS:
            self._deflater = zlib.compressobj(
                COMPRESS_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS
            )
        self.mode = rung

    # -- negotiation ---------------------------------------------------

    def negotiate(self, req: Dict) -> Dict:
        """Server side: the reply to a ``frames``/``compress`` request.

        On acceptance the inbound rung switches now — the request was
        the peer's last envelope on the old rung — and the outbound one
        once the returned reply has been encoded.
        """

        rid, op, mode = req.get("id"), req.get("op"), req.get("mode")
        want, rung = _RUNG_OF[op]
        if mode != want:
            return reply_error(
                rid, BAD_REQUEST, f"unknown {op} mode {mode!r}"
            )
        if not self.binary:
            return reply_error(
                rid, BAD_REQUEST, "transport cannot carry binary frames"
            )
        if rung == COMPRESS and self._in == JSON:
            return reply_error(
                rid,
                BAD_REQUEST,
                "compress requires binary frames (negotiate frames first)",
            )
        reply = reply_ok(rid, {op: mode})
        if _RANK[self._in] < _RANK[rung]:
            self._set_in(rung)
            self._switches.append((reply, rung))
        return reply

    def ask(self, op: str, rid) -> Dict:
        """Client side: the negotiation request for ``op``.  Both
        directions switch when :meth:`next` reads its ok reply; the
        caller writes nothing else until then."""

        self._asked = (rid, op, _RUNG_OF[op][0])
        return {"id": rid, "op": op, "mode": _RUNG_OF[op][0]}

    def _answered(self, env: Dict) -> None:
        rid, op, mode = self._asked
        if env.get("id") != rid or "event" in env:
            return
        self._asked = None
        rung = _RUNG_OF[op][1]
        if (
            env.get("ok")
            and (env.get("result") or {}).get(op) == mode
            and _RANK[self._in] < _RANK[rung]
        ):
            self._set_in(rung)
            self._set_out(rung)

    def _set_in(self, rung: str) -> None:
        if rung == COMPRESS:
            # Whatever followed the switch point is compressed input.
            self._inflater = zlib.decompressobj(-zlib.MAX_WBITS)
            self._ztail = bytes(self._buf)
            self._buf.clear()
        self._in = rung

    # -- inbound -------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self.bytes_in += len(data)
        if self.stats is not None:
            self.stats.bump("net.bytes_in", len(data))
        if self._in == COMPRESS:
            self._ztail = self._ztail + data if self._ztail else data
        else:
            self._buf += data

    def next(self) -> Optional[Dict]:
        """The next inbound envelope, ``None`` until one is complete.

        Raises :class:`ProtocolError` for a bad line or frame, which has
        already been skipped, so the caller answers it and reads on.
        An error with ``fatal`` set (a corrupt deflate stream, which
        cannot be resynchronized) means the connection must close.
        """

        if self._broken:
            return None
        env = self._next_line() if self._in == JSON else self._next_frame()
        if env is not None and self._asked is not None:
            self._answered(env)
        return env

    def _next_line(self) -> Optional[Dict]:
        buf = self._buf
        while True:
            nl = buf.find(b"\n", self._scan)
            if nl < 0:
                if self._discarding:
                    buf.clear()
                    self._scan = 0
                elif len(buf) > self.max_frame_bytes + LINE_SLACK:
                    buf.clear()
                    self._scan = 0
                    self._discarding = True
                    raise ProtocolError(
                        PAYLOAD_TOO_LARGE,
                        f"request over the {self.max_frame_bytes}-byte limit",
                    )
                else:
                    self._scan = len(buf)
                return None
            line = bytes(buf[:nl])
            del buf[: nl + 1]
            self._scan = 0
            if self._discarding:
                self._discarding = False
                continue
            if line.strip():
                return parse_request(
                    line.decode("utf-8", errors="replace"),
                    self.max_frame_bytes,
                    size=len(line),
                )

    def _next_frame(self) -> Optional[Dict]:
        buf = self._buf
        if self._skip and not self._drop():
            return None
        if not self._fill(4):
            return None
        (length,) = struct.unpack_from(">I", buf)
        # The cap bounds the JSON, so a maximal JSON-lines request
        # still fits its frame.
        if length > self.max_frame_bytes + 1:
            del buf[:4]
            self._skip = length
            self._drop()
            raise ProtocolError(
                PAYLOAD_TOO_LARGE,
                f"frame over the {self.max_frame_bytes}-byte limit",
            )
        if not self._fill(4 + length):
            return None
        kind = buf[4] if length else None
        body = bytes(buf[5 : 4 + length])
        del buf[: 4 + length]
        if kind != FRAME_JSON:
            raise ProtocolError(BAD_REQUEST, f"frame kind {kind} is not 0")
        try:
            env = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(BAD_REQUEST, f"bad JSON in frame: {exc}")
        if not isinstance(env, dict):
            raise ProtocolError(
                BAD_REQUEST, "frame body must be a JSON object"
            )
        return env

    def _fill(self, n: int) -> bool:
        """Make ``n`` bytes available in ``_buf``; False while short.

        Compressed input inflates at most until ``_buf`` holds one
        maximal frame, so nothing inflates past the size cap.
        """

        buf = self._buf
        room = self.max_frame_bytes + 5
        while len(buf) < n and self._in == COMPRESS:
            chunk = self._inflate(room - len(buf))
            if not chunk:
                break
            buf += chunk
        return len(buf) >= n

    def _inflate(self, limit: int) -> bytes:
        try:
            out = self._inflater.decompress(self._ztail, limit)
        except zlib.error as exc:
            raise self._fatal(f"corrupt deflate stream: {exc}")
        self._ztail = self._inflater.unconsumed_tail
        if self._inflater.eof:
            raise self._fatal("deflate stream ended")
        return out

    def _fatal(self, message: str) -> ProtocolError:
        self._broken = True
        self._buf.clear()
        self._ztail = b""
        err = ProtocolError(BAD_REQUEST, message)
        err.fatal = True
        return err

    def _drop(self) -> bool:
        """Discard the rest of an oversized frame; True once it is gone."""

        buf = self._buf
        n = min(self._skip, len(buf))
        del buf[:n]
        self._skip -= n
        while self._skip and self._in == COMPRESS:
            n = len(self._inflate(min(self._skip, self.max_frame_bytes)))
            if not n:
                break
            self._skip -= n
        return not self._skip


# ----------------------------------------------------------------------
# memo gossip payloads (tuple-keyed memo entries over JSON)
# ----------------------------------------------------------------------


def _to_wire(value):
    if isinstance(value, tuple):
        return [_to_wire(v) for v in value]
    return value


def _from_wire(value):
    if isinstance(value, list):
        return tuple(_from_wire(v) for v in value)
    return value


def encode_memo_entries(entries: Dict) -> list:
    """Memo entries (tuple keys and values) → a JSON-safe pair list."""

    return [[_to_wire(k), _to_wire(v)] for k, v in entries.items()]


def decode_memo_entries(payload) -> Dict:
    """The inverse of :func:`encode_memo_entries`; raises
    :class:`ProtocolError` on a malformed payload."""

    if not isinstance(payload, list):
        raise ProtocolError(BAD_REQUEST, "memo entries must be a list")
    out: Dict = {}
    for item in payload:
        if not isinstance(item, list) or len(item) != 2:
            raise ProtocolError(
                BAD_REQUEST, "each memo entry must be a [key, value] pair"
            )
        out[_from_wire(item[0])] = _from_wire(item[1])
    return out
