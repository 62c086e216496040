"""Warm-start persistence for the incremental analysis engine.

Four record families, all content-addressed into a :class:`DiskCache`:

* **Span records** (``span:<digest>``) — the bound units of one source
  span, stored with a *binding guard*: the set of names the span's
  units reference plus the subset of those that were program-level
  functions at bind time.  Name resolution consults the global unit set
  only to ask "is this name a function unit?", so a record is
  admissible in *any* program that answers that question identically
  for every recorded name — including programs never seen before that
  merely share the procedure body.  The engine validates the guard
  after assembling the whole unit set and reparses any span that
  fails.  Within that guard a span digest fully determines the parse,
  so records survive across sessions, across unrelated edits elsewhere
  in the file, and across sibling programs.
* **Unit-summary records** (``usum:<digest of (features, name, span,
  callee keys)>``) — one unit's bottom-up summary values (MOD/REF,
  kill, sections), keyed recursively on the unit's span digest and its
  callees' keys, so a cold open of a never-seen program still reuses
  summaries for any call subtree it shares with a prior session.
* **Shared-memo record** (``memo:shared-pair-memo``) — the program-
  scoped pair-test memo (:class:`~repro.dependence.hierarchy.
  SharedPairMemo` entries).  Keys embed the oracle digest, nest depth
  and PARAMETER slice, so one global record safely warms *different*
  programs that repeat the same canonical subscript shapes.
* **Program records** (``prog:<digest of (features, source,
  assertions)>``) — the engine's complete cache state for one analyzed
  program: span entries, the four summary families with their revision
  counters, the per-unit dependence entries with their pristine marking
  snapshots, and the change-detection baseline.  Everything is pickled
  in one stream, so the aliasing invariant (a cached ``UnitAnalysis``
  references the same AST objects as the cached spans) survives the
  round trip.  Loading one on a cold engine makes the next ``analyze``
  a pure cache walk — the warm start the benchmarks measure.  Only a
  cold engine ever loads one, so the engine writes one only after an
  analysis that began cold and when its session closes, never per
  edit: the record is megabytes for a mid-sized program, and one per
  edited text would both dominate the edit's latency and crowd span
  and summary records out of the LRU-bounded store.

The digests mirror the engine's own content keys, so a record can never
be served for content it was not computed from; anything else (format
drift, truncation, corruption) is the :class:`DiskCache`'s problem and
degrades to a cold analysis.

Next to the content-addressed records, the store also keeps one
**session journal file** per named session (``<root>/journal/``, outside
the ``.pkl`` eviction walk like ``locks/``): an append-only JSON-lines
log — a format-stamped header line followed by one mutation record per
line — that a :class:`~repro.service.session_host.PedServer` streams
every session mutation into.  Appends flush to the kernel page cache,
so the log survives a SIGKILL of the server process, and
``session.restore`` rebuilds the live session by replaying it.  The
loader follows the cache's degradation philosophy: a truncated trailing
line (the append the crash interrupted) is dropped with a warning, and
any other corruption or format drift logs and falls back cold
(``None`` — the session just isn't restorable).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .diskcache import DiskCache

log = logging.getLogger(__name__)

SPAN_KIND = "span"
PROG_KIND = "prog"
USUM_KIND = "usum"
MEMO_KIND = "memo"
#: The shared pair-test memo is one global record: its keys are fully
#: content-addressed (oracle digest + canonical pair form + PARAMETER
#: slice), so every program reads and extends the same table.
MEMO_KEY = "shared-pair-memo"


#: Bump when the journal file layout (header/line grammar) changes
#: incompatibly; the loader refuses mismatched files and falls back cold.
JOURNAL_FORMAT_VERSION = 1
JOURNAL_MAGIC = "ped-journal"


def features_digest(features) -> str:
    payload = repr(sorted(asdict(features).items()))
    return hashlib.sha1(payload.encode()).hexdigest()


class JournalFile:
    """One session's durable, append-only mutation journal.

    Layout: a header line ``{"magic", "format", "session", "base"}``
    followed by one JSON mutation record (wire form, see
    :mod:`repro.editor.journal`) per line.  :meth:`append` writes and
    flushes one line, so every acknowledged mutation is in the kernel
    page cache before the reply leaves the server — a SIGKILL loses at
    most the record being written, which :meth:`load` then drops as a
    truncated tail.
    """

    def __init__(self, path: Path, session: str, stats=None) -> None:
        self.path = Path(path)
        self.session = session
        self.stats = stats
        self._fh = None

    # -- writing --------------------------------------------------------

    def reset(self, base_source: str) -> None:
        """Start a fresh journal (atomic header swap), ready to append."""

        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "magic": JOURNAL_MAGIC,
                "format": JOURNAL_FORMAT_VERSION,
                "session": self.session,
                "base": base_source,
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def open_append(self) -> None:
        """Attach to an existing journal without rewriting it (the
        restore path: the file already holds the replayed records)."""

        self.close()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record_wire: Dict) -> None:
        if self._fh is None:  # pragma: no cover - misuse guard
            raise RuntimeError("journal file is not open for appends")
        line = json.dumps(record_wire, separators=(",", ":"), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.stats is not None:
            self.stats.bump("journal.records")
            self.stats.bump("journal.bytes", len(line) + 1)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # -- reading --------------------------------------------------------

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Optional[Dict]:
        """The persisted journal in wire form (``{"version", "base",
        "records"}``), or ``None`` (missing/corrupt — logged, cold)."""

        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning(
                "journal for %r unreadable (%s); falling back cold",
                self.session,
                exc,
            )
            return None
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            log.warning(
                "journal for %r is empty; falling back cold", self.session
            )
            return None
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if (
            not isinstance(header, dict)
            or header.get("magic") != JOURNAL_MAGIC
            or not isinstance(header.get("base"), str)
        ):
            log.warning(
                "journal for %r has a corrupt header; falling back cold",
                self.session,
            )
            return None
        if header.get("format") != JOURNAL_FORMAT_VERSION:
            log.warning(
                "journal for %r is format v%r (this build reads v%d); "
                "falling back cold",
                self.session,
                header.get("format"),
                JOURNAL_FORMAT_VERSION,
            )
            return None
        records: List[Dict] = []
        for i, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except ValueError:
                if i == len(lines):
                    # The append a crash interrupted: drop it, keep the rest.
                    log.warning(
                        "journal for %r has a truncated trailing record "
                        "(line %d); dropping it",
                        self.session,
                        i,
                    )
                    break
                log.warning(
                    "journal for %r is corrupt at line %d; "
                    "falling back cold",
                    self.session,
                    i,
                )
                return None
            if not isinstance(record, dict):
                log.warning(
                    "journal for %r line %d is not a record object; "
                    "falling back cold",
                    self.session,
                    i,
                )
                return None
            records.append(record)
        return {"version": 1, "base": header["base"], "records": records}


class PersistentStore:
    """The engine's view of the on-disk cache."""

    def __init__(self, cache: DiskCache) -> None:
        self.cache = cache

    @classmethod
    def at(cls, path, max_bytes: int = 256 * 1024 * 1024, stats=None):
        return cls(DiskCache(path, max_bytes=max_bytes, stats=stats))

    @property
    def stats(self):
        return self.cache.stats

    @stats.setter
    def stats(self, value) -> None:
        self.cache.stats = value

    # -- span records ---------------------------------------------------

    def load_span(
        self, digest: str
    ) -> Optional[Tuple[Tuple[frozenset, frozenset], List[object]]]:
        """``(binding_guard, bound_units)`` for one span, or ``None``.

        The guard is ``(referenced_names, function_names)``: the record
        is admissible in any program where exactly the names in
        ``function_names`` (and no other referenced name) are function
        units.
        """

        payload = self.cache.get(SPAN_KIND, digest)
        if not isinstance(payload, dict):
            return None
        names = payload.get("names")
        funcs = payload.get("functions")
        units = payload.get("units")
        if (
            not isinstance(names, frozenset)
            or not isinstance(funcs, frozenset)
            or not isinstance(units, list)
        ):
            return None
        return (names, funcs), units

    def save_span(
        self,
        digest: str,
        guard: Tuple[frozenset, frozenset],
        units: List[object],
    ) -> bool:
        names, funcs = guard
        return self.cache.put(
            SPAN_KIND,
            digest,
            {
                "names": frozenset(names),
                "functions": frozenset(funcs),
                "units": units,
            },
        )

    # -- per-unit summary records ---------------------------------------

    def load_unit_summary(self, key: str) -> Optional[Dict[str, object]]:
        """``{phase: summary}`` for one content-keyed unit, or ``None``."""

        payload = self.cache.get(USUM_KIND, key)
        return payload if isinstance(payload, dict) else None

    def save_unit_summary(self, key: str, values: Dict[str, object]) -> bool:
        if self.cache.contains(USUM_KIND, key):
            return False
        return self.cache.put(USUM_KIND, key, dict(values))

    # -- shared pair-test memo ------------------------------------------

    def load_memo(self) -> Optional[Dict[tuple, tuple]]:
        """The persisted shared-memo entries, or ``None``."""

        payload = self.cache.get(MEMO_KIND, MEMO_KEY)
        return payload if isinstance(payload, dict) else None

    def save_memo(self, entries: Dict[tuple, tuple]) -> bool:
        return self.cache.put(MEMO_KIND, MEMO_KEY, dict(entries))

    # -- session journals ----------------------------------------------

    def journal(self, session: str) -> JournalFile:
        """The durable journal file for one named session.

        Files live under ``<root>/journal/`` — like ``locks/``, outside
        the ``.pkl`` eviction walk, so the LRU sweep never reaps a
        session's history — and are named by the session-name digest
        (client-chosen names are not filesystem-safe).
        """

        digest = hashlib.sha1(session.encode()).hexdigest()
        path = self.cache.root / "journal" / f"{digest}.jsonl"
        return JournalFile(path, session, stats=self.stats)

    def memo_lease(self, holder=None, ttl: float = 10.0):
        """The lease guarding read-merge-write on the singleton memo
        record — the one mutable object N processes sharing this store
        all update (see :mod:`repro.service.storelock`)."""

        return self.cache.lease("memo", holder=holder, ttl=ttl)

    # -- program records ------------------------------------------------

    def program_key(
        self,
        features,
        source: str,
        assertions: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> str:
        h = hashlib.sha1()
        h.update(features_digest(features).encode())
        h.update(b"\x00")
        h.update(source.encode())
        h.update(b"\x00")
        for name in sorted(assertions or {}):
            h.update(name.encode())
            for text in assertions[name]:
                h.update(b"\x01")
                h.update(text.encode())
            h.update(b"\x02")
        return h.hexdigest()

    def load_program(self, key: str) -> Optional[dict]:
        payload = self.cache.get(PROG_KIND, key)
        return payload if isinstance(payload, dict) else None

    def save_program(self, key: str, state: dict) -> bool:
        return self.cache.put(PROG_KIND, key, state)

    def has_program(self, key: str) -> bool:
        return self.cache.contains(PROG_KIND, key)
