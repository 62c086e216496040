"""Layer spans for the traced perfbench run.

:func:`install` wraps the public functions at each layer boundary of
the Ped service with a span recorder; ``launcher.py`` calls it inside
the server process before running the normal CLI ``serve`` entry.  A
span is ``{id, name, start, end, parent, trace, attrs}``: the trace id
is the protocol request id of the ``PedServer.execute`` call the span
runs under, so client and server spans of one request join on it.

Spans stay in memory and are written as one JSON file when the server
exits; :func:`self_times` and :func:`layer_totals` analyse them after
the fact.  Spans inside pool worker processes are not recorded: the
parent side of ``pool.map`` stands in for them.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class Recorder:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    @contextmanager
    def span(self, name: str, trace=None, **attrs):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace if parent is None else parent["trace"],
            "attrs": attrs,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans}, out)


def _wrap(recorder: Recorder, owner, attr: str, name: str, before=None, after=None):
    """Replace ``owner.attr`` by a spanned call.  ``before(args, kwargs)``
    returns ``(trace, attrs)``; ``after(record, result, args)`` may add
    attributes once the call returns."""

    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        trace, attrs = before(args, kwargs) if before else (None, {})
        with recorder.span(name, trace, **attrs) as record:
            result = fn(*args, **kwargs)
            if after is not None:
                after(record, result, args)
            return result

    setattr(owner, attr, spanned)


def _pickled_bytes(items: Iterable) -> int:
    return sum(len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)) for item in items)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points (see NOTES.md for the list
    and the end-to-end metric each should move)."""

    from repro import incremental
    from repro.editor.journal import SessionJournal
    from repro.editor.session import PedSession
    from repro.incremental import engine, splitter
    from repro.pipeline.corpus import CorpusRunner
    from repro.service import diskcache, persist, pool, session_host

    def request(args, kwargs):
        req = args[1] if len(args) > 1 else kwargs.get("req", {})
        return req.get("id"), {"op": req.get("op")}

    _wrap(recorder, session_host.PedServer, "execute", "host.execute", request)
    _wrap(
        recorder, engine.AnalysisEngine, "changed_units", "host.changed_units"
    )
    for op in ("edit", "undo", "redo"):
        _wrap(recorder, PedSession, op, f"session.{op}")
    _wrap(recorder, SessionJournal, "append", "journal.append")
    _wrap(recorder, persist.JournalFile, "append", "persist.journal_append")
    for attr in dir(persist.PersistentStore):
        if attr.startswith(("save_", "load_")):
            _wrap(recorder, persist.PersistentStore, attr, f"persist.{attr}")
    _wrap(recorder, diskcache.DiskCache, "put", "persist.disk_put")
    _wrap(recorder, diskcache.DiskCache, "get", "persist.disk_get")

    def edges(record, result, args):
        _sf, pa = result
        record["attrs"]["edges"] = sum(
            len(ua.graph.edges) for ua in pa.units.values()
        )

    _wrap(
        recorder, engine.AnalysisEngine, "analyze", "engine.analyze",
        after=edges,
    )

    # ``split_units`` is imported by name, so every binding is replaced.
    split = splitter.split_units

    @functools.wraps(split)
    def spanned_split(source):
        with recorder.span("split.split_units"):
            return split(source)

    for module in (splitter, engine, incremental):
        module.split_units = spanned_split

    def batch(args, kwargs):
        kind, payloads = args[1], args[2]
        return None, {"kind": kind, "tasks": len(payloads)}

    def shipped(record, result, args):
        # Process pools pickle each task out and each result back; the
        # serial pool ships nothing.
        self, kind, payloads = args[0], args[1], args[2]
        if getattr(self, "parallel", False) and len(payloads) > 1:
            record["attrs"]["payload_bytes"] = _pickled_bytes(
                (kind, p) for p in payloads
            ) + _pickled_bytes(result)

    for cls in (pool.SerialPool, pool.WorkerPool, pool.ElasticWorkerPool):
        if "map" in vars(cls):
            _wrap(recorder, cls, "map", "pool.map", batch, shipped)
    _wrap(recorder, CorpusRunner, "query", "agg.query")


# ----------------------------------------------------------------------
# analysis after the fact
# ----------------------------------------------------------------------

#: Span name prefix -> layer.  Layers nest (``engine`` holds ``split``
#: and ``pool``; ``session`` holds ``engine``), so each layer's time is
#: inclusive and shares do not add up to 100%.
LAYERS = (
    ("host.changed_units", "changed_units"),
    ("host.execute", "host"),
    ("session.", "session"),
    ("journal.", "journal"),
    ("persist.", "persist"),
    ("engine.", "engine"),
    ("split.", "split"),
    ("pool.map", "pool"),
    ("agg.", "agg"),
)


def layer_of(span: Dict) -> str:
    for prefix, layer in LAYERS:
        if span["name"].startswith(prefix):
            if layer == "pool":
                return f"pool.{span['attrs'].get('kind')}"
            return layer
    return span["name"]


def _covered(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> self seconds: its duration minus the part of its
    interval that its child spans cover."""

    children: Dict[str, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(s["id"], ())
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(inside)
    return out


def layer_totals(spans: List[Dict], traces: Optional[set] = None) -> Dict[str, Dict]:
    """Per layer: ``calls`` and inclusive ``seconds`` of its outermost
    spans (a span nested in a span of the same layer is not counted
    again), restricted to ``traces`` when given."""

    by_id = {s["id"]: s for s in spans}
    out: Dict[str, Dict] = {}
    for s in spans:
        if traces is not None and s["trace"] not in traces:
            continue
        layer = layer_of(s)
        parent = by_id.get(s["parent"])
        nested = False
        while parent is not None:
            if layer_of(parent) == layer:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if nested:
            continue
        row = out.setdefault(
            layer, {"calls": 0, "seconds": 0.0, "tasks": 0, "payload_bytes": 0}
        )
        row["calls"] += 1
        row["seconds"] += s["end"] - s["start"]
        row["tasks"] += s["attrs"].get("tasks", 0)
        row["payload_bytes"] += s["attrs"].get("payload_bytes", 0)
    return out


def load(paths: Iterable) -> List[Dict]:
    """Spans of several server processes, span ids made unique."""

    spans: List[Dict] = []
    for k, path in enumerate(paths):
        with open(path) as f:
            for s in json.load(f)["spans"]:
                s["id"] = f"{k}:{s['id']}"
                if s["parent"] is not None:
                    s["parent"] = f"{k}:{s['parent']}"
                spans.append(s)
    return spans

