"""The edit path does work that scales with the edit.

* One split per analysis: with one session an edit splits once and
  never runs the invalidation diff; with two sessions sharing units the
  diff reuses the engine's recent splits and the broadcast is
  unchanged.  ``metrics`` reports both counters.
* No program record per edit: a ``--cache-dir`` server writes the
  whole-engine program record on the cold open and on ``close``, never
  per edit, so the store stays small; the record written on close warms
  a fresh server's reopen of the edited text.
* Summary early cutoff: an edit that leaves a routine's summaries equal
  recomputes that routine alone in each bottom-up phase; its callers are
  cut off (``summary.recomputed`` / ``summary.cutoff`` in ``metrics``).
"""

import pytest

from repro.incremental import AnalysisEngine
from repro.service import PedServer
from repro.workloads.generator import generate_program

SOURCE = generate_program(n_routines=20)


def _stencil_lines(source):
    """1-based line numbers of every ``upd<r>`` stencil statement."""

    return [
        n
        for n, line in enumerate(source.splitlines(), 1)
        if line.lstrip().startswith("x(i) = x(i) + ")
    ]


def _edit_text(k):
    return (
        f"         x(i) = x(i) + 0.0{k % 9 + 1} * (x(i+1) - x(i-1)) "
        f"- 0.00{k % 7 + 1} * x(i)"
    )


def _ok(server, **req):
    reply = server.execute(req)
    assert reply["ok"], reply
    return reply["result"]


@pytest.fixture
def count_diffs(monkeypatch):
    calls = []
    diff = AnalysisEngine.changed_units

    def counted(self, old, new):
        calls.append((old, new))
        return diff(self, old, new)

    monkeypatch.setattr(AnalysisEngine, "changed_units", counted)
    return calls


def _split_counters(server, session):
    metrics = _ok(server, op="metrics", session=session)["metrics"]
    return metrics["split.calls"], metrics["split.reused"], metrics["analyses"]


def test_lone_session_edit_splits_once_and_never_diffs(count_diffs):
    server = PedServer()
    try:
        _ok(server, op="open", session="s", source=SOURCE)
        calls0, _, analyses0 = _split_counters(server, "s")
        assert calls0 == analyses0 == 1
        line = _stencil_lines(SOURCE)[0]
        _ok(server, op="edit", session="s", start=line, end=line,
            text=_edit_text(1))
        _ok(server, op="undo", session="s")
        _ok(server, op="redo", session="s")
        calls, reused, analyses = _split_counters(server, "s")
        assert analyses == analyses0 + 3
        assert calls == calls0 + 3  # exactly one split per analysis
        assert reused >= 3  # each undo snapshot reuses the last split
        assert count_diffs == []
    finally:
        server.close()


def test_shared_units_broadcast_unchanged_with_one_split(count_diffs):
    server = PedServer()
    heard = []
    server.add_listener(lambda kind, data: heard.append((kind, data)))
    try:
        _ok(server, op="open", session="a", source=SOURCE)
        _ok(server, op="open", session="b", source=SOURCE)
        calls0, reused0, analyses0 = _split_counters(server, "a")
        line = _stencil_lines(SOURCE)[2]
        _ok(server, op="edit", session="a", start=line, end=line,
            text=_edit_text(5))
        calls, reused, analyses = _split_counters(server, "a")
        assert analyses == analyses0 + 1
        assert calls == calls0 + 1
        # Undo snapshot plus both sides of the invalidation diff.
        assert reused == reused0 + 3
        assert len(count_diffs) == 1
        assert heard == [
            (
                "invalidation",
                {
                    "session": "a",
                    "op": "edit",
                    "units": ["upd2"],
                    "holders": ["b"],
                },
            )
        ]
    finally:
        server.close()


def _records(cache_dir, kind):
    return sorted((cache_dir / kind).rglob("*.pkl"))


def _store_bytes(cache_dir):
    return sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())


def test_edits_write_no_program_records(tmp_path):
    cache_dir = tmp_path / "cache"
    server = PedServer(cache_dir=cache_dir)
    try:
        _ok(server, op="open", session="s", source=SOURCE)
        opened = _records(cache_dir, "prog")
        assert len(opened) == 1  # the cold open's record
        lines = _stencil_lines(SOURCE)
        for k in range(30):
            line = lines[k % len(lines)]
            _ok(server, op="edit", session="s", start=line, end=line,
                text=_edit_text(k))
        assert _records(cache_dir, "prog") == opened
        assert _store_bytes(cache_dir) < 10 * 1024 * 1024
    finally:
        server.close()


def test_close_writes_the_record_a_fresh_server_reopens_warm(tmp_path):
    cache_dir = tmp_path / "cache"
    first = PedServer(cache_dir=cache_dir)
    try:
        _ok(first, op="open", session="s", source=SOURCE)
        line = _stencil_lines(SOURCE)[1]
        _ok(first, op="edit", session="s", start=line, end=line,
            text=_edit_text(3))
        edited = _ok(first, op="source", session="s")["source"]
        # Session-side state the engine's caches must not keep: a
        # marking and a reclassification, both made before the close.
        deps = _ok(first, op="deps", session="s", unit="driver", loop=0)
        pending = [d for d in deps["deps"] if d["marking"] == "pending"]
        _ok(first, op="mark", session="s", dep=pending[0]["id"],
            marking="rejected")
        _ok(first, op="reclassify", session="s", unit="driver", loop=0,
            var="f0", **{"as": "private"})
        assert len(_records(cache_dir, "prog")) == 1
        _ok(first, op="close", session="s")
        assert len(_records(cache_dir, "prog")) == 2
    finally:
        first.close()

    second = PedServer(cache_dir=cache_dir)
    try:
        _ok(second, op="open", session="t", source=edited)
        stats = _ok(second, op="stats", session="t")
        assert stats["counters"]["disk.warm_start"] == 1
        misses = {
            stage: row["misses"]
            for stage, row in stats["stages"].items()
            if row["misses"]
        }
        assert misses == {}
        cold = PedServer()
        try:
            _ok(cold, op="open", session="c", source=edited)
            digest = _ok(cold, op="fingerprint", session="c")
        finally:
            cold.close()
        assert _ok(second, op="fingerprint", session="t") == digest
    finally:
        second.close()


_PHASES = ("modref", "kill", "sections", "dependence")


def _summary_state(server, session):
    metrics = _ok(server, op="metrics", session=session)["metrics"]
    stages = _ok(server, op="stats", session=session)["stages"]
    return (
        metrics["summary.recomputed"],
        metrics["summary.cutoff"],
        {p: stages[p]["misses"] for p in _PHASES},
    )


def _delta(after, before):
    return (
        after[0] - before[0],
        after[1] - before[1],
        {p: after[2][p] - before[2][p] for p in _PHASES},
    )


def test_summary_cutoff_counts_on_the_60_routine_program():
    source = generate_program(n_routines=60)
    line = _stencil_lines(source)[7]
    server = PedServer()
    try:
        _ok(server, op="open", session="s", source=source)
        cold = _summary_state(server, "s")
        # The cold open recomputes all 62 units in each of three phases.
        assert cold[:2] == (3 * 62, 0)

        _ok(server, op="edit", session="s", start=line, end=line,
            text=_edit_text(2))
        coeff = _summary_state(server, "s")
        # A coefficient edit: upd7 once per bottom-up phase; driver and
        # the main program are cut off in all three.
        assert _delta(coeff, cold) == (
            3,
            6,
            {"modref": 1, "kill": 1, "sections": 1, "dependence": 1},
        )

        _ok(server, op="edit", session="s", start=line, end=line,
            text=_edit_text(2).replace("x(i) =", "x(i+1) =", 1))
        target = _summary_state(server, "s")
        # A write-target edit moves upd7's sections summary: driver (its
        # caller) recomputes, and so does driver's dependence entry.
        assert _delta(target, coeff) == (
            4,
            5,
            {"modref": 1, "kill": 1, "sections": 2, "dependence": 2},
        )
    finally:
        server.close()
