"""Engine cache correctness and incrementality.

The engine's contract: after *any* sequence of edits and assertion
changes, its results equal a from-scratch ``analyze_program`` (modulo
meaningless dependence-edge ids — compared via fingerprints), while
touching only the units an edit actually dirtied.
"""

import re

import pytest

from repro.assertions.engine import AssertionDB
from repro.fortran.symbols import parse_and_bind
from repro.incremental import AnalysisEngine, program_fingerprint
from repro.interproc.program import FeatureSet, analyze_program
from repro.workloads import SUITE

THREE_UNITS = (
    "      program main\n"
    "      real x(100)\n"
    "      call init(x, 100)\n"
    "      call scale(x, 100)\n"
    "      end\n"
    "      subroutine init(a, n)\n"
    "      real a(100)\n"
    "      do i = 1, n\n"
    "         a(i) = 0.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine scale(a, n)\n"
    "      real a(100)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) * 2.0\n"
    "      enddo\n"
    "      end\n"
)


def _scratch(source, assertions=None):
    oracles = {}
    for unit, texts in (assertions or {}).items():
        db = AssertionDB()
        for text in texts:
            db.add(text)
        oracles[unit] = db
    return analyze_program(
        parse_and_bind(source), FeatureSet(), oracles_by_unit=oracles
    )


def _assert_parity(engine, source, assertions=None):
    _, pa = engine.analyze(source, assertions=assertions)
    ref = _scratch(source, assertions)
    assert program_fingerprint(pa) == program_fingerprint(ref)
    return pa


def _edit_steps(source):
    """A deterministic edit script for one program: tweak a numeric
    assignment, insert a comment mid-file (shifting every later unit),
    then revert — exercising reparse, renumber and cache-revisit paths."""

    lines = source.splitlines()
    steps = []
    for i, text in enumerate(lines):
        if (
            re.search(r"= .*[0-9]", text)
            and "do " not in text
            and "parameter" not in text
        ):
            tweaked = list(lines)
            tweaked[i] = text + " + 0.0"
            steps.append("\n".join(tweaked) + "\n")
            break
    mid = len(lines) // 2
    commented = list(lines)
    commented.insert(mid, "c incremental-engine probe")
    steps.append("\n".join(commented) + "\n")
    steps.append(source if source.endswith("\n") else source + "\n")
    return steps


@pytest.mark.parametrize("name", sorted(SUITE))
def test_engine_matches_scratch_across_edit_sequences(name):
    source = SUITE[name].source
    engine = AnalysisEngine()
    _assert_parity(engine, source)
    for step_source in _edit_steps(source):
        _assert_parity(engine, step_source)
    # Assertions enter and leave without disturbing parity.
    first_unit = parse_and_bind(source).units[0].name
    _assert_parity(engine, source, assertions={first_unit: ["n >= 1"]})
    _assert_parity(engine, source)


def test_second_analysis_is_all_hits():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    misses = {
        stage: engine.stats.stage(stage).misses
        for stage in ("parse", "modref", "kill", "sections", "ipconst", "dependence")
    }
    engine.analyze(THREE_UNITS)
    for stage, before in misses.items():
        assert engine.stats.stage(stage).misses == before, stage
    assert engine.stats.stage("parse").hits == 3
    assert engine.stats.stage("dependence").hits == 3


_STAGES = ("parse", "modref", "kill", "sections", "ipconst", "dependence")
_BOTTOM_UP = ("modref", "kill", "sections")


def _misses(engine):
    return {s: engine.stats.stage(s).misses for s in _STAGES}


def _edit_and_count(engine, source):
    """Analyze ``source``; return (analysis, stage-miss deltas, units
    whose non-recursive summary steps ran per phase, counter deltas)
    and check cold parity."""

    before = _misses(engine)
    counters = dict(engine.stats.counters)
    seen = {p: [] for p in _BOTTOM_UP}
    pool = engine.pool
    original = pool.map

    def recording(kind, payloads):
        if kind == "summary":
            for payload in payloads:
                seen[payload["phase"]].append(payload["unit"].name)
        return original(kind, payloads)

    pool.map = recording
    try:
        _, pa = engine.analyze(source)
    finally:
        pool.map = original
    delta = {s: n - before[s] for s, n in _misses(engine).items()}
    bumped = {
        k: engine.stats.counters.get(k, 0) - counters.get(k, 0)
        for k in ("summary.recomputed", "summary.cutoff")
    }
    assert program_fingerprint(pa) == program_fingerprint(_scratch(source))
    return pa, delta, seen, bumped


def test_single_unit_edit_dirties_only_its_region():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    edited = THREE_UNITS.replace("* 2.0", "* 3.0")
    _, delta, seen, bumped = _edit_and_count(engine, edited)
    assert delta["parse"] == 1
    # scale's summaries come back equal, so every bottom-up phase stops
    # at scale: main (its caller) is a hit, as is init.
    for phase in _BOTTOM_UP:
        assert delta[phase] == 1, phase
        assert seen[phase] == ["scale"], phase
    assert bumped == {"summary.recomputed": 3, "summary.cutoff": 3}
    # Top-down constants close over callees: only scale is dirty.
    assert delta["ipconst"] == 1
    # No revision bump reaches main: only scale's dependences rerun.
    assert delta["dependence"] == 1


def test_moved_section_summary_recomputes_callers():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    edited = THREE_UNITS.replace(
        "         a(i) = a(i) * 2.0", "         a(i+1) = a(i) * 2.0"
    )
    _, delta, seen, bumped = _edit_and_count(engine, edited)
    # The write target moved scale's section summary (not its MOD/REF
    # or kill summaries): only the sections phase reaches main.
    assert seen == {
        "modref": ["scale"],
        "kill": ["scale"],
        "sections": ["scale", "main"],
    }
    assert bumped == {"summary.recomputed": 4, "summary.cutoff": 2}
    # The sections revision bump reaches main's dependence entry.
    assert delta["dependence"] == 2


COMMON_UNITS = (
    "      program main\n"
    "      common /blk/ g(100)\n"
    "      call work(10)\n"
    "      call idle\n"
    "      end\n"
    "      subroutine work(n)\n"
    "      common /blk/ g(100)\n"
    "      real t(100)\n"
    "      do i = 1, n\n"
    "         t(i) = 1.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine idle\n"
    "      end\n"
)


def test_common_write_moves_summaries_up_to_main():
    engine = AnalysisEngine()
    engine.analyze(COMMON_UNITS)
    wrote = COMMON_UNITS.replace("t(i) = 1.0", "g(i) = 1.0")
    _, delta, seen, _ = _edit_and_count(engine, wrote)
    # MOD/REF and sections move up to main; a partial sweep kills
    # nothing, so the kill phase stops at work.
    assert seen == {
        "modref": ["work", "main"],
        "kill": ["work"],
        "sections": ["work", "main"],
    }
    assert delta["dependence"] == 2
    # Toggling it back moves them again.
    _, delta, seen, _ = _edit_and_count(engine, COMMON_UNITS)
    assert seen["modref"] == ["work", "main"]
    assert delta["dependence"] == 2


RECURSIVE_UNITS = (
    "      program main\n"
    "      real x(100)\n"
    "      call f(x, 5)\n"
    "      end\n"
    "      subroutine f(a, n)\n"
    "      real a(100)\n"
    "      if (n .gt. 0) call g(a, n - 1)\n"
    "      a(1) = 0.0\n"
    "      end\n"
    "      subroutine g(a, n)\n"
    "      real a(100)\n"
    "      if (n .gt. 0) call f(a, n - 1)\n"
    "      a(2) = 0.5\n"
    "      end\n"
)


def test_recursive_scc_recomputes_as_a_group():
    engine = AnalysisEngine()
    engine.analyze(RECURSIVE_UNITS)
    # An edit in g that leaves the cycle's summaries alone: the whole
    # SCC {f, g} re-runs its fixpoint, main is cut off.
    same = RECURSIVE_UNITS.replace("a(2) = 0.5", "a(2) = 0.7")
    _, delta, seen, bumped = _edit_and_count(engine, same)
    for phase in _BOTTOM_UP:
        assert delta[phase] == 2, phase
        assert seen[phase] == [], phase  # recursive SCCs run inline
    assert bumped == {"summary.recomputed": 6, "summary.cutoff": 3}
    assert delta["dependence"] == 1
    # A write g adds moves the cycle's sections summary up to main.
    moved = RECURSIVE_UNITS.replace("a(2) = 0.5", "a(n) = 0.5")
    _, delta, seen, _ = _edit_and_count(engine, moved)
    assert delta["sections"] == 3
    assert seen["sections"] == ["main"]
    assert delta["dependence"] >= 2


def test_swapped_formals_reach_callers_with_equal_summaries():
    """Swapping two referenced formals leaves every callee summary equal
    but rebinds the caller's actuals: callers must still recompute."""

    source = (
        "      program main\n"
        "      real x(100)\n"
        "      do i = 1, 10\n"
        "         call f(x, i, 3)\n"
        "      enddo\n"
        "      end\n"
        "      subroutine f(a, n, m)\n"
        "      real a(100)\n"
        "      a(n) = m\n"
        "      end\n"
    )
    engine = AnalysisEngine()
    engine.analyze(source)
    swapped = source.replace("f(a, n, m)", "f(a, m, n)")
    _, delta, seen, _ = _edit_and_count(engine, swapped)
    assert seen["sections"] == ["f", "main"]
    assert delta["dependence"] == 2


def test_assertion_change_reanalyzes_without_reparse():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    parse_before = engine.stats.stage("parse").misses
    dep_before = engine.stats.stage("dependence").misses
    _assert_parity(engine, THREE_UNITS, assertions={"scale": ["n >= 1"]})
    assert engine.stats.stage("parse").misses == parse_before
    assert engine.stats.stage("dependence").misses == dep_before + 1
    # Dropping the assertion recomputes scale once more (the cache keeps
    # one entry per unit, keyed by the *current* assertion set) — still
    # with no reparse, and the other units stay cached.
    dep_before = engine.stats.stage("dependence").misses
    _assert_parity(engine, THREE_UNITS)
    assert engine.stats.stage("parse").misses == parse_before
    assert engine.stats.stage("dependence").misses == dep_before + 1


def test_unit_set_change_flushes_cleanly():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    extended = THREE_UNITS + (
        "      subroutine reset(a, n)\n"
        "      real a(100)\n"
        "      do i = 1, n\n"
        "         a(i) = 0.0\n"
        "      enddo\n"
        "      end\n"
    )
    parse_before = engine.stats.stage("parse").misses
    _, pa = engine.analyze(extended)
    # Adding a unit changes the {name: kind} map: one miss discovering
    # the new span, then a full flush reparses all four units cleanly.
    assert engine.stats.stage("parse").misses - parse_before == 5
    assert program_fingerprint(pa) == program_fingerprint(_scratch(extended))
    # And shrinking back works too.
    _assert_parity(engine, THREE_UNITS)


def test_parse_errors_propagate_and_leave_caches_usable():
    from repro.fortran.errors import FortranError

    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    broken = THREE_UNITS.replace("do i = 1, n\n         a(i) = a(i) * 2.0", "do i = 1 n\n         a(i) = a(i) * 2.0")
    with pytest.raises(FortranError):
        engine.analyze(broken)
    # Rollback path: the previous source is still served, mostly cached.
    _assert_parity(engine, THREE_UNITS)


def test_cached_graphs_are_restored_pristine_across_sessions():
    from repro.editor import PedSession

    engine = AnalysisEngine(features=FeatureSet(scalar_kill=False))
    first = PedSession(THREE_UNITS, engine=engine)
    first.select_unit("scale")
    # Find any pending dependence and accept it.
    pending = [d for d in first.unit_analysis.graph.edges if d.marking == "pending"]
    if pending:
        first.mark_dependence(pending[0].id, "accepted")
    # A second session sharing the engine must not see the first
    # session's markings bleed through the cache.
    second = PedSession(THREE_UNITS, engine=engine)
    ua = second.analysis.unit("scale")
    assert all(d.marking != "accepted" for d in ua.graph.edges)


def test_stats_snapshot_and_render():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    snap = engine.stats.snapshot()
    assert snap["analyses"] == 1
    assert snap["stages"]["parse"]["misses"] == 3
    text = engine.stats.render()
    assert "dependence" in text and "hit%" in text
    engine.stats.reset()
    assert engine.stats.analyses == 0
