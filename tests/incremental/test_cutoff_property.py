"""Summary early cutoff against from-scratch analysis, under edits that
move summaries.

The engine recomputes a caller's bottom-up summaries only when a callee's
summary (or formal interface) moved.  These properties drive sequences of
edits chosen to move summaries — write-target subscripts, calls removed
and restored, COMMON writes toggled — and check after every step that

* the engine's fingerprint equals a cold ``analyze_program``, and
* every phase's summaries equal those of a fresh engine, compared with
  the phase's own equality.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fortran.ast_nodes import ArrayRef, Assign, CallStmt, walk_statements
from repro.fortran.symbols import parse_and_bind
from repro.incremental import AnalysisEngine, program_fingerprint
from repro.interproc.program import FeatureSet, analyze_program
from repro.interproc.sections import sections_differ
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

_PROGRAMS = {name: SUITE[name].source for name in sorted(SUITE)}
_PROGRAMS.update(
    {f"gen{k}": generate_program(n_routines=k) for k in (4, 20, 60)}
)

#: A statement line with no label, so it can be rewritten in place.
_PLAIN = re.compile(r"^ {6,}\S")


def _continues(lines, i):
    """Is line ``i + 1`` a fixed-form continuation of line ``i``?"""

    nxt = lines[i + 1] if i + 1 < len(lines) else ""
    return len(nxt) > 5 and nxt[:5].strip() == "" and nxt[5] not in " 0"


def _toggles(source):
    """Edits as ``(kind, line_index, text)`` toggles over the base lines.

    ``subscript`` and ``call`` replace a line (shifted write target;
    ``continue`` for a dropped call); ``common`` inserts a write to a
    COMMON variable before the unit's first executable statement.
    """

    lines = source.splitlines()
    out = []
    for unit in parse_and_bind(source).units:
        table = unit.symtab
        for stmt in walk_statements(unit.body):
            i = stmt.line - 1
            text = lines[i]
            if not _PLAIN.match(text) or _continues(lines, i):
                continue
            if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
                moved = re.sub(
                    r"^(\s+\w+\()([^,()=]+)(?=[,)])", r"\1\2+1", text, count=1
                )
                if moved != text:
                    out.append(("subscript", i, moved))
            elif isinstance(stmt, CallStmt) and text.lstrip().startswith(
                "call"
            ):
                out.append(("call", i, "      continue"))
        if table.common_blocks and unit.body:
            members = next(m for m in table.common_blocks.values() if m)
            var = members[0]
            rank = table.get(var).rank
            target = f"{var}({', '.join(['1'] * rank)})" if rank else var
            out.append(("common", unit.body[0].line - 1, f"      {target} = 0"))
    return out


def _render(lines, toggles, active):
    replaced = {
        toggles[k][1]: toggles[k][2]
        for k in active
        if toggles[k][0] != "common"
    }
    inserted = {}
    for k in sorted(active):
        if toggles[k][0] == "common":
            inserted.setdefault(toggles[k][1], []).append(toggles[k][2])
    out = []
    for i, line in enumerate(lines):
        out.extend(inserted.get(i, ()))
        out.append(replaced.get(i, line))
    return "\n".join(out) + "\n"


_EQUAL = {
    "modref": lambda a, b: a.mod == b.mod and a.ref == b.ref,
    "kills": lambda a, b: a.scalars == b.scalars and a.arrays == b.arrays,
    "sections": lambda a, b: not sections_differ(a, b),
}


def _check_step(engine, source):
    _, pa = engine.analyze(source)
    cold = analyze_program(parse_and_bind(source), FeatureSet())
    assert program_fingerprint(pa) == program_fingerprint(cold)
    _, fresh = AnalysisEngine().analyze(source)
    for phase, equal in _EQUAL.items():
        mine, theirs = getattr(pa, phase), getattr(fresh, phase)
        assert mine.keys() == theirs.keys(), phase
        for unit in theirs:
            assert equal(mine[unit], theirs[unit]), (phase, unit)
    assert pa.ip_constants == fresh.ip_constants


def _run_sequence(name, picks):
    source = _PROGRAMS[name]
    lines = source.splitlines()
    toggles = _toggles(source)
    assert toggles, name
    engine = AnalysisEngine()
    engine.analyze(source)
    active = set()
    for pick in picks:
        active ^= {pick % len(toggles)}
        _check_step(engine, _render(lines, toggles, active))


#: Programs whose cold analysis costs over 50 ms get fewer examples.
_LARGE = ("spec77", "gen20", "gen60")


@pytest.mark.parametrize("name", [n for n in _PROGRAMS if n not in _LARGE])
@settings(max_examples=5, deadline=None)
@given(picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
def test_summary_moving_edits_match_cold_analysis(name, picks):
    _run_sequence(name, picks)


@pytest.mark.parametrize("name", _LARGE)
@settings(max_examples=2, deadline=None)
@given(picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
def test_summary_moving_edits_match_cold_analysis_large(name, picks):
    _run_sequence(name, picks)


def test_every_program_offers_each_edit_kind_somewhere():
    kinds = {k for src in _PROGRAMS.values() for k, _, _ in _toggles(src)}
    assert kinds == {"subscript", "call", "common"}
