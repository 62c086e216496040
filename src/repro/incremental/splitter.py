"""Split Fortran source into per-procedure-unit spans.

The incremental engine caches parse and analysis results per procedure
unit, keyed by a content hash of the unit's *source span*.  This module
finds those spans without tokenizing or parsing: it walks the lexer's
logical-line splicer (:func:`~repro.fortran.lexer._logical_lines` plus
:func:`~repro.fortran.lexer._splice_free_continuations`), which already
drops comments, strips inline ``!`` comments outside strings, peels
statement labels and joins fixed-form and free-form continuations.
A program unit ends at a bare ``END`` — a logical line whose text is
``end`` in any case (``enddo``/``endif``/``end do``/``end if`` are other
texts, and an ``end`` inside a string is never the whole text).  Since
the splicer is the same one the lexer uses, the spans are exactly those
of a token-level scan, at a fraction of its cost; the parity test in
``tests/incremental/`` holds the two to that.

Trailing comment/blank lines attach to the preceding unit; statements
after the last ``END`` form a final span so a chunk reparse reports the
same "missing END" error a full parse would.  Nothing here raises: text
the lexer would reject surfaces when its span is parsed.

Spans record their absolute start line; reparsing a span prepends
``start_line - 1`` newlines so every token keeps its original line
number (the lexer skips blank lines), which keeps statement lines —
and therefore dependence endpoints and marking keys — identical to a
whole-file parse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from ..fortran.lexer import _logical_lines, _splice_free_continuations


@dataclass(frozen=True)
class UnitSpan:
    """One program unit's slice of the source text (lines are 1-based,
    inclusive); ``digest`` keys the engine's parse cache."""

    start_line: int
    end_line: int
    text: str
    digest: str


def _digest(start_line: int, text: str) -> str:
    # The start line participates: moving a unit down shifts every
    # statement's line number, which analysis results depend on.
    return hashlib.sha1(f"{start_line}\n{text}".encode()).hexdigest()


def _make_span(lines: List[str], start: int, stop: int) -> UnitSpan:
    text = "\n".join(lines[start - 1 : stop]) + "\n"
    return UnitSpan(start, stop, text, _digest(start, text))


def split_units(source: str) -> List[UnitSpan]:
    """Partition ``source`` into contiguous per-unit spans covering every
    line.  A source with no ``END`` at all becomes a single span (the
    parser will report whatever a full parse would)."""

    lines = source.splitlines()
    if not lines:
        return []
    ends: List[int] = []
    last_stmt_line = 0
    for ll in _splice_free_continuations(list(_logical_lines(source))):
        text = ll.text.strip()
        if text:
            last_stmt_line = ll.line
            if text.lower() == "end":
                ends.append(ll.line)

    if not ends:
        return [_make_span(lines, 1, len(lines))]

    spans: List[UnitSpan] = []
    start = 1
    for i, end_line in enumerate(ends):
        stop = end_line
        if i == len(ends) - 1 and last_stmt_line <= end_line:
            stop = len(lines)  # trailing comments belong to the last unit
        spans.append(_make_span(lines, start, stop))
        start = stop + 1
    if last_stmt_line > ends[-1]:
        spans.append(_make_span(lines, start, len(lines)))
    return spans
