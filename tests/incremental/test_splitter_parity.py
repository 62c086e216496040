"""The logical-line splitter against the token-level oracle.

Every source the lexer accepts must split into identical
:class:`~repro.incremental.splitter.UnitSpan` lists (same lines, text
and digests) under both.  Sources the lexer rejects make the oracle
raise; the production splitter must still cover them exactly, leaving
the error to the span parse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fortran.errors import FortranError
from repro.incremental import split_units
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

from .token_splitter import split_units_by_tokens


def _assert_parity(source: str) -> None:
    got = split_units(source)
    try:
        want = split_units_by_tokens(source)
    except FortranError:
        lines = source.splitlines()
        assert "".join(s.text for s in got) == "".join(
            line + "\n" for line in lines
        )
        return
    assert got == want


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_programs_split_identically(name):
    _assert_parity(SUITE[name].source)


@pytest.mark.parametrize(
    "routines,fields", [(1, 1), (4, 2), (20, 3), (60, 2), (200, 2)]
)
def test_generated_programs_split_identically(routines, fields):
    _assert_parity(generate_program(n_routines=routines, n_fields=fields))


#: Lines a unit body draws from: plain statements, comments of every
#: flavour, ``end`` inside strings and names, block ends that are not
#: unit ends, directives, and free-form ``&`` continuations.
_BODY = [
    "      x = 1",
    "      x = x + 1 ! end",
    "      y = 'end'",
    "      call s('end', 'it''s')",
    "      endx = 2",
    "      do i = 1, n",
    "      end do",
    "      enddo",
    "         end if",
    "c end of something",
    "C",
    "* end",
    "! end",
    "      ! end",
    "",
    "   ",
    "c$par doall",
    "c$par end",
    "      x = 1 &",
    "      &",
    "     &",
    "     & + 2",
    "     1 end",
    "   10 continue",
    "10 continue",
    "\tx = 3",
]

#: Ways to spell a unit's closing ``END`` (and near misses).
_ENDS = [
    "      end",
    "      END",
    "      End",
    "   10 end",
    "10 end",
    "      end ! done",
    "      end!",
    "      end   ",
    "\tend",
    "end",
    "      end &",
    "      end\n     &",
    "      end\n     & x",
    "      end\n     0 x = 1",
    "      'end'",
    "      e nd",
]

_HEADERS = [
    "      subroutine a(x)",
    "      program p",
    "      FUNCTION f(x)",
    "      subroutine b",
]

#: Arbitrary short lines from a Fortran-flavoured alphabet, for the
#: corners the templates miss (some the lexer rejects).
_NOISE = st.text(alphabet="endEND &!'c$01 \t=x*", max_size=12)

_unit = st.tuples(
    st.sampled_from(_HEADERS),
    st.lists(st.one_of(st.sampled_from(_BODY), _NOISE), max_size=6),
    st.sampled_from(_ENDS),
).map(lambda u: [u[0], *u[1], u[2]])


@st.composite
def _sources(draw):
    lines = []
    for unit in draw(st.lists(_unit, max_size=4)):
        lines.extend(unit)
    lines.extend(draw(st.lists(st.sampled_from(_BODY), max_size=3)))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    source = sep.join(lines)
    if draw(st.booleans()):
        source += sep
    return source


@settings(max_examples=300)
@given(_sources())
def test_generated_sources_split_identically(source):
    _assert_parity(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "c only a comment\n",
        "      subroutine a\n      x = 1\n",  # no END at all
        "      subroutine a\n      end\nc trailing\n! more\n\n",
        "      subroutine a\n      end\n      x = 1\n",  # after last END
        "      subroutine a\n      end\n     &\n      subroutine b\n      end\n",
        "      subroutine a\n   10 END\n      subroutine b\n      End\n",
        "      subroutine a\n      y = 'end\n      end\n",  # lexer rejects
    ],
)
def test_corner_sources(source):
    _assert_parity(source)
