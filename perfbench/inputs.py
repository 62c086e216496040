"""Seeded inputs for the perfbench workloads.

The seed changes names and constants, never the shape that sets the
cost: field count, routine counts, grid and the corpus order stay fixed
per workload, so runs with different seeds measure the same amount of
work (the field count alone moves a 200-routine open by 2x, see
NOTES.md).
"""

from __future__ import annotations

import random
import re
from typing import List, Tuple

from repro.workloads import SUITE
from repro.workloads.generator import generate_program

#: Field names the seed draws from (none clashes with the generator's
#: own identifiers: i, j, k, m, n, x, it, nsteps, chksum).
FIELD_NAMES = (
    "u", "v", "w", "p", "q", "rho", "vel", "pres", "temp", "hgt",
    "salt", "flux", "phi", "psi", "eta", "zeta", "omega", "vort",
)

_FIELD = re.compile(r"\bf(\d+)\b")
_STENCIL = re.compile(r"^\s+x\(i\) = x\(i\) \+ 0\.0\d \* ")
_ROUTINE = re.compile(r"^\s+subroutine upd(\d+)\(")

EDIT_ROUTINES = 60
OPEN_ROUTINES = 200
OPEN_FIELDS = 2
CORPUS_GENERATED = 30


def stencil_text(rng: random.Random) -> str:
    """One ``upd<r>`` stencil line with seeded coefficients."""

    c1, c2 = rng.randint(1, 9), rng.randint(1, 9)
    return (
        f"         x(i) = x(i) + 0.0{c1} * (x(i+1) - x(i-1)) "
        f"- 0.00{c2} * x(i)"
    )


def vary(source: str, rng: random.Random) -> str:
    """Rename the generator's fields and redraw every stencil's
    coefficients; the program's structure is unchanged."""

    n_fields = len(set(_FIELD.findall(source)))
    names = rng.sample(FIELD_NAMES, n_fields)
    out = []
    for line in source.split("\n"):
        if _STENCIL.match(line):
            line = stencil_text(rng)
        out.append(_FIELD.sub(lambda m: names[int(m.group(1))], line))
    return "\n".join(out)


def stencil_lines(source: str) -> List[Tuple[int, str]]:
    """``(1-based line, unit name)`` of every ``upd<r>`` stencil line."""

    found = []
    unit = None
    for number, line in enumerate(source.splitlines(), 1):
        m = _ROUTINE.match(line)
        if m:
            unit = f"upd{m.group(1)}"
        elif _STENCIL.match(line):
            found.append((number, unit))
    return found


def edit_program() -> str:
    return generate_program(n_routines=EDIT_ROUTINES)


def open_program(seed: int) -> str:
    rng = random.Random(f"open:{seed}")
    return vary(
        generate_program(n_routines=OPEN_ROUTINES, n_fields=OPEN_FIELDS),
        rng,
    )


def corpus_shapes() -> List[Tuple[int, int, int, int]]:
    """``(routines, fields, grid, steps)`` of the generated programs: a
    fixed ladder from 4 to 40 routines (skewed small, about 7.5k lines)
    with 1-3 fields, so every seed submits the same amount of work."""

    shapes = []
    for k in range(CORPUS_GENERATED):
        routines = 4 + round(36 * (k / (CORPUS_GENERATED - 1)) ** 1.6)
        shapes.append((routines, 1 + k % 3, 8 + 4 * (k % 3), 1 + k % 3))
    return shapes


def corpus_programs(seed: int) -> List[Tuple[str, str]]:
    """The 10 suite programs plus the seeded generated ones, in one
    fixed order: the pool runs a batch in chunks, each as slow as its
    slowest program, so the order sets the batch time and must not
    depend on the seed."""

    rng = random.Random(f"corpus:{seed}")
    programs = [(name, prog.source) for name, prog in SUITE.items()]
    for k, (routines, fields, grid, steps) in enumerate(corpus_shapes()):
        source = generate_program(
            n_routines=routines, n_fields=fields, grid=grid, steps=steps
        )
        programs.append((f"gen{k:02d}", vary(source, rng)))
    random.Random("corpus-order").shuffle(programs)
    return programs
