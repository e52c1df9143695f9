"""Frozen level-4 multiplication table used as a verification fixture.

The rows below were recorded independently of the generator in `algebra` (and
hand-spot-checked against the doubling recursion), so any regression in the
recursion or the product index tables shows up as a table mismatch instead of
silently propagating.  Row = left factor, column = right factor, `1` means e0.
"""

from __future__ import annotations

_ROWS = """
1,e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,e13,e14,e15
e1,-1,e3,-e2,e5,-e4,-e7,e6,e9,-e8,-e11,e10,-e13,e12,e15,-e14
e2,-e3,-1,e1,e6,e7,-e4,-e5,e10,e11,-e8,-e9,-e14,-e15,e12,e13
e3,e2,-e1,-1,e7,-e6,e5,-e4,e11,-e10,e9,-e8,-e15,e14,-e13,e12
e4,-e5,-e6,-e7,-1,e1,e2,e3,e12,e13,e14,e15,-e8,-e9,-e10,-e11
e5,e4,-e7,e6,-e1,-1,-e3,e2,e13,-e12,e15,-e14,e9,-e8,e11,-e10
e6,e7,e4,-e5,-e2,e3,-1,-e1,e14,-e15,-e12,e13,e10,-e11,-e8,e9
e7,-e6,e5,e4,-e3,-e2,e1,-1,e15,e14,-e13,-e12,e11,e10,-e9,-e8
e8,-e9,-e10,-e11,-e12,-e13,-e14,-e15,-1,e1,e2,e3,e4,e5,e6,e7
e9,e8,-e11,e10,-e13,e12,e15,-e14,-e1,-1,-e3,e2,-e5,e4,e7,-e6
e10,e11,e8,-e9,-e14,-e15,e12,e13,-e2,e3,-1,-e1,-e6,-e7,e4,e5
e11,-e10,e9,e8,-e15,e14,-e13,e12,-e3,-e2,e1,-1,-e7,e6,-e5,e4
e12,e13,e14,e15,e8,-e9,-e10,-e11,-e4,e5,e6,e7,-1,-e1,-e2,-e3
e13,-e12,e15,-e14,e9,e8,e11,-e10,-e5,-e4,e7,-e6,e1,-1,e3,-e2
e14,-e15,-e12,e13,e10,-e11,e8,e9,-e6,-e7,-e4,e5,e2,-e3,-1,e1
e15,e14,-e13,-e12,e11,e10,-e9,e8,-e7,e6,-e5,-e4,e3,e2,-e1,-1
""".strip()


def _parse_entry(cell: str) -> tuple[int, int]:
    cell = cell.strip()
    sign = 1
    if cell.startswith("-"):
        sign = -1
        cell = cell[1:]
    k = 0 if cell == "1" else int(cell[1:])
    return (sign, k)


REFERENCE_TABLE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(_parse_entry(cell) for cell in line.split(","))
    for line in _ROWS.splitlines()
)

assert len(REFERENCE_TABLE) == 16 and all(len(r) == 16 for r in REFERENCE_TABLE)
