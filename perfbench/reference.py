"""A fixed yardstick computation that tells how fast the host runs right now.

On a shared host the speed of the same Python code drifts by up to 1.8x
within minutes, and CPU time drifts with wall time, so a wall time alone
says as much about the neighbours as about the program.  The benchmark
therefore times this computation right before and right after every CLI
run and reports the run's wall time in units of it.

The computation resembles the analyser's hot loops: row reduction of fixed
sparse matrices held as dicts, once over `fractions.Fraction` and once over
residues mod 7 held in a small slotted class with arithmetic methods.  It
uses the standard library only, never `gradedlts`, so no change to the
program moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

FRACTION_SIZE = 34
RESIDUE_SIZE = 70
MODULUS = 7
EXPECTED_RANKS = (34, 70)


class Residue:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value % MODULUS

    def __sub__(self, other):
        return Residue(self.value - other.value)

    def __mul__(self, other):
        return Residue(self.value * other.value)

    def __truediv__(self, other):
        return Residue(self.value * pow(other.value, MODULUS - 2, MODULUS))

    def __bool__(self):
        return self.value != 0


def sparse_matrix(n: int, scalar) -> list[dict]:
    """An n x n matrix with about five eighths of its entries nonzero in -6..6, from a fixed sequence."""
    x, rows = 12345, []
    for _ in range(n):
        row = {}
        for j in range(n):
            x = (1103515245 * x + 12345) % 2**31
            if x % 3 and x % 13 != 6:
                row[j] = scalar(x % 13 - 6)
        rows.append(row)
    return rows


def rank(rows: list[dict], zero) -> int:
    """Rank by Gauss-Jordan elimination on dict rows; zero entries are dropped."""
    rows = [dict(row) for row in rows]
    r = 0
    for c in sorted({c for row in rows for c in row}):
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        head = rows[r]
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            factor = row[c] / head[c]
            for k, v in head.items():
                value = row.get(k, zero) - factor * v
                if value:
                    row[k] = value
                else:
                    del row[k]
        r += 1
    return r


FRACTIONS = sparse_matrix(FRACTION_SIZE, Fraction)
RESIDUES = sparse_matrix(RESIDUE_SIZE, Residue)


def reference() -> float:
    """Wall seconds of one pass of the yardstick; its ranks are checked so the work is fixed."""
    start = time.perf_counter()
    ranks = (rank(FRACTIONS, Fraction(0)), rank(RESIDUES, Residue(0)))
    elapsed = time.perf_counter() - start
    if ranks != EXPECTED_RANKS:
        raise RuntimeError(f"reference computation gave ranks {ranks}, expected {EXPECTED_RANKS}")
    return elapsed
