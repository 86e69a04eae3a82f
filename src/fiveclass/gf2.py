"""Linear algebra over GF(2).

A matrix is a tuple of row bitmasks plus an explicit column count; bit j of
row i is the (i, j) entry.  Everything here is exact and small-scale.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Gf2Matrix:
    rows: tuple[int, ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return rank(self.rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Matrix product self @ other; self.ncols must equal other.nrows."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ "
                f"({other.nrows}x{other.ncols})"
            )
        out = []
        for row in self.rows:
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc ^= other.rows[j]
                row >>= 1
                j += 1
            out.append(acc)
        return Gf2Matrix(tuple(out), other.ncols)

def rank(rows) -> int:
    """Rank of a list of row bitmasks, via an XOR basis keyed by top bit."""
    basis: dict[int, int] = {}
    r = 0
    for row in rows:
        cur = row
        while cur:
            top = cur.bit_length() - 1
            if top in basis:
                cur ^= basis[top]
            else:
                basis[top] = cur
                r += 1
                break
    return r
