"""Desk-scale Atiyah-Hirzebruch check of the degree-5 spin bordism of
B = RP^infty x (CP^infty)^r, untwisted or twisted by 2*eta or gamma.

Setup.  H^*(B; F2) = F2[alpha, beta_1..beta_r] with |alpha| = 1,
|beta_i| = 2; mod-2 homology in degree p is dual to the degree-p monomials.
Integral homology comes from the Kunneth formula with H_*(RP^infty; Z) =
(Z, Z/2, 0, Z/2, 0, ...) and free even-degree homology for each CP^infty
factor, so in our range it is (free rank, number of Z/2 summands) =
(# monomials with alpha-exponent 0, # with odd alpha-exponent).

E2_{p,q} = H_p(B; Omega_q^Spin) with coefficients Z, Z/2, Z/2, 0, Z, 0 for
q = 0..5.  The differentials d2 out of q = 0, 1 are dual to the cohomology
operation Sq^2 + u, where the twist class u is 0, alpha^2 (for 2*eta,
after the Thom-isomorphism degree shift) or beta_1 (for gamma); the q = 0
source is first reduced mod 2, which in monomial terms keeps exactly the
generators with alpha-exponent 0 or odd.

For the total degree 5 line this module computes E3 at (5,0), (4,1),
(3,2), (1,4) by exact F2 rank computations.  The only later differential,
d3: E3_{4,2} -> E3_{1,4}, is declared rather than computed: maximal rank
for the untwisted case (the (1,4) corner dies, as comparison with the
vanishing degree-5 bordism of RP^infty alone forces), zero for the 2*eta
twist (comparison with the Z/16 answer at r = 0 forces that), and for the
gamma twist the unique rank making the total order match the closed form;
any mismatch anywhere raises AhssOrderError, so the module is a
consistency checker, not an oracle.  Closed forms for the group orders:

    untwisted:  4^r * 2^(r(r-1)/2)
    2*eta:      16 * 4^r * 2^(r(r-1)/2)
    gamma:      16 * 4^(r-1) * 2^(r(r-1)/2)   (r >= 1)

Group structures (Z/4 summands, the nonsplit extension at r = 1) are
quoted facts about these groups, not derived from page data here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb

from .errors import AhssOrderError, ConsistencyError, RangeExceededError
from .gf2 import Gf2Matrix

P_MAX = 7
R_MAX = 4

# Omega_q^Spin for q = 0..5, as (free rank, F2 rank) descriptors
SPIN_COEFFS = ("Z", "Z/2", "Z/2", "0", "Z", "0")

Monomial = tuple[int, tuple[int, ...]]  # (alpha exponent, beta exponents)


class Twist(str, Enum):
    NONE = "none"
    TWO_ETA = "2eta"
    GAMMA = "gamma"


# Every (r, twist) this module computes, in selftest order.  The gamma twist
# class is beta_1, so it needs one CP^infty factor.
LINES = tuple((r, t) for t in Twist for r in range(1 if t is Twist.GAMMA else 0, R_MAX + 1))


def _check_line(r: int, twist: Twist) -> None:
    if type(r) is not int or type(twist) is not Twist or (r, twist) not in LINES:
        raise RangeExceededError(
            f"no degree-5 line for r={r!r}, twist={getattr(twist, 'value', twist)!r}: "
            f"r runs over 0..{R_MAX}, from 1 for gamma"
        )


def degree(m: Monomial) -> int:
    return m[0] + 2 * sum(m[1])


@lru_cache(maxsize=None)
def monomials(p: int, r: int) -> tuple[Monomial, ...]:
    """All monomials of total degree p in alpha, beta_1..beta_r, sorted."""
    if not 0 <= p <= P_MAX:
        raise RangeExceededError(f"degree p={p} out of range 0..{P_MAX}")
    _check_line(r, Twist.NONE)  # the untwisted lines take every r
    out: list[Monomial] = []

    def rec(i: int, remaining: int, acc: tuple[int, ...]):
        if i == r:
            out.append((remaining, acc))
            return
        for c in range(remaining // 2 + 1):
            rec(i + 1, remaining - 2 * c, acc + (c,))

    rec(0, p, ())
    return tuple(sorted(out))


def sq2(m: Monomial) -> frozenset[Monomial]:
    """Sq^2 of a monomial, as an F2 sum of monomials.

    Cartan with Sq(alpha) = alpha + alpha^2 and Sq(beta_i) = beta_i +
    beta_i^2 collapses to the degree-2 part of (1+alpha)^a (1+beta_i)^c_i:
    C(a,2) alpha^2 plus c_i beta_i, each multiplied back onto the monomial.
    """
    a, bs = m
    out: set[Monomial] = set()
    if comb(a, 2) % 2:
        out.add((a + 2, bs))
    for i, c in enumerate(bs):
        if c % 2:
            bumped = bs[:i] + (c + 1,) + bs[i + 1 :]
            out.add((a, bumped))
    return frozenset(out)


def sq2_twisted(m: Monomial, twist: Twist, r: int) -> frozenset[Monomial]:
    """(Sq^2 + u)(m), where the twist class u is 0, alpha^2 (2*eta) or
    beta_1 (gamma); the cup product u*m adds exponents."""
    _check_line(r, twist)
    a, bs = m
    if twist is Twist.TWO_ETA:
        return sq2(m) ^ {(a + 2, bs)}
    if twist is Twist.GAMMA:
        return sq2(m) ^ {(a, (bs[0] + 1,) + bs[1:])}
    return sq2(m)


def integral_homology(p: int, r: int) -> tuple[int, int]:
    """(free rank, number of Z/2 summands) of H_p(B; Z), by Kunneth."""
    gens = integral_generators(p, r)
    free = sum(1 for a, _ in gens if a == 0)
    return free, len(gens) - free


def integral_generators(p: int, r: int) -> tuple[Monomial, ...]:
    """Monomials labelling the integral generators in degree p.

    alpha-exponent 0 labels a free Z class, odd exponent a Z/2 class; the
    even-positive duals are not hit by the mod-2 reduction.
    """
    return tuple(m for m in monomials(p, r) if m[0] == 0 or m[0] % 2 == 1)


@dataclass(frozen=True)
class D2Matrix:
    """Differential out of (p, q), q in {0, 1}, as a labelled F2 matrix.

    Rows are the target monomials (degree p-2), columns the source
    generators (all degree-p monomials for q = 1, the integral generators
    for q = 0); this is the transpose of Sq^2 + u on cohomology monomials,
    composed with mod-2 reduction on the q = 0 row.
    """

    row_basis: tuple[Monomial, ...]
    col_basis: tuple[Monomial, ...]
    matrix: Gf2Matrix


def d2_matrix(p: int, q: int, r: int, twist: Twist) -> D2Matrix:
    if q not in (0, 1) or not 2 <= p <= P_MAX:
        raise RangeExceededError(f"d2 sources are p in 2..{P_MAX}, q in {{0,1}}; got ({p},{q})")
    _check_line(r, twist)
    rows_b = monomials(p - 2, r)
    cols_b = monomials(p, r) if q == 1 else integral_generators(p, r)
    col_index = {m: j for j, m in enumerate(cols_b)}
    rows = []
    for target in rows_b:
        mask = 0
        for image in sq2_twisted(target, twist, r):
            j = col_index.get(image)
            if j is not None:
                mask |= 1 << j
        rows.append(mask)
    return D2Matrix(rows_b, cols_b, Gf2Matrix(tuple(rows), len(cols_b)))


# -- the total degree 5 line --------------------------------------------------

@dataclass(frozen=True)
class Line5:
    """E3 data along p+q = 5 and the declared d3, with the resulting order,
    the closed-form order it must equal and the d2 maps it was computed from."""

    r: int
    twist: Twist
    e3_50: int
    e3_41: int
    e3_32: int
    e3_14: int
    e3_42: int
    d3_rank: int
    log2_order: int
    expected: int
    d2: dict = field(repr=False, compare=False)  # (p, q) -> D2Matrix

    @property
    def order(self) -> int:
        return 1 << self.log2_order

    def checked_order(self) -> int:
        """The order; raises AhssOrderError when it is not the closed form."""
        if self.order != self.expected:
            raise AhssOrderError(
                f"computed order {self.order} != closed form {self.expected} "
                f"(r={self.r}, twist={self.twist.value})"
            )
        return self.order


def expected_order(r: int, twist: Twist) -> int:
    """Closed-form order of the degree-5 bordism group."""
    _check_line(r, twist)
    g = 4**r * 2 ** (r * (r - 1) // 2)
    if twist is Twist.NONE:
        return g
    if twist is Twist.TWO_ETA:
        return 16 * g
    return 16 * g // 4


def compute_line5(r: int, twist: Twist) -> Line5:
    """E3 along total degree 5 from exact F2 ranks, plus the d3 policy.

    Builds every d2 out of q in {0, 1}, p = 2..P_MAX, and first checks
    d2 o d2 = 0 on each composable pair; the page shows these same maps.
    """
    d2 = {(p, q): d2_matrix(p, q, r, twist) for q in (0, 1) for p in range(2, P_MAX + 1)}
    for (p, q), mat in d2.items():
        nxt = d2.get((p - 2, q + 1))
        if nxt is not None and not nxt.matrix.mul(mat.matrix).is_zero():
            raise ConsistencyError(
                f"d2 o d2 != 0 out of ({p},{q}) (r={r}, twist={twist.value})"
            )

    d_50, d_41, d_60, d_51, d_61 = (d2[k] for k in ((5, 0), (4, 1), (6, 0), (5, 1), (6, 1)))
    e3_50 = len(d_50.col_basis) - d_50.matrix.rank()  # kernel of (5,0) -> (3,1)
    # kernel of (4,1) -> (2,2) modulo the image of (6,0) -> (4,1)
    e3_41 = (len(d_41.col_basis) - d_41.matrix.rank()) - d_60.matrix.rank()
    e3_32 = len(monomials(3, r)) - d_51.matrix.rank()  # cokernel of (5,1) -> (3,2)
    e3_14 = 1  # H_1(B; Z) = Z/2, no d2 in or out
    e3_42 = len(monomials(4, r)) - d_61.matrix.rank()  # cokernel of (6,1) -> (4,2)
    if e3_41 < 0:
        raise ConsistencyError("image exceeds kernel at (4,1)")
    want = expected_order(r, twist)

    if twist is Twist.NONE:
        # the (1,4) corner must die; needs a nonzero source
        if e3_42 < 1:
            raise AhssOrderError("empty E3(4,2) cannot kill E3(1,4)")
        d3_rank = 1
    elif twist is Twist.TWO_ETA:
        d3_rank = 0
    else:
        # gamma: the unique rank matching the closed form
        base = e3_50 + e3_41 + e3_32 + e3_14
        log2_want = want.bit_length() - 1
        d3_rank = base - log2_want
        if d3_rank not in (0, 1) or (d3_rank == 1 and e3_42 < 1):
            raise AhssOrderError(
                f"no admissible d3 rank matches the closed form at r={r}: "
                f"page total 2^{base}, expected 2^{log2_want}"
            )

    log2 = e3_50 + e3_41 + e3_32 + (e3_14 - d3_rank)
    return Line5(r, twist, e3_50, e3_41, e3_32, e3_14, e3_42, d3_rank, log2, want, d2)


def omega5_order(r: int, twist: Twist) -> int:
    """Order of the degree-5 bordism group from the page computation.

    Raises AhssOrderError whenever the computed order disagrees with the
    closed form, for every twist.
    """
    return compute_line5(r, twist).checked_order()


# -- page fragments for display -----------------------------------------------

@dataclass(frozen=True)
class Page:
    """E2 fragment for p+q <= 6, the d2 data out of q in {0, 1}, and the
    degree-5 line computed from that same data."""

    r: int
    twist: Twist
    entries: dict  # (p, q) -> descriptor string
    d2: dict  # (p, q) -> D2Matrix
    line: Line5


def _descriptor(p: int, q: int, r: int) -> str:
    coeff = SPIN_COEFFS[q]
    if coeff == "0":
        return "0"
    if coeff == "Z":
        free, tors = integral_homology(p, r)
        parts = []
        if free:
            parts.append("Z" if free == 1 else f"Z^{free}")
        if tors:
            parts.append("Z/2" if tors == 1 else f"(Z/2)^{tors}")
        return " + ".join(parts) if parts else "0"
    dim = len(monomials(p, r))
    if dim == 0:
        return "0"
    return "Z/2" if dim == 1 else f"(Z/2)^{dim}"


def page(r: int, twist: Twist) -> Page:
    line = compute_line5(r, twist)
    entries = {
        (p, q): _descriptor(p, q, r)
        for q in range(6)
        for p in range(0, 7 - q)
    }
    return Page(r, twist, entries, line.d2, line)


def format_page(pg: Page) -> str:
    """Aligned text table of the E2 fragment plus d2 ranks and E3 data."""
    width = max(len(v) for v in pg.entries.values()) + 2
    lines = [f"E2 page, r={pg.r}, twist={pg.twist.value} (rows q, columns p):"]
    lines.append("  q\\p" + "".join(f"{p:>{width}}" for p in range(7)))
    for q in range(5, -1, -1):
        cells = [pg.entries.get((p, q), "") for p in range(7)]
        lines.append(f"  {q:>3}" + "".join(f"{c:>{width}}" for c in cells))
    lines.append("")
    lines.append("d2 ranks (dual Sq^2 + twist; q=0 sources reduced mod 2):")
    for (p, q), mat in sorted(pg.d2.items()):
        lines.append(
            f"  d2: ({p},{q}) -> ({p - 2},{q + 1})   "
            f"{mat.matrix.nrows}x{mat.matrix.ncols}, rank {mat.matrix.rank()}"
        )
    line = pg.line
    lines.append("")
    lines.append(
        "E3 along p+q=5: "
        f"(5,0): 2^{line.e3_50}  (4,1): 2^{line.e3_41}  "
        f"(3,2): 2^{line.e3_32}  (1,4): 2^{line.e3_14}"
    )
    lines.append(
        f"declared d3 rank (4,2)->(1,4): {line.d3_rank}   "
        f"E3(4,2) dim {line.e3_42}"
    )
    lines.append(f"group order: 2^{line.log2_order} = {line.order}")
    return "\n".join(lines)
