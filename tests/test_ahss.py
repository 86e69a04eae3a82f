"""Tests for the spectral-sequence consistency checker."""

import pytest

from fiveclass import ahss
from fiveclass.ahss import (
    LINES,
    R_MAX,
    Twist,
    compute_line5,
    d2_matrix,
    expected_order,
    integral_homology,
    monomials,
    omega5_order,
    page,
    sq2,
    sq2_twisted,
)
from fiveclass.cli import main
from fiveclass.errors import ConsistencyError, RangeExceededError
from fiveclass.gf2 import Gf2Matrix

A = lambda k, *bs: (k, tuple(bs))  # noqa: E731  monomial shorthand


# -- independent oracle: Sq^2 via honest total-square expansion -------------------

def _poly_mul(p1, p2):
    out = set()
    for a1, b1 in p1:
        for a2, b2 in p2:
            m = (a1 + a2, tuple(x + y for x, y in zip(b1, b2)))
            out ^= {m}
    return out


def _sq2_by_expansion(mono, r):
    a, cs = mono
    zero = (0,) * r
    acc = {(0, zero)}
    for _ in range(a):
        acc = _poly_mul(acc, {(1, zero), (2, zero)})
    for i, ci in enumerate(cs):
        e1 = tuple(1 if j == i else 0 for j in range(r))
        e2 = tuple(2 if j == i else 0 for j in range(r))
        for _ in range(ci):
            acc = _poly_mul(acc, {(0, e1), (0, e2)})
    d = ahss.degree(mono)
    return frozenset(m for m in acc if ahss.degree(m) == d + 2)


def test_sq2_examples():
    assert sq2(A(0, 1)) == {A(0, 2)}  # b -> b^2
    assert sq2(A(2)) == {A(4)}  # a^2 -> a^4
    assert sq2(A(3)) == {A(5)}  # a^3 -> a^5, from (a+a^2)^3
    assert sq2(A(0, 2)) == frozenset()
    assert sq2(A(2, 1)) == {A(4, 1), A(2, 2)}
    assert sq2(A(0, 1, 1)) == {A(0, 2, 1), A(0, 1, 2)}


def test_sq2_matches_expansion_oracle():
    for r in (0, 1, 2):
        for p in range(0, 6):
            for m in monomials(p, r):
                assert sq2(m) == _sq2_by_expansion(m, r), m


def test_sq2_twisted_examples():
    # hand expansion: (Sq^2 + a^2)(b1) = b1^2 + a^2 b1
    assert sq2_twisted(A(0, 1), Twist.TWO_ETA, 1) == {A(0, 2), A(2, 1)}
    # (Sq^2 + b1)(b1) = b1^2 + b1^2 = 0
    assert sq2_twisted(A(0, 1), Twist.GAMMA, 1) == frozenset()
    assert sq2_twisted(A(1), Twist.NONE, 0) == frozenset()


# -- homology bases -----------------------------------------------------------------

def test_mod2_basis_examples():
    assert set(monomials(2, 1)) == {A(2, 0), A(0, 1)}
    assert len(monomials(2, 1)) == 2


def test_integral_homology_examples():
    assert integral_homology(5, 1) == (0, 3)
    assert integral_homology(0, 3) == (1, 0)
    assert integral_homology(6, 1) == (1, 0)  # the free class dual to b^3
    assert integral_homology(1, 4) == (0, 1)


def test_range_checks():
    with pytest.raises(RangeExceededError):
        monomials(8, 1)
    with pytest.raises(RangeExceededError):
        monomials(3, 7)
    with pytest.raises(RangeExceededError):
        omega5_order(5, Twist.NONE)
    with pytest.raises(RangeExceededError):
        omega5_order(0, Twist.GAMMA)


# -- differentials --------------------------------------------------------------------

def test_d2_is_transpose_of_cohomology_operation():
    for twist in Twist:
        r = 1
        mat = d2_matrix(4, 1, r, twist)
        for i, target in enumerate(mat.row_basis):
            image = sq2_twisted(target, twist, r)
            for j, source in enumerate(mat.col_basis):
                assert (mat.matrix.rows[i] >> j) & 1 == (1 if source in image else 0)


def test_d2_two_eta_hits_mixed_term():
    # the column of a^2 b1 has a 1 in the b1 row: dual of b1 -> b1^2 + a^2 b1
    mat = d2_matrix(4, 1, 1, Twist.TWO_ETA)
    i = mat.row_basis.index(A(0, 1))
    j = mat.col_basis.index(A(2, 1))
    assert (mat.matrix.rows[i] >> j) & 1 == 1


def test_d2_q0_restricts_to_integral_generators():
    mat = d2_matrix(6, 0, 2, Twist.NONE)
    # degree 6 integral generators: only alpha-exponent 0 (even degree)
    assert all(m[0] == 0 for m in mat.col_basis)
    assert len(mat.col_basis) == 4  # b1^3, b1^2 b2, b1 b2^2, b2^3
    full = d2_matrix(5, 0, 2, Twist.NONE)
    # odd degree: every monomial has odd alpha-exponent, all are torsion
    assert full.col_basis == monomials(5, 2)


def test_d2_squares_to_zero_everywhere():
    # the only composable pairs in range: (p,0) -> (p-2,1) -> (p-4,2);
    # differentials out of q = 2 land in zero coefficient groups
    for r, twist in LINES:
        for p in range(4, 8):
            first = d2_matrix(p, 0, r, twist)
            second = d2_matrix(p - 2, 1, r, twist)
            assert second.matrix.mul(first.matrix).is_zero(), (p, twist)


# -- the degree-5 line ------------------------------------------------------------------

def test_line5_r1_untwisted_matches_surviving_terms():
    # surviving terms: one class at (5,0) and one at (4,1), nothing else
    line = compute_line5(1, Twist.NONE)
    assert (line.e3_50, line.e3_41, line.e3_32) == (1, 1, 0)
    assert line.d3_rank == 1  # kills the (1,4) corner
    assert line.order == 4


def test_line5_r0_two_eta_is_sixteen():
    line = compute_line5(0, Twist.TWO_ETA)
    assert line.d3_rank == 0
    assert line.order == 16


def test_omega5_orders_match_closed_forms():
    expected = {
        Twist.NONE: {0: 1, 1: 4, 2: 32, 3: 512, 4: 16384},
        Twist.TWO_ETA: {0: 16, 1: 64, 2: 512, 3: 8192, 4: 262144},
        Twist.GAMMA: {1: 16, 2: 128, 3: 2048, 4: 65536},
    }
    for twist, table in expected.items():
        for r, want in table.items():
            assert expected_order(r, twist) == want
            assert omega5_order(r, twist) == want
    assert sorted(LINES) == sorted((r, t) for t, table in expected.items() for r in table)


# (r, twist) outside LINES, including a bool r and a twist given by its name
_OUT_OF_RANGE = [
    (-1, Twist.NONE), (R_MAX + 1, Twist.NONE), (R_MAX + 1, Twist.TWO_ETA),
    (0, Twist.GAMMA), (R_MAX + 1, Twist.GAMMA), (True, Twist.NONE), (1, "gamma"),
]


@pytest.mark.parametrize("r, twist", _OUT_OF_RANGE)
def test_every_entry_point_refuses_a_line_outside_lines(r, twist):
    messages = set()
    for call in (page, compute_line5, expected_order, lambda r, t: d2_matrix(4, 1, r, t)):
        with pytest.raises(RangeExceededError) as exc:
            call(r, twist)
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


def test_d2_composition_check_catches_a_nonzero_product(monkeypatch, capsys):
    # a planted fault: every composite d2 o d2 comes out nonzero
    monkeypatch.setattr(Gf2Matrix, "mul", lambda a, b: Gf2Matrix((1,), 1))
    for build in (page, compute_line5):
        with pytest.raises(ConsistencyError, match=r"d2 o d2 != 0"):
            build(2, Twist.NONE)
    for extra in ([], ["--dump-pages"]):
        code = main(["ahss", "--r", "2", *extra])
        out = capsys.readouterr().out
        assert (code, out) == (3, ""), extra


def test_page_validates_and_formats():
    for twist in Twist:
        pg = page(2, twist)
        text = ahss.format_page(pg)
        assert "E2 page" in text
        assert "group order" in text


def test_page_descriptors_match_known_entries():
    pg = page(1, Twist.NONE)
    # degree-5 integral homology of RP^inf x CP^inf is (Z/2)^3
    assert pg.entries[(5, 0)] == "(Z/2)^3"
    assert pg.entries[(1, 4)] == "Z/2"
    assert pg.entries[(2, 2)] == "(Z/2)^2"
    assert pg.entries[(4, 1)] == "(Z/2)^3"
    assert pg.entries[(2, 3)] == "0"
    assert pg.entries[(0, 0)] == "Z"
