"""Tests for exact intersection-form arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiveclass import forms
from fiveclass.errors import (
    InvalidFormError,
    NotSymmetricError,
    NotUnimodularError,
)
from fiveclass.forms import (
    BLOCK_MATRICES,
    CohomologyClass,
    IntersectionForm,
    bareiss_determinant,
    from_blocks,
)

E8 = from_blocks(["E8"])
H = from_blocks(["H"])


def gauss_det(rows):
    """Independent determinant route: plain Gaussian elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


# -- validation ----------------------------------------------------------------

def test_validate_accepts_unit_form():
    IntersectionForm([[1]])


def test_validate_accepts_hyperbolic():
    q = IntersectionForm([[0, 1], [1, 0]])
    assert q.determinant == -1


def test_validate_rejects_det_two():
    with pytest.raises(NotUnimodularError) as exc:
        IntersectionForm([[2]])
    assert exc.value.abs_det == 2


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        IntersectionForm([[0, 1], [2, 0]])


def test_validate_rejects_empty_and_nonsquare():
    with pytest.raises(InvalidFormError):
        IntersectionForm([])
    with pytest.raises(InvalidFormError):
        IntersectionForm([[1, 0]])


def test_bareiss_matches_gauss_on_blocks():
    for name, rows in BLOCK_MATRICES.items():
        assert bareiss_determinant(rows) == gauss_det(rows), name


def test_bareiss_zero_pivot_path():
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert bareiss_determinant(rows) == gauss_det(rows) == -1


# -- signature -----------------------------------------------------------------

def test_signature_rank_one():
    assert IntersectionForm([[1]]).signature() == 1
    assert IntersectionForm([[-1]]).signature() == -1


def test_signature_hyperbolic_is_zero():
    assert H.signature() == 0


def test_signature_e8_via_leading_minor_oracle():
    # oracle: all leading principal minors of the E8 matrix are positive,
    # so the form is positive definite and the signature equals the rank
    rows = BLOCK_MATRICES["E8"]
    minors = [gauss_det([row[:k] for row in rows[:k]]) for k in range(1, 9)]
    assert minors == [2, 3, 4, 5, 6, 7, 8, 1]
    assert all(m > 0 for m in minors)
    assert E8.signature() == 8


def test_signature_mixed_sum():
    q = from_blocks(["1", "-1", "H", "E8"])
    assert q.signature() == 1 - 1 + 0 + 8


# -- parity, divisibility, squares ----------------------------------------------

def test_is_even():
    assert H.is_even()
    assert E8.is_even()
    assert not IntersectionForm([[1]]).is_even()
    assert not from_blocks(["1", "H"]).is_even()


def test_divisibility():
    assert CohomologyClass([2, 4]).divisibility() == 2
    assert CohomologyClass([1, 0, 0]).divisibility() == 1
    assert CohomologyClass([0, 0]).divisibility() == 0


def test_square_examples():
    assert IntersectionForm([[1]]).square(CohomologyClass([2])) == 4
    # oracle: H^{-1} = H, evaluate p^T H p = 2
    assert H.square(CohomologyClass([1, 1])) == 2
    # oracle: identity form, 1^2 + 2^2 = 5
    assert from_blocks(["1", "1"]).square(CohomologyClass([1, 2])) == 5


def test_square_length_check():
    with pytest.raises(InvalidFormError):
        H.square(CohomologyClass([1]))


def test_is_characteristic_examples():
    assert IntersectionForm([[1]]).is_characteristic(CohomologyClass([1]))
    assert H.is_characteristic(CohomologyClass([0, 0]))
    assert not from_blocks(["1", "1"]).is_characteristic(CohomologyClass([1, 0]))


def test_even_form_has_characteristic_zero():
    for q in (H, E8, from_blocks(["H", "E8"])):
        assert q.is_characteristic(CohomologyClass([0] * q.rank))


# -- property tests --------------------------------------------------------------

def _random_unimodular(rng, n, steps=12):
    """Product of elementary row operations: transvections and sign flips."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u[i] = [-x for x in u[i]]
            continue
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _transform(q: IntersectionForm, u):
    """U^T Q U and the transport p -> U^T p of pairing vectors."""
    n = q.rank
    qu = [
        [sum(q.rows[i][k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    utqu = [
        [sum(u[k][i] * qu[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return IntersectionForm(utqu)


def _transport(u, p):
    n = len(p)
    return CohomologyClass(sum(u[k][i] * p[k] for k in range(n)) for i in range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["1", "-1", "H", "1 -1", "H 1", "E8"]))
def test_square_and_divisibility_invariant_under_basis_change(seed, names):
    rng = random.Random(seed)
    q = from_blocks(names.split())
    n = q.rank
    p = CohomologyClass(rng.randint(-5, 5) for _ in range(n))
    u = _random_unimodular(rng, n)
    q2 = _transform(q, u)
    p2 = _transport(u, p.pairings)
    assert q2.square(p2) == q.square(p)
    assert p2.divisibility() == p.divisibility()
    assert q2.signature() == q.signature()
    assert q2.is_characteristic(p2) == q.is_characteristic(p)


def test_van_der_blij_seeded():
    """square(Q, c) = signature(Q) mod 8 and = rank(Q) mod 2 for char c."""
    from fiveclass.selfcheck import random_characteristic, random_form

    rng = random.Random(97)
    for _ in range(80):
        q = random_form(rng, max_rank=16)
        c = random_characteristic(rng, q)
        assert q.is_characteristic(c)
        sq = q.square(c)
        assert (sq - q.signature()) % 8 == 0
        assert (sq - q.rank) % 2 == 0


# -- JSON schema ------------------------------------------------------------------

def test_manifold_from_json_blocks():
    form, ks = forms.manifold_from_json({"form": {"blocks": ["1", "H"]}, "ks": 1})
    assert form.rank == 3
    assert ks == 1


def test_manifold_from_json_matrix():
    form, ks = forms.manifold_from_json({"form": {"matrix": [[1]]}})
    assert form.rank == 1
    assert ks == 0


def test_manifold_from_json_rejects_garbage():
    with pytest.raises(InvalidFormError):
        forms.manifold_from_json({"form": {"blocks": ["Q"]}})
    with pytest.raises(InvalidFormError):
        forms.manifold_from_json({"form": {}})
    with pytest.raises(InvalidFormError):
        forms.manifold_from_json([1, 2])
    with pytest.raises(InvalidFormError):
        forms.manifold_from_json({"form": {"matrix": [[1]]}, "ks": 2})


def test_manifold_from_json_rejects_non_integers():
    # no coercion: 1.7 is not read as 1, nor true as 1
    for matrix in ([[1.7]], [["x"]], [[True]], [[1.0]], [[None]], [1], [[1, 0], "ab"]):
        with pytest.raises(InvalidFormError):
            forms.manifold_from_json({"form": {"matrix": matrix}})
    for blocks in ([1], "1H", [["1"]]):
        with pytest.raises(InvalidFormError):
            forms.manifold_from_json({"form": {"blocks": blocks}})
    for ks in (True, False, 1.0, "1"):
        with pytest.raises(InvalidFormError):
            forms.manifold_from_json({"form": {"blocks": ["1"]}, "ks": ks})
    with pytest.raises(InvalidFormError):
        IntersectionForm([[1.7]])
