"""Tests for exact intersection-form arithmetic."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fraction_signature,
    fraction_square,
    gauss_det,
    sympy_det,
    sympy_inverse,
    sympy_square,
)

from fiveclass import forms
from fiveclass.errors import (
    InvalidFormError,
    NotSymmetricError,
    NotUnimodularError,
    RangeExceededError,
)
from fiveclass.forms import (
    BLOCK_MATRICES,
    MAX_RANK,
    CohomologyClass,
    IntersectionForm,
    bareiss_determinant,
    from_blocks,
)
from fiveclass.selfcheck import check_forms

E8 = from_blocks(["E8"])
H = from_blocks(["H"])


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
    check_forms(97, 80)


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


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"form": {"blocks": ["1"]}, "KS": 1}, "'KS'"),
        ({"form": {"blocks": ["1"], "junk": 1}}, "'junk'"),
        ({"form": {"matrix": [[1]]}, "ks": 0, "note": "x"}, "'note'"),
        ({"form": {"Blocks": ["1"]}}, "'Blocks'"),
        ({"blocks": ["1"]}, "'blocks'"),
        ({"form": {"blocks": ["1"]}, 1: 0}, "1"),
    ],
)
def test_manifold_from_json_refuses_unknown_keys(obj, key):
    # a misspelt ks was dropped before, so ks read 0 and the form smoothable
    with pytest.raises(InvalidFormError, match=f"unknown key {key}"):
        forms.manifold_from_json(obj)


@pytest.mark.parametrize("names", [[1, -1], "1H", [b"1"], ("1", 1)])
def test_from_blocks_takes_only_str_names(names):
    # no coercion: 1 is not read as "1", nor a string as a list of names
    with pytest.raises(InvalidFormError):
        from_blocks(names)


def test_from_blocks_takes_any_iterable_of_names():
    assert from_blocks(("1", "H")) == from_blocks(["1", "H"]) == from_blocks(iter(["1", "H"]))


def test_manifold_from_json_takes_blocks_or_matrix_not_both():
    for matrix in ([[2]], [[1]]):
        with pytest.raises(InvalidFormError):
            forms.manifold_from_json({"form": {"blocks": ["1"], "matrix": matrix}})


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


@pytest.mark.parametrize("pairing", [2.9, True, "3"])
def test_cohomology_class_rejects_non_int_pairings(pairing):
    # no coercion: a float c1 was classified as its int() before
    with pytest.raises(InvalidFormError):
        CohomologyClass([2, pairing])


# -- the integer kernel against the oracles ----------------------------------------

BLOCK_SIGNATURES = {"1": 1, "-1": -1, "H": 0, "E8": 8}


def _random_blocks(rng, max_rank):
    names, rank = [], 0
    while True:
        name = rng.choice(sorted(BLOCK_MATRICES))
        rank += len(BLOCK_MATRICES[name])
        if rank > max_rank:
            return names or ["1"]
        names.append(name)


def _permuted(rng, rows):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[i][j] for j in perm] for i in perm]


def _conjugated(rng, rows):
    n = len(rows)
    return _transform(IntersectionForm(rows), _random_unimodular(rng, n, 3 * n)).rows


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(r) + [0] * m for r in a] + [[0] * n + list(r) for r in b]


def _form_kinds(rng):
    """(rows, signature) of the three kinds of forms, each from its blocks."""
    names = _random_blocks(rng, 12)
    extra = _random_blocks(rng, 6)
    rows = from_blocks(names).rows
    sig = sum(BLOCK_SIGNATURES[b] for b in names)
    return {
        # interleaved pieces
        "permuted block sum": (_permuted(rng, rows), sig),
        # one piece, unless the conjugation happens to miss a block
        "conjugated": (_conjugated(rng, rows), sig),
        # a dense piece beside blocks, interleaved
        "conjugated + blocks": (
            _permuted(rng, _block_sum(_conjugated(rng, rows), from_blocks(extra).rows)),
            sig + sum(BLOCK_SIGNATURES[b] for b in extra),
        ),
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_fraction_oracles(seed):
    rng = random.Random(seed)
    for kind, (rows, sig) in _form_kinds(rng).items():
        q = IntersectionForm(rows)
        p = [rng.randint(-5, 5) for _ in rows]
        assert q.determinant == gauss_det(rows), kind
        assert q.signature() == fraction_signature(rows) == sig, kind
        assert q.square(CohomologyClass(p)) == fraction_square(rows, p), kind
        assert sorted(i for piece in q.pieces for i in piece) == list(range(q.rank))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_sympy_oracles(seed):
    rng = random.Random(seed)
    for kind, (rows, _) in _form_kinds(rng).items():
        q = IntersectionForm(rows)
        p = [rng.randint(-5, 5) for _ in rows]
        assert q.determinant == sympy_det(rows), kind
        assert q.square(CohomologyClass(p)) == sympy_square(rows, p), kind


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.booleans())
def test_signature_kernel_on_symmetric_matrices(seed, n, zero_diagonal):
    # any symmetric matrix, singular ones included; a zero diagonal forces
    # the hyperbolic split on pieces of rank above 2
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    assert forms._signature([list(r) for r in rows]) == fraction_signature(rows)


def test_bareiss_matches_sympy_on_singular_and_non_unimodular():
    for rows in ([[0, 0], [0, 0]], [[2, 1], [1, 2]], [[0, 2, 1], [2, 0, 3], [1, 3, 0]]):
        assert bareiss_determinant(rows) == sympy_det(rows) == gauss_det(rows)


def test_split_of_permuted_block_sum():
    # H on old indices 0-1, E8 on 2-9, <1> on 10; new index i is old perm[i]
    perm = [10, 0, 2, 5, 1, 9, 3, 7, 4, 8, 6]
    rows = from_blocks(["H", "E8", "1"]).rows
    q = IntersectionForm([[rows[i][j] for j in perm] for i in perm])
    assert q.pieces == ((0,), (1, 4), (2, 3, 5, 6, 7, 8, 9, 10))
    assert q.determinant == -1
    assert q.signature() == 9
    assert from_blocks(["1", "H", "E8", "-1"]).pieces == (
        (0,), (1, 2), tuple(range(3, 11)), (11,)
    )


def test_dense_form_is_one_piece():
    rows = [[2, 1], [1, 1]]
    assert IntersectionForm(rows).pieces == ((0, 1),)


def test_non_unimodular_piece_reports_whole_determinant():
    with pytest.raises(NotUnimodularError) as exc:
        IntersectionForm(_block_sum([[2, 1], [1, 2]], [[5]]))
    assert exc.value.abs_det == 15


def test_signature_is_not_computed_at_construction(monkeypatch):
    def fail(rows):
        raise AssertionError("signature computed eagerly")

    monkeypatch.setattr(forms, "_signature", fail)
    # the first E8 in a process builds the named-block table; that must not
    # take a signature either
    forms._named_pieces.cache_clear()
    q = from_blocks(["1", "H", "E8"])
    q.square(CohomologyClass([1] * q.rank))
    q.is_even()


# -- closed forms and the named-block table ---------------------------------------

NEG_E8 = [[-x for x in row] for row in BLOCK_MATRICES["E8"]]
PERMUTED_E8 = _permuted(random.Random(8), BLOCK_MATRICES["E8"])
# summands that force each route: rank 1 with a = +-1; rank 2 with det -1 and
# +1, either sign of the off-diagonal entry and either sign of a definite
# piece; E8 from the table; -E8 and a basis-permuted E8 by Bareiss
SUMMANDS = {
    "<1>": [[1]],
    "<-1>": [[-1]],
    "[[1,-2],[-2,3]]": [[1, -2], [-2, 3]],
    "[[2,1],[1,1]]": [[2, 1], [1, 1]],
    "[[0,-1],[-1,0]]": [[0, -1], [-1, 0]],
    "[[-1,1],[1,0]]": [[-1, 1], [1, 0]],
    "[[-2,1],[1,-1]]": [[-2, 1], [1, -1]],
    "H": [[0, 1], [1, 0]],
    "E8": BLOCK_MATRICES["E8"],
    "-E8": NEG_E8,
    "permuted E8": PERMUTED_E8,
}
BAREISS_SUMMANDS = {"-E8", "permuted E8"}


def _pairings(n):
    """Every pairing vector in [-2, 2]^n for n <= 2; above, the unit vectors,
    their pairwise sums and differences, and two fixed vectors."""
    if n <= 2:
        return [list(p) for p in itertools.product(range(-2, 3), repeat=n)]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [
        [x + s * y for x, y in zip(unit[i], unit[j])]
        for i in range(n) for j in range(i + 1, n) for s in (1, -1)
    ]
    return unit + pairs + [list(range(-3, n - 3)), [2, -1, 0, 3, -2, 1, 1, -3][:n]]


@pytest.mark.parametrize("name", sorted(SUMMANDS))
def test_summand_kernels_match_oracles(name):
    rows = SUMMANDS[name]
    q = IntersectionForm(rows)
    assert q.pieces == (tuple(range(len(rows))),)
    assert q.determinant == gauss_det(rows) == sympy_det(rows)
    assert q.signature() == fraction_signature(rows)
    ps = _pairings(len(rows))
    for p in ps:
        assert q.square(CohomologyClass(p)) == fraction_square(rows, p), p
    for p in ps if len(rows) <= 2 else ps[-2:]:
        assert q.square(CohomologyClass(p)) == sympy_square(rows, p), p


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_forced_summands_in_a_permuted_sum(seed):
    # the summands of a block sum in a shuffled basis: restricted to its
    # sorted indices a rank-2 summand may appear transposed, as [[c,b],[b,a]]
    rng = random.Random(seed)
    names = [rng.choice(sorted(SUMMANDS)) for _ in range(rng.randint(1, 6))]
    rows = SUMMANDS[names[0]]
    for name in names[1:]:
        rows = _block_sum(rows, SUMMANDS[name])
    rows = _permuted(rng, rows)
    q = IntersectionForm(rows)
    p = [rng.randint(-4, 4) for _ in rows]
    assert len(q.pieces) == len(names)
    assert q.determinant == gauss_det(rows)
    assert q.signature() == fraction_signature(rows)
    assert q.square(CohomologyClass(p)) == fraction_square(rows, p)


def test_named_table_matches_sympy():
    table = forms._named_pieces()
    named = {rows for rows in BLOCK_MATRICES.values() if len(rows) > 2}
    assert set(table) == named
    for rows in named:
        assert table[rows] == (sympy_det(rows), sympy_inverse(rows))


def _count_bareiss(monkeypatch):
    forms._named_pieces()  # the table is built once, on first use
    calls = []
    real = forms.bareiss_determinant

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(forms, "bareiss_determinant", counted)
    return calls


def test_named_blocks_take_no_bareiss(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    q = from_blocks(["1", "-1", "H", "E8", "H", "-1", "E8", "1"])
    p = CohomologyClass(range(1, q.rank + 1))
    assert q.square(p) == fraction_square(q.rows, p.pairings)
    assert calls == []


@pytest.mark.parametrize("name", sorted(BAREISS_SUMMANDS))
def test_permuted_or_negated_e8_takes_bareiss(monkeypatch, name):
    calls = _count_bareiss(monkeypatch)
    rows = _block_sum(SUMMANDS[name], [[1]])
    q = IntersectionForm(rows)
    assert calls == [8]
    p = list(range(1, 10))
    assert q.square(CohomologyClass(p)) == fraction_square(rows, p)
    assert calls == [8, 9]


# -- size limit -----------------------------------------------------------------------

def test_rank_above_limit_is_range_error():
    n = MAX_RANK + 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(RangeExceededError):
        IntersectionForm(identity)
    with pytest.raises(RangeExceededError):
        from_blocks(["1"] * n)
    with pytest.raises(RangeExceededError):
        forms.manifold_from_json({"form": {"blocks": ["E8"] * 10**6}})
    with pytest.raises(RangeExceededError):
        forms.manifold_from_json({"form": {"matrix": identity}})


def test_rank_at_limit_is_accepted():
    q = from_blocks(["H"] * (MAX_RANK // 2))
    assert q.rank == MAX_RANK
    assert q.signature() == 0
    assert len(q.pieces) == MAX_RANK // 2
