"""Tests for the circle-bundle classification."""

import random

import pytest

from fiveclass.algebra import W2Type, check_relations
from fiveclass.bundle import BundleInput, classify, is_smoothable, w2_type
from fiveclass.errors import (
    InvalidFormError,
    WrongDivisibilityError,
    ZeroClassError,
)
from fiveclass.forms import CohomologyClass, IntersectionForm, from_blocks, manifold_from_json
from fiveclass.selfcheck import check_bundle, random_bundle_input


def c(*xs):
    return CohomologyClass(xs)


def test_w2_type_examples():
    assert w2_type(IntersectionForm([[1]]), c(2)) is W2Type.III
    even = from_blocks(["H", "H"])
    assert w2_type(even, c(2, 0, 0, 0)) is W2Type.II
    # oracle: candidate characteristic vector has parities (1,1), c1/2 = (1,0)
    assert w2_type(from_blocks(["1", "-1"]), c(2, 0)) is W2Type.I


def test_w2_type_needs_divisibility_two():
    with pytest.raises(WrongDivisibilityError):
        w2_type(IntersectionForm([[1]]), c(1))
    with pytest.raises(WrongDivisibilityError):
        w2_type(IntersectionForm([[1]]), c(4))


def test_is_smoothable():
    assert not is_smoothable(1, c(2))
    assert is_smoothable(1, c(1, 0))
    assert is_smoothable(0, c(2, 4))
    assert is_smoothable(1, c(3, 0))
    with pytest.raises(ZeroClassError):
        is_smoothable(0, c(0, 0))


def test_classify_rp5():
    res = classify(BundleInput(IntersectionForm([[1]]), 0, c(2)))
    assert res.w2type is W2Type.III
    assert res.r == 0
    assert res.homeo_form.text() == "X(0,1)"
    assert res.smoothable
    assert [f.text() for f in res.smooth_forms] == ["X(1)", "X(7)"]


def test_classify_k3_bundle():
    k3 = from_blocks(["E8", "E8", "H", "H", "H"])
    c1 = c(*([2] + [0] * 21))
    res = classify(BundleInput(k3, 0, c1))
    assert res.w2type is W2Type.II
    assert res.k == 10
    assert res.r == 21
    assert res.homeo_form.text() == "S2xRP3 # 10*(S2xS2)xS1"
    assert [f.text() for f in res.smooth_forms] == ["S2xRP3 # 10*(S2xS2)xS1"]


def test_classify_type_one_example():
    # oracle, by hand: q = ct^2 = 1, s = (2 + 1) mod 2 = 1,
    # k = (2 - (5 + (-1))/2)/2 = 0, r = 1; parity q+s+r = 3, odd
    res = classify(BundleInput(from_blocks(["1", "-1"]), 0, c(2, 0)))
    assert res.w2type is W2Type.I
    assert (res.q, res.s, res.k, res.r) == (1, 1, 0, 1)
    assert res.smooth_forms[0].text() == "X(1) # CP2xS1"


def test_classify_nonsmoothable():
    res = classify(BundleInput(IntersectionForm([[1]]), 1, c(2)))
    assert not res.smoothable
    assert res.smooth_forms == ()
    assert res.homeo_form.text() == "X(1,1)"
    assert res.invariants.ks == 1


def test_classify_type_three_singleton_ambiguity():
    # signature 4 form, ct = (1,1,1,1) characteristic, ct^2 = 4: the two
    # candidate classes 4 and 12 agree mod +-, so the set collapses
    q4 = from_blocks(["1", "1", "1", "1"])
    res = classify(BundleInput(q4, 0, c(2, 2, 2, 2)))
    assert res.w2type is W2Type.III
    assert res.q == 4
    assert [f.q for f in res.smooth_forms] == [4]
    assert res.k == 1 and res.r == 3


def test_classify_star_family_for_spin_ks_one():
    even = from_blocks(["H"])
    res = classify(BundleInput(even, 1, c(2, 0)))
    assert res.w2type is W2Type.II
    assert res.homeo_form.text() == "*S2xRP3"
    assert res.homeo_form.p == 1 and res.k == 0


def test_classify_divisibility_errors():
    with pytest.raises(ZeroClassError):
        classify(BundleInput(IntersectionForm([[1]]), 0, c(0)))
    with pytest.raises(WrongDivisibilityError) as exc:
        classify(BundleInput(IntersectionForm([[1]]), 0, c(1)))
    assert "Smale-Barden" in str(exc.value)
    with pytest.raises(WrongDivisibilityError) as exc:
        classify(BundleInput(IntersectionForm([[1]]), 0, c(6)))
    assert exc.value.divisibility == 6


def test_bundle_input_validation():
    with pytest.raises(InvalidFormError):
        BundleInput(IntersectionForm([[1]]), 0, c(2, 0))
    with pytest.raises(InvalidFormError):
        BundleInput(IntersectionForm([[1]]), 2, c(2))
    with pytest.raises(InvalidFormError):
        BundleInput(IntersectionForm([[1]]), True, c(2))


@pytest.mark.parametrize("ks", [2, True, 1.0])
def test_is_smoothable_checks_ks_as_bundle_input_does(ks):
    with pytest.raises(InvalidFormError) as built:
        BundleInput(IntersectionForm([[1]]), ks, c(2))
    with pytest.raises(InvalidFormError) as asked:
        is_smoothable(ks, c(2))
    with pytest.raises(InvalidFormError) as read:
        manifold_from_json({"form": {"blocks": ["1"]}, "ks": ks})
    assert str(asked.value) == str(read.value) == str(built.value)


def test_classify_negated_c1_gives_same_answer():
    rng = random.Random(5)
    for _ in range(25):
        inp = random_bundle_input(rng)
        neg = BundleInput(
            inp.form, inp.ks, CohomologyClass(-x for x in inp.c1.pairings)
        )
        a, b = classify(inp), classify(neg)
        assert (a.w2type, a.r, a.q, a.s, a.k) == (b.w2type, b.r, b.q, b.s, b.k)
        assert a.homeo_form == b.homeo_form
        assert a.smooth_forms == b.smooth_forms


def test_classify_outputs_satisfy_relations():
    rng = random.Random(7)
    for _ in range(40):
        res = classify(random_bundle_input(rng))
        assert check_relations(res.invariants)
        for f in res.smooth_forms:
            assert check_relations(f.invariants())


def test_classification_invariants_are_the_homeo_forms():
    rng = random.Random(17)
    for _ in range(60):
        res = classify(random_bundle_input(rng))
        assert res.invariants == res.homeo_form.invariants()
        assert res.invariants.ks == res.homeo_form.p


def test_stabilization_by_hyperbolic_summand():
    assert check_bundle(11, 120).endswith(" on 30 random bundle inputs")


def test_k_always_non_negative_integer():
    # NonIntegralKError must never fire on valid divisibility-2 inputs
    rng = random.Random(13)
    for _ in range(60):
        res = classify(random_bundle_input(rng))
        assert res.k >= 0
        assert res.homeo_form.r == res.r
