"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance).  Each test prints a pass line on success; run with
pytest -v -s tests/test_acceptance.py to see them.
"""

import random

from fiveclass import ahss, bordism, selfcheck
from fiveclass.algebra import Category, Level, W2Type, enumerate_forms, equivalent, normalize
from fiveclass.bundle import BundleInput, classify
from fiveclass.forms import CohomologyClass, IntersectionForm, from_blocks
from fiveclass.parsing import parse_expression

SEED = 1729


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_rp5_reproduction():
    res = classify(BundleInput(IntersectionForm([[1]]), 0, CohomologyClass([2])))
    assert res.w2type is W2Type.III
    assert res.r == 0
    assert res.homeo_form.text() == "X(0,1)"
    assert [f.text() for f in res.smooth_forms] == ["X(1)", "X(7)"]
    _report(1, "circle bundle over CP^2 gives type III, r=0, X(0,1), {X(1), X(7)}")


def test_criterion_2_k3_bundle():
    k3 = from_blocks(["E8", "E8", "H", "H", "H"])
    res = classify(BundleInput(k3, 0, CohomologyClass([2] + [0] * 21)))
    assert res.w2type is W2Type.II
    assert res.k == 10
    assert res.homeo_form.text() == "S2xRP3 # 10*(S2xS2)xS1"
    _report(2, "K3 form bundle is type II with k = rank/2 - 1 = 10")


def test_criterion_3_parity_relations_across_enumeration():
    # check_algebra raises at the first form with r <= 12 whose parity relation fails
    selfcheck.check_algebra(SEED, 0)
    total = sum(len(enumerate_forms(12, c)) for c in (Category.SMOOTH, Category.TOP))
    assert total > 200  # hundreds of forms
    _report(3, f"parity relations hold for all {total} standard forms with r <= 12")


def test_criterion_4_bordism_table_and_axioms():
    expected = {
        "pinc": ((8, 2), ("RP4", "CP2")),
        "pin+": ((16,), ("RP4",)),
        "pin-": ((), ()),
        "top-pinc": ((2, 8, 2), ("E8", "RP4", "CP2")),
        "top-pin+": ((2, 8), ("E8", "RP4")),
        "top-pin-": ((2,), ("E8",)),
    }
    for kind in bordism.ALL_KINDS:
        info = bordism.group_info(kind)
        assert (info.orders, info.generators) == expected[kind.name]
    selfcheck.check_bordism(SEED, 0)
    _report(4, "all six bordism groups match the table; axioms verified exhaustively")


def test_criterion_5_framing_calibration():
    # check_algebra's case 0: X(1) joined to itself with framing 0 / 1
    selfcheck.check_algebra(SEED, 0)
    _report(5, "X(1) join X(1) normalizes to X(2) / X(0) for framings 0 / 1")


def test_criterion_6_ahss_orders():
    assert ahss.omega5_order(1, ahss.Twist.NONE) == 4
    assert ahss.omega5_order(0, ahss.Twist.TWO_ETA) == 16
    assert ahss.omega5_order(0, ahss.Twist.NONE) == 1
    selfcheck.check_ahss(SEED, 0)
    _report(6, "spectral-sequence orders match the closed forms for r <= 4, all twists")


def test_criterion_7_van_der_blij():
    # one characteristic class on each of 600 random forms
    assert selfcheck.check_forms(SEED, 600).endswith(" on 600 random block forms")
    _report(7, "square = signature mod 8 and = rank mod 2 on 600 forms, 600 classes")


def test_criterion_8_equivalence_hierarchy():
    all_forms = enumerate_forms(6, Category.SMOOTH) + enumerate_forms(6, Category.TOP)
    pairs = 0
    for a in all_forms:
        for b in all_forms:
            both_smooth = Category.TOP not in (a.category, b.category)
            homeo = equivalent(a, b, Level.HOMEO)
            homotopy = equivalent(a, b, Level.HOMOTOPY)
            if both_smooth and equivalent(a, b, Level.DIFFEO):
                assert homeo
            if homeo:
                assert homotopy
            pairs += 1
    fakes = {q: normalize(parse_expression(f"X({q})")) for q in (1, 3, 5, 7)}
    homeo_pairs = {
        (a, b)
        for a in fakes
        for b in fakes
        if a < b and equivalent(fakes[a], fakes[b], Level.HOMEO)
    }
    assert homeo_pairs == {(1, 7), (3, 5)}
    for a in fakes:
        for b in fakes:
            if a < b:
                assert not equivalent(fakes[a], fakes[b], Level.DIFFEO)
                assert equivalent(fakes[a], fakes[b], Level.HOMOTOPY)
    _report(
        8,
        f"diffeo => homeo => homotopy over {pairs} pairs (r <= 6); fake RP5 "
        "partition {X(1)=X(7)}, {X(3)=X(5)} under homeo, all four homotopy equal",
    )


def test_criterion_9_stabilization():
    # check_bundle takes a quarter of its count as bundle inputs
    assert selfcheck.check_bundle(SEED, 200).endswith(" on 50 random bundle inputs")
    _report(9, "adding a hyperbolic summand shifts (r, k) by (2, 1), keeps (type, q, s)")


def test_criterion_10_integrality_of_k():
    rng = random.Random(SEED + 1)
    checked = 0
    for _ in range(60):
        # classify raises NonIntegralKError if any k formula failed; the
        # suite asserts that never fires on valid divisibility-2 input
        res = classify(selfcheck.random_bundle_input(rng))
        assert isinstance(res.k, int) and res.k >= 0
        assert res.homeo_form.r == res.r
        for f in res.smooth_forms:
            assert f.r == res.r
        checked += 1
    _report(10, f"every k formula produced a non-negative integer ({checked} inputs)")
