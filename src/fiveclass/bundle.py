"""Classify the total space of a circle bundle over a simply-connected
closed 4-manifold X when c1 = 2 * primitive, so pi_1(M) = Z/2.

Input: the intersection form Q of X, its Kirby-Siebenmann bit, and the
pairing vector of c1.  Write ct = c1/2 (the Chern class of the bundle
upstairs).  Then r = rk H_2(X) - 1 and the w2-type of M is

    II  iff Q is even (X spin),
    III iff ct is characteristic (w2(X) = ct mod 2),
    I   otherwise.

M is smoothable iff KS(X) = 0 (for even divisibility); the KS bit of the
characteristic submanifold equals KS(X), so the topological answer always
carries p = KS(X).  The arf-style coordinate is q = <ct^2, [X]> mod 8 taken
mod +-, and in type I the w2^2 coordinate is s = rk H_2(X) + <ct^2, [X]>
mod 2, using that <w2(X)^2, [X]> = rk H_2(X) mod 2 for any closed
4-manifold.  These are the topological invariants; the standard form with
them, and with it the number k of S2xS2 summands, comes from
algebra.standard_form_from_invariants.  For smooth type III the pin+ class is
only pinned down mod 8, never mod 16: the answer is the two-element
candidate set {q, q+8} mod +-, which collapses to one element when q = 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Category,
    Invariants,
    StandardForm,
    W2Type,
    _invariants,
    standard_form_from_invariants,
)
from .errors import InvalidFormError, WrongDivisibilityError, ZeroClassError
from .forms import CohomologyClass, IntersectionForm, check_ks


@dataclass(frozen=True)
class BundleInput:
    form: IntersectionForm
    ks: int
    c1: CohomologyClass

    def __post_init__(self):
        check_ks(self.ks)
        if len(self.c1) != self.form.rank:
            raise InvalidFormError(
                f"c1 has length {len(self.c1)}, form has rank {self.form.rank}"
            )


@dataclass(frozen=True)
class Classification:
    m: int
    r: int
    w2type: W2Type
    smoothable: bool
    homeo_form: StandardForm
    smooth_forms: tuple[StandardForm, ...]
    invariants: Invariants
    q: int | None
    s: int | None
    k: int


def w2_type(form: IntersectionForm, c1: CohomologyClass) -> W2Type:
    """w2-type of the total space; requires divisibility(c1) = 2."""
    return _w2_type_of_half(form, _half(c1))


def _w2_type_of_half(form: IntersectionForm, ct: CohomologyClass) -> W2Type:
    if form.is_even():
        return W2Type.II
    if form.is_characteristic(ct):
        return W2Type.III
    return W2Type.I


def is_smoothable(ks: int, c1: CohomologyClass) -> bool:
    """Odd divisibility: always smoothable.  Even: smoothable iff KS(X)=0."""
    check_ks(ks)
    return _divisibility(c1) % 2 == 1 or ks == 0


def _divisibility(c1: CohomologyClass) -> int:
    """The divisibility of c1, which must not be the zero class."""
    m = c1.divisibility()
    if m == 0:
        raise ZeroClassError("c1 is the zero class; the bundle is trivial")
    return m


def _half(c1: CohomologyClass) -> CohomologyClass:
    """ct = c1/2, after checking that c1 has divisibility exactly 2."""
    m = _divisibility(c1)
    if m == 1:
        raise WrongDivisibilityError(
            1,
            "c1 is primitive (m=1): the total space is simply connected; "
            "that is the Smale-Barden / Duan-Liang classification, "
            "not handled here",
        )
    if m != 2:
        raise WrongDivisibilityError(
            m,
            f"c1 has divisibility m={m}: pi_1(M) = Z/{m} is outside the "
            "classified family (only m=2 is supported)",
        )
    return c1.halved()


def classify(inp: BundleInput) -> Classification:
    """Full classification of the total space, per the w2-type trichotomy.

    Always returns the homeomorphism type; when KS(X) = 0 also the smooth
    answer, which for type III is the order-2 candidate set.
    """
    form, ks = inp.form, inp.ks
    ct = _half(inp.c1)
    t = _w2_type_of_half(form, ct)
    r = form.rank - 1
    if t is W2Type.II:
        q8 = s = None
    else:
        qraw = form.square(ct)
        q8 = min(qraw % 8, (-qraw) % 8)
        s = (form.rank + qraw) % 2 if t is W2Type.I else None
    inv = _invariants(Category.TOP, t, r, {"E8": ks, "RP4": q8, "CP2": s})
    homeo = standard_form_from_invariants(inv)
    smoothable = ks == 0
    # smooth type III: class known only mod 8, so q8 and 8-q8 in Z/16 mod +-
    qs = sorted({q8, 8 - q8}) if t is W2Type.III else [q8]
    smooth = (
        tuple(StandardForm(Category.SMOOTH, t, homeo.k, q=q, s=s) for q in qs)
        if smoothable
        else ()
    )
    return Classification(
        m=2,
        r=r,
        w2type=t,
        smoothable=smoothable,
        homeo_form=homeo,
        smooth_forms=smooth,
        invariants=inv,
        q=q8,
        s=s,
        k=homeo.k,
    )
