"""Consistency checks shared by `fiveclass selftest` and the test suite, and
the seeded generators they draw from.

selftest runs CHECKS in order and prints the line each returns.  Every
check takes (seed, count); the exhaustive ones ignore both.  A seeded check
draws its cases in order from its own random.Random(seed).  At its first
failing case a check raises ConsistencyError (never assert, which python -O
strips) naming the check, the seed and the case index.
"""

from __future__ import annotations

import math
import random

from . import ahss, algebra, bordism, bundle, forms
from .bordism import Category
from .bundle import BundleInput
from .errors import ConsistencyError
from .forms import CohomologyClass, IntersectionForm
from .parsing import parse_expression


def random_form(
    rng: random.Random, max_rank: int = 24, even_only: bool = False
) -> IntersectionForm:
    """Random direct sum of <1>, <-1>, H, E8 blocks with rank <= max_rank."""
    pool = ["H", "E8"] if even_only else ["1", "-1", "H", "E8"]
    names: list[str] = []
    rank = 0
    while True:
        name = rng.choice(pool)
        size = len(forms.BLOCK_MATRICES[name])
        if rank + size > max_rank:
            break
        names.append(name)
        rank += size
        if rank >= max_rank or rng.random() < 0.25:
            break
    if not names:
        names = ["H"] if even_only else ["1"]
    return forms.from_blocks(names)


def random_characteristic(rng: random.Random, q: IntersectionForm) -> CohomologyClass:
    """A characteristic class: diagonal parities plus random even offsets."""
    return CohomologyClass(
        q.rows[i][i] + 2 * rng.randint(-3, 3) for i in range(q.rank)
    )


def random_primitive(rng: random.Random, n: int) -> CohomologyClass:
    """A primitive (gcd 1) integer vector of length n."""
    while True:
        vec = [rng.randint(-4, 4) for _ in range(n)]
        g = math.gcd(*vec)
        if g:
            return CohomologyClass(v // g for v in vec)


def random_bundle_input(rng: random.Random, max_rank: int = 12) -> BundleInput:
    """A valid divisibility-2 bundle input over a random block form."""
    even_only = rng.random() < 0.3
    q = random_form(rng, max_rank=max_rank, even_only=even_only)
    ct = random_primitive(rng, q.rank)
    c1 = CohomologyClass(2 * x for x in ct.pairings)
    ks = rng.randint(0, 1)
    return BundleInput(q, ks, c1)


# -- the checks -----------------------------------------------------------------

def _require(check: str, seed: int, case: int, laws: dict[str, bool]) -> None:
    """Raise ConsistencyError for the first of the case's laws that fails."""
    for what, holds in laws.items():
        if not holds:
            raise ConsistencyError(f"{check} check, seed {seed}, case {case}: {what}")


def check_bordism(seed: int, count: int) -> str:
    """Group laws and +- invariant canonicalize in all six bordism groups;
    case i is the i-th element over all groups."""
    add, canon, case = bordism.add, bordism.canonicalize, 0
    for kind in bordism.ALL_KINDS:
        elems, zero, n = list(bordism.elements(kind)), bordism.zero(kind), kind.name
        for a in elems:
            minus = bordism.neg(a)
            _require("bordism", seed, case, {
                f"{n} has {len(elems)} elements": len(elems) == kind.group_order,
                f"zero is not neutral in {n}": add(a, zero) == a,
                f"inverse axiom fails in {n}": add(a, minus) == zero,
                f"canonicalize not +-invariant in {n}": canon(a) == canon(minus),
                f"commutativity fails in {n}": all(add(a, b) == add(b, a) for b in elems),
                f"associativity fails in {n}": all(add(ab, c) == add(a, add(b, c))
                    for b in elems for ab in (add(a, b),) for c in elems),
            })
            case += 1
    return "ok: group axioms, all six bordism groups, exhaustively"


def check_algebra(seed: int, count: int) -> str:
    """X(1) # X(1) = X(2) and X(1) #~ X(1) = X(0) (case 0), then the parity
    relation of each standard form with r <= 12, smooth and topological."""
    x1 = parse_expression("X(1)")
    joins = tuple(algebra.normalize(algebra.connected_sum(x1, x1, bit)).text() for bit in (0, 1))
    _require("algebra", seed, 0, {f"X(1) joins give {joins}": joins == ("X(2)", "X(0)")})
    all_forms = [f for c in Category for f in algebra.enumerate_forms(12, c)]
    for case, f in enumerate(all_forms, start=1):
        _require("algebra", seed, case, {
            f"parity relation fails for {f.text()}": algebra.check_relations(f.invariants())
        })
    return "ok: framing calibration and parity relations up to r=12"


def check_ahss(seed: int, count: int) -> str:
    """Spectral-sequence orders against closed forms, per line in ahss.LINES."""
    for case, (r, twist) in enumerate(ahss.LINES):
        line = ahss.compute_line5(r, twist)
        _require("ahss", seed, case, {
            f"order {line.order} != closed form {line.expected} (r={r}, twist={twist.value})":
                line.order == line.expected
        })
    return f"ok: spectral-sequence orders match closed forms for r <= {ahss.R_MAX}"


def check_forms(seed: int, count: int) -> str:
    """Per random block form and characteristic c: <c^2, [X]> = signature
    mod 8 (van der Blij) and = rank mod 2."""
    rng = random.Random(seed)
    for case in range(count):
        q = random_form(rng)
        c = random_characteristic(rng, q)
        sq = q.square(c)
        _require("forms", seed, case, {
            "random characteristic vector is not characteristic": q.is_characteristic(c),
            "van der Blij congruence failed": (sq - q.signature()) % 8 == 0,
            "characteristic square / rank parity failed": (sq - q.rank) % 2 == 0,
        })
    return f"ok: van der Blij congruence on {count} random block forms"


def check_bundle(seed: int, count: int) -> str:
    """Per random bundle input, max(10, count // 4) of them: parity relations,
    and a hyperbolic summand shifts (r, k) by (2, 1) and keeps (type, q, s)."""
    rng = random.Random(seed)
    n = max(10, count // 4)
    for case in range(n):
        inp = random_bundle_input(rng)
        res = bundle.classify(inp)
        big = bundle.classify(BundleInput(inp.form.direct_sum(forms.hyperbolic()), inp.ks,
                                          CohomologyClass(inp.c1.pairings + (0, 0))))
        _require("bundle", seed, case, {
            "classification violates the parity relations":
                algebra.check_relations(res.invariants),
            "stabilization consistency failed": (big.r, big.k, big.w2type, big.q, big.s)
                == (res.r + 2, res.k + 1, res.w2type, res.q, res.s),
        })
    return f"ok: classification stabilization on {n} random bundle inputs"


CHECKS = (check_bordism, check_algebra, check_ahss, check_forms, check_bundle)
