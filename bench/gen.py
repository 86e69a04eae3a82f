"""Seeded inputs and their expected answers, derived without the package.

Nothing here imports fiveclass.  Every expected answer comes from the
generator's own choices: the block list and basis change of a form, the
block counts of an expression, the parameters of a standard form, or the
documented group orders of the bordism groups.
"""

from __future__ import annotations

import math
import random

# Blocks of the "blocks" JSON schema.  E8 is listed in the basis order the
# schema documents, so a class vector chosen here pairs with the same basis.
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)
BLOCK_ROWS = {"1": ((1,),), "-1": ((-1,),), "H": ((0, 1), (1, 0)), "E8": E8}
BLOCK_SIGNATURE = {"1": 1, "-1": -1, "H": 0, "E8": 8}


# -- intersection forms and circle-bundle inputs --------------------------------

def random_blocks(rng: random.Random, rank: int, wtype: str) -> list[str]:
    """Block names whose ranks sum to `rank`.

    Type II needs an even form (H and E8 only); types I and III need an odd
    form, so they get at least one <1> or <-1>.
    """
    if wtype == "II":
        if rank % 2:
            raise ValueError("an even form has even rank here")
        names, left = [], rank
        while left:
            name = "E8" if left >= 8 and rng.random() < 0.3 else "H"
            names.append(name)
            left -= len(BLOCK_ROWS[name])
    else:
        names, left = [rng.choice(("1", "-1"))], rank - 1
        while left:
            pool = [n for n in BLOCK_ROWS if len(BLOCK_ROWS[n]) <= left]
            name = rng.choice(pool)
            names.append(name)
            left -= len(BLOCK_ROWS[name])
    rng.shuffle(names)
    return names


def block_sum(names: list[str]) -> tuple[tuple[int, ...], ...]:
    n = sum(len(BLOCK_ROWS[b]) for b in names)
    rows, at = [], 0
    for b in names:
        for brow in BLOCK_ROWS[b]:
            rows.append((0,) * at + brow + (0,) * (n - at - len(brow)))
        at += len(BLOCK_ROWS[b])
    return tuple(rows)


def random_class(rng: random.Random, names: list[str], wtype: str):
    """A primitive class ct = c1/2 with the w2-type `wtype`, and <ct^2,[X]>.

    Each block gets ct_b = Q_b v_b for a chosen integer v_b, so the square is
    the sum of v_b^T Q_b v_b with no inverse to compute.  ct is
    characteristic exactly when it is odd on every <+-1> and even elsewhere.
    """
    diag = [row[i] for b in names for i, row in enumerate(BLOCK_ROWS[b])]
    while True:
        ct, sq = [], 0
        for b in names:
            rows = BLOCK_ROWS[b]
            if wtype == "III":
                v = [rng.choice((-3, -1, 1, 3)) if len(rows) == 1
                     else 2 * rng.randint(-1, 1) for _ in rows]
            else:
                v = [rng.randint(-2, 2) for _ in rows]
            p = [sum(a * x for a, x in zip(row, v)) for row in rows]
            ct += p
            sq += sum(a * x for a, x in zip(p, v))
        if math.gcd(*ct) != 1:
            continue
        characteristic = all((x - d) % 2 == 0 for x, d in zip(ct, diag))
        if wtype == "II" or characteristic == (wtype == "III"):
            return ct, sq


def conjugate(rng: random.Random, rows, ct, target: int = 100):
    """Q' = P^T Q P and ct' = P^T ct for a random unimodular P.

    P is a product of elementary column operations (col i += m col j), at
    least two per basis vector and until the largest entry of Q' reaches
    `target`; a product that overshoots 1.5 * `target` is drawn again, so
    the entry sizes, and with them the cost of exact elimination, vary
    little between inputs.
    """
    n = len(rows)
    while True:
        q = [list(r) for r in rows]
        c = list(ct)
        steps, top = 0, 0
        while n > 1 and (steps < 2 * n or top < target):
            i, j = rng.sample(range(n), 2)
            m = rng.choice((-1, 1))
            for r in q:
                r[i] += m * r[j]
            q[i] = [a + m * b for a, b in zip(q[i], q[j])]
            c[i] += m * c[j]
            steps += 1
            top = max(top, max(map(abs, q[i])))
        if top <= 1.5 * target:
            return tuple(tuple(r) for r in q), c


def _tail(k: int) -> str:
    return f" # {k}*(S2xS2)xS1" if k else ""


def expected_bundle(rank: int, sig: int, sq: int, wtype: str, ks: int) -> dict:
    """The classification of the total space, from the paper's families.

    r = rank - 1; q = <ct^2,[X]> mod 8 up to sign; s = rank + <ct^2,[X]> mod 2
    in type I; k inverts r = 2k + base of the matching standard family.
    """
    r = rank - 1
    q = s = None
    if wtype == "II":
        base = 1
    else:
        q = min(sq % 8, -sq % 8)
        odd = q % 2
        if wtype == "III":
            if (sq - sig) % 8:
                raise AssertionError("van der Blij congruence fails on a generated input")
            base = 0 if odd else 1
        else:
            s = (rank + sq) % 2
            base = (2 if odd else 3) if s == 0 else (1 if odd else 2)
    if (r - base) % 2 or r < base:
        raise AssertionError(f"no standard family for type {wtype}, r={r}, q={q}, s={s}")
    k = (r - base) // 2
    if wtype == "II":
        homeo = ("*S2xRP3" if ks else "S2xRP3") + _tail(k)
        smooth = ["S2xRP3" + _tail(k)]
    elif wtype == "III":
        homeo = f"X({ks},{q})" + _tail(k)
        smooth = [f"X({x})" + _tail(k) for x in sorted({q, 8 - q})]
    else:
        mid = " # CP2xS1" if s else " # S2xRP3"
        homeo = f"X({ks},{q})" + mid + _tail(k)
        smooth = [f"X({q})" + mid + _tail(k)]
    return {
        "signature": sig, "w2type": wtype, "r": r, "q": q, "s": s, "k": k,
        "smoothable": ks == 0, "homeo": homeo, "smooth": smooth if ks == 0 else [],
    }


def bundle_input(rng: random.Random, rank: int, wtype: str, ks: int, dense: bool) -> dict:
    """A valid divisibility-2 bundle input over a random block sum, maybe conjugated."""
    names = random_blocks(rng, rank, wtype)
    ct, sq = random_class(rng, names, wtype)
    rows = block_sum(names)
    if dense:
        rows, ct = conjugate(rng, rows, ct)
    sig = sum(BLOCK_SIGNATURE[b] for b in names)
    return {
        "blocks": names, "rows": rows, "ks": ks, "c1": [2 * x for x in ct],
        "expect": expected_bundle(rank, sig, sq, wtype, ks),
    }


def malformed_bundle(rng: random.Random, kind: str, rank: int) -> dict:
    """A bundle input of a documented error class, and that class's name."""
    item = bundle_input(rng, rank, rng.choice(("I", "III")), 0, rng.random() < 0.5)
    rows = [list(r) for r in item["rows"]]
    c1 = item["c1"]
    error = {
        "not-unimodular": "NotUnimodularError", "not-symmetric": "NotSymmetricError",
        "c1-divisibility-3": "WrongDivisibilityError", "c1-primitive": "WrongDivisibilityError",
        "c1-zero": "ZeroClassError", "ks-2": "InvalidFormError", "c1-length": "InvalidFormError",
    }[kind]
    if kind == "not-unimodular":
        rows[0][0] *= 3
        for r in rows[1:]:
            r[0] = 0
        rows[0] = [rows[0][0]] + [0] * (len(rows) - 1)
    elif kind == "not-symmetric":
        rows[0][-1] += 1
    elif kind == "c1-divisibility-3":
        c1 = [3 * x // 2 for x in c1]
    elif kind == "c1-primitive":
        c1 = [x // 2 for x in c1]
    elif kind == "c1-zero":
        c1 = [0] * len(c1)
    elif kind == "c1-length":
        c1 = c1 + [2]
    return {
        "blocks": item["blocks"], "rows": tuple(tuple(r) for r in rows),
        "ks": 2 if kind == "ks-2" else 0, "c1": c1, "expect": {"error": error},
        "malformed": kind,
    }


# -- block expressions ------------------------------------------------------------

def _block_rank(token: str) -> tuple[int, bool]:
    """(rank, has pi_1 = Z/2) of one block token, from the block vocabulary."""
    if token.startswith("X("):
        q = int(token[2:-1].split(",")[-1])
        return (0 if q % 2 else 1), True
    if token.endswith("S2xRP3"):
        return 1, True
    if token == "CP2xS1":
        return 1, False
    return 2 * int(token.split("*")[0]), False


def random_expression(rng: random.Random, nblocks: int, category: str, wtype: str,
                      framed: bool) -> dict:
    """An expression of `nblocks` blocks with the given category and w2-type.

    The type is fixed by which blocks occur: a CP2xS1, or a fake RP5 next to
    an S2xRP3, makes type I; fakes alone make III; S2xRP3s alone make II.
    """
    top = category == "top"

    def fake(top_only: bool) -> str:
        if top and (top_only or rng.random() < 0.5):
            return f"X({rng.randint(0, 1)},{rng.randint(0, 7)})"
        return f"X({rng.randint(0, 15)})"

    def s2rp3(top_only: bool) -> str:
        return "*S2xRP3" if top and (top_only or rng.random() < 0.3) else "S2xRP3"

    def s2s2() -> str:
        return f"{rng.randint(1, 3)}*(S2xS2)xS1"

    if wtype == "III":
        need = [fake(top)]
        extra = [lambda: fake(False), s2s2]
    elif wtype == "II":
        need = [s2rp3(top)]
        extra = [lambda: s2rp3(False), s2s2]
    else:
        need = [fake(top), rng.choice(("CP2xS1", s2rp3(False)))]
        extra = [lambda: fake(False), lambda: s2rp3(False), lambda: "CP2xS1", s2s2]
    if nblocks < len(need):
        raise ValueError(f"type {wtype} needs at least {len(need)} blocks")
    tokens = list(need)
    while len(tokens) < nblocks:
        tokens.append(rng.choice(extra)())
    rng.shuffle(tokens)
    ranks = [_block_rank(t) for t in tokens]
    r = sum(rk for rk, _ in ranks) + sum(z2 for _, z2 in ranks) - 1
    text = _pad(rng, tokens[0])
    for t in tokens[1:]:
        join = "#~" if framed and rng.random() < 0.5 else "#"
        text += rng.choice((" ", "", "  ")) + join + rng.choice((" ", "")) + _pad(rng, t)
    return {"text": text, "expect": {"category": category, "w2type": wtype, "r": r,
                                     "blocks": nblocks}}


def _pad(rng: random.Random, token: str) -> str:
    """Insert insignificant whitespace inside X(..) now and then."""
    if token.startswith("X(") and rng.random() < 0.2:
        return "X( " + token[2:-1].replace(",", " , ") + " )"
    return token


MALFORMED_EXPRESSIONS = {
    "trailing-hash": ("X(1) # S2xRP3 #", "ExpressionSyntaxError"),
    "unknown-term": ("X(1) # Y(2)", "ExpressionSyntaxError"),
    "zero-count": ("0*(S2xS2)xS1 # X(1)", "ExpressionSemanticError"),
    "no-z2-block": ("CP2xS1 # 2*(S2xS2)xS1", "ExpressionSemanticError"),
}


# -- standard forms ----------------------------------------------------------------

def family_r(wtype: str, k: int, q, s) -> int:
    """Rank formulas of the standard-form families."""
    if wtype == "II":
        return 2 * k + 1
    odd = q % 2
    if wtype == "III":
        return 2 * k + (0 if odd else 1)
    return 2 * k + ((2 if odd else 3) if s == 0 else (1 if odd else 2))


def standard_forms(r_max: int, category: str, wtype=None) -> set:
    """Parameters (category, type, k, q, s, p) of all standard forms, r <= r_max."""
    top = category == "top"
    out = set()
    for p in ((0, 1) if top else (None,)):
        for k in range(r_max // 2 + 1):
            out.add((category, "II", k, None, None, p))
            out.update((category, "III", k, q, None, p) for q in range(5 if top else 9))
            out.update((category, "I", k, q, s, p) for q in range(5) for s in (0, 1))
    return {f for f in out if family_r(f[1], f[2], f[3], f[4]) <= r_max
            and (wtype is None or f[1] == wtype)}


def forms_equivalent(a, b, level: str) -> bool:
    """Equivalence of two standard forms, read off their parameters.

    diffeo: the same smooth form.  homeo: the same after forgetting to the
    topological groups (KS 0, the Z/16 class of type III taken mod 8 up to
    sign).  homotopy: same type and r, and in type I the same s.
    """
    ra, rb = family_r(*a[1:5]), family_r(*b[1:5])
    if level == "diffeo":
        return a == b
    if level == "homeo":
        return _forget(a) + (ra,) == _forget(b) + (rb,)
    return (a[1], ra) == (b[1], rb) and (a[1] != "I" or a[4] == b[4])


def _forget(f):
    category, wtype, k, q, s, p = f
    if category == "top":
        return wtype, q, s, p
    if wtype == "III":
        q = min(q % 8, -q % 8)
    return wtype, q, s, 0


# -- bordism elements ---------------------------------------------------------------

GROUP_ORDERS = {
    "pinc": (8, 2), "pin+": (16,), "pin-": (),
    "top-pinc": (2, 8, 2), "top-pin+": (2, 8), "top-pin-": (2,),
}


def render_element(name: str, coords) -> str:
    body = str(coords[0]) if len(coords) == 1 else "(" + ",".join(map(str, coords)) + ")"
    return f"{name}:{body}"


def random_element(rng: random.Random, name: str) -> tuple[str, tuple[int, ...]]:
    """Element text with unreduced coordinates, and its reduced coordinates."""
    raw = [rng.randint(-20, 20) for _ in GROUP_ORDERS[name]]
    text = render_element(name, raw)
    if rng.random() < 0.2:
        text = " " + text.replace(",", ", ") + " "
    return text, tuple(x % o for x, o in zip(raw, GROUP_ORDERS[name]))


def bordism_expect(name: str, a, b) -> dict:
    orders = GROUP_ORDERS[name]
    total = tuple((x + y) % o for x, y, o in zip(a, b, orders))
    negated = tuple(-x % o for x, o in zip(total, orders))
    forget = None
    if name == "pin+":
        forget = (0, total[0] % 8)
    elif name == "pinc":
        forget = (0,) + total
    elif name == "pin-":
        forget = (0,)
    return {"sum": total, "neg": negated, "canonical": min(total, negated), "forget": forget}

