"""The two workloads: input pools, pass order, the calls each item makes into
the package, and the checks of each answer against bench/gen.py.

An item's calls go through `call(name, fn, *args)`, so the same code runs
untraced (a direct call) and traced (a span per call).  Span names are
`<layer>.<function>`, the layer being the package module called.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import gen
from fiveclass import algebra, bordism, bundle, forms, parsing
from fiveclass.algebra import Category, Level
from fiveclass.errors import InputError

TYPES = ("I", "II", "III")
LEVELS = {"smooth": ("diffeo", "homeo", "homotopy"), "top": ("homeo", "homotopy")}


def raised(exc: BaseException) -> tuple:
    """The outcome of an item that raised: class name and whether it is an InputError."""
    return ("raised", type(exc).__name__, isinstance(exc, InputError))


def is_raised(out) -> bool:
    return type(out) is tuple and out[:1] == ("raised",)


def combos(i: int) -> tuple[int, str, int]:
    """The i-th of 12 (bit, w2-type, bit) combinations, interleaved so that
    consecutive rounds alternate the first bit and the type."""
    return i % 2, TYPES[i % 3], (i // 6) % 2


def spread(lo: int, hi: int, i: int, rounds: int) -> int:
    """Size for round i of `rounds`: constant over each 12 rounds (one of each
    combination), stepping evenly from lo to hi, so every seed's pool has
    the same sizes."""
    steps = rounds // 12 - 1
    return lo + (i // 12) * (hi - lo) // steps


def interleave(rounds: list[list[dict]], malformed: list[dict], every: int) -> list[dict]:
    """Concatenate rounds, inserting one malformed item after every `every` rounds."""
    out, bad = [], iter(malformed)
    for n, rnd in enumerate(rounds, 1):
        out += rnd
        if n % every == 0:
            out.append(next(bad))
    return out


def expect_input_error(fn) -> tuple[str, bool]:
    """Outcome of a known-defective input, and whether it fails: anything but
    an InputError fails."""
    try:
        fn()
    except InputError as exc:
        return f"raised {type(exc).__name__}", False
    except Exception as exc:  # the defect under watch: a traceback at the CLI
        return f"raised {type(exc).__name__}", True
    return "accepted", True


def cli_main(argv: list[str]) -> int:
    """Exit code of `fiveclass <argv>` run in process, its output discarded."""
    from fiveclass import cli  # only when called: the workloads' workers do not load it

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


def cli_exit(argv: list[str]) -> tuple[str, bool]:
    """Outcome of a known-defective command line, and whether it fails:
    anything but exit code 2 fails."""
    try:
        rc = cli_main(argv)
    except Exception as exc:  # a traceback and exit 1 at the command line
        return f"raised {type(exc).__name__}", True
    return f"exit {rc}", rc != 2


def check_error(item: dict, out) -> str | None:
    want = item["expect"]["error"]
    if not is_raised(out) or not out[2] or out[1] != want:
        return f"{item['malformed']}: expected {want}, got {out!r:.120}"
    return None


# -- bundle-small ---------------------------------------------------------------

def _classify(form, ks, c1):
    return bundle.classify(bundle.BundleInput(form, ks, forms.CohomologyClass(c1)))


def _classification(res) -> dict:
    return {
        "w2type": res.w2type.value, "r": res.r, "q": res.q, "s": res.s, "k": res.k,
        "smoothable": res.smoothable, "homeo": res.homeo_form.text(),
        "smooth": [f.text() for f in res.smooth_forms],
    }


def _check_classification(e: dict, res) -> str | None:
    got = _classification(res)
    bad = {key: (got[key], e[key]) for key in got if got[key] != e[key]}
    return f"classification differs (got, want): {bad}" if bad else None


def _square_probe(item: dict, call) -> None:
    """Time `square` on the input separately, so classify's share can be split."""
    if "malformed" in item or item["expect"]["w2type"] == "II":
        return
    form = forms.IntersectionForm(item["rows"])
    call("forms.square", form.square, forms.CohomologyClass([x // 2 for x in item["c1"]]))


def _json_input(item: dict, schema: str) -> dict:
    if schema == "blocks":
        form = {"blocks": item["blocks"]}
    else:
        form = {"matrix": [list(r) for r in item["rows"]]}
    return {"form": form, "ks": item["ks"]}


class BundleSmall:
    bands = ((1, 6), (7, 12), (13, 18), (19, 24))
    unit = 108  # 24 rounds and 12 malformed items
    repeats = 4  # units per pool
    kinds = ("not-unimodular", "not-symmetric", "c1-divisibility-3", "c1-primitive",
             "c1-zero", "ks-2", "c1-length", "unknown-block", "no-form")

    def pool(self, rng: random.Random) -> list[dict]:
        rounds = []
        for i in range(24 * self.repeats):
            matrix, wtype, ks = combos(i)
            rnd = []
            for lo, hi in self.bands:
                rank = max(spread(lo, hi, i, 24 * self.repeats), 1 if wtype == "III" else 2)
                if wtype == "II":
                    rank += rank % 2
                item = gen.bundle_input(rng, rank, wtype, ks, False)
                item["json"] = _json_input(item, "matrix" if matrix else "blocks")
                rnd.append(item)
            rounds.append(rnd)
        bad = []
        for n in range(12 * self.repeats):
            kind = self.kinds[n % len(self.kinds)]
            if kind == "unknown-block":
                item = {"json": {"form": {"blocks": ["1", "E7"]}}, "c1": [2, 2],
                        "expect": {"error": "InvalidFormError"}, "malformed": kind}
            elif kind == "no-form":
                item = {"json": {"blocks": ["1"]}, "c1": [2],
                        "expect": {"error": "InvalidFormError"}, "malformed": kind}
            else:
                item = gen.malformed_bundle(rng, kind, rng.randint(2, 12))
                item["json"] = _json_input(item, "matrix" if n % 2 else "blocks")
                if kind.startswith("not-"):
                    item["json"] = _json_input(item, "matrix")
            bad.append(item)
        return interleave(rounds, bad, 2)

    def run(self, item: dict, call):
        form, ks = call("forms.manifold_from_json", forms.manifold_from_json, item["json"])
        return call("bundle.classify", _classify, form, ks, item["c1"])

    attribute = staticmethod(_square_probe)

    def check(self, item: dict, out) -> str | None:
        if "malformed" in item:
            return check_error(item, out)
        if is_raised(out):
            return f"valid input raised {out[1]}"
        return _check_classification(item["expect"], out)

    def summary(self, out):
        return list(out) if is_raised(out) else _classification(out)

    def __init__(self, scratch: str):
        self.scratch = scratch

    def defects(self) -> dict:
        classify = lambda obj: _classify(*forms.manifold_from_json(obj), [2])  # noqa: E731
        out = {name: expect_input_error(fn) for name, fn in {
            'matrix-float {"matrix": [[1.7]]}': lambda: classify({"form": {"matrix": [[1.7]]}}),
            'ks-bool {"ks": true}': lambda: classify({"form": {"blocks": ["1"]}, "ks": True}),
            'matrix-str {"matrix": [["x"]]}': lambda: classify({"form": {"matrix": [["x"]]}}),
        }.items()}
        path = os.path.join(self.scratch, "defect_nonascii.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"form": {"blocks": ["1"]}, "note": "\u00e9"}')
        out["cli classify, non-ASCII input file"] = cli_exit(
            ["classify", "--input", path, "--c1", "2"])
        return out


# -- expr-corpus ----------------------------------------------------------------

def _run_expression(item: dict, call):
    e = call("parsing.parse_expression", parsing.parse_expression, item["text"])
    inv = call("algebra.invariants", algebra.invariants, e)
    form = call("algebra.normalize", algebra.normalize, e)
    text = call("algebra.text", form.text)
    verdicts = tuple(call("algebra.equivalent", algebra.equivalent, inv, form, Level(lv))
                     for lv in LEVELS[item["expect"]["category"]])
    return inv, form, text, verdicts


def _run_pair(item: dict, call):
    return call("algebra.equivalent", algebra.equivalent, item["a"], item["b"],
                Level(item["level"]))


def _run_bordism(item: dict, call):
    a = call("bordism.parse_element", bordism.parse_element, item["a"])
    b = call("bordism.parse_element", bordism.parse_element, item["b"])
    total = call("bordism.add", bordism.add, a, b)
    negated = call("bordism.neg", bordism.neg, total)
    canon = call("bordism.canonicalize", bordism.canonicalize, total)
    forgot = None
    if item["forget"]:
        forgot = call("bordism.forget_smooth", bordism.forget_smooth, total)
    return total, negated, canon, forgot


def _params(f) -> tuple:
    return (f.category.value, f.w2type.value, f.k, f.q, f.s, f.p)


class ExprCorpus:
    bands = ((1, 4), (5, 16), (17, 32), (33, 64))
    unit = 204  # 24 rounds of 8 items and 12 malformed items
    repeats = 4
    runners = {"expr": _run_expression, "pair": _run_pair, "bordism": _run_bordism}

    def pool(self, rng: random.Random) -> list[dict]:
        enumerated = {c: algebra.enumerate_forms(6, Category(c)) for c in ("smooth", "top")}
        self.enumerate_error = None
        for c, got in enumerated.items():
            if {_params(f) for f in got} != gen.standard_forms(6, c) or len(got) != len(set(got)):
                self.enumerate_error = f"enumerate_forms(6, {c}) differs from the families"
        everything = enumerated["smooth"] + enumerated["top"]
        rounds = []
        for i in range(24 * self.repeats):
            top, wtype, framed = combos(i)
            category = "top" if top else "smooth"
            rnd = []
            for lo, hi in self.bands:
                n = max(spread(lo, hi, i, 24 * self.repeats), 2 if wtype == "I" else 1)
                item = gen.random_expression(rng, n, category, wtype, bool(framed))
                rnd.append(dict(item, kind="expr"))
            for _ in range(2):
                rnd.append(self._pair(rng, everything))
                rnd.append(self._bordism(rng))
            rounds.append(rnd)
        bad = [self._malformed(rng, n) for n in range(12 * self.repeats)]
        return interleave(rounds, bad, 2)

    @staticmethod
    def _pair(rng: random.Random, everything: list) -> dict:
        a = rng.choice(everything)
        pick = rng.random()
        if pick < 0.25:
            b = a
        elif pick < 0.6:
            same = [f for f in everything if (f.w2type, f.r) == (a.w2type, a.r)]
            b = rng.choice(same)
        else:
            b = rng.choice(everything)
        both_smooth = a.category is b.category is Category.SMOOTH
        level = rng.choice(LEVELS["smooth" if both_smooth else "top"])
        want = gen.forms_equivalent(_params(a), _params(b), level)
        return {"kind": "pair", "a": a, "b": b, "level": level, "expect": want}

    @staticmethod
    def _bordism(rng: random.Random) -> dict:
        name = rng.choice(sorted(gen.GROUP_ORDERS))
        a, ca = gen.random_element(rng, name)
        b, cb = gen.random_element(rng, name)
        return {"kind": "bordism", "a": a, "b": b, "forget": not name.startswith("top-"),
                "expect": gen.bordism_expect(name, ca, cb)}

    @staticmethod
    def _malformed(rng: random.Random, n: int) -> dict:
        kinds = sorted(gen.MALFORMED_EXPRESSIONS) + [
            "bad-coordinates", "unknown-group", "kind-mismatch", "forget-top"]
        kind = kinds[n % len(kinds)]
        if kind in gen.MALFORMED_EXPRESSIONS:
            text, error = gen.MALFORMED_EXPRESSIONS[kind]
            return {"kind": "expr", "text": text, "malformed": kind,
                    "expect": {"error": error, "category": "smooth"}}
        a, b, forget, error = {
            "bad-coordinates": ("pin+:x", "pin+:1", False, "InputError"),
            "unknown-group": ("spin:1", "spin:1", False, "InputError"),
            "kind-mismatch": ("pin+:1", "pinc:(1,1)", False, "KindMismatchError"),
            "forget-top": ("top-pin+:(1,3)", "top-pin+:(0,1)", True, "KindMismatchError"),
        }[kind]
        return {"kind": "bordism", "a": a, "b": b, "forget": forget, "malformed": kind,
                "expect": {"error": error}}

    def run(self, item: dict, call):
        return self.runners[item["kind"]](item, call)

    attribute = None

    def check(self, item: dict, out) -> str | None:
        if "malformed" in item:
            return check_error(item, out)
        if is_raised(out):
            return f"valid input raised {out[1]}"
        want = item["expect"]
        if item["kind"] == "pair":
            return None if out == want else f"equivalent(...) = {out}, want {want}"
        if item["kind"] == "bordism":
            total, negated, canon, forgot = out
            got = {"sum": total.coords, "neg": negated.coords, "canonical": canon.rep,
                   "forget": forgot.coords if forgot else None}
            return None if got == want else f"bordism {got} != {want}"
        inv, form, text, verdicts = out
        got = (inv.category.value, inv.w2type.value, inv.r, form.w2type.value, form.r)
        ref = (want["category"], want["w2type"], want["r"], want["w2type"], want["r"])
        if got != ref:
            return f"(category, type, r, form type, form r) = {got}, want {ref}"
        if not all(verdicts):
            return f"expression not equivalent to its normal form: {verdicts}"
        again = algebra.normalize(parsing.parse_expression(text))
        if again.text() != text or (again.w2type, again.r) != (form.w2type, form.r):
            return f"normal form {text!r} does not round-trip"
        return None

    def summary(self, out):
        if isinstance(out, bool):
            return out
        if is_raised(out):
            return list(out)
        if isinstance(out[0], algebra.Invariants):
            inv, _, text, verdicts = out
            return [bordism.render_element(inv.p_class), text, list(verdicts)]
        total, negated, canon, forgot = out
        return [bordism.render_element(total), bordism.render_element(negated),
                list(canon.rep), bordism.render_element(forgot) if forgot else None]

    def defects(self) -> dict:
        return {"expression X(²)": expect_input_error(lambda: parsing.parse_expression("X(²)")),
                "cli bordism neg, no element": cli_exit(["bordism", "neg"])}


def get(name: str, scratch: str):
    return BundleSmall(scratch) if name == "bundle-small" else ExprCorpus()

