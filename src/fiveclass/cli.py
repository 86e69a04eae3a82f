"""Command-line front end.

Subcommands: classify, invariants, normalize, compare, enumerate, bordism,
ahss, selftest.  Exit codes: 0 success, 2 input error, 3 internal
consistency failure.  Machine output via --json is stable: fixed key
order, no locale-dependent formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import algebra, bordism, bundle, forms
from .algebra import Category, Invariants, Level, StandardForm, W2Type
from .bordism import ascii_int
from .errors import ConsistencyError, FiveclassError, InputError, RangeExceededError
from .parsing import parse_expression, render_expression

DEFAULT_SEED = 1729

# Largest selftest --count: at the limit selftest runs for about 50 s on
# a 2-CPU x86-64 host with CPython 3.11.
SELFTEST_COUNT_MAX = 100_000


# -- rendering helpers ---------------------------------------------------------

def _inv_to_dict(inv: Invariants) -> dict:
    return {
        "category": inv.category.value,
        "w2_type": inv.w2type.value,
        "r": inv.r,
        "p_class": {
            "kind": inv.p_class.kind.name,
            "coords": list(inv.p_class.coords),
        },
        "canonical": list(inv.canonical().rep),
        "relations_ok": algebra.check_relations(inv),
    }


def _form_to_dict(f: StandardForm) -> dict:
    return {
        "category": f.category.value,
        "w2_type": f.w2type.value,
        "q": f.q,
        "s": f.s,
        "p": f.p,
        "k": f.k,
        "r": f.r,
        "text": f.text(),
    }


def _inv_text(inv: Invariants) -> str:
    can = bordism.render_canonical(inv.canonical())
    return (
        f"category={inv.category.value} w2-type={inv.w2type.value} "
        f"r={inv.r} [P]={bordism.render_element(inv.p_class)} "
        f"(canonical {can})"
    )


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# -- subcommands ----------------------------------------------------------------

def _cmd_invariants(args) -> int:
    expr = parse_expression(args.expression)
    inv = algebra.invariants(expr)
    if args.json:
        _print_json(_inv_to_dict(inv))
    else:
        print(f"expression: {render_expression(expr)}")
        print(_inv_text(inv))
        ok = algebra.check_relations(inv)
        print(f"parity relation (type {inv.w2type.value}): {'OK' if ok else 'VIOLATED'}")
    return 0


def _cmd_normalize(args) -> int:
    expr = parse_expression(args.expression)
    form = algebra.normalize(expr)
    if args.json:
        _print_json({"form": _form_to_dict(form), "invariants": _inv_to_dict(form.invariants())})
    else:
        print(form.text())
        print(_inv_text(form.invariants()))
    return 0


def _cmd_compare(args) -> int:
    level = Level(args.level)
    a = algebra.invariants(parse_expression(args.first))
    b = algebra.invariants(parse_expression(args.second))
    verdict = algebra.equivalent(a, b, level)
    word = {
        Level.DIFFEO: "diffeomorphic",
        Level.HOMEO: "homeomorphic",
        Level.HOMOTOPY: "homotopy equivalent",
    }[level]
    if args.json:
        _print_json({"level": level.value, "equivalent": verdict})
    else:
        print(f"{word}: {'yes' if verdict else 'no'}")
    return 0


def _cmd_enumerate(args) -> int:
    category = Category(args.category)
    w2type = W2Type(args.type) if args.type else None
    out = algebra.enumerate_forms(args.r_max, category, w2type)
    if args.json:
        _print_json([_form_to_dict(f) for f in out])
    else:
        for f in out:
            print(f.text())
    return 0


def _cmd_classify(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="ascii") as fh:
                raw = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL in the path
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    try:
        obj = json.loads(raw)
    # JSONDecodeError, an integer too long for int(), or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON input: {exc}") from exc
    form, ks = forms.manifold_from_json(obj)
    try:
        pairings = [ascii_int(x) for x in args.c1.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --c1 value {args.c1!r}: comma-separated integers") from exc
    inp = bundle.BundleInput(form, ks, forms.CohomologyClass(pairings))
    res = bundle.classify(inp)
    if args.json:
        _print_json(
            {
                "m": res.m,
                "w2_type": res.w2type.value,
                "r": res.r,
                "q": res.q,
                "s": res.s,
                "k": res.k,
                "ks": ks,
                "smoothable": res.smoothable,
                "homeo_form": _form_to_dict(res.homeo_form),
                "smooth_forms": [_form_to_dict(f) for f in res.smooth_forms],
                "invariants": _inv_to_dict(res.invariants),
            }
        )
        return 0
    c1_text = ",".join(str(x) for x in inp.c1.pairings)
    print(f"input: rank {form.rank} form, KS(X)={ks}, c1=({c1_text})")
    print(f"divisibility m=2, so pi_1(M) = Z/2 and r = rk H_2(M) = {res.r}")
    reason = {
        W2Type.II: "the form is even, X is spin",
        W2Type.III: "c1/2 is characteristic",
        W2Type.I: "the form is odd and c1/2 is not characteristic",
    }[res.w2type]
    print(f"w2-type: {res.w2type.value}  ({reason})")
    if res.q is not None:
        extra = f", s = {res.s}" if res.s is not None else ""
        print(f"q = <(c1/2)^2, [X]> = {res.q} in Z/8 mod +-{extra}")
    print(f"k = {res.k}")
    print(f"homeomorphism type  [type {res.w2type.value} rule, topological case]:")
    print(f"  {res.homeo_form.text()}")
    if res.smoothable:
        print("smoothable: yes (KS(X) = 0)")
        if res.w2type is W2Type.III and len(res.smooth_forms) > 1:
            print("diffeomorphism type, up to the order-2 ambiguity "
                  "[type III rule, smooth case]:")
            print("  " + "  or  ".join(f.text() for f in res.smooth_forms))
        else:
            print(f"diffeomorphism type  [type {res.w2type.value} rule, smooth case]:")
            print("  " + "  ".join(f.text() for f in res.smooth_forms))
    else:
        print("smoothable: no (KS(X) = 1)")
    print(f"invariants: {_inv_text(res.invariants)}")
    return 0


def _cmd_bordism(args) -> int:
    op = args.operation
    if op in ("info", "neg", "canon", "forget") and len(args.args) != 1:
        raise InputError(f"bordism {op} takes one argument, got {len(args.args)}")
    if op == "table" and args.args:
        raise InputError(f"bordism table takes no arguments, got {len(args.args)}")
    if args.json and op != "info":
        raise InputError(f"bordism {op} has no --json output; only info has")
    if op == "table":
        for kind in bordism.ALL_KINDS:
            info = bordism.group_info(kind)
            orders = " + ".join(f"Z/{o}" for o in info.orders) or "0"
            gens = ", ".join(info.generators) or "-"
            invs = ", ".join(info.invariants) or "-"
            print(f"{kind.name:>9}:  {orders:<17} invariants: {invs:<15} generators: {gens}")
        return 0
    if op == "info":
        kind = bordism.kind_from_name(args.args[0])
        info = bordism.group_info(kind)
        rows = {k: list(getattr(info, k)) for k in ("orders", "invariants", "generators")}
        if args.json:
            _print_json({"kind": kind.name, **rows})
        else:
            print(f"group: {kind.name}")
            for key, value in rows.items():
                print(f"{key}: {value}")
        return 0
    elems = [bordism.parse_element(t) for t in args.args]
    if op == "add":
        if len(elems) < 2:
            raise InputError("bordism add needs at least two elements")
        total = elems[0]
        for e in elems[1:]:
            total = bordism.add(total, e)
        print(bordism.render_element(total))
    elif op == "neg":
        print(bordism.render_element(bordism.neg(elems[0])))
    elif op == "canon":
        print(bordism.render_canonical(bordism.canonicalize(elems[0])))
    elif op == "forget":
        print(bordism.render_element(bordism.forget_smooth(elems[0])))
    else:
        raise InputError(f"unknown bordism operation {op!r}")
    return 0


def _cmd_ahss(args) -> int:
    from . import ahss

    if args.dump_pages and args.json:
        raise InputError("ahss --dump-pages has no --json output")
    twist = ahss.Twist(args.twist)
    pg = ahss.page(args.r, twist) if args.dump_pages else None
    line = pg.line if pg else ahss.compute_line5(args.r, twist)
    order = line.checked_order()  # raises AhssOrderError on a mismatch
    if pg:
        print(ahss.format_page(pg))
        print()
    if args.json:
        _print_json(
            {
                "r": args.r,
                "twist": twist.value,
                "order": order,
                "log2": line.log2_order,
                "expected": line.expected,
                "e3": {
                    "(5,0)": line.e3_50,
                    "(4,1)": line.e3_41,
                    "(3,2)": line.e3_32,
                    "(1,4)": line.e3_14,
                },
                "d3_rank": line.d3_rank,
            }
        )
    else:
        print(
            f"order of the degree-5 group, r={args.r}, twist={twist.value}: "
            f"{order} (= 2^{line.log2_order}), closed form {line.expected}: OK"
        )
    return 0


# -- selftest -------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    from . import selfcheck

    if not 1 <= args.count <= SELFTEST_COUNT_MAX:
        raise RangeExceededError(
            f"--count is {args.count}; it must be between 1 and {SELFTEST_COUNT_MAX}"
        )
    for check in selfcheck.CHECKS:
        print(check(args.seed, args.count))
    print("selftest: all checks passed")
    return 0


# -- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiveclass",
        description=(
            "Classify closed orientable 5-manifolds with fundamental group "
            "Z/2, trivial pi_1-action on pi_2 and torsion-free H_2, "
            "including circle-bundle total spaces over simply-connected "
            "4-manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a circle-bundle total space")
    p.add_argument("--input", required=True, help="4-manifold JSON file, or - for stdin")
    p.add_argument("--c1", required=True, help="pairing vector of c1, e.g. 2,0,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("invariants", help="invariants of a block expression")
    p.add_argument("expression")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("normalize", help="standard form of a block expression")
    p.add_argument("expression")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("compare", help="compare two expressions")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--level",
        choices=[lv.value for lv in Level],
        default=Level.DIFFEO.value,
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("enumerate", help="list standard forms with r <= r-max")
    p.add_argument(
        "--r-max",
        type=ascii_int,
        required=True,
        dest="r_max",
        help=f"at most {algebra.ENUMERATE_R_MAX}",
    )
    p.add_argument(
        "--category",
        choices=[c.value for c in Category],
        required=True,
    )
    p.add_argument("--type", choices=[t.value for t in W2Type], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bordism", help="bordism group arithmetic")
    p.add_argument(
        "operation", choices=["table", "info", "add", "neg", "canon", "forget"]
    )
    p.add_argument("args", nargs="*", help="elements like pin+:7 or pinc:(1,1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bordism)

    p = sub.add_parser("ahss", help="spectral-sequence order check")
    p.add_argument("--r", type=ascii_int, required=True)
    # the values of ahss.Twist, written out so that cli need not import ahss
    p.add_argument("--twist", choices=["none", "2eta", "gamma"], default="none")
    p.add_argument("--dump-pages", action="store_true", dest="dump_pages")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ahss)

    p = sub.add_parser("selftest", help="run the internal consistency checks")
    p.add_argument("--seed", type=ascii_int, default=DEFAULT_SEED)
    p.add_argument(
        "--count",
        type=ascii_int,
        default=200,
        help=f"random forms to test, 1 to {SELFTEST_COUNT_MAX}",
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def _join_c1(argv: Sequence[str]) -> list[str]:
    """Pass `--c1 -2,2` on as `--c1=-2,2`, up to a `--`: argparse would read
    a value with a leading minus as an option."""
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            return [*out, tok, *tokens]
        value = next(tokens, None) if tok == "--c1" else None
        out.append(tok if value is None else f"--c1={value}")
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_c1(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the answer was complete and only the reader left; silence the
        # interpreter's final flush of the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 3
    except FiveclassError as exc:  # uncategorized library error: treat as input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
