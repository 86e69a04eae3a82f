"""Per-layer sweep: seeded calls into each layer's public functions, each in
a span, and the start-up split of one CLI call.

The traced run of every workload runs this sweep, so every per-layer kernel
metric is measured on every workload from the same kind of input.  Values
are medians over the sweep's calls.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import gen
from fiveclass import ahss, algebra, bordism, cli, forms, parsing
from fiveclass.algebra import Category, Level
from workloads import TYPES, _classify, _json_input, cli_main

IMPORT_MODULES = ("fiveclass", "fiveclass.errors", "fiveclass.bordism", "fiveclass.algebra",
                  "fiveclass.forms", "fiveclass.bundle", "fiveclass.parsing", "fiveclass.gf2",
                  "fiveclass.ahss", "fiveclass.cli")


def _timed(tr, name, fn, *args):
    out = tr.call(name, fn, *args)
    span = tr.spans[-1]
    return out, span[2] - span[1]


def _med(values, scale: float) -> float:
    return statistics.median(values) / scale


def forms_kernels(tr, rng: random.Random) -> dict:
    m = {}
    for n in (8, 24, 48):
        classify = []
        for density in ("block", "dense"):
            times = {"construct": [], "signature": [], "square": []}
            for i in range(2 if n == 48 else 3):
                item = gen.bundle_input(rng, n, ("I", "III")[i % 2], 0, density == "dense")
                form, d = _timed(tr, "forms.construct", forms.IntersectionForm, item["rows"])
                times["construct"].append(d)
                times["signature"].append(_timed(tr, "forms.signature", form.signature)[1])
                ct = forms.CohomologyClass([x // 2 for x in item["c1"]])
                times["square"].append(_timed(tr, "forms.square", form.square, ct)[1])
                classify.append(_timed(tr, "bundle.classify", _classify, form, 0, item["c1"])[1])
            for kernel, values in times.items():
                m[f"forms.{kernel}_ms.r{n}.{density}"] = _med(values, 1e6)
        m[f"bundle.classify_ms.r{n}"] = _med(classify, 1e6)
    return m


def small_forms(tr, rng: random.Random) -> dict:
    mfj, construct, square, classify, self_ = [], [], [], [], []
    for i in range(24):
        wtype = TYPES[i % 3]
        rank = rng.randint(1 if wtype == "III" else 2, 24)
        rank += rank % 2 if wtype == "II" else 0
        item = gen.bundle_input(rng, rank, wtype, i % 2, False)
        obj = _json_input(item, ("blocks", "matrix")[i % 2])
        (form, ks), d = _timed(tr, "forms.manifold_from_json", forms.manifold_from_json, obj)
        mfj.append(d)
        construct.append(_timed(tr, "forms.construct", forms.IntersectionForm, item["rows"])[1])
        _, d_classify = _timed(tr, "bundle.classify", _classify, form, ks, item["c1"])
        classify.append(d_classify)
        d_square = 0
        if wtype != "II":
            ct = forms.CohomologyClass([x // 2 for x in item["c1"]])
            d_square = _timed(tr, "forms.square", form.square, ct)[1]
            square.append(d_square)
        self_.append(max(d_classify - d_square, 0))
    return {
        "forms.construct_us.small": _med(construct, 1e3),
        "forms.square_us.small": _med(square, 1e3),
        "forms.manifold_from_json_us": _med(mfj, 1e3),
        "bundle.classify_us.small": _med(classify, 1e3),
        "bundle.classify_self_us": _med(self_, 1e3),
    }


def expressions(tr, rng: random.Random) -> dict:
    parse, render, inv_, normal, form_inv = [], [], [], [], []
    equiv = {lv: [] for lv in ("diffeo", "homeo", "homotopy")}
    for i in range(24):
        category, wtype = ("smooth", "top")[i % 2], TYPES[i % 3]
        n = rng.randint(2, 64)
        item = gen.random_expression(rng, n, category, wtype, i % 4 < 2)
        e, d = _timed(tr, "parsing.parse_expression", parsing.parse_expression, item["text"])
        parse.append(d / n)
        render.append(_timed(tr, "parsing.render_expression", parsing.render_expression, e)[1])
        inv, d = _timed(tr, "algebra.invariants", algebra.invariants, e)
        inv_.append(d / n)
        form, d = _timed(tr, "algebra.normalize", algebra.normalize, e)
        normal.append(d)
        form_inv.append(_timed(tr, "algebra.form_invariants", form.invariants)[1])
        for lv, values in equiv.items():
            if category == "smooth" or lv != "diffeo":
                values.append(_timed(tr, "algebra.equivalent", algebra.equivalent,
                                     inv, form, Level(lv))[1])
    every = algebra.enumerate_forms(6, Category.SMOOTH) + algebra.enumerate_forms(6, Category.TOP)
    pairs = [_timed(tr, "algebra.equivalent", algebra.equivalent, rng.choice(every),
                    rng.choice(every), Level.HOMEO)[1] for _ in range(48)]
    enum = [_timed(tr, "algebra.enumerate_forms", algebra.enumerate_forms, 12, Category.TOP)[1]
            for _ in range(3)]
    m = {
        "parsing.parse_us_per_block": _med(parse, 1e3),
        "parsing.render_us": _med(render, 1e3),
        "algebra.invariants_us_per_block": _med(inv_, 1e3),
        "algebra.normalize_us": _med(normal, 1e3),
        "algebra.form_invariants_us": _med(form_inv, 1e3),
        "algebra.equivalent_forms_us": _med(pairs, 1e3),
        "algebra.enumerate_ms": _med(enum, 1e6),
    }
    m.update({f"algebra.equivalent_us.{lv}": _med(v, 1e3) for lv, v in equiv.items()})
    return m


def bordism_ops(tr, rng: random.Random) -> dict:
    times = {"parse_element": [], "add": [], "canonicalize": [], "forget_smooth": []}
    for i in range(60):
        name = ("pinc", "pin+", "pin-")[i % 3]
        a = _timed(tr, "bordism.parse_element", bordism.parse_element,
                   gen.random_element(rng, name)[0])
        b, d = _timed(tr, "bordism.parse_element", bordism.parse_element,
                      gen.random_element(rng, name)[0])
        times["parse_element"] += [a[1], d]
        total, d = _timed(tr, "bordism.add", bordism.add, a[0], b)
        times["add"].append(d)
        times["canonicalize"].append(_timed(tr, "bordism.canonicalize", bordism.canonicalize,
                                            total)[1])
        times["forget_smooth"].append(_timed(tr, "bordism.forget_smooth", bordism.forget_smooth,
                                             total)[1])
    return {f"bordism.{k}_us": _med(v, 1e3) for k, v in times.items()}


def ahss_gf2(tr) -> dict:
    cold, warm, line5, fmt = [], [], [], []
    for _ in range(3):
        ahss.monomials.cache_clear()
        cold.append(_timed(tr, "ahss.page", ahss.page, 4, ahss.Twist.GAMMA)[1])
        pg, d = _timed(tr, "ahss.page", ahss.page, 4, ahss.Twist.GAMMA)
        warm.append(d)
        line5.append(_timed(tr, "ahss.compute_line5", ahss.compute_line5, 4, ahss.Twist.GAMMA)[1])
        fmt.append(_timed(tr, "ahss.format_page", ahss.format_page, pg)[1])
    rank = [_timed(tr, "gf2.rank", mat.matrix.rank)[1] for mat in pg.d2.values()]
    mul = [_timed(tr, "gf2.mul", pg.d2[(p - 2, q + 1)].matrix.mul, mat.matrix)[1]
           for (p, q), mat in pg.d2.items() if (p - 2, q + 1) in pg.d2]
    return {
        "ahss.page_cold_ms": _med(cold, 1e6), "ahss.page_warm_ms": _med(warm, 1e6),
        "ahss.line5_ms": _med(line5, 1e6), "ahss.format_page_ms": _med(fmt, 1e6),
        "gf2.rank_us": _med(rank, 1e3), "gf2.mul_us": _med(mul, 1e3),
    }


def cli_in_process(tr, scratch: str) -> dict:
    path = os.path.join(scratch, "sweep_classify.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"form": {"blocks": ["E8", "H", "1", "-1", "1"]}, "ks": 0}, fh)
    argvs = {
        "classify": ["classify", "--input", path, "--c1", "0,0,0,0,0,0,0,0,2,0,2,2,2"],
        "invariants": ["invariants", "X(3) #~ S2xRP3 # CP2xS1 # 2*(S2xS2)xS1", "--json"],
        "normalize": ["normalize", "X(1) #~ X(1) # S2xRP3 # X(5)"],
        "compare": ["compare", "X(1) # S2xRP3", "X(7) # S2xRP3", "--level", "homeo"],
        "enumerate": ["enumerate", "--r-max", "8", "--category", "top", "--json"],
        "bordism": ["bordism", "add", "top-pinc:(1,3,1)", "top-pinc:(1,7,1)"],
        "ahss": ["ahss", "--r", "3", "--twist", "2eta", "--dump-pages"],
    }
    m = {"cli.build_parser_ms": _med(
        [_timed(tr, "cli.build_parser", cli.build_parser)[1] for _ in range(5)], 1e6)}
    for sub, argv in argvs.items():
        times = []
        for _ in range(3):
            rc, d = _timed(tr, "cli.main", cli_main, argv)
            if rc != 0:
                raise RuntimeError(f"sweep call {argv} exited {rc}")
            times.append(d)
        m[f"cli.main_ms.{sub}"] = _med(times, 1e6)
    m["cli.error_ms"] = _med([_timed(tr, "cli.main", cli_main, ["invariants", "X(1) #"])[1]
                              for _ in range(3)], 1e6)
    return m


def parse_importtime(stderr: str) -> dict:
    """Self times (us) of the fiveclass import trees, and their total.

    `-X importtime` prints a tree in post-order; a depth-0 line closes the
    tree of the lines since the previous depth-0 line.
    """
    selfs = dict.fromkeys(IMPORT_MODULES + ("stdlib",), 0)
    total, pending = 0, []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cumulative, label = line.split("|")
        self_us = int(head.split(":")[1])
        name, depth = label.strip(), (len(label) - len(label.lstrip()) - 1) // 2
        pending.append((name, self_us))
        if depth == 0:
            if name.startswith("fiveclass"):
                total += int(cumulative)
                for mod, us in pending:
                    selfs[mod if mod in selfs else "stdlib"] += us
            pending = []
    return {"total": total, **selfs}


def _wall_ms(argv: list[str], root: str, env: dict) -> float:
    # capture_output: the wait then follows the pipes' EOF instead of polling
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=root, capture_output=True,
                   check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def startup(root: str, env: dict) -> dict:
    """Interpreter floor, start-up with `import fiveclass.cli`, and the import
    breakdown from `-X importtime`, each in fresh interpreters."""
    floor, start, imports = [], [], []
    for _ in range(3):
        floor.append(_wall_ms(["-c", "pass"], root, env))
        start.append(_wall_ms(["-c", "import fiveclass.cli"], root, env))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fiveclass.cli"],
                              env=env, cwd=root, capture_output=True, text=True, check=True,
                              timeout=60)
        imports.append(parse_importtime(proc.stderr))
    m = {"cli.interp_floor_ms": statistics.median(floor),
         "cli.startup_ms": statistics.median(start),
         "import.total_ms": _med([d["total"] for d in imports], 1e3)}
    for mod in IMPORT_MODULES + ("stdlib",):
        m[f"import.self_ms.{mod.removeprefix('fiveclass.')}"] = _med([d[mod] for d in imports], 1e3)
    return m


def run(tr, rng: random.Random, root: str, env: dict, scratch: str) -> dict:
    m = {}
    for part in (forms_kernels, small_forms, expressions, bordism_ops):
        m.update(part(tr, rng))
    m.update(ahss_gf2(tr))
    m.update(cli_in_process(tr, scratch))
    m.update(startup(root, env))
    return m
