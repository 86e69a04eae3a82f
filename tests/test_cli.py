"""End-to-end CLI tests: outputs, exit codes, JSON stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiveclass import ahss, algebra, bordism, forms, selfcheck
from fiveclass.algebra import ENUMERATE_R_MAX
from fiveclass.cli import SELFTEST_COUNT_MAX, main
from fiveclass.errors import ConsistencyError
from fiveclass.forms import BLOCK_MATRICES, IntersectionForm

SRC = Path(__file__).resolve().parent.parent / "src"
# int() refuses decimal strings longer than this (0: no limit)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_OVER_LONG = "1" * (_MAX_DIGITS + 1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compare_homeo(capsys):
    code, out, _ = run(capsys, "compare", "X(1)", "X(7)", "--level", "homeo")
    assert code == 0
    assert "homeomorphic: yes" in out


def test_compare_diffeo_no(capsys):
    code, out, _ = run(capsys, "compare", "X(1)", "X(7)", "--level", "diffeo")
    assert code == 0
    assert "diffeomorphic: no" in out


def test_compare_diffeo_on_top_input_is_input_error(capsys):
    code, _, err = run(capsys, "compare", "X(0,1)", "X(1)", "--level", "diffeo")
    assert code == 2
    assert "smooth" in err


def test_enumerate_rank_zero_smooth_prints_four_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--r-max", "0", "--category", "smooth")
    assert code == 0
    assert out.splitlines() == ["X(1)", "X(3)", "X(5)", "X(7)"]


def test_enumerate_type_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--r-max", "1", "--category", "smooth", "--type", "I"
    )
    assert code == 0
    assert out.splitlines() == ["X(1) # CP2xS1", "X(3) # CP2xS1"]


def test_invariants_report(capsys):
    code, out, _ = run(capsys, "invariants", "X(1) # CP2xS1")
    assert code == 0
    assert "w2-type=I" in out
    assert "pinc:(1,1)" in out
    assert "OK" in out


def test_invariants_bad_expression_exit_two(capsys):
    code, _, err = run(capsys, "invariants", "CP2xS1")
    assert code == 2
    assert "Z/2" in err


def test_normalize_report(capsys):
    code, out, _ = run(capsys, "normalize", "X(1) #~ X(1)")
    assert code == 0
    assert out.splitlines()[0] == "X(0)"


def test_classify_report(capsys, tmp_path):
    path = tmp_path / "rp5.json"
    path.write_text(json.dumps({"form": {"matrix": [[1]]}, "ks": 0}))
    code, out, _ = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert code == 0
    assert "w2-type: III" in out
    assert "X(0,1)" in out
    assert "X(1)" in out and "X(7)" in out
    assert "order-2 ambiguity" in out


def test_classify_json_output_stable(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1", "-1"]}, "ks": 0}))
    code, out1, _ = run(
        capsys, "classify", "--input", str(path), "--c1", "2,0", "--json"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "classify", "--input", str(path), "--c1", "2,0", "--json"
    )
    assert out1 == out2
    data = json.loads(out1)
    assert list(data)[:6] == ["m", "w2_type", "r", "q", "s", "k"]
    assert data["w2_type"] == "I"
    assert data["smooth_forms"][0]["text"] == "X(1) # CP2xS1"


def test_classify_malformed_json_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert code == 2
    assert "JSON" in err


@pytest.mark.skipif(_MAX_DIGITS == 0, reason="int() has no digit limit here")
def test_over_long_integers_exit_two(capsys, tmp_path):
    code, out, err = run(capsys, "invariants", f"X({_OVER_LONG})")
    assert (code, out) == (2, "")
    assert "q has too many digits at offset 2" in err
    path = tmp_path / "m.json"
    path.write_text('{"form": {"matrix": [[%s]]}, "ks": 0}' % _OVER_LONG)
    code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert (code, out) == (2, "")
    assert "malformed JSON" in err


def test_classify_deeply_nested_json_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert (code, out) == (2, "")
    assert "malformed JSON" in err


def test_classify_missing_file_exit_two(capsys, tmp_path):
    code, _, _ = run(
        capsys, "classify", "--input", str(tmp_path / "nope.json"), "--c1", "2"
    )
    assert code == 2
    # a path open() refuses outright (main(argv) called in process)
    code, _, _ = run(capsys, "classify", "--input", "m\x00.json", "--c1", "2")
    assert code == 2


def test_classify_primitive_c1_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"matrix": [[1]]}, "ks": 0}))
    code, _, err = run(capsys, "classify", "--input", str(path), "--c1", "1")
    assert code == 2
    assert "Smale-Barden" in err


def test_classify_rejects_non_integer_input_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    for obj in (
        {"form": {"matrix": [[1.7]]}, "ks": 0},
        {"form": {"matrix": [["x"]]}, "ks": 0},
        {"form": {"blocks": ["1"]}, "ks": True},
        {"form": {"blocks": [1, -1]}, "ks": 0},
        {"form": {"blocks": ["1"], "matrix": [[2]]}, "ks": 0},
    ):
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
        assert (code, out) == (2, ""), obj
        assert err.startswith("error:")


def test_classify_non_ascii_file_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"form": {"blocks": ["1"]}, "note": "\u00e9"}', encoding="utf-8")
    code, _, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert code == 2
    assert "cannot read" in err


def test_classify_unknown_key_exit_two(capsys, tmp_path):
    # a misspelt "ks" was dropped, and the total space reported smoothable
    path = tmp_path / "m.json"
    path.write_text('{"form": {"blocks": ["1"]}, "KS": 1}', encoding="ascii")
    code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "2", "--json")
    assert (code, out) == (2, "")
    assert "unknown key 'KS'" in err


def test_bordism_arity_exit_two(capsys):
    for op in ("neg", "canon", "forget", "info"):
        code, _, err = run(capsys, "bordism", op)
        assert code == 2, op
        assert "takes one argument" in err
    code, _, _ = run(capsys, "bordism", "neg", "pin+:1", "pin+:2")
    assert code == 2
    code, out, err = run(capsys, "bordism", "table", "extra", "args")
    assert (code, out) == (2, "") and "takes no arguments" in err
    # only info has --json output
    for argv in (
        ("table",),
        ("add", "pin+:1", "pin+:2"),
        ("neg", "pin+:1"),
        ("canon", "pin+:1"),
        ("forget", "pin+:1"),
    ):
        code, out, err = run(capsys, "bordism", *argv, "--json")
        assert (code, out) == (2, ""), argv
        assert "--json" in err
    code, out, _ = run(capsys, "bordism", "info", "pin+", "--json")
    assert code == 0 and json.loads(out)["kind"] == "pin+"


def test_bordism_operations(capsys):
    code, out, _ = run(capsys, "bordism", "add", "pin+:9", "pin+:9")
    assert (code, out.strip()) == (0, "pin+:2")
    code, out, _ = run(capsys, "bordism", "canon", "pin+:13")
    assert (code, out.strip()) == (0, "pin+:3")
    code, out, _ = run(capsys, "bordism", "forget", "pinc:(1,1)")
    assert (code, out.strip()) == (0, "top-pinc:(0,1,1)")
    code, out, _ = run(capsys, "bordism", "neg", "top-pin+:(1,3)")
    assert (code, out.strip()) == (0, "top-pin+:(1,5)")


def test_bordism_table(capsys):
    code, out, _ = run(capsys, "bordism", "table")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 6
    assert any("Z/16" in ln for ln in lines)
    assert any("Z/2 + Z/8 + Z/2" in ln for ln in lines)


def test_bordism_bad_element_exit_two(capsys):
    code, _, _ = run(capsys, "bordism", "add", "pin+:1", "pinc:(0,0)")
    assert code == 2


def test_bordism_group_name_is_taken_literally(capsys):
    for argv in (
        ("neg", " PIN+:3"), ("info", "TOP-PinC"), ("info", " pin+"), ("canon", "Pinc:(1,1)")
    ):
        code, out, err = run(capsys, "bordism", *argv)
        assert (code, out) == (2, ""), argv
        assert "unknown bordism group" in err, argv
    code, out, _ = run(capsys, "bordism", "neg", "pin+:3")
    assert (code, out.strip()) == (0, "pin+:13")


def test_bordism_empty_coordinate_exit_two(capsys):
    for argv in (("neg", "pinc:(1,,1)"), ("add", "pinc:(1,1,)", "pinc:(0,0)")):
        code, out, err = run(capsys, "bordism", *argv)
        assert (code, out) == (2, ""), argv
        assert "bad coordinates" in err


def test_ahss_order(capsys):
    code, out, _ = run(capsys, "ahss", "--r", "2", "--twist", "none")
    assert code == 0
    assert "32" in out and "OK" in out


def test_ahss_dump_pages(capsys):
    code, out, _ = run(capsys, "ahss", "--r", "1", "--twist", "2eta", "--dump-pages")
    assert code == 0
    assert "E2 page" in out
    assert "d2 ranks" in out
    assert "group order: 2^6 = 64" in out


def test_ahss_json(capsys):
    code, out, _ = run(capsys, "ahss", "--r", "1", "--twist", "gamma", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == data["expected"] == 16


def test_ahss_out_of_range_exit_two(capsys):
    code, _, _ = run(capsys, "ahss", "--r", "9", "--twist", "none")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--r", "-1"],
        ["--r", "5"],
        ["--r", "5", "--dump-pages"],
        ["--r", "7", "--dump-pages"],
        ["--r", "0", "--twist", "gamma"],
        ["--r", "0", "--twist", "gamma", "--dump-pages"],
    ],
)
def test_ahss_outside_lines_exit_two_with_one_message(capsys, argv):
    code, out, err = run(capsys, "ahss", *argv)
    assert (code, out) == (2, "")
    assert "no degree-5 line" in err and "0..4" in err


def test_ahss_takes_exactly_the_twist_names(capsys):
    for twist in ahss.Twist:
        assert run(capsys, "ahss", "--r", "1", "--twist", twist.value)[0] == 0
    for name in ("two-eta", " GAMMA ", "Gamma", ""):
        with pytest.raises(SystemExit) as exc:
            main(["ahss", "--r", "1", "--twist", name])
        assert exc.value.code == 2, name
        assert capsys.readouterr().out == ""


def test_ahss_dump_pages_has_no_json(capsys):
    code, out, err = run(capsys, "ahss", "--r", "1", "--dump-pages", "--json")
    assert (code, out) == (2, "")
    assert "--json" in err


def test_ahss_order_mismatch_exit_three(capsys, monkeypatch):
    # force a disagreement with the closed form: the checker must exit 3
    monkeypatch.setattr(ahss, "expected_order", lambda r, twist: 7)
    code, _, err = run(capsys, "ahss", "--r", "1", "--twist", "none")
    assert code == 3
    assert "consistency" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "40")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("ok:") == len(selfcheck.CHECKS)


def _shifted_square(self, c, square=IntersectionForm.square):
    return square(self, c) + 2


# a planted fault per check, and the case it first fails at with seed 5: algebra's
# case 0 is the framing calibration, before the parity relations
_FAULTS = [
    ("bordism", bordism, "add", lambda a, b: a, 0),
    ("algebra", algebra, "connected_sum", lambda a, b, bit, join=algebra.connected_sum:
        join(a, b, 0), 0),
    ("algebra", algebra, "check_relations", lambda inv: False, 1),
    ("ahss", ahss, "expected_order", lambda r, twist: 7, 0),
    ("forms", IntersectionForm, "is_characteristic", lambda q, c: False, 0),
    ("forms", IntersectionForm, "square", _shifted_square, 0),
    ("bundle", algebra, "check_relations", lambda inv: False, 0),
    ("bundle", forms, "hyperbolic", lambda: forms.from_blocks(["1", "-1"]), 1),
]


@pytest.mark.parametrize(
    "check, target, name, fault, case", _FAULTS, ids=[f"{f[0]}-{f[2]}" for f in _FAULTS]
)
def test_check_failure_names_its_case(capsys, monkeypatch, check, target, name, fault, case):
    monkeypatch.setattr(target, name, fault)
    message = f"{check} check, seed 5, case {case}:"
    with pytest.raises(ConsistencyError, match="^" + message):
        getattr(selfcheck, f"check_{check}")(5, 3)
    monkeypatch.setattr(selfcheck, "CHECKS", (getattr(selfcheck, f"check_{check}"),))
    code, out, err = run(capsys, "selftest", "--seed", "5", "--count", "3")
    assert (code, out) == (3, "")
    assert err.startswith("consistency error: " + message)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", "{path}", "--c1", "2,0"],
        ["invariants", "X(1) # CP2xS1"],
        ["normalize", "X(1) #~ X(1)"],
        ["compare", "X(1)", "X(7)"],
        ["enumerate", "--r-max", "3", "--category", "top"],
        ["bordism", "info", "pin+"],
        ["ahss", "--r", "2", "--twist", "gamma"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_is_one_document(capsys, tmp_path, argv):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1", "-1"]}, "ks": 0}))
    code, out, _ = run(capsys, *(a.format(path=path) for a in argv), "--json")
    assert code == 0
    json.loads(out)  # raises on anything before or after the one document


def test_import_leaves_ahss_unloaded():
    # only the ahss and selftest subcommands need the spectral sequence
    code = "import sys, fiveclass.cli; sys.exit('fiveclass.ahss' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- ASCII-only integers ----------------------------------------------------------

def test_classify_c1_non_ascii_digits_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1", "1"]}, "ks": 0}))
    code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "\u0662,\u0662")
    assert (code, out) == (2, "")
    assert "--c1" in err
    code, out, _ = run(capsys, "classify", "--input", str(path), "--c1", " 2, 2")
    assert code == 0
    assert "c1=(2,2)" in out


@pytest.mark.parametrize("c1", ["-2,2", "-2,-2", "2,-2"])
def test_classify_c1_with_leading_minus_reads_as_with_equals(capsys, tmp_path, c1):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1", "1"]}, "ks": 0}))
    for extra in ([], ["--json"]):
        spaced = run(capsys, "classify", "--input", str(path), "--c1", c1, *extra)
        joined = run(capsys, "classify", "--input", str(path), f"--c1={c1}", *extra)
        assert spaced == joined and spaced[0] == 0, extra


def test_bordism_non_ascii_coordinate_exit_two(capsys):
    code, out, err = run(capsys, "bordism", "neg", "pin+:\u0663")
    assert (code, out) == (2, "")
    assert "bad coordinates" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ahss", "--r", "\u0661"],
        ["enumerate", "--r-max", "\u0661", "--category", "smooth"],
        ["selftest", "--seed", "\u0661"],
        ["selftest", "--count", "\u0661"],
        ["selftest", "--count", "1_0"],
    ],
)
def test_integer_options_reject_non_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


# -- size limits --------------------------------------------------------------------

def test_enumerate_r_max_above_limit_exit_two(capsys):
    code, out, err = run(
        capsys, "enumerate", "--r-max", str(ENUMERATE_R_MAX + 1), "--category", "top"
    )
    assert (code, out) == (2, "")
    assert "limit" in err


def test_classify_rank_above_limit_exit_two(capsys, tmp_path):
    from fiveclass.forms import MAX_RANK

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1"] * (MAX_RANK + 1)}}))
    code, out, err = run(capsys, "classify", "--input", str(path), "--c1", "2")
    assert (code, out) == (2, "")
    assert "limit" in err


# -- a closed stdout ----------------------------------------------------------------

def test_closed_stdout_is_not_a_traceback(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"form": {"blocks": ["1", "1"]}, "ks": 0}))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has left before the first byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fiveclass", "classify", "--input", str(path), "--c1", "2,2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr


# -- selftest --count bounds ----------------------------------------------------------

@pytest.mark.parametrize("count", ["0", "-5", str(SELFTEST_COUNT_MAX + 1)])
def test_selftest_count_out_of_range_exit_two(capsys, count):
    code, out, err = run(capsys, "selftest", "--count", count)
    assert (code, out) == (2, "")
    assert str(SELFTEST_COUNT_MAX) in err


def _without_bordism_check():
    # the exhaustive group-axiom check does not depend on argv; test_selftest runs it
    return tuple(c for c in selfcheck.CHECKS if c is not selfcheck.check_bordism)


def test_selftest_count_of_one_runs(capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "CHECKS", _without_bordism_check())
    code, out, _ = run(capsys, "selftest", "--count", "1")
    assert code == 0
    assert "on 1 random block forms" in out


# -- the exit-code contract under fuzzed argv -------------------------------------------

_FLAGS = [
    "--json", "--help", "-h", "--level", "diffeo", "homeo", "homotopy", "--category",
    "smooth", "top", "--type", "I", "II", "III", "--r-max", "--r", "--twist", "none",
    "2eta", "gamma", "--dump-pages", "--seed", "--count", "--input", "-", ".", "--c1",
    "table", "info", "add", "neg", "canon", "forget", "--", "-x", "--bogus",
]
# small integers, and integers just past each limit, which are rejected at once:
# none of them starts a long run
_INTEGERS = [
    "-2", "-1", "0", "-0", "+1", "1", "2", "3", "5", "8", "9", "60", "2,0", "2,0,0",
    str(ENUMERATE_R_MAX + 1), str(SELFTEST_COUNT_MAX + 1), str(2**64), str(-(2**64)),
] + ([_OVER_LONG] if _MAX_DIGITS else [])
_ODD_TEXT = ["", " ", "٣", "²", "１", "1_0", "1.5", "٢,٢"]
_FRAGMENTS = [
    "X(1)", "X(3)", "X(-17)", "X(1,3)", "X(-1,-3)", "S2xRP3", "*S2xRP3", "CP2xS1",
    "2*(S2xS2)xS1", "0*(S2xS2)xS1", "#", "#~", "X(1) # CP2xS1", "X(1) #~ X(1)", "X(",
    "X(²)", "X(1) #", "X(99999999999999999999)", "CP2xS1 # 3*(S2xS2)xS1",
    "99999999999*(S2xS2)xS1 # X(0,1)", "X(1)#*S2xRP3",
]
_ELEMENTS = [
    "pin+:7", "pinc:(1,1)", "top-pin+:(1,3)", "pin-:()", "top-pinc:(1,2,3)", "pin+:",
    "pin+:(1,2)", "foo:1", "pin+:٣", "pinc:(1.5,1)", "top-pin-:1", "pin+:-3",
]
_TOKENS = st.one_of(
    st.sampled_from(_FLAGS + _INTEGERS + _ODD_TEXT + _FRAGMENTS + _ELEMENTS),
    # a fixed alphabet: st.text's default one costs seconds to build on a fresh
    # hypothesis database
    st.text("0123456789+-,.()#~*: xXSRPCpin٣²\x00\u00e9", max_size=6),
)
_STDIN = [
    '{"form": {"matrix": [[1]]}, "ks": 0}', '{"form": {"blocks": ["1", "1"]}, "ks": 0}',
    '{"form": {"blocks": ["H"]}}', '{"form": {"blocks": ["E8"]}, "ks": 1}', "", "[",
    "null", '{"form": {"matrix": [[1.7]]}}', '{"form": {"blocks": ["1"]}, "ks": true}',
]


def _slow(argv):
    """An in-range --r-max above 60 (a long listing); selftest gets its own test."""
    if argv[0] != "enumerate":
        return False
    return any(t.isascii() and t.strip().lstrip("+-").isdigit() and len(t) < 20
               and 60 < int(t) <= ENUMERATE_R_MAX for t in argv)


def _exit_code(argv, stdin_text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ), mock.patch("sys.stdin", io.StringIO(stdin_text)):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            return exc.code


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(
        ["classify", "invariants", "normalize", "compare", "enumerate", "bordism", "ahss"]
    ),
    st.lists(_TOKENS, max_size=7),
    st.sampled_from(_STDIN),
)
def test_exit_codes_under_fuzzed_argv(command, tokens, stdin_text):
    argv = [command, *tokens]
    assume(not _slow(argv))
    assert _exit_code(argv, stdin_text) in (0, 2, 3), argv


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_TOKENS, max_size=4),
    st.sampled_from(["-1", "0", "1", "5", "٣", ""]),
)
def test_selftest_exit_codes_under_fuzzed_argv(tokens, count):
    # the last --count wins, and it is at most 5
    argv = ["selftest", *tokens, "--count", count]
    with mock.patch.object(selfcheck, "CHECKS", _without_bordism_check()):
        assert _exit_code(argv, "") in (0, 2, 3), argv


# -- classify over random JSON documents ------------------------------------------------

_HUGE = "__over_long_integer__"  # replaced by _OVER_LONG in the JSON text
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-3, 3),
    st.integers(-(10**40), 10**40),
    st.sampled_from(["1", "-1", "H", "E8", "", "x", "٣", "2"]),
    st.text("0123456789-Ex. ", max_size=4),
    st.just(_HUGE if _MAX_DIGITS else 2**64),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["form", "matrix", "blocks", "ks", "x"]), inner,
                        max_size=3),
    ),
    max_leaves=16,
)
_MATRICES = st.lists(
    st.lists(st.one_of(st.integers(-2, 2), _JSON_LEAVES), min_size=1, max_size=4),
    min_size=1, max_size=4,
)
_FORM_SPECS = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries({"matrix": st.one_of(_MATRICES, _JSON_VALUES)}),
    st.fixed_dictionaries(
        {"blocks": st.lists(st.sampled_from(sorted(BLOCK_MATRICES)), max_size=6)}
    ),
    st.fixed_dictionaries({"blocks": _JSON_VALUES}),
)
_DOCUMENTS = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries(
        {"form": _FORM_SPECS}, optional={"ks": st.one_of(st.integers(0, 1), _JSON_LEAVES)}
    ),
)


@st.composite
def _classify_inputs(draw):
    """A random document and --c1, or a block form with a c1 of its rank,
    most of which classify."""
    if draw(st.booleans()):
        c1 = ["2", "0,2", "2,0", "2,2", "2,0,0", "0,0,0,2", "4", "1", "0", "", "x"]
        return draw(_DOCUMENTS), draw(st.sampled_from(c1))
    names = draw(st.lists(st.sampled_from(sorted(BLOCK_MATRICES)), min_size=1, max_size=4))
    rank = sum(len(BLOCK_MATRICES[n]) for n in names)
    pairings = draw(st.lists(st.sampled_from([0, 2, -2, 6]), min_size=rank, max_size=rank))
    doc = {"form": {"blocks": names}, "ks": draw(st.integers(0, 1))}
    return doc, ",".join(map(str, pairings))


@settings(max_examples=200, deadline=None)
@given(_classify_inputs())
def test_classify_exit_codes_under_random_json(doc_c1):
    doc, c1 = doc_c1
    text = json.dumps(doc).replace(f'"{_HUGE}"', _OVER_LONG)
    assert _exit_code(["classify", "--input", "-", "--c1", c1], text) in (0, 2, 3), text
