"""End-to-end CLI tests: outputs, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiveclass.algebra import ENUMERATE_R_MAX
from fiveclass.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_classify_missing_file_exit_two(capsys, tmp_path):
    code, _, _ = run(
        capsys, "classify", "--input", str(tmp_path / "nope.json"), "--c1", "2"
    )
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


def test_bordism_arity_exit_two(capsys):
    for op in ("neg", "canon", "forget", "info"):
        code, _, err = run(capsys, "bordism", op)
        assert code == 2, op
        assert "takes one argument" in err
    code, _, _ = run(capsys, "bordism", "neg", "pin+:1", "pin+:2")
    assert code == 2


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


def test_ahss_order_mismatch_exit_three(capsys, monkeypatch):
    # force a disagreement with the closed form: the checker must exit 3
    from fiveclass import ahss

    monkeypatch.setattr(ahss, "expected_order", lambda r, twist: 7)
    code, _, err = run(capsys, "ahss", "--r", "1", "--twist", "none")
    assert code == 3
    assert "consistency" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "40")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("ok:") == 5


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
