import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import kippenhahn
from kippenhahn import ReciprocalParams, classify, generating_poly
from kippenhahn.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_elliptic_5x5(capsys):
    code, out, _ = run(capsys, "classify", "--b", "1.5,2,2.5,1.5")
    assert code == 0
    assert "elliptic" in out
    assert "x=1.5" in out and "3.33861" in out


def test_classify_normal(capsys):
    # two unit parameters: n = 3, endpoints +-2cos(pi/4)
    code, out, _ = run(capsys, "classify", "--A", "1,1")
    assert code == 0
    assert "normal" in out
    assert "1.414214" in out
    # three unit parameters: n = 4, endpoints +-2cos(pi/5)
    code, out, _ = run(capsys, "classify", "--A", "1,1,1")
    assert code == 0
    assert "normal" in out
    assert "1.618034" in out


def test_classify_non_elliptic(capsys):
    code, out, _ = run(capsys, "classify", "--b", "1.5,2,2,3")
    assert code == 0
    assert "non-elliptic" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--A", "2,2,2,2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "toeplitz_case"
    assert len(doc["components"]) == 3


def test_classify_rejects_two_input_modes(capsys):
    code, _, err = run(capsys, "classify", "--A", "1,1", "--b", "1,1")
    assert code == 2
    assert "error" in err


def test_classify_rejects_invalid_params(capsys):
    code, _, err = run(capsys, "classify", "--A", "0.5,1")
    assert code == 2


def test_classify_b_near_and_past_the_float_range(capsys):
    # A_1 = 9.8e307 is a float; b_1 = 1e200 gives A_1 past the float range
    code, out, _ = run(capsys, "classify", "--b", "1.4e154,2", "--format", "json")
    assert code == 0 and json.loads(out)["kind"] == "all_components_elliptic"
    code, _, err = run(capsys, "classify", "--b", "1e200,2")
    assert code == 2 and "error" in err


def test_classify_wrong_size(capsys):
    code, _, err = run(capsys, "classify", "--A", "1,2,3,4,5,6,7")
    assert code == 2


def test_curve_outputs(tmp_path, capsys):
    stem = str(tmp_path / "demo")
    code, out, _ = run(capsys, "curve", "--b", "1.5,2,2.5,1.5", "--m", "24",
                       "--out", stem)
    assert code == 0
    csv = (tmp_path / "demo.csv").read_text().splitlines()
    assert csv[0] == "theta,branch,u,v,lambda"
    assert len(csv) == 1 + 24 * 5
    svg = (tmp_path / "demo.svg").read_text()
    assert svg.startswith("<svg")
    assert 'version="1.1"' in svg


def test_curve_deterministic(tmp_path, capsys):
    stems = [str(tmp_path / name) for name in ("one", "two")]
    for stem in stems:
        run(capsys, "curve", "--A", "2,2,2", "--m", "16", "--out", stem)
    a = (tmp_path / "one.csv").read_bytes()
    b = (tmp_path / "two.csv").read_bytes()
    assert a == b


def test_curve_minimal_grid_rowcount(tmp_path, capsys):
    stem = str(tmp_path / "tiny")
    code, _, _ = run(capsys, "curve", "--A", "2,3", "--m", "8", "--out", stem)
    assert code == 0
    rows = (tmp_path / "tiny.csv").read_text().splitlines()
    assert len(rows) == 1 + 8 * 3


def test_curve_with_fit_overlay(tmp_path, capsys):
    stem = str(tmp_path / "fit6")
    code, out, _ = run(capsys, "curve", "--A",
                       "8.8621796566155,3.2811683514057,5,3.2811683514057,8.8621796566155",
                       "--m", "90", "--out", stem, "--fit")
    assert code == 0
    assert "stroke-dasharray" in (tmp_path / "fit6.svg").read_text()


def test_curve_unwritable_path(capsys):
    code, _, err = run(capsys, "curve", "--A", "2,2", "--m", "8",
                       "--out", "/nonexistent-dir/xyz/out")
    assert code == 3


def test_config_validation(capsys):
    code, _, err = run(capsys, "curve", "--A", "2,2", "--m", "4")
    assert code == 2 and "m >= 8" in err
    code, _, err = run(capsys, "classify", "--A", "2,2", "--tol", "-1")
    assert code == 2
    code, _, err = run(capsys, "classify", "--A0", "2")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_classify_rejects_non_finite_tol(capsys, tol):
    code, out, err = run(capsys, "classify", "--A", "2,3,4,5,6", "--tol", tol)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("n", ["-3", "1"])
def test_classify_rejects_size_below_two(capsys, n):
    code, out, err = run(capsys, "classify", "--A0", "2", "--n", n)
    assert code == 2 and out == ""
    assert "--n must be at least 2" in err


def test_solve_fixed_pair(capsys):
    code, out, _ = run(capsys, "solve", "--fix", "A1=20", "A5=40")
    assert code == 0
    assert "64.939592" in out
    assert "36.0387547" in out


def test_solve_uv_reports_line(capsys):
    code, out, _ = run(capsys, "solve", "--uv", "--root", "3")
    assert code == 0
    assert "line" in out
    assert "all-equal point" in out


def test_solve_symmetric_pair_warns(capsys):
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "solve", "--fix", "A2=3", "A4=3")
    assert code == 0


def test_solve_warning_is_one_line_without_source_location():
    # a fresh interpreter shows the warning as a user would see it (the test
    # runner records warnings instead of printing them)
    env = {**os.environ, "PYTHONPATH": str(Path(kippenhahn.__file__).resolve().parents[1])}
    code = "import sys; from kippenhahn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "solve", "--fix", "A2=3", "A4=3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "cli.py" not in proc.stderr
    assert proc.stderr == ("warning: fixed pair imposes a symmetry hyperplane; only the "
                           "all-equal ray lies on the three-ellipse variety there\n")


@pytest.mark.parametrize("b", ["1e200", "1e160,2", "1e-200,2"])
def test_curve_fit_on_curves_near_the_float_range(tmp_path, b):
    # a fresh interpreter, so LAPACK's own stderr lines (DLASCL) would show:
    # squares of coordinates past ~1.3e154 used to overflow in the fit
    env = {**os.environ, "PYTHONPATH": str(Path(kippenhahn.__file__).resolve().parents[1])}
    code = "import sys; from kippenhahn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "curve", "--b", b, "--m", "8", "--fit",
                           "--out", str(tmp_path / "c")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count("fit: semi-axes") == 2  # n = 3: the middle branch is a point


def test_curve_fit_of_a_thin_ellipse(tmp_path, capsys):
    # n = 2: the curve is the ellipse with semi-axes (b + 1/b)/2 and
    # (b - 1/b)/2, here 1e-7 in units of the other
    code, out, _ = run(capsys, "curve", "--b", "1.0000001", "--m", "720", "--fit",
                       "--out", str(tmp_path / "thin"), "--format", "csv")
    assert code == 0
    b = Fraction(1.0000001)
    want = float((b - 1 / b) / 2)
    lines = [line for line in out.splitlines() if "fit: semi-axes" in line]
    assert len(lines) == 2
    for line in lines:
        minor = min(map(float, line.split("semi-axes ")[1].split()[0].split("/")))
        assert abs(minor - want) <= 1e-9 * want


def test_curve_fit_lines_keep_branch_numbers(tmp_path, capsys):
    # n = 5: the middle branch 3 is the single point 0 and has no fit; the
    # lines after it still name branches 4 and 5
    code, out, _ = run(capsys, "curve", "--b", "1.5,2,2.5,3", "--m", "720", "--fit",
                       "--out", str(tmp_path / "c5"), "--format", "csv")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[1:]] == ["1", "2", "4", "5"]


def test_svg_size_does_not_grow_with_scale(tmp_path, capsys):
    sizes = []
    for b in ("1e200,2", "2"):
        stem = str(tmp_path / b.replace(",", "_"))
        code, _, _ = run(capsys, "curve", "--b", b, "--m", "8", "--fit", "--format", "svg",
                         "--out", stem)
        assert code == 0
        ElementTree.parse(stem + ".svg")
        sizes.append(os.path.getsize(stem + ".svg"))
    assert sizes[0] <= 2 * sizes[1]


def test_svg_points_are_csv_points_over_the_scale(tmp_path, capsys):
    stem = str(tmp_path / "c5")
    code, _, _ = run(capsys, "curve", "--b", "1.5,2,2.5,3", "--m", "720", "--out", stem)
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "c5.csv").read_text().splitlines()[1:]]
    csv_pts = np.array([complex(float(u), float(v)) for _, _, u, v, _ in rows]).reshape(720, 5)
    s = max(np.abs(csv_pts.real).max(), np.abs(csv_pts.imag).max())
    ns = {"svg": "http://www.w3.org/2000/svg"}
    lines = ElementTree.parse(stem + ".svg").getroot().findall(".//svg:polyline", ns)
    assert len(lines) == 5
    for k, line in enumerate(lines):
        pts = [complex(*map(float, pair.split(","))) for pair in line.get("points").split()]
        assert len(pts) == 721  # closed: the first point again at the end
        assert np.abs(s * np.array(pts[:-1]) - csv_pts[:, k]).max() <= 1e-6 * s


def test_poly_report(capsys):
    code, out, _ = run(capsys, "poly", "--A", "2,3")
    assert code == 0
    assert "zeta^1: 1" in out
    assert "origin factor" in out


def test_poly_json_exact(capsys):
    code, out, _ = run(capsys, "poly", "--A", "2,3", "--format", "json")
    doc = json.loads(out)
    assert doc["coefficients"][0][0] == "-5/2"


def test_verify_default(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "10", "--n", "6")
    assert code == 0
    assert "pass" in out
    assert "FAIL" not in out


def test_verify_r_coefficients_reports_expected_mismatches(capsys):
    code, out, _ = run(capsys, "verify", "--check", "r-coefficients")
    assert code == 0
    assert "expected mismatch" in out
    for tag in ("R1.x^1", "R2.x^1", "R2.x^2", "R.r1"):
        assert tag in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("A = 1,1,1\n# comment line\nformat = text\n")
    code, out, _ = run(capsys, "classify", "--config", str(cfg))
    assert code == 0
    assert "normal" in out
    # flags win over the file
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--A", "2,2")
    assert code == 0
    assert "elliptic" in out


WRONG_FORMATS = [("classify", "csv"), ("classify", "svg"), ("poly", "csv"), ("poly", "svg"),
                 ("curve", "text"), ("curve", "json")]


@pytest.mark.parametrize("command,fmt", WRONG_FORMATS)
def test_format_choices_per_subcommand(capsys, command, fmt):
    code, out, err = run(capsys, command, "--A", "2,3", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith(f"error: format {fmt!r} not available for {command}; choose from ")


@pytest.mark.parametrize("command,fmt", WRONG_FORMATS)
def test_config_file_format_must_suit_subcommand(tmp_path, capsys, command, fmt):
    # a flag and a config file are checked once, with one message
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"A = 2,3\nformat = {fmt}\n")
    outcomes = [run(capsys, command, "--A", "2,3", *extra)
                for extra in (("--format", fmt), ("--config", str(cfg)))]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[1]
    assert code == 2 and out == ""
    assert err.startswith(f"error: format {fmt!r} not available for {command}; choose from ")


@pytest.mark.parametrize("command,formats", [("classify", "text, json"),
                                             ("poly", "text, json"), ("curve", "csv, svg")])
def test_help_lists_the_formats(capsys, command, formats):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"report format: {formats}" in " ".join(capsys.readouterr().out.split())


def test_curve_format_writes_only_that_file(tmp_path, capsys):
    for fmt in ("csv", "svg"):
        stem = tmp_path / fmt
        code, out, _ = run(capsys, "curve", "--A", "2,3", "--m", "8",
                           "--out", str(stem), "--format", fmt)
        assert code == 0
        assert [p.suffix for p in tmp_path.glob(f"{fmt}.*")] == ["." + fmt]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_solve_rejects_non_finite_fix(capsys, bad):
    code, _, err = run(capsys, "solve", "--fix", f"A1={bad}", "A5=4")
    assert code == 2
    assert "finite" in err


def test_classify_rejects_non_finite(capsys):
    code, _, err = run(capsys, "classify", "--A", "2,nan,3")
    assert code == 2


def test_classify_names_non_finite_superdiagonal(capsys):
    code, _, err = run(capsys, "classify", "--b", "nan,1")
    assert code == 2
    assert "b_1" in err and "not finite" in err
    assert "reciprocal" not in err


@pytest.mark.parametrize("argv", [("classify", "--m", "4"), ("classify", "--out", "x"),
                                  ("poly", "--m", "2"), ("poly", "--tol", "1e-3"),
                                  ("poly", "--out", "x"), ("curve", "--tol", "nan")])
def test_subcommands_take_only_flags_they_read(capsys, argv):
    command, *flag = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--A", "2,3", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command,line", [("classify", "m = 4"), ("classify", "out = x"),
                                          ("poly", "tol = 1e-3"), ("curve", "tol = nan")])
def test_config_file_key_must_suit_subcommand(tmp_path, capsys, command, line):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"A = 2,3\n{line}\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"config key {line.split()[0]} not available for {command}" in err


@pytest.mark.parametrize("argv", [("--trials", "0"), ("--trials", "-4"),
                                  ("--check", "determinant", "--n", "1"), ("--n", "2")])
def test_verify_rejects_checks_that_check_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err


def test_solve_uv_and_fix_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--uv", "--fix", "A1=2", "A5=3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_solve_json_gives_twelve_solutions_and_the_line(capsys):
    code, out, _ = run(capsys, "solve", "--fix", "A1=20", "A5=40", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 12
    code, out, _ = run(capsys, "solve", "--uv", "--root", "3", "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)) == ["all_equal_point", "line", "root", "root_index"]


@pytest.mark.parametrize("argv", [("--fix", "A1=2", "A5=3", "--root", "1"), ("--root", "2")])
def test_solve_root_needs_uv(capsys, argv):
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2 and out == ""
    assert "--root applies only to --uv" in err


def test_solve_uv_defaults_to_root_3(capsys):
    code, out, _ = run(capsys, "solve", "--uv", "--format", "json")
    assert code == 0
    default = json.loads(out)
    code, out, _ = run(capsys, "solve", "--uv", "--root", "3", "--format", "json")
    assert code == 0 and default == json.loads(out)
    assert default["root_index"] == 3


@pytest.mark.parametrize("argv", [("solve", "--fix", "A1=1e200", "A5=3e200")])
def test_out_of_float_range_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err


def test_solve_plane_point_past_the_float_range_is_an_input_error(capsys):
    # both fixed values are finite; the first plane's point is not
    code, out, err = run(capsys, "solve", "--fix", "A1=1e308", "A5=-1e308")
    assert code == 2 and out == ""
    assert err == "error: the point on plane d1 at x1 = 0.0990311321 is past the float range\n"


def test_solve_residuals_near_1e103_print_their_scaled_norm(capsys):
    # the residuals are finite while sum |A_j| cubed is past the float range
    code, out, _ = run(capsys, "solve", "--fix", "A1=1e103", "A5=3e103")
    assert code == 0
    norms = [float(line.split()[3]) for line in out.splitlines()
             if "scaled residual norm" in line]
    assert len(norms) == 12 and max(norms) <= 1e-9


def test_classify_json_near_the_float_maximum_is_strict_json(capsys):
    # an n = 5 point on the first hyperplane with A3 = 1.7e308: the
    # diagnostics are relative, so none prints as Infinity
    code, out, _ = run(capsys, "classify", "--A", "1,1,1.7e308,1", "--format", "json")
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    got = json.loads(out, parse_constant=reject)
    assert got["kind"] == "all_components_elliptic"


@pytest.mark.parametrize("A", ["1e200,2.6180339887498949e200,2e200",
                               "1e200,2e200,3e200,1e200"], ids=["n4", "n5"])
def test_small_n_manifold_points_near_1e200_classify(capsys, A):
    # both points lie on an elliptic manifold, and S^2 (S the sum of the
    # A_j) is past the float range; the components are those of the point
    # divided by 2^600, times 2^600
    code, out, _ = run(capsys, "classify", "--A", A, "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["kind"] == "all_components_elliptic"
    small = classify(ReciprocalParams(A=tuple(float(a) / 2.0 ** 600 for a in A.split(","))))
    assert [(c["x"], c["z"]) for c in got["components"]] == [
        (c.x, c.z * 2.0 ** 600) for c in small.components]


@pytest.mark.parametrize("A", ["1e150,2.6180339887498949e150,2e150", "2,2,2,2,2"])
def test_classify_semi_axes_are_short_and_parse_back(capsys, A):
    code, out, _ = run(capsys, "classify", "--A", A)
    assert code == 0
    result = classify(ReciprocalParams(A=tuple(float(a) for a in A.split(","))))
    lines = [line for line in out.splitlines() if "semi-axes" in line]
    assert len(lines) == len(result.components) > 0
    for line, comp in zip(lines, result.components):
        assert len(line) < 200
        major, minor = map(float, line.split("semi-axes ")[1].split()[0].split("/"))
        assert major == pytest.approx(comp.semi_major, rel=1e-8)
        assert minor == pytest.approx(comp.semi_minor, rel=1e-8)


def test_poly_text_prints_coefficients_past_float_range(capsys):
    A = "1e200,1.1,1e200,1.1,1e200"
    code, out, _ = run(capsys, "poly", "--A", A)
    assert code == 0
    P = generating_poly(ReciprocalParams(A=tuple(float(a) for a in A.split(","))))
    rows = [line.split(": ", 1)[1] for line in out.splitlines()[1:]]
    assert len(rows) == P.deg_zeta + 1
    for i, row in zip(range(P.deg_zeta, -1, -1), rows):
        assert len(row) < 200
        for term in _signed_terms(row):
            text, _, power = term.partition("*tau^")
            exact = P.coeff(i, int(power or 0))
            assert abs(Fraction(text) - exact) <= abs(exact) * Fraction(1, 10 ** 16)


def _signed_terms(row):
    """The terms of a printed row, each with its sign: "a - b*tau^1" gives
    "a" and "-b*tau^1"."""
    return row.replace(" - ", " + -").split(" + ")


@pytest.mark.parametrize("argv,row", [
    (("--A0", "3/2", "--n", "3"), "zeta^0: -3/2 - 1*tau^1"),
    (("--A", "2,3,4"), "zeta^1: -9/2 - 3/2*tau^1"),
    (("--A", "2,3,4"), "zeta^0: 2 + 3/2*tau^1 + 1/4*tau^2"),
    (("--A", "2,3,4,5,6"), "zeta^0: -6 - 11/2*tau^1 - 3/2*tau^2 - 1/8*tau^3"),
])
def test_poly_text_prints_negative_terms_with_a_minus(capsys, argv, row):
    # a negative tau-term reads "- c*tau^j", never "+ -c*tau^j"
    code, out, _ = run(capsys, "poly", *argv)
    assert code == 0
    assert f"  {row}\n" in out
    assert "+ -" not in out


@pytest.mark.parametrize("argv,message", [
    (("--A", "2,1j"), "is not a real number"),
    (("--A", ","), "--A needs at least one value"),
    (("--b", ","), "--b needs at least one value"),
    (("--A", "2,3", "--n", "7"), "--n 7 disagrees with the size 3 that --A gives"),
    (("--b", "1.5,2", "--n", "4"), "--n 4 disagrees with the size 3 that --b gives"),
])
def test_classify_rejects_inconsistent_input(capsys, argv, message):
    code, out, err = run(capsys, "classify", *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (("A1",), "--fix takes NAME=VALUE, got 'A1'"),
    (("A1=2", "A5=x"), "--fix takes NAME=VALUE, got 'A5=x'"),
    (("a1=2", "A5=3"), "unknown parameter 'a1'; fix two of A1, A2, A4, A5"),
    (("A3=2", "A5=3"), "cannot fix 'A3'; fix two of A1, A2, A4, A5"),
    (("A1=2", "A1=3"), "--fix gives A1 twice; fix two different parameters"),
    (("A1=1j", "A5=4"), "A_1 = 1j is not a real number"),
])
def test_solve_fix_errors_name_the_problem(capsys, argv, message):
    code, out, err = run(capsys, "solve", "--fix", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,key,text,message", [
    (("classify", "--n", "3"), "A0", "x", "A0: malformed number 'x'"),
    (("classify", "--n", "3"), "A0", "1" + "0" * 400 + "/3", "is outside the float range"),
    (("classify", "--A0", "2"), "n", "2.5", "n: invalid literal for int()"),
    (("curve", "--A", "2,3"), "m", "x", "m: invalid literal for int()"),
    (("classify", "--A", "2,3"), "tol", "1/2", "tol: could not convert string to float"),
    (("classify",), "A", "2,abc", "A: malformed number 'abc'"),
    (("classify",), "b", "2,abc", "b: malformed number 'abc'"),
])
def test_malformed_value_reads_alike_from_flag_and_file(capsys, tmp_path, argv, key, text,
                                                        message):
    # --tol is a decimal, so a p/q there is malformed
    config = tmp_path / "job.cfg"
    config.write_text(f"{key} = {text}\n")
    outcomes = [run(capsys, *argv, *extra)
                for extra in (("--" + key, text), ("--config", str(config)))]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert message in err


def test_solve_fix_reads_p_over_q_exactly(capsys):
    exact = run(capsys, "solve", "--fix", "A1=3/2", "A5=4", "--format", "json")
    assert exact[0] == 0
    assert exact == run(capsys, "solve", "--fix", "A1=1.5", "A5=4", "--format", "json")


def test_classify_takes_p_over_q_all_equal_value(capsys):
    code, out, _ = run(capsys, "classify", "--A0", "3/2", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "toeplitz_case" and doc["A"] == [1.5] * 3


@pytest.mark.parametrize("text", ["2,,3", "2,3,", ",2"])
@pytest.mark.parametrize("key", ["A", "b"])
def test_empty_list_entry_is_an_input_error(capsys, tmp_path, key, text):
    config = tmp_path / "job.cfg"
    config.write_text(f"{key} = {text}\n")
    for argv in (("--" + key, text), ("--config", str(config))):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {key}: empty entry in the list {text!r}\n"


def test_n_may_repeat_the_size_the_list_gives(capsys):
    assert run(capsys, "classify", "--A", "2,3", "--n", "3") == run(capsys, "classify", "--A", "2,3")


def test_missing_config_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "classify", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "missing.cfg" in err


def test_parser_is_built_once_and_reused_without_carry_over(tmp_path, capsys):
    stem = str(tmp_path / "c")
    sequence = [
        ("classify", "--A", "2,3,4,5,6"),
        ("classify", "--A", "2,nan"),
        ("classify", "--A", "2,3", "--format", "csv"),
        ("curve", "--A", "2,3", "--m", "8", "--out", stem, "--fit", "--format", "csv"),
        ("curve", "--A", "2,3", "--m", "8", "--out", stem, "--format", "csv"),
        ("solve", "--fix", "A1=20", "A5=40", "--format", "json"),
        ("solve", "--root", "2"),
        ("solve", "--uv"),
        ("nosuch",),
        ("verify", "--check", "r-coefficients"),
        ("verify", "--trials", "0"),
        ("poly", "--A", "2,3"),
        ("classify", "--A", "2,3,4,5,6"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    assert [outcome(argv) for argv in sequence] == fresh
    assert build_parser() is build_parser()


def test_poly_reads_p_over_q_exactly(capsys):
    code, out, _ = run(capsys, "poly", "--A", "3/2,5/4", "--format", "json")
    assert code == 0
    P = generating_poly(ReciprocalParams(A=(Fraction(3, 2), Fraction(5, 4))))
    doc = json.loads(out)
    assert doc["coefficients"] == [[str(c) for c in row] for row in P.coeff_table()]
    assert doc["coefficients"][0][0] == "-11/8"


def test_p_over_q_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("A = 3/2, 5/4\n")
    assert run(capsys, "poly", "--config", str(cfg)) == run(capsys, "poly", "--A", "3/2,5/4")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_takes_p_over_q(capsys, fmt):
    # classify works in floats: 3/2 and 5/4 are dyadic, so the report is the decimal one
    assert (run(capsys, "classify", "--A", "3/2,5/4", "--format", fmt)
            == run(capsys, "classify", "--A", "1.5,1.25", "--format", fmt))


def test_curve_takes_p_over_q_superdiagonal(tmp_path, capsys):
    code, _, _ = run(capsys, "curve", "--b", "3/2,5/2", "--m", "8", "--out", str(tmp_path / "q"))
    assert code == 0
    code, _, _ = run(capsys, "curve", "--b", "1.5,2.5", "--m", "8", "--out", str(tmp_path / "d"))
    assert code == 0
    assert (tmp_path / "q.csv").read_text() == (tmp_path / "d.csv").read_text()


@pytest.mark.parametrize("token,message", [
    ("3/2x", "malformed number '3/2x'"),
    ("3/0", "malformed number '3/0'"),
    ("1//2", "malformed number '1//2'"),
    ("abc", "malformed number 'abc'"),
    ("1" + "0" * 400 + "/3", "is outside the float range"),
])
def test_malformed_number_names_the_token(capsys, token, message):
    code, out, err = run(capsys, "poly", "--A", f"2,{token}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_decimals_stay_floats():
    from kippenhahn.cli import _parse_numlist
    values = _parse_numlist("1.1, 3/2, 2, 1e3, 2j")
    assert values == [1.1, Fraction(3, 2), 2.0, 1000.0, 2j]
    assert [type(v) for v in values] == [float, Fraction, float, float, complex]


@pytest.mark.parametrize("argv", [
    ("solve", "--fix", "A1=20", "A5=40"),
    ("solve", "--fix", "A2=3/2", "A4=4", "--format", "json"),
    ("solve", "--uv"),
    ("solve", "--uv", "--root", "1", "--format", "json"),
    ("classify", "--A", "2,3,4,5,6", "--tol", "1e-9", "--format", "json"),
    ("classify", "--A0", "3/2", "--n", "4"),
    ("curve", "--b", "1.5,2,2.5", "--m", "8", "--fit", "--out", "{out}"),
    ("poly", "--A", "3/2,5/4", "--format", "json"),
    ("verify", "--check", "r-coefficients", "determinant", "--n", "5", "--trials", "2"),
])
def test_named_subcommand_is_parsed_once_into_the_top_level_namespace(
        monkeypatch, capsys, tmp_path, argv):
    # oracle: the namespace and output of the top-level parser's two passes
    argv = [tok.format(out=tmp_path / "c") for tok in argv]
    want = build_parser().parse_args(argv)
    assert want.run(want) == 0
    want_out = capsys.readouterr().out
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(parser, *args, **kwargs):
        parses.append((parser.prog, parse_known_args(parser, *args, **kwargs)))
        return parses[-1][1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert main(argv) == 0
    assert capsys.readouterr().out == want_out
    [(prog, (args, extra))] = parses
    assert prog == f"kippenhahn {argv[0]}" and extra == []
    assert args == want


@pytest.mark.parametrize("argv,message", [
    ((), "the following arguments are required: command"),
    (("nosuch",), "argument command: invalid choice: 'nosuch'"),
])
def test_no_subcommand_is_a_top_level_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kippenhahn [-h]")
    assert f"\nkippenhahn: error: {message}" in err


def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{classify,curve,solve,poly,verify}" in capsys.readouterr().out


def test_usage_error_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kippenhahn solve [-h]")
    assert err.endswith("\nkippenhahn solve: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv,message", [
    ((), "solve needs --fix NAME=VALUE NAME=VALUE or --uv"),
    (("--format", "json"), "solve needs --fix NAME=VALUE NAME=VALUE or --uv"),
    (("--fix",), "fix exactly two of A1, A2, A4, A5"),
])
def test_bare_solve_names_both_modes(capsys, argv, message):
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
