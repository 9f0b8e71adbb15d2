import argparse

import pytest

from kippenhahn import rtables, verify
from kippenhahn.cli import build_parser, main


def test_run_passes_every_check():
    results = verify.run()
    assert len(results) == len(verify.CHECKS)
    assert all(r.ok for r in results)
    assert all(r.lines for r in results)


def test_run_lines_are_the_verify_report(capsys):
    for argv, kwargs in ((["verify"], {}),
                         (["verify", "--trials", "10", "--n", "6"], dict(trials=10, n_max=6)),
                         (["verify", "--check", "z-centers", "determinant", "--n", "4"],
                          dict(names=["z-centers", "determinant"], n_max=4))):
        assert main(argv) == 0
        lines = [line for r in verify.run(**kwargs) for line in r.lines]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_checks_are_the_parsers_check_choices():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    check = next(a for a in sub.choices["verify"]._actions if a.dest == "check")
    assert tuple(check.choices) == tuple(verify.CHECKS)


def test_unexpected_printed_mismatch_fails_with_its_monomials(monkeypatch, capsys):
    printed = dict(rtables.R1_X2_PRINTED)
    printed[(1, 0, 0, 0, 0)] = printed.get((1, 0, 0, 0, 0), 0) + 7
    monkeypatch.setattr(rtables, "R1_TABLES_PRINTED",
                        (printed,) + rtables.R1_TABLES_PRINTED[1:])
    [result] = verify.run(["r-coefficients"])
    assert not result.ok
    [line] = [line for line in result.lines if "R1.x^2" in line]
    assert "UNEXPECTED" in line and "(1, 0, 0, 0, 0)" in line
    assert result.lines[-1].endswith("-> FAIL")
    assert main(["verify", "--check", "r-coefficients"]) == 1
    assert capsys.readouterr().out == "\n".join(result.lines) + "\n"


def test_known_name_with_another_diff_fails_with_its_monomials(monkeypatch):
    # R1.x^1 already differs from its printed table; a further difference
    # inside it is not the documented typo
    monkeypatch.setitem(rtables.R1_X1, (1, 1, 0, 0, 0), 999)
    [result] = verify.run(["r-coefficients"])
    assert not result.ok
    [line] = [line for line in result.lines if "R1.x^1" in line]
    assert "UNEXPECTED" in line and "(1, 1, 0, 0, 0): (18, 999)" in line
    assert result.lines[-1].endswith("-> FAIL")


@pytest.mark.parametrize("kwargs", [dict(trials=0), dict(trials=-4), dict(n_max=2),
                                    dict(names=["determinant"], n_max=2),
                                    dict(names=["z-centers"], trials=0)])
def test_run_rejects_inputs_that_check_nothing(kwargs):
    with pytest.raises(ValueError, match="must be at least"):
        verify.run(**kwargs)
