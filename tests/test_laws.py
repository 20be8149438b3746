"""The FAIL path of the algebraic self-checks, driven by a broken extension,
sum or product."""

import pytest

import ltbe.laws
from ltbe import (
    SemiringKind,
    SemiringValue,
    ValRel,
    check_monad_consistency,
    check_semiring_laws,
)
from ltbe.cli import main

B = SemiringKind.BOOL


def _lift_to_top(rel, left_values):
    """A broken extension: every lifted entry is the unit, whatever ``rel`` says."""
    return ValRel.top([bv.key() for bv in left_values], rel.cols, rel.kind)


@pytest.fixture
def broken_extension(monkeypatch):
    monkeypatch.setattr(ltbe.laws, "lift_extension", _lift_to_top)


def test_monad_check_reports_first_counterexamples(broken_extension):
    report = check_monad_consistency(B, 2)
    checks = {c.name: c for c in report.checks}
    assert checks["induced-add-agrees"].passed
    # the all-false relation is the first sample; x0 is its first row
    assert not checks["extension-unit"].passed
    assert checks["extension-unit"].counterexample == (
        "unit extension changed the value at ('x0', 'y0')"
    )
    # zero weights mix to the empty value, whose top entry is no weighted sum
    assert checks["extension-linear"].counterexample == "linearity fails for weights (False, False)"
    assert not report.passed
    text = report.format()
    assert "  FAIL extension-unit: unit extension changed the value at ('x0', 'y0')" in text
    assert "  FAIL extension-linear: linearity fails for weights (False, False)" in text


def test_check_laws_command_fails(broken_extension, capsys):
    code = main(["check-laws", "--kind", "bool", "--size-bound", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL extension-unit" in out and "FAIL extension-linear" in out
    assert out.endswith("CHECKS FAILED\n")


@pytest.fixture
def broken_product(monkeypatch):
    """A product that projects onto its left factor."""
    monkeypatch.setattr(ltbe.laws, "mul", lambda a, b: a)


_PRODUCT_LAWS = {"mul-unit", "mul-commutative", "mul-annihilates"}


@pytest.mark.parametrize(
    "kind, failing",
    [
        (SemiringKind.BOOL, _PRODUCT_LAWS),
        # s*t + s*u is s + s, which is not s in prob
        (SemiringKind.PROB, _PRODUCT_LAWS | {"distributivity-partial"}),
        (SemiringKind.TROPICAL, _PRODUCT_LAWS),
    ],
)
def test_semiring_laws_report_a_broken_product(broken_product, kind, failing):
    report = check_semiring_laws(kind, samples=300, seed=3)
    assert {c.name for c in report.checks if not c.passed} == failing
    assert not report.passed
    text = report.format()
    for c in report.checks:
        assert text.count(f"  FAIL {c.name}: ") == (c.name in failing)


def test_semiring_law_counterexample_format(broken_product):
    report = check_semiring_laws(SemiringKind.TROPICAL, samples=300, seed=3)
    checks = {c.name: c for c in report.checks}
    assert checks["mul-commutative"].counterexample == "s * t = t * s fails at s=15, t=8, u=23"


def test_monad_check_reports_a_sum_defined_beyond_the_mass_bound(monkeypatch):
    """A prob sum clamped to 1 is defined where no two-point value carries it."""
    monkeypatch.setattr(ltbe.laws, "add",
                        lambda a, b: SemiringValue(a.kind, min(a.payload + b.payload, 1.0)))
    checks = {c.name: c for c in check_monad_consistency(SemiringKind.PROB, 1).checks}
    assert checks["induced-add-agrees"].counterexample == "definedness of 0.25 + 1.0 disagrees"


def test_monad_check_reports_a_wrong_collapsed_weight(monkeypatch):
    """A product that keeps its right factor weighs each collapsed point by one."""
    monkeypatch.setattr(ltbe.laws, "mul", lambda a, b: b)
    checks = {c.name: c for c in check_monad_consistency(SemiringKind.TROPICAL, 1).checks}
    assert checks["induced-add-agrees"].counterexample == (
        "collapsed weight of (inf, inf) is 0, expected inf"
    )


def test_check_laws_command_fails_on_a_broken_product(broken_product, capsys):
    code = main(["check-laws", "--kind", "tropical", "--samples", "300", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "  FAIL mul-commutative: " in out
    assert out.endswith("CHECKS FAILED\n")
