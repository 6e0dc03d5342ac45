"""The three immutable value types, QMonomial, IdentityCheck and
VerificationReport: constructor arguments and defaults, every validation
error, refusal of attribute assignment, QMonomial's string form, and a
report's dict form and sort key; MismatchInfo's fields and tuple behaviour,
and the Rational alias.  QMonomial and MismatchInfo define no equality,
hash, pickling or repr of their own, since the CLI uses none."""

from fractions import Fraction

import pytest

from overq.reports import IdentityCheck, VerificationReport
from overq.series import MismatchInfo, QMonomial, Rational


class _Int(int):
    pass


# -- QMonomial ------------------------------------------------------------------------


def test_qmonomial_arguments():
    m = QMonomial(3, -2)
    assert (m.coeff, m.exp) == (3, -2)
    k = QMonomial(exp=1, coeff=Fraction(1, 2))
    assert (k.coeff, k.exp) == (Fraction(1, 2), 1)
    assert type(QMonomial(Fraction(4, 2), 0).coeff) is Fraction
    assert type(QMonomial(_Int(5), 0).coeff) is int
    with pytest.raises(TypeError):
        QMonomial(1)


def test_qmonomial_validation():
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="coefficient must be nonzero"):
            QMonomial(zero, 1)
    for bad in (1.0, True, "1", None):
        with pytest.raises(TypeError, match="exact rational required"):
            QMonomial(bad, 1)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError, match="exponent must be an int"):
            QMonomial(1, bad)
    # the coefficient is checked before the exponent
    with pytest.raises(ValueError):
        QMonomial(0, 1.5)


def test_qmonomial_str():
    assert str(QMonomial(-1, 2)) == "-q^2"
    assert str(QMonomial(1, 1)) == "q"
    assert str(QMonomial(2, 3)) == "2*q^3"
    assert str(QMonomial(Fraction(-1, 2), 0)) == "-1/2"
    assert str(QMonomial(1, -1)) == "q^-1"


# -- reports --------------------------------------------------------------------------


def test_identity_check_arguments_and_defaults():
    c = IdentityCheck("th1")
    assert (c.name, c.params, c.order) == ("th1", {}, 0)
    assert IdentityCheck("a").params is not IdentityCheck("b").params
    k = IdentityCheck(name="bk", params={"t": 2}, order=7)
    assert (k.name, k.params, k.order) == ("bk", {"t": 2}, 7)
    p = IdentityCheck("abr", {"t": 3}, 11)
    assert (p.name, p.params, p.order) == ("abr", {"t": 3}, 11)
    with pytest.raises(TypeError):
        IdentityCheck()


# -- MismatchInfo and Rational -----------------------------------------------------


def test_mismatch_info_is_a_named_triple():
    mm = MismatchInfo(4, Fraction(1, 2), 3)
    assert (mm.exponent, mm.lhs, mm.rhs) == (4, Fraction(1, 2), 3)
    assert MismatchInfo(rhs=3, lhs=Fraction(1, 2), exponent=4) == mm
    assert mm == (4, Fraction(1, 2), 3) and isinstance(mm, tuple)
    assert hash(mm) == hash((4, Fraction(1, 2), 3))
    exponent, lhs, rhs = mm
    assert (exponent, lhs, rhs) == (4, Fraction(1, 2), 3)
    assert len(mm) == 3 and mm[0] == 4 and mm[-1] == 3
    for name in ("exponent", "lhs", "rhs", "extra"):
        with pytest.raises(AttributeError):
            setattr(mm, name, 0)
    with pytest.raises(TypeError):
        MismatchInfo(1, 2)
    with pytest.raises(TypeError):
        MismatchInfo(1, 2, 3, 4)


def test_rational_alias_names_the_coefficient_types():
    assert isinstance(3, Rational) and isinstance(Fraction(1, 3), Rational)
    assert not isinstance(1.5, Rational)


def test_verification_report_arguments_and_defaults():
    check = IdentityCheck("th2", {"t": 1}, 5)
    r = VerificationReport(check, "pass")
    assert r.check is check
    assert (r.status, r.first_mismatch, r.message) == ("pass", None, "")
    assert r.passed
    mm = MismatchInfo(2, 1, 0)
    f = VerificationReport(
        check=check, status="fail", first_mismatch=mm, message="differs")
    assert (f.status, f.first_mismatch, f.message) == ("fail", mm, "differs")
    assert not f.passed
    e = VerificationReport(check, "error", None, "broken")
    assert not e.passed
    with pytest.raises(TypeError):
        VerificationReport(check)


def test_verification_report_validation():
    check = IdentityCheck("th2", {"t": 1}, 5)
    mm = MismatchInfo(2, 1, 0)
    with pytest.raises(ValueError, match="unknown status 'ok'"):
        VerificationReport(check, "ok")
    with pytest.raises(ValueError, match="unknown status"):
        VerificationReport(check, "ok", mm)
    with pytest.raises(ValueError, match="present iff status is fail"):
        VerificationReport(check, "fail")
    for status in ("pass", "error"):
        with pytest.raises(ValueError, match="present iff status is fail"):
            VerificationReport(check, status, mm)


def test_report_to_dict_and_sort_key():
    check = IdentityCheck("cases", {"t": 3, "a": "-q"}, 9)
    mm = MismatchInfo(4, Fraction(1, 2), 3)
    r = VerificationReport(check, "fail", mm, "sums differ")
    d = r.to_dict()
    assert d == {
        "name": "cases",
        "params": {"t": 3, "a": "-q"},
        "status": "fail",
        "first_mismatch": {"exponent": 4, "lhs": "1/2", "rhs": "3"},
        "message": "sums differ",
    }
    assert list(d) == ["name", "params", "status", "first_mismatch", "message"]
    assert d["params"] is not check.params
    assert r.sort_key() == ("cases", '{"a": "-q", "t": 3}')
    ok = VerificationReport(IdentityCheck("th1", {}, 2), "pass", None, "fine")
    assert ok.to_dict() == {
        "name": "th1", "params": {}, "status": "pass",
        "first_mismatch": None, "message": "fine",
    }
    assert ok.sort_key() == ("th1", "{}")


# -- immutability ---------------------------------------------------------------------


_CHECK = IdentityCheck("th1", {"t": 1}, 4)
INSTANCES = [
    (QMonomial(2, 3), ("coeff", "exp")),
    (_CHECK, ("name", "params", "order")),
    (VerificationReport(_CHECK, "pass", None, "ok"),
     ("check", "status", "first_mismatch", "message")),
]


@pytest.mark.parametrize(
    "obj, names", INSTANCES, ids=[type(obj).__name__ for obj, _ in INSTANCES])
def test_assignment_raises_attribute_error(obj, names):
    for name in (*names, "extra"):
        before = getattr(obj, name, None)
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        assert getattr(obj, name, None) is before
