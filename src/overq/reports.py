"""Verification report types, and the helper that turns ordered series
comparisons into one report, shared by the identity and q-function layers."""

from __future__ import annotations

from .series import MismatchInfo, QSeries, equal_to_order

Param = int | str

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"


class IdentityCheck:
    """What was checked: a named identity, its parameters, and the order
    (largest exponent) up to which both sides were compared."""

    __slots__ = ("name", "params", "order")

    name: str
    params: dict[str, Param]
    order: int

    def __init__(self, name: str, params: dict[str, Param] | None = None,
                 order: int = 0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", {} if params is None else params)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("IdentityCheck is immutable")


class VerificationReport:
    """Outcome of one identity check.

    first_mismatch is present exactly when status is "fail"; on "error" the
    message carries the reason and no comparison result is claimed.
    """

    __slots__ = ("check", "status", "first_mismatch", "message")

    check: IdentityCheck
    status: str
    first_mismatch: MismatchInfo | None
    message: str

    def __init__(self, check: IdentityCheck, status: str,
                 first_mismatch: MismatchInfo | None = None, message: str = ""):
        if status not in (STATUS_PASS, STATUS_FAIL, STATUS_ERROR):
            raise ValueError(f"unknown status {status!r}")
        if (status == STATUS_FAIL) != (first_mismatch is not None):
            raise ValueError("first_mismatch must be present iff status is fail")
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "first_mismatch", first_mismatch)
        object.__setattr__(self, "message", message)

    def __setattr__(self, name, value):
        raise AttributeError("VerificationReport is immutable")

    @property
    def passed(self) -> bool:
        return self.status == STATUS_PASS

    def to_dict(self) -> dict:
        mm = self.first_mismatch
        return {
            "name": self.check.name,
            "params": dict(self.check.params),
            "status": self.status,
            "first_mismatch": None
            if mm is None
            else {"exponent": mm.exponent, "lhs": str(mm.lhs), "rhs": str(mm.rhs)},
            "message": self.message,
        }

    def sort_key(self):
        import json

        return (self.check.name, json.dumps(self.check.params, sort_keys=True))


def comparison_report(
    check: IdentityCheck, pass_message: str,
    *comparisons: tuple[QSeries, QSeries, str],
) -> VerificationReport:
    """Compare each (lhs, rhs, fail message) to check.order, in order; the
    first pair that differs gives the fail report, else the pass report."""
    for lhs, rhs, fail_message in comparisons:
        equal, mismatch = equal_to_order(lhs, rhs, check.order)
        if not equal:
            return VerificationReport(check, STATUS_FAIL, mismatch, fail_message)
    return VerificationReport(check, STATUS_PASS, None, pass_message)
