"""Named pass/fail records for verified identities.

Construction functions verify the displays they are built from and return
the records; a failed identity never raises, it is a record with
passed=False and a witness.
"""
from __future__ import annotations

from dataclasses import dataclass

from .opalg import OpMatrix
from .series import TruncSeries


@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def op_check(name: str, lhs: OpMatrix, rhs: OpMatrix, through=None) -> Check:
    return difference_check(name, lhs.first_difference(rhs, through))


def difference_check(name: str, *diffs) -> Check:
    """Passes when every `OpMatrix.first_difference` in `diffs` is None (its
    operators equal), else shows the difference in the earliest column."""
    found = [d for d in diffs if d is not None]
    if not found:
        return Check(name, True)
    m, n, a, b = min(found, key=lambda d: d[1])
    if m is None:
        return Check(name, False, f"reliable block ends at column {a}, short of column {b}")
    return Check(name, False, f"entry ({m},{n}): {a} != {b}")


def conjugation_check(name: str, m: OpMatrix, a: OpMatrix, b: OpMatrix, through=None) -> Check:
    """m^(-1) a m == b, or equally a == m b m^(-1), compared cross-multiplied
    as a m == m b with no inverse, for m upper triangular (degree-non-raising)
    with a nonzero diagonal: a m - m b = m (m^(-1) a m - b) = (a - m b m^(-1)) m.
    Column j of m E is m E_j, zero exactly when E_j is, and column j of E m is
    sum_{k<=j} E_k m_kj with m_jj != 0, so all three forms first fail in the
    same column.  Both products compute only the compared columns
    (`OpMatrix.cut`), and neither is reduced (`OpMatrix._compared`)."""
    return op_check(name, a._compared(m.cut(through)), m._compared(b.cut(through)), through)


def series_check(name: str, lhs: TruncSeries, rhs: TruncSeries, through=None) -> Check:
    i = lhs.first_difference(rhs, through)
    if i is None:
        return Check(name, True)
    if i > min(lhs.order, rhs.order):
        return Check(name, False, f"series ends at coefficient {i - 1}, short of coefficient {through}")
    return Check(name, False, f"coefficient {i}: {lhs.coefficient(i)} != {rhs.coefficient(i)}")


def value_check(name: str, lhs, rhs) -> Check:
    if lhs == rhs:
        return Check(name, True)
    return Check(name, False, f"{lhs} != {rhs}")


def flag_check(name: str, ok: bool, witness: str = "") -> Check:
    return Check(name, bool(ok), "" if ok else witness)


def first_failure(name: str, cases) -> Check:
    """The first failed check among `cases`, a lazy iterable so that nothing
    after a failure is evaluated, or one passing Check under `name`."""
    for case in cases:
        if not case.passed:
            return case
    return Check(name, True)
