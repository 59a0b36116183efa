"""Check.witness_outside against the open-coded membership pattern it
replaced:

    inside, _ = membership(value, sub)
    if not inside:
        check.witness(value, **inputs)
"""

from algebroids.bundles import Frame, Subbundle, TrivialBundle, membership
from algebroids.reporting import MAX_WITNESSES, Check, Witness
from algebroids.scalars import Patch

PATCH = Patch(["x", "y"])
X, Y = PATCH.coordinate(0), PATCH.coordinate(1)
E = TrivialBundle(PATCH, 3, "E")
SUB = Subbundle(E, Frame(E, [E.section([1, X, 0]), E.section([0, 0, Y])]))
MEMBER = E.section([X, X * X, X * Y])          # x * s0 + x * s1
OUTSIDE = E.section([0, 1, 0])


def open_coded(values, **inputs):
    check = Check("c")
    for value in values:
        inside, _ = membership(value, SUB)
        if not inside:
            check.witness(value, **inputs)
    return check


def test_member_records_nothing_and_returns_its_coefficients():
    check = Check("c")
    coeffs = check.witness_outside(MEMBER, SUB, u="u0")
    assert check.witnesses == []
    assert check.result().status == "pass"
    assert list(coeffs) == [X, X]
    assert list(coeffs) == list(membership(MEMBER, SUB)[1])


def test_non_member_records_the_open_coded_witness():
    check = Check("c")
    assert check.witness_outside(OUTSIDE, SUB, u="u0", f=X * Y) is None
    want = Witness({"u": "u0", "f": "x*y"}, str(OUTSIDE))
    assert check.witnesses == [want]
    assert check.witnesses == open_coded([OUTSIDE], u="u0", f=X * Y).witnesses


def test_mixed_values_match_the_open_coded_pattern():
    # members between non-members, past the witness cap
    values = [MEMBER, OUTSIDE, X * OUTSIDE, MEMBER, OUTSIDE + MEMBER] * 3
    check = Check("c")
    for value in values:
        check.witness_outside(value, SUB, u="u0")
    want = open_coded(values, u="u0")
    assert len(check.witnesses) == MAX_WITNESSES
    assert check.witnesses == want.witnesses
    got, expected = check.result(), want.result()
    assert (got.status, got.note) == (expected.status, expected.note)
