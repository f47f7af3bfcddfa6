from fractions import Fraction

import pytest

from walg.catalog import AlgebraId, build_algebra
from walg.report import Report, render_value


class _Int(int):
    pass


class _Tuple(tuple):
    pass


def test_render_value_writes_each_check_type():
    theta = build_algebra(AlgebraId.parse("spo2-3")).theta
    assert [render_value(v) for v in (
        True, False, 3, -4, Fraction(-1, 2), Fraction(6, 3), "free",
        (1, Fraction(1, 2)), [[0], "free"], (), theta, (theta, True))] == [
        "true", "false", "3", "-4", "-1/2", "2", "free",
        "[1, 1/2]", "[[0], free]", "[]", "[0, 2]", "[[0, 2], true]"]


@pytest.mark.parametrize("value, kind", [
    (None, "NoneType"), (1.5, "float"), (float("nan"), "float"), (1j, "complex"),
    ({1, 2}, "set"), (frozenset(), "frozenset"), (object(), "object"), ({"a": 1}, "dict"),
    (_Int(1), "_Int"), (_Tuple(), "_Tuple"), ((1, [None]), "NoneType")],
    ids=["none", "float", "nan", "complex", "set", "frozenset", "object", "dict",
         "int-subclass", "tuple-subclass", "nested-none"])
def test_render_value_refuses_every_other_type(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        render_value(value)


def test_a_check_states_both_values():
    report = Report()
    with pytest.raises(TypeError):
        report.add("x")
    with pytest.raises(TypeError):
        report.add("x", expected=1)
    # None == None would otherwise pass with two empty values
    with pytest.raises(TypeError, match="NoneType"):
        report.add("x", expected=None, computed=None)
    assert report.entries == []
    assert report.add("x", expected=Fraction(1, 2), computed=Fraction(2, 4))
    assert (report.entries[0].expected, report.entries[0].computed) == ("1/2", "1/2")
