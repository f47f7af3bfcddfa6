from fractions import Fraction

import pytest

from walg.catalog import AlgebraId, build_algebra
from walg.report import Report, render_value


class _Int(int):
    pass


class _Tuple(tuple):
    pass


def test_render_value_writes_each_check_type():
    coords = build_algebra(AlgebraId.parse("spo2-3")).theta.coords
    assert [render_value(v) for v in (
        True, False, 3, -4, Fraction(-1, 2), Fraction(6, 3), "free",
        (1, Fraction(1, 2)), [[0], "free"], (), coords, (coords, True))] == [
        "true", "false", "3", "-4", "-1/2", "2", "free",
        "[1, 1/2]", "[[0], free]", "[]", "[0, 2]", "[[0, 2], true]"]


@pytest.mark.parametrize("value, kind", [
    (None, "NoneType"), (1.5, "float"), (float("nan"), "float"), (1j, "complex"),
    ({1, 2}, "set"), (frozenset(), "frozenset"), (object(), "object"), ({"a": 1}, "dict"),
    (_Int(1), "_Int"), (_Tuple(), "_Tuple"), ((1, [None]), "NoneType"),
    (build_algebra(AlgebraId.parse("spo2-3")).theta, "Weight")],
    ids=["none", "float", "nan", "complex", "set", "frozenset", "object", "dict",
         "int-subclass", "tuple-subclass", "nested-none", "weight"])
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


def test_a_report_names_its_algebra_and_level_once():
    report = Report("f4", Fraction(-8, 3))
    report.add("x", formula="1 = 1", expected=1, computed=1)
    report.add("y", expected=1, computed=2)
    assert [(e.algebra, e.k) for e in report.entries] == [("f4", "-8/3")] * 2
    assert report.entries[1].line() == "[FAIL] y (f4 k=-8/3)   expected 1, got 2"
    gathered = Report()
    gathered.add("z", expected=True, computed=True)
    assert (gathered.entries[0].algebra, gathered.entries[0].k) == ("", "")
    assert gathered.extend(report).entries[1:] == report.entries


@pytest.mark.parametrize("where", [{"algebra": "f4"}, {"k": Fraction(-2)}])
def test_an_entry_takes_no_algebra_or_level_of_its_own(where):
    report = Report("spo2-3", Fraction(-1))
    with pytest.raises(TypeError):
        report.add("x", expected=1, computed=1, **where)
    assert report.entries == []
