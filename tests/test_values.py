"""The contract of walg's twelve immutable value classes.

Each was a frozen dataclass.  They construct by position and by keyword,
compare only with their own class, hash as the tuple of their fields, print
and refuse assignment as before, and round-trip through pickle and copy.
The repr texts (or, for the long ones, their sha256) were frozen from the
dataclasses.  check_value needs no pytest, so the table can also be run
under an interpreter that has none.
"""

import copy
import functools
import hashlib
import pickle
import subprocess
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from walg import (AffineModuleLabel, AffineRoot, AffineWeight, AlgebraData, AlgebraId,
                  CheckEntry, DominantWeight, Level, Root, Verdict, Weight, WModuleLabel,
                  build_algebra)
from walg.scalars import FrozenInstanceError, fact

ALGEBRA_DATA_FIELDS = (
    "id", "coord_names", "gram", "simple_roots", "positive_roots", "theta", "theta_i", "xi",
    "rho", "rho_nat", "h_check", "chi", "slopes", "gamma1", "gamma2", "natural_simple",
    "natural_fundamental")
SPO2_3 = "AlgebraId(family='spo2', m=3, n=0)"


def value_table():
    """(value built by position, its twin built by keyword, the field names
    in order, the repr text or "sha256:" and the digest of the text)."""
    aid = AlgebraId("spo2", 3)
    alg = build_algebra(aid)
    theta, alpha1 = alg.theta, alg.simple_roots[0].weight
    nu = DominantWeight(aid, (2,))
    return [
        (AlgebraId("d21", 2, 1), AlgebraId(family="d21", m=2, n=1), ("family", "m", "n"),
         "AlgebraId(family='d21', m=2, n=1)"),
        (Weight(aid, theta.coords), Weight(algebra=aid, coords=(F(0), F(2))),
         ("algebra", "coords"),
         f"Weight(algebra={SPO2_3}, coords=(Fraction(0, 1), Fraction(2, 1)))"),
        (Root(alpha1, "odd"), Root(weight=Weight(aid, (-1, 1)), parity="odd"),
         ("weight", "parity"),
         f"Root(weight=Weight(algebra={SPO2_3}, coords=(Fraction(-1, 1), Fraction(1, 1))), "
         "parity='odd')"),
        (alg, AlgebraData(**{name: getattr(alg, name) for name in ALGEBRA_DATA_FIELDS}),
         ALGEBRA_DATA_FIELDS,
         "sha256:31389ed817362a13fcfa655d2ebb5eec6f345b60b3bad3f3a9602ce40ba58cf0"),
        (AffineWeight(theta, 0, F(1, 2)),
         AffineWeight(finite=theta, c_lambda0=F(0), c_delta="1/2"),
         ("finite", "c_lambda0", "c_delta"),
         f"AffineWeight(finite=Weight(algebra={SPO2_3}, coords=(Fraction(0, 1), "
         "Fraction(2, 1))), c_lambda0=Fraction(0, 1), c_delta=Fraction(1, 2))"),
        (AffineRoot(AffineWeight(-theta, 0, 1), "even"),
         AffineRoot(weight=AffineWeight(-theta, c_delta=1), parity="even"),
         ("weight", "parity"),
         f"AffineRoot(weight=AffineWeight(finite=Weight(algebra={SPO2_3}, "
         "coords=(Fraction(0, 1), Fraction(-2, 1))), c_lambda0=Fraction(0, 1), "
         "c_delta=Fraction(1, 1)), parity='even')"),
        (Level(alg, F(-3, 4)), Level(alg=alg, k="-3/4"), ("alg", "k"),
         "sha256:e69c2a86fdb747422b1f65c7383797a14b545c7faca6170c2c7613af89dd5535"),
        (nu, DominantWeight(algebra=aid, coeffs=[2]), ("algebra", "coeffs"),
         f"DominantWeight(algebra={SPO2_3}, coeffs=(2,))"),
        (AffineModuleLabel(nu, F(1, 3)), AffineModuleLabel(nu=nu, h="1/3"), ("nu", "h"),
         f"AffineModuleLabel(nu=DominantWeight(algebra={SPO2_3}, coeffs=(2,)), "
         "h=Fraction(1, 3))"),
        (WModuleLabel(nu, F(-1, 4)), WModuleLabel(nu=nu, ell0="-1/4"), ("nu", "ell0"),
         f"WModuleLabel(nu=DominantWeight(algebra={SPO2_3}, coeffs=(2,)), "
         "ell0=Fraction(-1, 4))"),
        (Verdict("not_unitary", "1b"), Verdict(status="not_unitary", reason="1b"),
         ("status", "reason"), "Verdict(status='not_unitary', reason='1b')"),
        (CheckEntry("classify.ell0", "spo2-3", "-3/4", "a = b", "1/2", "1/2", True),
         CheckEntry(check_id="classify.ell0", algebra="spo2-3", k="-3/4", formula="a = b",
                    expected="1/2", computed="1/2", passed=True),
         ("check_id", "algebra", "k", "formula", "expected", "computed", "passed"),
         "CheckEntry(check_id='classify.ell0', algebra='spo2-3', k='-3/4', formula='a = b', "
         "expected='1/2', computed='1/2', passed=True)"),
    ]


def _refused(action) -> bool:
    try:
        action()
    except AttributeError:
        return True
    return False


def check_value(value, twin, fields, expected_repr):
    """Raise AssertionError where value breaks the contract."""
    name = type(value).__name__
    text = repr(value)
    if expected_repr.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(text.encode()).hexdigest() == expected_repr, name
    else:
        assert text == expected_repr, (name, text)
    as_tuple = tuple(getattr(value, field) for field in fields)
    assert twin == value and not twin != value and twin is not value, name
    assert hash(twin) == hash(value) == hash(as_tuple), name
    assert value != as_tuple and as_tuple != value, name
    assert value.__eq__(as_tuple) is NotImplemented, name
    for field in fields:
        assert _refused(lambda: setattr(value, field, None)), (name, field)
        assert _refused(lambda: delattr(value, field)), (name, field)
    assert tuple(getattr(value, field) for field in fields) == as_tuple, name
    assert isinstance(vars(value), dict), name
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value) and back == value, name
        assert hash(back) == hash(value) and repr(back) == text, name


VALUES = value_table()


@pytest.mark.parametrize("value,twin,fields,expected_repr", VALUES,
                         ids=[type(row[0]).__name__ for row in VALUES])
def test_value_contract(value, twin, fields, expected_repr):
    check_value(value, twin, fields, expected_repr)


def test_the_table_holds_every_value_class():
    assert len({type(row[0]) for row in VALUES}) == 12


def test_values_of_two_classes_never_compare_equal():
    # the same field values in another class are another value
    nu = VALUES[7][0]
    w, a = WModuleLabel(nu, F(1, 3)), AffineModuleLabel(nu, F(1, 3))
    assert w != a and a != w and w.__eq__(a) is NotImplemented


def test_assignment_errors_name_the_field():
    verdict = Verdict("open")
    with pytest.raises(AttributeError, match="cannot assign to field 'status'"):
        verdict.status = "unitary"
    with pytest.raises(AttributeError, match="cannot delete field 'reason'"):
        del verdict.reason


def test_import_walg_loads_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, walg; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# every fact of the value classes, by the class that holds it
FACTS = {
    AlgebraId: ("rank_natural",),
    Level: ("_A_consts", "_ell0_consts", "cone"),
    DominantWeight: ("_weight", "_comark_values", "_A_ints", "_scaled", "_norm", "_theta",
                     "_theta_i"),
}


def fresh(cls):
    """A new instance of a class of FACTS, with no fact read yet."""
    aid = AlgebraId("spo2", 5)
    if cls is AlgebraId:
        return aid
    if cls is Level:
        return Level(build_algebra(aid), F(-3, 2))
    return DominantWeight(aid, (1, 1))


FACT_CASES = [(cls, name) for cls, names in FACTS.items() for name in names]
FACT_IDS = [f"{cls.__name__}.{name}" for cls, name in FACT_CASES]


def test_the_facts_are_the_only_cached_attributes():
    classes = {type(row[0]) for row in VALUES}
    found = {(cls, name) for cls in classes for name, attr in vars(cls).items()
             if isinstance(attr, (fact, functools.cached_property))}
    assert found == set(FACT_CASES)
    assert all(isinstance(vars(cls)[name], fact) for cls, name in FACT_CASES)


@pytest.mark.parametrize("cls,name", FACT_CASES, ids=FACT_IDS)
def test_a_fact_is_computed_once_and_kept_on_the_instance(monkeypatch, cls, name):
    descriptor = vars(cls)[name]
    assert getattr(cls, name) is descriptor  # read on the class
    assert descriptor.__doc__ == descriptor.func.__doc__
    calls = []

    def counted(obj, _true=descriptor.func):
        calls.append(obj)
        return _true(obj)

    monkeypatch.setattr(descriptor, "func", counted)
    value = fresh(cls)
    assert name not in vars(value)
    first = getattr(value, name)
    assert calls == [value] and vars(value)[name] is first
    assert getattr(value, name) is first and calls == [value]
    assert first == getattr(fresh(cls), name)


@pytest.mark.parametrize("cls,name", FACT_CASES, ids=FACT_IDS)
def test_a_cached_fact_stays_frozen(cls, name):
    value = fresh(cls)
    known = getattr(value, name)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
        setattr(value, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
        delattr(value, name)
    assert vars(value)[name] is known


@pytest.mark.parametrize("cls", FACTS, ids=[cls.__name__ for cls in FACTS])
def test_values_with_cached_facts_round_trip(cls):
    value = fresh(cls)
    known = {name: getattr(value, name) for name in FACTS[cls]}
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(back) is cls and back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)
        assert {name: getattr(back, name) for name in FACTS[cls]} == known


@pytest.mark.parametrize("cls,name", FACT_CASES, ids=FACT_IDS)
def test_threads_that_read_one_fact_get_equal_values(cls, name):
    """No lock guards a first read: threads that race on it may each
    compute the fact, and all of them read the one value kept."""
    expected = getattr(fresh(cls), name)
    workers, rounds = 8, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            value, seen = fresh(cls), []
            start = threading.Barrier(workers)

            def read():
                start.wait(timeout=10)
                seen.append(getattr(value, name))

            threads = [threading.Thread(target=read) for _ in range(workers)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(deadline - time.monotonic(), 0))
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [expected] * workers
            assert all(read is vars(value)[name] for read in seen)
    finally:
        sys.setswitchinterval(interval)
