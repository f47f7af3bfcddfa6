import contextlib
import hashlib
import sys
import time
from fractions import Fraction as F
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from walg import affine, catalog, classify, cli, ledger
from walg.affine import AffineWeight, affine_pair
from walg.catalog import AlgebraId, AlgebraMismatchError, coroot_pair, pair
from walg.classify import (AffineModuleLabel, CriticalLevelError,
                           DominantWeight, RangeError, WModuleLabel,
                           A_value, affine_module_descends,
                           classify_affine_modules, classify_w_modules,
                           count_Pk, cross_identity_report, ell0,
                           enumerate_Pk, extremal_h_set, first_failure,
                           hamiltonian_reduce, in_truncated_cone,
                           in_unitarity_range, is_extremal,
                           level, level_M, standard_levels, table_M,
                           theta_values, unitarity_verdict, w_module_exists)
from walg.cli import SELFCHECK_ALGEBRAS
from walg.report import render_value
from walg.scalars import rational, rational_str

FAMILY_REPS = ["psl2-2", "spo2-3", "spo2-5", "d21-2-1", "d21-3-2", "f4", "g3"]


def nu_of(lvl, *coeffs):
    return DominantWeight(lvl.alg.id, tuple(coeffs))


@pytest.mark.parametrize("bad", [1.7, True, "1"])
def test_dominant_weight_rejects_non_int_coefficients(bad):
    with pytest.raises(TypeError):
        DominantWeight(AlgebraId.parse("spo2-3"), (bad,))


F4_NU = DominantWeight(AlgebraId.parse("f4"), (0, 0, 0))


@pytest.mark.parametrize("make", [
    lambda: rational(True),
    lambda: level("f4", True),
    lambda: WModuleLabel(F4_NU, True),
    lambda: AffineModuleLabel(F4_NU, False),
    lambda: ell0(level("f4", -2), F4_NU, True),
    lambda: catalog.Weight(F4_NU.algebra, (True, 0, 0, 0)),
], ids=["rational", "level", "w-label", "affine-label", "ell0", "weight"])
def test_bools_are_not_rationals(make):
    # bool is a subclass of int, so True would otherwise pass as 1
    with pytest.raises(TypeError):
        make()


def test_critical_level_rejected():
    with pytest.raises(CriticalLevelError):
        level("spo2-3", F(-1, 2))
    with pytest.raises(CriticalLevelError):
        level("psl2-2", 0)


@pytest.mark.parametrize("name,k,expected", [
    ("psl2-2", F(-2), True),
    ("psl2-2", F(-3, 2), False),
    ("psl2-2", F(-1), False),
    ("f4", F(-2, 3), False),
    ("f4", F(-4, 3), True),
    ("spo2-3", F(-3, 4), True),
    ("spo2-3", F(-5, 8), False),
    ("spo2-5", F(-1), True),
    ("g3", F(-3, 2), True),
    ("g3", F(-3, 4), False),
    ("d21-2-1", F(-2, 3), True),
    ("d21-2-1", F(-1), False),
])
def test_unitarity_range_membership(name, k, expected):
    assert in_unitarity_range(level(name, k)) is expected


@pytest.mark.parametrize("name,k,expected", [
    ("spo2-3", F(-3, 4), (F(1),)),
    ("psl2-2", F(-2), (F(1),)),
    ("d21-2-1", F(-2, 3), (F(1), F(0))),
])
def test_level_M_examples(name, k, expected):
    assert level_M(level(name, k)) == expected


@pytest.mark.parametrize("name", FAMILY_REPS)
def test_level_M_matches_closed_forms(name):
    aid = AlgebraId.parse(name)
    for k in standard_levels(aid, 20):
        lvl = level(name, k)
        M = level_M(lvl)
        assert M == table_M(lvl)
        assert all(m.denominator == 1 and m >= 0 for m in M)


def brute_force_cone(lvl):
    """Independent oracle: scan a generous box and keep the dominant weights
    whose coroot pairings against every theta_i stay within the levels."""
    alg = lvl.alg
    M = level_M(lvl)
    cap = max(int(m) for m in M)
    keep = []
    for coeffs in product(range(cap + 1), repeat=alg.rank_natural):
        w = None
        for c, omega in zip(coeffs, alg.natural_fundamental):
            w = c * omega if w is None else w + c * omega
        ok = all(coroot_pair(w, t) <= m for t, m in zip(alg.theta_i, M))
        if ok:
            keep.append(coeffs)
    return keep


@pytest.mark.parametrize("name,k,expected", [
    ("spo2-3", F(-1), [(0,), (1,), (2,)]),
    ("psl2-2", F(-2), [(0,), (1,)]),
    ("d21-2-1", F(-2, 3), [(0, 0), (1, 0)]),
])
def test_enumerate_cone_frozen(name, k, expected):
    lvl = level(name, k)
    assert [nu.coeffs for nu in enumerate_Pk(lvl)] == expected


@pytest.mark.parametrize("name,k", [
    ("spo2-3", F(-1)), ("psl2-2", F(-3)), ("spo2-5", F(-2)),
    ("d21-3-2", F(-12, 5)), ("f4", F(-2)), ("g3", F(-9, 4)),
])
def test_enumerate_cone_against_brute_force(name, k):
    lvl = level(name, k)
    assert [nu.coeffs for nu in enumerate_Pk(lvl)] == brute_force_cone(lvl)


def test_enumerate_requires_range():
    with pytest.raises(RangeError):
        enumerate_Pk(level("psl2-2", F(-3, 2)))
    with pytest.raises(RangeError):
        count_Pk(level("psl2-2", F(-3, 2)))


ENUMERATIONS = pytest.mark.parametrize("enumerate_", [
    enumerate_Pk, classify_w_modules, classify_affine_modules, cross_identity_report,
    ledger.run_level_ledger,
], ids=lambda f: f.__name__)


@ENUMERATIONS
def test_every_enumeration_refuses_an_oversized_cone_at_once(monkeypatch, enumerate_):
    def walked(*args):  # a guard that let the cone through fails here, not in 21 M weights
        raise AssertionError("the oversized cone was walked")

    monkeypatch.setattr(classify, "_walked_weight", walked)
    lvl = level("spo2-16", -21)
    start = time.perf_counter()
    with pytest.raises(RangeError, match="^the truncated cone of spo2-16 at k = -21 has "
                                         "21312720 weights, more than the 100000 "):
        enumerate_(lvl)
    assert time.perf_counter() - start < 1.0


@ENUMERATIONS
def test_every_enumeration_builds_its_weights_in_walked_weight(monkeypatch, enumerate_):
    """The positive control of the test above: each enumeration builds each
    weight of a level's cone through classify._walked_weight, once, so a
    walk that stopped calling it would not pass that test unseen."""
    built = []

    def walked(aid, coeffs, *facts, _true=classify._walked_weight):
        built.append(coeffs)
        return _true(aid, coeffs, *facts)

    monkeypatch.setattr(classify, "_walked_weight", walked)
    enumerate_(level("spo2-3", -1))
    assert built == [(0,), (1,), (2,)]


def test_the_cone_bound_is_strict(monkeypatch):
    monkeypatch.setattr(classify, "MAX_CONE", 3)
    assert [nu.coeffs for nu in enumerate_Pk(level("spo2-3", -1))] == [(0,), (1,), (2,)]
    monkeypatch.setattr(classify, "MAX_CONE", 2)
    with pytest.raises(RangeError, match=" has 3 weights, more than the 2 that walg enumerates$"):
        enumerate_Pk(level("spo2-3", -1))


def test_extremality_examples():
    lvl = level("spo2-3", F(-1))
    assert is_extremal(lvl, nu_of(lvl, 0)) is False
    assert is_extremal(lvl, nu_of(lvl, 1)) is True
    lvl2 = level("spo2-3", F(-3, 4))
    assert is_extremal(lvl2, nu_of(lvl2, 0)) is True
    with pytest.raises(RangeError):
        is_extremal(lvl, nu_of(lvl, 5))


def test_extremality_dual_characterization():
    for name in FAMILY_REPS:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 4):
            lvl = level(name, k)
            alg = lvl.alg
            M = level_M(lvl)
            for nu in enumerate_Pk(lvl):
                shifted = nu.weight() + alg.xi
                in_cone = all(
                    coroot_pair(shifted, s).denominator == 1
                    and coroot_pair(shifted, s) >= 0
                    for s in alg.natural_simple
                ) and all(coroot_pair(shifted, t) <= m
                          for t, m in zip(alg.theta_i, M))
                assert is_extremal(lvl, nu) == (not in_cone)


def test_A_value_examples():
    lvl = level("spo2-3", F(-1))
    assert A_value(lvl, nu_of(lvl, 0)) == 0
    assert A_value(lvl, nu_of(lvl, 2)) == F(1, 2)
    lvl2 = level("psl2-2", F(-2))
    assert A_value(lvl2, nu_of(lvl2, 1)) == F(1, 2)


def test_ell0_examples():
    lvl = level("spo2-3", F(-1))
    assert ell0(lvl, nu_of(lvl, 0), 0) == 0
    assert ell0(lvl, nu_of(lvl, 1), F(-1, 4)) == F(1, 4)
    # symmetry under h -> k + 1 - h
    for h in (F(0), F(2, 7), F(-5, 3)):
        assert ell0(lvl, nu_of(lvl, 1), h) == ell0(lvl, nu_of(lvl, 1), lvl.k + 1 - h)


def test_extremal_h_set_examples():
    lvl = level("spo2-3", F(-1))
    assert extremal_h_set(lvl, nu_of(lvl, 0)) == (F(0),)  # (xi|0) = 0 = k + 1
    assert extremal_h_set(lvl, nu_of(lvl, 2)) == (F(-1, 2), F(1, 2))
    lvl2 = level("psl2-2", F(-2))
    assert extremal_h_set(lvl2, nu_of(lvl2, 1)) == (F(-1, 2),)  # genuine singleton


def test_threshold_meets_ell0_exactly_on_h_set():
    for name in ("spo2-3", "psl2-2", "g3"):
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 3):
            lvl = level(name, k)
            for nu in enumerate_Pk(lvl):
                threshold = A_value(lvl, nu)
                e_set = extremal_h_set(lvl, nu)
                for h in e_set:
                    assert ell0(lvl, nu, h) == threshold
                for h in (F(7), lvl.k - 1, F(1, 3)):
                    assert (ell0(lvl, nu, h) == threshold) == (h in e_set)


def test_affine_descent_examples():
    lvl = level("psl2-2", F(-2))
    assert affine_module_descends(lvl, AffineModuleLabel(nu_of(lvl, 0), F(5)))
    assert not affine_module_descends(lvl, AffineModuleLabel(nu_of(lvl, 1), F(0)))
    assert affine_module_descends(lvl, AffineModuleLabel(nu_of(lvl, 1), F(-1, 2)))
    # nu outside the truncated cone never descends
    assert not affine_module_descends(lvl, AffineModuleLabel(nu_of(lvl, 3), F(0)))


def test_w_module_existence_examples():
    lvl = level("spo2-3", F(-1))
    assert w_module_exists(lvl, WModuleLabel(nu_of(lvl, 1), F(1, 4)))
    assert not w_module_exists(lvl, WModuleLabel(nu_of(lvl, 1), F(0)))
    assert w_module_exists(lvl, WModuleLabel(nu_of(lvl, 0), F(7)))
    # the free family marker only lives on non-extremal weights
    assert w_module_exists(lvl, WModuleLabel(nu_of(lvl, 0), None))
    assert not w_module_exists(lvl, WModuleLabel(nu_of(lvl, 1), None))


def test_hamiltonian_reduce_examples():
    lvl = level("spo2-3", F(-1))
    assert hamiltonian_reduce(lvl, AffineModuleLabel(nu_of(lvl, 0), F(-1, 2))) is None
    out = hamiltonian_reduce(lvl, AffineModuleLabel(nu_of(lvl, 0), F(0)))
    assert out == WModuleLabel(nu_of(lvl, 0), F(0))
    out = hamiltonian_reduce(lvl, AffineModuleLabel(nu_of(lvl, 1), F(-1, 4)))
    assert out == WModuleLabel(nu_of(lvl, 1), F(1, 4))


def test_reduce_of_admissible_labels_lands_on_admissible_w_labels():
    for name in FAMILY_REPS:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 3):
            lvl = level(name, k)
            for nu in enumerate_Pk(lvl):
                if is_extremal(lvl, nu):
                    hs = sorted(extremal_h_set(lvl, nu))
                else:
                    hs = [F(0), F(1, 2), lvl.k + 1]
                for h in hs:
                    label = AffineModuleLabel(nu, h)
                    if not affine_module_descends(lvl, label):
                        continue
                    reduced = hamiltonian_reduce(lvl, label)
                    assert reduced is None or w_module_exists(lvl, reduced)


def test_verdict_examples():
    lvl = level("spo2-3", F(-1))
    assert str(unitarity_verdict(lvl, WModuleLabel(nu_of(lvl, 0), F(1)))) == "unitary"
    assert str(unitarity_verdict(lvl, WModuleLabel(nu_of(lvl, 2), F(0)))) == "not_unitary:1c"
    g3 = level("g3", F(-3, 2))
    w1 = DominantWeight(g3.alg.id, (1, 0))
    assert is_extremal(g3, w1)
    assert str(unitarity_verdict(g3, WModuleLabel(w1, A_value(g3, w1)))) == "open"


def test_verdict_condition_tags():
    lvl = level("spo2-5", F(-2))
    too_big = DominantWeight(lvl.alg.id, (5, 0))
    assert str(unitarity_verdict(lvl, WModuleLabel(too_big, F(10)))) == "not_unitary:1b"
    small = DominantWeight(lvl.alg.id, (0, 0))
    assert str(unitarity_verdict(lvl, WModuleLabel(small, F(-1)))) == "not_unitary:1c"
    with pytest.raises(ValueError):
        unitarity_verdict(lvl, WModuleLabel(small, None))
    with pytest.raises(ValueError, match="^unknown violated-condition tag '1d'$"):
        classify.not_unitary("1d")


def test_verdict_requires_range():
    lvl = level("psl2-2", F(-5, 2))
    with pytest.raises(RangeError):
        unitarity_verdict(lvl, WModuleLabel(nu_of(lvl, 0), F(0)))


def test_vacuum_is_unitary_on_the_whole_sampled_range():
    for name in FAMILY_REPS + ["d21-3-1", "d21-5-2", "d21-5-3", "spo2-6"]:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 5):
            lvl = level(name, k)
            vac = WModuleLabel(DominantWeight(aid, (0,) * lvl.alg.rank_natural), F(0))
            assert w_module_exists(lvl, vac)
            assert str(unitarity_verdict(lvl, vac)) == "unitary", (name, k)


def test_classification_records_spo23():
    lvl = level("spo2-3", F(-1))
    records = classify_w_modules(lvl)
    assert [(r.nu.coeffs, r.ell0, r.extremal) for r in records] == [
        ((0,), None, False),
        ((1,), F(1, 4), True),
        ((2,), F(1, 2), True),
    ]
    assert all(str(r.verdict) == "unitary" for r in records)


def test_free_family_exists_when_margins_allow():
    # the one-parameter families witness non-rationality; they exist at every
    # sampled level whose margins M_i + chi_i are all nonnegative
    for name in FAMILY_REPS:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 5):
            lvl = level(name, k)
            M = level_M(lvl)
            if any(m + c < 0 for m, c in zip(M, lvl.alg.chi)):
                continue  # boundary level: every weight is extremal
            assert any(not is_extremal(lvl, nu) for nu in enumerate_Pk(lvl))


def test_cross_identity_report_green():
    for name in FAMILY_REPS:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 3):
            rep = cross_identity_report(level(name, k))
            assert rep.all_pass, [e.line() for e in rep.failures()]


# --- oracles of the integer basis path ------------------------------------

# the deep levels of the modules benchmark
DEEP_LEVELS = [("f4", F(-82, 3)), ("spo2-16", F(-7, 2)),
               ("spo2-8", F(-13, 2)), ("d21-5-3", F(-75, 8))]


def box_filter_cone(lvl):
    """Cone oracle: every point of the bounding box of the coefficients,
    kept when each nu(theta_i-coroot) <= M_i.  The comarks are ambient
    coroot pairings and the levels the closed forms."""
    alg = lvl.alg
    M = [int(m) for m in table_M(lvl)]
    comarks = [[int(coroot_pair(omega, t)) for omega in alg.natural_fundamental]
               for t in alg.theta_i]
    bounds = []
    for a in range(alg.rank_natural):
        caps = [m // row[a] for m, row in zip(M, comarks) if row[a] > 0]
        bounds.append(min(caps) if caps else 0)
    return [coeffs for coeffs in product(*(range(b + 1) for b in bounds))
            if all(sum(c * w for c, w in zip(coeffs, row)) <= m
                   for m, row in zip(M, comarks))]


def ambient_A(lvl, nu):
    """Threshold oracle: A(k, nu) from ambient pairings with rho_nat and xi."""
    alg = lvl.alg
    w = nu.weight()
    xi_nu = pair(alg.xi, w)
    denom = lvl.k + alg.h_check
    return pair(w, w + 2 * alg.rho_nat) / (2 * denom) + xi_nu * (xi_nu - lvl.k - 1) / denom


@pytest.mark.parametrize("name,k", DEEP_LEVELS)
def test_cone_walk_matches_box_filter_at_deep_levels(name, k):
    lvl = level(name, k)
    assert [nu.coeffs for nu in enumerate_Pk(lvl)] == box_filter_cone(lvl)


@pytest.mark.parametrize("name", SELFCHECK_ALGEBRAS)
def test_A_value_matches_ambient_form(name):
    for k in standard_levels(AlgebraId.parse(name), 3):
        lvl = level(name, k)
        for nu in enumerate_Pk(lvl):
            assert A_value(lvl, nu) == ambient_A(lvl, nu), (name, k, nu.coeffs)


PROPERTY_ALGEBRAS = SELFCHECK_ALGEBRAS + ("spo2-9", "spo2-16", "d21-1-1", "d21-7-4")


@st.composite
def labels(draw):
    """A family instance, an admissible level -k = step * q and a small
    dominant weight, inside or outside the truncated cone."""
    aid = AlgebraId.parse(draw(st.sampled_from(PROPERTY_ALGEBRAS)))
    step, q0 = aid.spec.progression(aid.m, aid.n)
    lvl = level(aid, -step * draw(st.integers(q0, q0 + 40)))
    coeffs = draw(st.lists(st.integers(0, 6), min_size=lvl.alg.rank_natural,
                           max_size=lvl.alg.rank_natural))
    return lvl, DominantWeight(aid, tuple(coeffs))


@settings(max_examples=150, deadline=None)
@given(labels())
def test_basis_path_matches_ambient_oracle(label):
    lvl, nu = label
    alg = lvl.alg
    w = nu.weight()
    assert A_value(lvl, nu) == ambient_A(lvl, nu)
    assert theta_values(lvl, nu) == tuple(coroot_pair(w, t) for t in alg.theta_i)
    inside = all(coroot_pair(w, t) <= m for t, m in zip(alg.theta_i, table_M(lvl)))
    assert in_truncated_cone(lvl, nu) is inside
    shifted = w + alg.xi
    dual_inside = all(coroot_pair(shifted, s).denominator == 1
                      and coroot_pair(shifted, s) >= 0 for s in alg.natural_simple
                      ) and all(coroot_pair(shifted, t) <= m
                                for t, m in zip(alg.theta_i, table_M(lvl)))
    if inside:
        assert is_extremal(lvl, nu) is (not dual_inside)
    # the consumers of the cone-and-extremality placement
    generic = inside and dual_inside
    verdict = unitarity_verdict(lvl, WModuleLabel(nu, ambient_A(lvl, nu)))
    assert (str(verdict) == "not_unitary:1b") is (not inside)
    assert w_module_exists(lvl, WModuleLabel(nu, None)) is generic
    xi_nu = pair(alg.xi, w)
    h = next(h for h in (F(0), F(1), F(2)) if h not in (xi_nu, lvl.k + 1 - xi_nu))
    assert affine_module_descends(lvl, AffineModuleLabel(nu, h)) is generic


def test_labels_of_another_algebra_are_rejected():
    spo27_nu = DominantWeight(AlgebraId.parse("spo2-7"), (1, 0, 0))
    for lvl, nu in ((level("f4", -2), spo27_nu),
                    (level("f4", -2), DominantWeight(AlgebraId.parse("spo2-5"), (1, 0))),
                    (level("spo2-5", -3), spo27_nu)):
        for query in (theta_values, in_truncated_cone, is_extremal, A_value,
                      extremal_h_set, lambda lvl, nu: ell0(lvl, nu, 0)):
            with pytest.raises(AlgebraMismatchError):
                query(lvl, nu)
        with pytest.raises(AlgebraMismatchError):
            unitarity_verdict(lvl, WModuleLabel(nu, F(1, 2)))


def _w_answers(lvl, nu):
    threshold = A_value(lvl, nu)
    return (threshold, is_extremal(lvl, nu),
            str(unitarity_verdict(lvl, WModuleLabel(nu, threshold))),
            str(unitarity_verdict(lvl, WModuleLabel(nu, threshold + 1))))


@pytest.mark.parametrize("name, other", [("f4", "spo2-7"), ("d21-5-3", "d21-5-2")])
def test_weight_facts_carry_no_level(name, other):
    """A weight keeps integer facts of its own (comark values, the Q and X
    of A) once classified; classifying the same instance at a second level
    answers as fresh instances do, in either order.  A weight of another
    algebra of the same rank still raises once its own facts are kept."""
    aid = AlgebraId.parse(name)
    low, high = (level(aid, k) for k in standard_levels(aid, 4)[1::2])
    cone = enumerate_Pk(low)
    assert set(cone) <= set(enumerate_Pk(high))
    for first, second in ((low, high), (high, low)):
        for coeffs in (nu.coeffs for nu in cone):
            nu = DominantWeight(aid, coeffs)
            for lvl in (first, second):
                assert _w_answers(lvl, nu) == _w_answers(lvl, DominantWeight(aid, coeffs))
            assert {"_comark_values", "_A_ints"} <= set(vars(nu))
    assert any(is_extremal(low, nu) != is_extremal(high, nu) for nu in cone)

    other_aid = AlgebraId.parse(other)
    other_lvl = level(other_aid, standard_levels(other_aid, 2)[1])
    for nu in enumerate_Pk(other_lvl):
        _w_answers(other_lvl, nu)
        assert len(nu.coeffs) == low.alg.rank_natural
        for query in (theta_values, in_truncated_cone, is_extremal, A_value):
            with pytest.raises(AlgebraMismatchError):
                query(low, nu)
        with pytest.raises(AlgebraMismatchError):
            unitarity_verdict(low, WModuleLabel(nu, F(1, 2)))


def test_failing_grid_checks_name_the_weight(monkeypatch):
    lvl = level("spo2-3", F(-1))
    assert cross_identity_report(lvl).all_pass
    true_A = classify.A_value
    monkeypatch.setattr(classify, "A_value", lambda lvl, nu: true_A(lvl, nu) + 1)
    by_id = {e.check_id: e for e in cross_identity_report(lvl).entries}
    entry = by_id["classify.threshold-roots"]
    assert not entry.passed and entry.computed == "nu=(0)"
    entry = by_id["classify.reduce-descends"]
    assert not entry.passed and entry.computed == "nu=(1) h=-1/4"
    assert by_id["classify.ell0-symmetry"].computed == "true"


def test_no_cache_grows_with_levels():
    """Per-algebra caches hold one entry for one algebra; the one per-level
    cache, the CLI's point-query memo, holds at most QUERY_LEVELS."""
    caches = {id(f): f for module in (classify, catalog, ledger, affine, cli)
              for f in vars(module).values() if hasattr(f, "cache_info")}
    assert len(caches) >= 6 and cli._query_level in caches.values()
    for cache in caches.values():
        cache.cache_clear()
    aid = AlgebraId.parse("spo2-5")
    for k in standard_levels(aid, 20):
        lvl = level(aid, k)
        classify_w_modules(lvl)
        cross_identity_report(lvl)
        ledger.run_level_ledger(lvl)
        for command in ("range", "modules"):
            assert cli.run_command([command, "spo2-5", "--k", rational_str(k)])[0] == 0
    assert cli._query_level.cache_info().currsize == 20
    for cache in caches.values():
        bound = cli.QUERY_LEVELS if cache is cli._query_level else 1
        assert cache.cache_info().currsize <= bound, cache.__name__


# --- the ambient oracle against its direct formulas -------------------------

def direct_ell0(lvl, nu, h):
    """ell0 as one affine pairing of nu_hat with nu_hat + 2 rho_hat."""
    h = rational(h)
    alg = lvl.alg
    nu_hat = AffineWeight(h * alg.theta + nu.weight(), lvl.k, 0)
    two_rho_hat = 2 * AffineWeight(alg.rho, alg.h_check, 0)
    return (affine_pair(nu_hat, nu_hat + two_rho_hat)
            / (2 * (lvl.k + alg.h_check)) - h)


@st.composite
def cone_labels(draw):
    """A family instance, one of its first standard levels, a weight of the
    truncated cone there and an h: random, k/2 or k + 1."""
    aid = AlgebraId.parse(draw(st.sampled_from(SELFCHECK_ALGEBRAS + ("spo2-16",))))
    lvl = level(aid, draw(st.sampled_from(standard_levels(aid, 4))))
    cone = enumerate_Pk(lvl)
    nu = cone[draw(st.integers(0, len(cone) - 1))]
    h = draw(st.one_of(st.fractions(max_denominator=12), st.just(lvl.k / 2),
                       st.just(lvl.k + 1)))
    return lvl, nu, h


@settings(max_examples=200, deadline=None)
@given(cone_labels())
def test_expanded_pairings_match_direct_formulas(label):
    lvl, nu, h = label
    assert ell0(lvl, nu, h) == direct_ell0(lvl, nu, h)


def _clear_walg_caches():
    for name, module in list(sys.modules.items()):
        if name == "walg" or name.startswith("walg."):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


@contextlib.contextmanager
def mutated_algebras(monkeypatch, field, shift):
    """build_algebra, in every walg namespace that binds it, returns the
    algebra with `field` shifted by shift(alg); every walg cache is cleared
    on entry and on exit."""
    true_build = catalog.build_algebra

    def mutated(aid):
        alg = true_build(aid)
        fields = {name: getattr(alg, name) for name in alg._fields}
        return catalog.AlgebraData(**{**fields, field: getattr(alg, field) + shift(alg)})

    for name, module in list(sys.modules.items()):
        if (name == "walg" or name.startswith("walg.")) and \
                vars(module).get("build_algebra") is true_build:
            monkeypatch.setattr(module, "build_algebra", mutated)
    _clear_walg_caches()
    try:
        yield
    finally:
        _clear_walg_caches()


def test_mutations_clear_the_query_memo(monkeypatch):
    """A point query under a mutated build_algebra reads the mutated
    algebra, not a Level the CLI memoized before, and none survives it;
    a mutated basis also starts from an empty memo."""
    argv = ["range", "spo2-3", "--k", "-1"]
    true_rho = catalog.build_algebra(AlgebraId.parse("spo2-3")).rho
    cli.run_command(argv)
    assert cli._query_level("spo2-3", "-1")[0].alg.rho == true_rho
    with mutated_algebras(monkeypatch, "rho", lambda alg: F(1, 7) * alg.theta):
        assert cli._query_level.cache_info().currsize == 0
        cli.run_command(argv)
        assert cli._query_level("spo2-3", "-1")[0].alg.rho != true_rho
    assert cli._query_level.cache_info().currsize == 0
    cli.run_command(argv)
    with mutated_basis(monkeypatch, "gram"):
        assert cli._query_level.cache_info().currsize == 0


# one family of each FAMILY_TABLE row, at its second standard level
MUTATION_LEVELS = ["psl2-2", "spo2-3", "spo2-5", "d21-2-1", "f4", "g3"]


@pytest.mark.parametrize("field,shift,must_fail", [
    ("rho", lambda alg: F(1, 7) * alg.theta,
     {"classify.ell0-symmetry", "classify.threshold-roots", "classify.reduce-descends"}),
    ("xi", lambda alg: F(1, 5) * alg.natural_simple[0].weight,
     {"classify.extremal-dual"}),
], ids=["rho+theta/7", "xi+alpha_nat_1/5"])
def test_oracle_fails_on_a_mutated_algebra(monkeypatch, field, shift, must_fail):
    """The ambient checks read rho and xi themselves: shifting either in the
    algebra data makes them fail instead of agreeing with a copy."""
    with mutated_algebras(monkeypatch, field, shift):
        for name in MUTATION_LEVELS:
            lvl = level(name, standard_levels(AlgebraId.parse(name), 2)[1])
            failed = {e.check_id for e in cross_identity_report(lvl).failures()}
            assert must_fail <= failed, (name, lvl.k, failed)


@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_reduce_descends_tries_the_labels_of_each_weight(monkeypatch, name):
    """classify.reduce-descends passes at any h when the reduction chain is
    right, so the h it tries are pinned here: 0, -1/2, k + 1 and the oracle's
    (xi|nu) for a non-extremal weight, the two-point set for an extremal one."""
    lvl = level(name, standard_levels(AlgebraId.parse(name), 2)[1])
    tried = {}

    def recorded(lvl, label, _true=affine_module_descends):
        tried.setdefault(label.nu.coeffs, set()).add(label.h)
        return _true(lvl, label)

    monkeypatch.setattr(classify, "affine_module_descends", recorded)
    cross_identity_report(lvl)
    cone = enumerate_Pk(lvl)
    assert tried.keys() == {nu.coeffs for nu in cone}
    for nu in cone:
        if is_extremal(lvl, nu):
            expected = set(extremal_h_set(lvl, nu))
        else:
            expected = {F(0), F(-1, 2), lvl.k + 1, pair(lvl.alg.xi, nu.weight())}
        assert tried[nu.coeffs] == expected, nu.coeffs


@pytest.mark.parametrize("mutation", ["theta+theta_1/3", "comarks[0][0]+1"])
@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_integrability_step_names_its_failure_site(monkeypatch, name, mutation):
    """theta + theta_1/3 makes the h term of the step nonzero, so the vacuum
    identity fails at the zero weight and h = 0; comarks[0][0] + 1 shifts
    nu(theta_1-coroot), so the step fails at the first weight with c_1 = 1."""
    aid = AlgebraId.parse(name)
    rank = catalog.build_algebra(aid).rank_natural
    if mutation == "theta+theta_1/3":
        mutated = mutated_algebras(monkeypatch, "theta", lambda alg: F(1, 3) * alg.theta_i[0])
        site = (0,) * rank
    else:
        mutated = mutated_basis(monkeypatch, "comarks")
        site = (1,) + (0,) * (rank - 1)
    with mutated:
        rep = ledger.check_affine_pairings(level(name, standard_levels(aid, 2)[1]))
    e, = (e for e in rep.entries if e.check_id == "affine.integrability-step")
    assert e.computed == "nu=(" + ",".join(map(str, site)) + ") h=0"


# --- the integer oracle against the Fraction forms it replaced ----------------

def fraction_nu_plus_xi_in_Pk(lvl, nu):
    """The Fraction form of classify._nu_plus_xi_in_Pk that the integer one
    replaced, verbatim but for the coroots, which it builds itself."""
    alg = lvl.alg
    simple_coroots = tuple(2 / pair(s.weight, s.weight) * s.weight for s in alg.natural_simple)
    theta_coroots = tuple(2 / pair(t, t) * t for t in alg.theta_i)
    w = nu.weight() + lvl.alg.xi
    for coroot in simple_coroots:
        v = pair(w, coroot)
        if v.denominator != 1 or v < 0:
            return False
    M = level_M(lvl)
    return all(pair(w, coroot) <= m for coroot, m in zip(theta_coroots, M))


def fraction_extremal(lvl, nu):
    """The Fraction comparison of classify._extremal that the integer one
    replaced: None outside the truncated cone, else whether nu is extremal."""
    vals = theta_values(lvl, nu)
    if any(v > m for v, m in zip(vals, lvl.M)):
        return None
    return any(v > m + c for v, m, c in zip(vals, lvl.M, lvl.alg.chi))


ORACLE_ALGEBRAS = SELFCHECK_ALGEBRAS + ("spo2-16", "spo2-9", "d21-7-4")

# h with large or negative denominators, as well as the cone_labels draws
WIDE_H = st.builds(F, st.integers(-10**15, 10**15),
                   st.integers(-10**15, 10**15).filter(lambda d: d != 0))


@st.composite
def oracle_labels(draw):
    """As cone_labels, over three more algebras, with a weight inside or
    outside the cone and an h from a wider range."""
    aid = AlgebraId.parse(draw(st.sampled_from(ORACLE_ALGEBRAS)))
    lvl = level(aid, draw(st.sampled_from(standard_levels(aid, 4))))
    cone = enumerate_Pk(lvl)
    rank = lvl.alg.rank_natural
    nu = draw(st.one_of(
        st.integers(0, len(cone) - 1).map(cone.__getitem__),
        st.lists(st.integers(0, 9), min_size=rank, max_size=rank).map(
            lambda c: DominantWeight(aid, tuple(c)))))
    h = draw(st.one_of(st.fractions(max_denominator=12), WIDE_H,
                       st.just(lvl.k / 2), st.just(lvl.k + 1)))
    return lvl, nu, h


@settings(max_examples=200, deadline=None)
@given(oracle_labels())
def test_integer_pairings_match_fraction_references(label):
    lvl, nu, h = label
    alg = lvl.alg
    w = nu.weight()
    c = classify._ambient_constants(alg.id)
    E = c.E
    assert nu._norm == E * pair(w, w + 2 * alg.rho)
    assert nu._theta == E * pair(alg.theta, w)
    # (xi|w): on the ambient integers, as _threshold_identity reads it, and
    # as X / D of the basis, as extremal_h_set reads it
    assert classify._dot(nu._scaled, c.g_xi) == E * pair(alg.xi, w)
    assert F(nu._A_ints[1], classify._basis(alg.id).D) == pair(alg.xi, w)
    assert nu._theta_i == tuple(E * pair(w, t) for t in alg.theta_i)
    assert ell0(lvl, nu, h) == direct_ell0(lvl, nu, h)
    assert classify._nu_plus_xi_in_Pk(lvl, nu) is fraction_nu_plus_xi_in_Pk(lvl, nu)


# levels off the unitarity range, where M_i(k) and M_i(k) + chi_i are
# non-integer or negative
OFF_RANGE_K = (F(-7, 3), F(-22, 5), F(-61, 7), F(-13, 9), F(1, 3), F(5, 7), F(-1, 9))


@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_integer_level_bounds_off_the_range(name):
    aid = AlgebraId.parse(name)
    rank = catalog.build_algebra(aid).rank_natural
    inside = 0
    for k in OFF_RANGE_K:
        lvl = level(aid, k)
        bounds = (*lvl.M, *(m + c for m, c in zip(lvl.M, lvl.alg.chi)))
        assert any(b.denominator != 1 or b < 0 for b in bounds), (name, k)
        for coeffs in product(range(5), repeat=rank):
            nu = DominantWeight(aid, coeffs)
            want = fraction_extremal(lvl, nu)
            assert in_truncated_cone(lvl, nu) is (want is not None), (name, k, coeffs)
            if want is None:
                with pytest.raises(RangeError):
                    is_extremal(lvl, nu)
            else:
                inside += 1
                assert is_extremal(lvl, nu) is want, (name, k, coeffs)
    assert inside


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_oracle_never_reads_the_basis(monkeypatch, name):
    """The ambient oracle stays independent of the integer basis path: with
    classify._basis raising, it still answers on fresh weights and levels.
    extremal_h_set is not part of it: it reads (xi|nu) off the basis."""
    def no_basis(aid):
        raise AssertionError("the oracle read classify._basis")

    _clear_walg_caches()
    monkeypatch.setattr(classify, "_basis", no_basis)
    aid = AlgebraId.parse(name)
    alg = catalog.build_algebra(aid)
    with pytest.raises(AssertionError):  # the basis path does read it
        theta_values(level(aid, -1), DominantWeight(aid, (0,) * alg.rank_natural))
    rank = alg.rank_natural
    c = classify._ambient_constants(aid)
    E = c.E
    weights = list(product(range(3), repeat=rank)) if rank <= 3 else [
        (0,) * rank, (1,) * rank,
        *(tuple(m * (a == b) for b in range(rank)) for a in range(rank) for m in (1, 2))]
    dual = {}
    for k in standard_levels(aid, 2):
        lvl = level(aid, k)
        for coeffs in weights:
            nu = DominantWeight(aid, coeffs)
            w = nu.weight()
            assert nu._norm == E * pair(w, w + 2 * alg.rho)
            assert nu._theta == E * pair(alg.theta, w)
            assert classify._dot(nu._scaled, c.g_xi) == E * pair(alg.xi, w)
            assert nu._theta_i == tuple(E * pair(w, t) for t in alg.theta_i)
            threshold = ambient_A(lvl, nu)
            assert classify._threshold_identity(lvl, nu, threshold) is True
            assert classify._threshold_identity(lvl, nu, threshold + 1) is False
            for h in (F(0), F(1, 3), k / 2):
                assert ell0(lvl, nu, h) == direct_ell0(lvl, nu, h)
            dual[lvl, nu] = classify._nu_plus_xi_in_Pk(lvl, nu)
    monkeypatch.undo()
    _clear_walg_caches()
    for (lvl, nu), answer in dual.items():
        assert answer is fraction_nu_plus_xi_in_Pk(lvl, nu), (name, lvl.k, nu.coeffs)


# --- the basis path without the ambient oracle, the mirror of the above ------

def basis_path_answers(name):
    """What the basis path answers at the second standard level of one
    algebra: both module lists, the two-point set and affine descent of
    every cone weight at h in and off that set, walg modules (W and
    --affine, JSON and text), and walg unitary and range on weights inside
    and outside the cone."""
    aid = AlgebraId.parse(name)
    k = standard_levels(aid, 2)[1]
    lvl = level(aid, k)
    cone = enumerate_Pk(lvl)
    answers = [classify_w_modules(lvl), classify_affine_modules(lvl)]
    for nu in cone:
        hs = extremal_h_set(lvl, nu)
        answers.append(hs)
        answers.append([affine_module_descends(lvl, AffineModuleLabel(nu, h))
                        for h in (*hs, hs[0] + F(1, 7), F(0))])
    for coeffs in (cone[0].coeffs, cone[-1].coeffs, (9,) * lvl.alg.rank_natural):
        nu = ",".join(map(str, coeffs))
        for ell in ("0", "1/3"):
            answers.append(cli.run_command(["unitary", name, "--k", rational_str(k),
                                            "--nu", nu, "--ell0", ell]))
    for flags in ([], ["--json"], ["--affine"], ["--affine", "--json"]):
        answers.append(cli.run_command(["modules", name, "--k", rational_str(k), *flags]))
    answers.append(cli.run_command(["range", name, "--k", rational_str(k)]))
    return answers


@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_basis_path_never_reads_the_ambient_oracle(monkeypatch, name):
    """With classify._ambient_constants raising, module lists, the
    two-point set, affine descent, modules, unitary and range answer as
    with it, byte for byte; reduce still reads it, through ell0.  Every
    walg cache is cleared first, so no ambient fact computed before is read
    again."""
    def no_ambient(aid):
        raise AssertionError("the basis path read classify._ambient_constants")

    want = basis_path_answers(name)
    aid = AlgebraId.parse(name)
    k = rational_str(standard_levels(aid, 2)[1])
    zero = ",".join("0" * catalog.build_algebra(aid).rank_natural)
    monkeypatch.setattr(classify, "_ambient_constants", no_ambient)
    _clear_walg_caches()
    assert basis_path_answers(name) == want
    with pytest.raises(AssertionError, match="_ambient_constants"):
        cli.run_command(["reduce", name, "--k", k, "--nu", zero, "--h", "1/3"])
    monkeypatch.undo()
    _clear_walg_caches()


@pytest.mark.parametrize("shift", [
    lambda alg: F(1, 5) * alg.natural_simple[0].weight,
    lambda alg: -2 * alg.natural_simple[-1].weight,
    lambda alg: F(3, 2) * alg.theta_i[0],
], ids=["+alpha_nat_1/5", "-2 alpha_nat_last", "+3/2 theta_1"])
def test_dual_cone_test_matches_on_a_shifted_xi(monkeypatch, shift):
    """w + xi is dominant integral for every catalog weight, so the simple
    coroot test of _nu_plus_xi_in_Pk is exercised with xi shifted off the
    lattice, off the dominant chamber and past the levels."""
    with mutated_algebras(monkeypatch, "xi", shift):
        for name in MUTATION_LEVELS:
            lvl = level(name, standard_levels(AlgebraId.parse(name), 2)[1])
            for nu in enumerate_Pk(lvl):
                assert classify._nu_plus_xi_in_Pk(lvl, nu) is \
                    fraction_nu_plus_xi_in_Pk(lvl, nu), (name, nu.coeffs)


# --- the integer cross-identities against the Fraction forms they replaced ----

def fraction_threshold_identity(lvl, nu, threshold):
    """The Fraction form of the coefficient identity of
    classify.threshold-roots that _threshold_identity replaced, with
    (w|w + 2 rho) paired directly."""
    k, alg = lvl.k, lvl.alg
    w = nu.weight()
    xi_nu = pair(alg.xi, w)
    lhs = pair(w, w + 2 * alg.rho) / 2 - threshold * (k + alg.h_check)
    return lhs == xi_nu * (k + 1 - xi_nu)


def fraction_reduction_vanishes(k, h):
    """The Fraction gap test of hamiltonian_reduce that _reduction_vanishes
    replaced, verbatim."""
    gap = k - 2 * h
    return gap.denominator == 1 and gap >= 0


def fraction_extremal_h_set(lvl, nu):
    """The Fraction form of extremal_h_set, in increasing order, with
    (xi|nu) paired directly."""
    x = pair(lvl.alg.xi, nu.weight())
    return tuple(sorted({x, lvl.k + 1 - x}))


@st.composite
def cross_identity_labels(draw):
    """An oracle_labels draw, at its standard level or at one off the range."""
    lvl, nu, h = draw(oracle_labels())
    k = draw(st.sampled_from((lvl.k, *OFF_RANGE_K)))
    assume(k != -lvl.alg.h_check)
    return classify.Level(lvl.alg, k), nu, h


@settings(max_examples=200, deadline=None)
@given(cross_identity_labels())
def test_integer_cross_identities_match_fraction_references(label):
    lvl, nu, h = label
    k = lvl.k
    c0, c1, c2, den = classify._ell0_coeffs(lvl, nu)
    assert F(c0 + c1 * h + c2 * h * h) / den == direct_ell0(lvl, nu, h)
    true_A = A_value(lvl, nu)
    assert classify._threshold_identity(lvl, nu, true_A) is True
    for threshold in (true_A, true_A + 1, true_A + h):
        assert classify._threshold_identity(lvl, nu, threshold) is \
            fraction_threshold_identity(lvl, nu, threshold), threshold
    assert extremal_h_set(lvl, nu) == fraction_extremal_h_set(lvl, nu)
    defined = lvl.in_range and in_truncated_cone(lvl, nu)
    for g in (h, k / 2, (k - 3) / 2, (k + 1) / 2, k + 1 - h):
        vanishes = fraction_reduction_vanishes(k, g)
        assert classify._reduction_vanishes(k, g) is vanishes, g
        if defined:
            assert (hamiltonian_reduce(lvl, AffineModuleLabel(nu, g)) is None) is vanishes
    if lvl.in_range:
        # affine_module_descends tests h in the two-point set on integers
        where, x = fraction_extremal(lvl, nu), pair(lvl.alg.xi, nu.weight())
        for g in (h, x, k + 1 - x, x + 1, k - x):
            want = where is not None and (not where or g in fraction_extremal_h_set(lvl, nu))
            assert affine_module_descends(lvl, AffineModuleLabel(nu, g)) is want, g


def integer_equations_descend(lvl, nu, h):
    """affine_module_descends as it was before it read extremal_h_set: for
    an extremal nu, h = r/s, k = p/q and (xi|nu) = x/y in lowest terms,
    h = x/y or h = k + 1 - x/y, which is r q y = s ((p + q) y - q x)."""
    where = fraction_extremal(lvl, nu)
    if not where:
        return where is not None
    (r, s), (p, q) = h.as_integer_ratio(), lvl.k.as_integer_ratio()
    x, y = pair(lvl.alg.xi, nu.weight()).as_integer_ratio()
    return (r, s) == (x, y) or r * q * y == s * ((p + q) * y - q * x)


@settings(max_examples=200, deadline=None)
@given(oracle_labels())
def test_extremal_h_set_is_increasing_and_descends_by_it(label):
    """At enumerable levels: the two-point set is strictly increasing, one
    point exactly when 2 (xi|nu) = k + 1, and affine_module_descends agrees
    with the integer equations at both points, a seventh off each, and h."""
    lvl, nu, h = label
    hs = extremal_h_set(lvl, nu)
    x = pair(lvl.alg.xi, nu.weight())
    assert all(a < b for a, b in zip(hs, hs[1:]))
    assert (len(hs) == 1) is (2 * x == lvl.k + 1)
    assert set(hs) == {x, lvl.k + 1 - x}
    for g in (h, *(x + d for x in hs for d in (0, F(1, 7), F(-1, 7)))):
        assert affine_module_descends(lvl, AffineModuleLabel(nu, g)) is \
            integer_equations_descend(lvl, nu, g), g


# --- the level constants and integer bounds against the forms they replaced ---

def per_call_ell0_coeffs(lvl, nu):
    """_ell0_coeffs as it was before the level kept its k constants: each
    call derives them from _ambient_constants, verbatim."""
    c = classify._ambient_constants(lvl.alg.id)
    (p, q), (a, b) = lvl.k.as_integer_ratio(), lvl.alg.h_check.as_integer_ratio()
    qb, d = q * b, p * b + a * q
    return (qb * nu._norm, qb * (2 * nu._theta + c.theta_two_rho) - 2 * c.E * d,
            qb * c.theta_theta, 2 * c.E * d)


def fraction_chi_bound_nu_plus_xi_in_Pk(lvl, nu):
    """classify._nu_plus_xi_in_Pk as it was before its chi bound compared
    integers: Fraction(2 (V.G'(L theta_i) q - p E), q E (theta_i|theta_i))
    <= chi_i per summand, verbatim."""
    c = classify._ambient_constants(lvl.alg.id)
    v = tuple(map(sum, zip(nu._scaled, c.xi)))
    for g_s, norm in c.simple:
        quotient, remainder = divmod(2 * classify._dot(v, g_s), norm)
        if remainder or quotient < 0:
            return False
    p, q = lvl.k.numerator, lvl.k.denominator
    return all(F(2 * (classify._dot(v, g_t) * q - p * c.E), q * norm) <= chi
               for g_t, norm, chi in zip(c.g_theta_i, c.theta_i_norms, lvl.alg.chi))


def level_margins(lvl):
    """M_i(k) + chi_i per summand, as Fractions of the level's integer
    pairs."""
    return tuple(F(n, d) for n, d in lvl._margin_ratios)


def fraction_margin_site(lvl, extremal):
    """The computed value of classify.margin-nonneg as it was before it
    compared integers: (M_i + chi_i - v).denominator == 1 and M_i + chi_i >= v
    per summand, for v = nu(theta_i-coroot), off the extremal set."""
    return first_failure((nu, None) for nu in enumerate_Pk(lvl) if not extremal(lvl, nu)
                         and not all((m - v).denominator == 1 and m >= v
                                     for v, m in zip(theta_values(lvl, nu), level_margins(lvl))))


def assert_margin_site_matches_fraction_form(lvl):
    """margin-nonneg against its Fraction form, as reported and with every
    weight counted as non-extremal, so that failing weights are compared
    too."""
    for extremal in (is_extremal, lambda lvl, nu: False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "is_extremal", extremal)
            by_id = {e.check_id: e for e in cross_identity_report(lvl).entries}
        want = fraction_margin_site(lvl, extremal)
        assert by_id["classify.margin-nonneg"].computed == render_value(want), (lvl.name, lvl.k)


def assert_level_matches_fraction_forms(lvl):
    """Each weight of the cone: the level's ell0 constants against the
    per-call derivation, the integer chi bound against the Fraction one; and
    margin-nonneg against its Fraction form.  Returns the chi-bound answers
    seen."""
    answers = set()
    for nu in enumerate_Pk(lvl):
        assert classify._ell0_coeffs(lvl, nu) == per_call_ell0_coeffs(lvl, nu), nu.coeffs
        answer = classify._nu_plus_xi_in_Pk(lvl, nu)
        assert answer is fraction_chi_bound_nu_plus_xi_in_Pk(lvl, nu), (lvl.name, lvl.k, nu.coeffs)
        answers.add(answer)
    assert_margin_site_matches_fraction_form(lvl)
    return answers


def test_level_constants_and_integer_bounds_match_fraction_forms_on_the_grid():
    """At all 74 levels of selfcheck --all.  Every catalog E (theta_i|theta_i)
    is negative (-4 to -20 on this grid), so the chi bound, cross-multiplied
    by q E (theta_i|theta_i), must flip the sign of its <=; a form that does
    not flip it fails here and fails test_criterion_5_property_suite."""
    levels = list(cli._selfcheck_levels(True))
    assert len(levels) == 74
    norms = {n for lvl in levels for n in classify._ambient_constants(lvl.alg.id).theta_i_norms}
    assert max(norms) < 0 and (min(norms), max(norms)) == (-20, -4)
    answers = set()
    for lvl in levels:
        answers |= assert_level_matches_fraction_forms(lvl)
    assert answers == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_ALGEBRAS).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from(standard_levels(AlgebraId.parse(name), 5)))))
def test_level_constants_and_integer_bounds_match_fraction_forms_drawn(drawn):
    name, k = drawn
    assert_level_matches_fraction_forms(level(name, k))


# --- a level's integer facts against the Fraction forms they replaced -------

# every FAMILY_TABLE row: spo2-m up to m = 20, and d21 pairs beyond CONE_PAIRS
LEVEL_ALGEBRAS = ("psl2-2", "spo2-3", *(f"spo2-{m}" for m in range(5, 21)),
                  *(f"d21-{m}-{n}" for m in range(1, 10) for n in range(1, 10) if gcd(m, n) == 1),
                  "f4", "g3")


def fraction_level_facts(lvl):
    """in_range, M, the margins and both rows of floors as Level computed
    them before it kept them on integers: -k/step, 2k/(theta_i|theta_i) +
    chi_i and floor, verbatim."""
    alg, k = lvl.alg, lvl.k
    step, q0 = alg.id.spec.progression(alg.id.m, alg.id.n)
    q = -k / step
    M = tuple(2 * k / pair(t, t) + c for t, c in zip(alg.theta_i, alg.chi))
    margins = tuple(m + c for m, c in zip(M, alg.chi))
    return (q.denominator == 1 and q >= q0, M, margins,
            (tuple(map(floor, M)), tuple(map(floor, margins))))


def fraction_verdict(lvl, nu, ell0_value):
    """unitarity_verdict with its Fraction tests of the levels (1a and the
    margins), read off fraction_level_facts, for any level."""
    _, M, margins, _ = fraction_level_facts(lvl)
    if not all(m.denominator == 1 and m >= 0 for m in M):
        return "not_unitary:1a"
    extremal = fraction_extremal(lvl, nu)
    if extremal is None:
        return "not_unitary:1b"
    threshold = A_value(lvl, nu)
    if ell0_value < threshold or (extremal and ell0_value != threshold):
        return "not_unitary:1c"
    if nu.is_zero and ell0_value == 0:
        return "unitary"
    if not extremal:
        return "unitary" if all(m.denominator == 1 and m >= 0 for m in margins) else "open"
    return "unitary" if lvl.alg.id.spec.proven_at_threshold(lvl.k) else "open"


@st.composite
def any_levels(draw):
    """A level of LEVEL_ALGEBRAS, never critical: -k = step n for an integer
    n from -3 to q0 + 5 (on the range from q0 on), or any p/q of either
    sign."""
    aid = AlgebraId.parse(draw(st.sampled_from(LEVEL_ALGEBRAS)))
    step, q0 = aid.spec.progression(aid.m, aid.n)
    k = draw(st.one_of(st.integers(-3, q0 + 5).map(lambda n: -step * n),
                       st.builds(F, st.integers(-60, 60), st.integers(1, 12))))
    assume(k != -catalog.build_algebra(aid).h_check)
    return level(aid, k)


@settings(max_examples=300, deadline=None)
@given(any_levels())
def test_integer_level_facts_match_fraction_forms(lvl):
    in_range, M, margins, floors = fraction_level_facts(lvl)
    assert (lvl.in_range, lvl.M, level_margins(lvl), lvl._floors) == (in_range, M, margins, floors)
    assert in_unitarity_range(lvl) is in_range and level_M(lvl) == M
    # conditions 1a and the margins of unitarity_verdict, on and off the range
    rank = lvl.alg.rank_natural
    weights = [(0,) * rank, (1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (2,), (9,) * rank]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_require_range", lambda lvl: None)
        for coeffs in weights:
            nu = DominantWeight(lvl.alg.id, coeffs)
            threshold = A_value(lvl, nu)
            for ell0_value in (threshold, threshold + F(1, 3)):
                got = str(unitarity_verdict(lvl, WModuleLabel(nu, ell0_value)))
                assert got == fraction_verdict(lvl, nu, ell0_value), (lvl.name, lvl.k, coeffs)
    if in_range and count_Pk(lvl) <= 200:
        assert_margin_site_matches_fraction_form(lvl)


# The grid of `selfcheck --all` under three mutations of the algebra data,
# frozen at the commit before the cross-identities ran on integers: the
# failing checks by id, and a SHA-256 digest of the "check_id algebra k=..
# computed" lines of the classify.* failures, in report order.  A widening
# of the grid changes these figures and must refreeze them.
ZHU_THRESHOLDS = {**{f"zhu.threshold[j={j}]": 3 for j in range(1, 10)},
                  "zhu.threshold[j=10]": 2}
GRID_MUTATIONS = {
    "gram[0][0]+1": (197, {
        "classify.reduce-descends": 74, "classify.threshold-roots": 74,
        "zhu.module-list": 20, **ZHU_THRESHOLDS},
        "6238d775a5fe42a409e1da00edec6f67205b449b11060a7833fd162252edfd0d"),
    "rho+theta/7": (235, {
        "catalog.dual-coxeter": 13, "classify.ell0-symmetry": 74,
        "classify.reduce-descends": 74, "classify.threshold-roots": 74},
        "e1d38605e168747b3a6e8da2def291a8ad56c86b141edfbb52f8502bbd5b611e"),
    "xi+alpha_nat_1/5": (180, {
        "affine.xi-restriction[1]": 30, "catalog.chi-values": 7,
        "catalog.xi-dominant": 13, "classify.extremal-dual": 71,
        "ideal.spo23-generator-weight": 10, "zhu.module-list": 20, **ZHU_THRESHOLDS},
        "e5dca6d154f4cd80792473786cfb762767f9fbe43952866f93c3746b20fbe42a"),
}


@contextlib.contextmanager
def mutated_basis(monkeypatch, field):
    """classify._basis with field[0][0] raised by 1, basis data the oracle
    or the ledger must catch; every walg cache is cleared on entry and on
    exit."""
    true_basis = classify._basis

    def mutated(aid):
        basis = true_basis(aid)
        rows = [list(row) for row in getattr(basis, field)]
        rows[0][0] += 1
        return basis._replace(**{field: tuple(map(tuple, rows))})

    monkeypatch.setattr(classify, "_basis", mutated)
    _clear_walg_caches()
    try:
        yield
    finally:
        _clear_walg_caches()


@pytest.mark.parametrize("mutation", list(GRID_MUTATIONS))
def test_oracle_mutations_fail_the_full_grid(monkeypatch, mutation):
    if mutation == "gram[0][0]+1":
        mutated = mutated_basis(monkeypatch, "gram")
    elif mutation == "rho+theta/7":
        mutated = mutated_algebras(monkeypatch, "rho", lambda alg: F(1, 7) * alg.theta)
    else:
        mutated = mutated_algebras(monkeypatch, "xi",
                                   lambda alg: F(1, 5) * alg.natural_simple[0].weight)
    with mutated:
        failures = cli._selfcheck_report(True).failures()
    total, counts, digest = GRID_MUTATIONS[mutation]
    assert len(failures) == total
    by_id = {}
    for e in failures:
        by_id[e.check_id] = by_id.get(e.check_id, 0) + 1
    assert by_id == counts
    sites = [f"{e.check_id} {e.algebra} k={e.k} {e.computed}"
             for e in failures if e.check_id.startswith("classify.")]
    assert hashlib.sha256("\n".join(sites).encode()).hexdigest() == digest, sites[:8]


REACHED = ("ell0", "A_value", "is_extremal", "extremal_h_set",
           "affine_module_descends", "hamiltonian_reduce", "w_module_exists")


def test_mutation_levels_cover_the_family_table():
    rows = {id(AlgebraId.parse(name).spec) for name in MUTATION_LEVELS}
    assert rows == {id(spec) for spec in catalog.FAMILY_TABLE}


@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_cross_identities_reach_the_public_predicates(monkeypatch, name):
    """cross_identity_report goes through the classify module globals that
    the benchmark tracer wraps and that tests patch (A_value above)."""
    calls = dict.fromkeys(REACHED, 0)
    for fn in REACHED:
        def counted(*args, _fn=fn, _true=getattr(classify, fn)):
            calls[_fn] += 1
            return _true(*args)
        monkeypatch.setattr(classify, fn, counted)
    lvl = level(name, standard_levels(AlgebraId.parse(name), 2)[1])
    assert cross_identity_report(lvl).all_pass
    assert all(calls.values()), calls


# --- one verdict per class in classify_w_modules, against one per weight --

def test_record_verdicts_match_a_verdict_per_weight():
    """classify_w_modules settles one verdict per (extremal, zero weight)
    class of a level; every record must read as the slow path, one
    is_extremal, A_value and unitarity_verdict per weight, on the
    selfcheck --all grid and the deep levels."""
    levels = [*cli._selfcheck_levels(True), *(level(name, k) for name, k in DEEP_LEVELS)]
    # every class occurs: a negative margin M_i(k) + chi_i makes the zero
    # weight extremal, and some extremal verdict stays open
    assert any(any(m < 0 for m in level_margins(lvl)) for lvl in levels)
    classes = set()
    for lvl in levels:
        for rec in classify_w_modules(lvl):
            nu = rec.nu
            extremal, threshold = is_extremal(lvl, nu), A_value(lvl, nu)
            verdict = unitarity_verdict(lvl, WModuleLabel(nu, threshold))
            assert ((rec.extremal, rec.threshold, rec.ell0, str(rec.verdict))
                    == (extremal, threshold, threshold if extremal else None, str(verdict))), \
                (lvl.name, lvl.k, nu.coeffs)
            classes.add((extremal, nu.is_zero, str(verdict)))
    assert {(True, True, "unitary"), (False, True, "unitary"),
            (True, False, "open"), (True, False, "unitary"),
            (False, False, "unitary")} <= classes, classes


def test_classification_calls_one_verdict_per_class(monkeypatch):
    """At f4, k = -82/3, classify_w_modules calls is_extremal and A_value
    once per cone weight and unitarity_verdict at most once per class.
    Counted through the classify module globals that the benchmark tracer
    wraps; each unitarity_verdict call makes one A_value call of its own."""
    calls = dict.fromkeys(("A_value", "is_extremal", "unitarity_verdict"), 0)
    for fn in calls:
        def counted(*args, _fn=fn, _true=getattr(classify, fn)):
            calls[_fn] += 1
            return _true(*args)
        monkeypatch.setattr(classify, fn, counted)
    lvl = level("f4", F(-82, 3))
    cone = enumerate_Pk(lvl)
    assert len(classify_w_modules(lvl)) == len(cone)
    assert calls["is_extremal"] == len(cone)
    assert 1 <= calls["unitarity_verdict"] <= 3
    assert calls["A_value"] == len(cone) + calls["unitarity_verdict"]


# --- the cone walk's facts and the cone count, against the slow paths ------

def _assert_walk_matches_the_slow_paths(lvl):
    """count_Pk is the cone size, and each weight of the walk, built with
    its facts in place, equals the public DominantWeight(aid, coeffs) and
    its facts computed on first use."""
    cone = enumerate_Pk(lvl)
    assert count_Pk(lvl) == len(cone), (lvl.name, lvl.k)
    for nu in cone:
        assert {"_comark_values", "_A_ints"} <= vars(nu).keys()
        ref = DominantWeight(lvl.alg.id, nu.coeffs)
        assert not {"_comark_values", "_A_ints"} & vars(ref).keys()
        assert nu == ref and hash(nu) == hash(ref)
        assert nu._comark_values == ref._comark_values, (lvl.name, lvl.k, nu.coeffs)
        assert nu._A_ints == ref._A_ints, (lvl.name, lvl.k, nu.coeffs)


def test_walk_and_count_match_the_slow_paths_on_the_selfcheck_grid():
    for lvl in cli._selfcheck_levels(True):
        _assert_walk_matches_the_slow_paths(lvl)


@pytest.mark.parametrize("name,k", DEEP_LEVELS)
def test_walk_and_count_match_the_slow_paths_at_deep_levels(name, k):
    """The walk's facts at the deep levels of the modules benchmark, which
    the selfcheck grid does not reach: rank 8 (spo2-16) and long runs of
    the last coefficient (f4, 6,391 weights), along which the walk steps
    each weight's comark values from the one before."""
    _assert_walk_matches_the_slow_paths(level(name, k))


ENUMERATION_LIMIT = 20_000


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SELFCHECK_ALGEBRAS + ("spo2-16", "d21-7-4")), st.integers(0, 45))
def test_count_is_the_cone_size_at_random_levels(name, offset):
    """count_Pk == len(enumerate_Pk) wherever the cone is small enough to
    walk; above that the CLI refuses the level with the count."""
    aid = AlgebraId.parse(name)
    k = standard_levels(aid, offset + 1)[-1]
    count = count_Pk(level(aid, k))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "MAX_CONE", ENUMERATION_LIMIT)
        if count <= ENUMERATION_LIMIT:
            assert count == len(enumerate_Pk(level(aid, k)))
        else:
            code, text = cli.run_command(["modules", name, "--k", rational_str(k)])
            assert code == 2 and f" has {count} weights, " in text


def _patch_build_algebra(monkeypatch, replacement):
    original = catalog.build_algebra
    for name, module in list(sys.modules.items()):
        if name == "walg" or name.startswith("walg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("name", ["spo2-3", "f4", "d21-5-3"])
def test_public_weight_checks_without_building_the_algebra(monkeypatch, name):
    """DominantWeight(...) keeps every check, with the rank read off the
    AlgebraId: build_algebra raises here, with every walg cache cold."""
    def no_build(aid):
        raise AssertionError("DominantWeight built the algebra")

    _clear_walg_caches()
    _patch_build_algebra(monkeypatch, no_build)
    aid = AlgebraId.parse(name)
    rank = aid.rank_natural
    zeros = (0,) * (rank - 1)
    assert DominantWeight(aid, (2, *zeros)).coeffs == (2, *zeros)
    assert DominantWeight(aid, [2, *zeros]).coeffs == (2, *zeros)
    for bad in (True, 1.0, F(1)):
        with pytest.raises(TypeError):
            DominantWeight(aid, (bad, *zeros))
    for coeffs in (zeros, (0, 0, *zeros), (-1, *zeros)):
        with pytest.raises(RangeError):
            DominantWeight(aid, coeffs)
    monkeypatch.undo()
    assert rank == catalog.build_algebra(aid).rank_natural


def test_classification_builds_no_algebra_per_weight(monkeypatch):
    """The walk builds its weights without build_algebra, so the calls made
    while classifying a level do not grow with its cone: at most one per
    per-algebra cache that is still cold."""
    calls = []

    def counting(aid, _build=catalog.build_algebra):
        calls.append(aid)
        return _build(aid)

    _patch_build_algebra(monkeypatch, counting)
    aid = AlgebraId.parse("f4")
    per_level = []
    for k in standard_levels(aid, 10)[::9]:  # 3 and 825 weights
        lvl = level(aid, k)
        calls.clear()
        assert len(classify_w_modules(lvl)) == len(classify_affine_modules(lvl)) == count_Pk(lvl)
        per_level.append(len(calls))
    assert max(per_level) <= 2, per_level
