from fractions import Fraction as F

import pytest

from test_classify import MUTATION_LEVELS, mutated_algebras
from walg import classify, cli, ledger
from walg.affine import AffineWeight, affine_coroot_pair, affine_pair
from walg.catalog import AlgebraId, coroot_pair
from walg.classify import (enumerate_Pk, first_failure, level, level_M,
                           standard_levels, theta_values)
from walg.ledger import (check_affine_pairings, check_d21_cone,
                         check_singular_weights, check_zhu_consequences,
                         run_level_ledger)
from walg.report import Report, render_value

GRID = ["psl2-2", "spo2-3", "spo2-5", "spo2-6", "spo2-7",
        "d21-2-1", "d21-3-1", "d21-3-2", "d21-5-2", "d21-5-3", "f4", "g3"]


def entry(report, check_id):
    matches = [e for e in report.entries if e.check_id == check_id]
    assert matches, f"no entry {check_id}"
    return matches[0]


def test_generator_weight_psl22():
    rep = check_singular_weights(level("psl2-2", F(-2)))
    e = entry(rep, "ideal.generator-weight[1]")
    # M_1 = 1: weight (2 theta_1, 2)
    assert e.passed
    assert e.computed == "[[0, 0, 2, -2], 2]"


def test_spo23_second_generator_weight():
    rep = check_singular_weights(level("spo2-3", F(-1)))
    e = entry(rep, "ideal.spo23-generator-weight")
    # m = M_1 + 2 = 4: weight (4 omega_1, 5/2) = (2 e1, 5/2)
    assert e.passed
    assert e.computed == "[[2, 0], 5/2]"


def test_affine_pairing_values():
    rep = check_affine_pairings(level("psl2-2", F(-2)))
    e = entry(rep, "affine.level-pairing[1]")
    assert e.passed and e.computed == "1"

    rep = check_affine_pairings(level("g3", F(-3, 2)))
    e = entry(rep, "affine.nonvanishing-linear[1]")
    assert e.passed and e.computed == "5/2"  # -k + 1


def test_spo23_nonvanishing_scalars():
    # at k = -3/4: -k - 1/2 = 1/4 and (M_1 + 1)/2 = 1
    rep = check_affine_pairings(level("spo2-3", F(-3, 4)))
    e = entry(rep, "spo23.nonvanishing-a0a1")
    assert e.passed and e.computed == "1/4"
    e = entry(rep, "spo23.nonvanishing-alpha1")
    assert e.passed and e.computed == "1"
    # the generic linear scalar is not asserted for spo2-3
    assert not any(x.check_id.startswith("affine.nonvanishing-linear")
                   for x in rep.entries)


def test_vacuum_eta_scalar():
    # s = (k Lambda_0|eta_i-coroot) = M_i - chi_i
    rep = check_affine_pairings(level("spo2-5", F(-2)))
    e = entry(rep, "affine.vacuum-eta[1]")
    assert e.passed and e.computed == "4"  # M = 3, chi = -1


@pytest.mark.parametrize("m,n,q,expected", [
    (2, 1, 1, (F(-1), F(2), F(2))),
    (3, 2, 1, (F(-2), F(3), F(2))),
    (5, 3, 2, (F(-6), F(10), F(8))),
])
def test_d21_cone_closed_form(m, n, q, expected):
    rep = check_d21_cone(m, n, q)
    e = entry(rep, "d21.cone-coefficients")
    assert e.passed
    assert e.expected == e.computed
    from walg.report import render_value
    assert e.computed == render_value(expected)


def test_d21_cone_grid():
    for m, n in ((2, 1), (3, 1), (3, 2), (5, 2), (5, 3)):
        for q in range(1, 5):
            rep = check_d21_cone(m, n, q)
            assert rep.all_pass


def test_d21_cone_negative_fails_on_a_zero_first_coefficient(monkeypatch):
    """The comparison is impossible only if the first coefficient is
    negative: a solve that gave 0 there fails d21.cone-negative."""
    true_solve = ledger.solve_linear
    monkeypatch.setattr(ledger, "solve_linear", lambda a, b: (F(0), *true_solve(a, b)[1:]))
    rep = check_d21_cone(2, 1, 1)
    assert not entry(rep, "d21.cone-negative").passed
    assert not entry(rep, "d21.cone-coefficients").passed


def test_d21_cone_rejects_bad_parameters():
    with pytest.raises(ValueError, match="m > n"):
        check_d21_cone(1, 2, 1)   # needs m > n
    with pytest.raises(ValueError, match="m > n"):
        check_d21_cone(1, 1, 1)   # m = n too, though 1 and 1 are coprime
    with pytest.raises(ValueError):
        check_d21_cone(4, 2, 1)   # coprimality
    with pytest.raises(ValueError):
        check_d21_cone(3, 2, 0)


def test_zhu_consequences_spo23_m4():
    rep = check_zhu_consequences(level("spo2-3", F(-1)))
    assert rep.all_pass
    e = entry(rep, "zhu.module-list")
    assert e.computed == "[[[0], free], [[1], 1/4], [[2], 1/2]]"


def test_zhu_consequences_psl22_m1():
    rep = check_zhu_consequences(level("psl2-2", F(-2)))
    assert rep.all_pass
    e = entry(rep, "zhu.module-list")
    assert e.computed == "[[[0], free], [[1], 1/2]]"


def test_zhu_consequences_spo23_m5():
    rep = check_zhu_consequences(level("spo2-3", F(-5, 4)))
    assert rep.all_pass
    e = entry(rep, "zhu.module-list")
    # free at j <= 1, pinned (2, 1/2) and (3, 3/4)
    assert e.computed == "[[[0], free], [[1], free], [[2], 1/2], [[3], 3/4]]"


def test_zhu_consequences_wrong_algebra():
    with pytest.raises(ValueError):
        check_zhu_consequences(level("f4", F(-4, 3)))


def test_full_grid_green():
    for name in GRID:
        aid = AlgebraId.parse(name)
        for k in standard_levels(aid, 10):
            rep = run_level_ledger(level(name, k))
            assert rep.all_pass, (name, k, [e.line() for e in rep.failures()])


def test_failing_integrability_step_names_the_weight(monkeypatch):
    true_values = ledger.theta_values
    monkeypatch.setattr(ledger, "theta_values",
                        lambda lvl, nu: tuple(v + nu.coeffs[0] for v in true_values(lvl, nu)))
    e = entry(check_affine_pairings(level("spo2-3", F(-1))), "affine.integrability-step")
    assert not e.passed and e.computed == "nu=(1) h=0"


def per_level_affine_pairings(lvl):
    """check_affine_pairings as it was before its k-free weights and
    pairings were kept per algebra: every affine weight built, and every
    pairing made, at each level."""
    alg = lvl.alg
    name, k, M = alg.id.name, lvl.k, level_M(lvl)
    rep = Report(name, k)
    alpha1 = AffineWeight(alg.alpha1)
    theta = AffineWeight(alg.theta)
    delta = AffineWeight(0 * alg.theta, 0, 1)
    k_lambda0 = AffineWeight(0 * alg.theta, k, 0)
    lam_prime = k_lambda0 - delta + theta - alpha1
    alpha0 = delta - theta
    etas = [delta - AffineWeight(t) for t in alg.theta_i]
    for i, (theta_i, eta) in enumerate(zip(alg.theta_i, etas)):
        rep.add(f"affine.level-pairing[{i + 1}]",
                formula="(Lambda'|eta_i-coroot) = M_i(k)",
                expected=M[i], computed=affine_coroot_pair(lam_prime, eta))
        rep.add(f"affine.vacuum-eta[{i + 1}]",
                formula="(k Lambda_0|eta_i-coroot) = M_i(k) - chi_i",
                expected=M[i] - alg.chi[i], computed=affine_coroot_pair(k_lambda0, eta))
        rep.add(f"affine.xi-restriction[{i + 1}]",
                formula="(alpha_1|theta_i-coroot) = -xi(theta_i-coroot)",
                expected=-coroot_pair(alg.xi, theta_i),
                computed=coroot_pair(alg.alpha1, theta_i))
        lam_triple = k_lambda0 - (M[i] + 1) * eta - delta + theta - alpha1
        if not alg.id.spec.fermionic_generator:
            rep.add(f"affine.nonvanishing-linear[{i + 1}]",
                    formula="(Lambda'''_i|alpha_1) = -k + 1",
                    expected=-k + 1, computed=affine_pair(lam_triple, alpha1))
        else:
            rep.add("spo23.nonvanishing-a0a1",
                    formula="(mu|alpha_0 + alpha_1) = -k - 1/2",
                    expected=-k - F(1, 2), computed=affine_pair(lam_triple, alpha0 + alpha1))
            rep.add("spo23.nonvanishing-alpha1",
                    formula="(k Lambda_0 - (M_1+1)(delta - theta_1)|alpha_1) = (M_1+1)/2",
                    expected=(M[0] + 1) / 2,
                    computed=affine_pair(k_lambda0 - (M[0] + 1) * eta, alpha1))
    rep.add("affine.integrability-step",
            formula="(nu_h - alpha_1 [- alpha_0]|eta_i-coroot) = M_i(k) - nu(theta_i-coroot)",
            expected=True, computed=two_sample_integrability_step(lvl))
    return rep


def two_sample_integrability_step(lvl):
    """The computed value of affine.integrability-step as it was before the
    vacuum identity was checked by its two coefficients in h: the identity
    evaluated at the samples h = 0 and h = k - 1/3, with its h term
    h (theta_hat|eta_i) formed as h t / E, verbatim but for the affine
    weights and pairings, which it builds itself."""
    alg, k, M = lvl.alg, lvl.k, level_M(lvl)
    alpha1, theta = AffineWeight(alg.alpha1), AffineWeight(alg.theta)
    delta = AffineWeight(0 * alg.theta, 0, 1)
    k_lambda0, alpha0 = AffineWeight(0 * alg.theta, k, 0), delta - theta
    etas = [delta - AffineWeight(t) for t in alg.theta_i]
    samples = (F(0), k - F(1, 3))
    c = classify._ambient_constants(alg.id)
    pairings = [[affine_pair(x, eta) for x in (k_lambda0, alpha1 + alpha0, alpha1, eta)]
                for eta in etas]
    vacuum_failures = [h for h in samples if any(
        2 * (h * t / c.E + lk - a) != m * n
        for m, t, (lk, *a_pairs, n) in zip(M, c.theta_eta, pairings) for a in a_pairs)]

    def step_failures():
        cone = enumerate_Pk(lvl)
        yield from ((nu, h) for nu in cone[:1] for h in vacuum_failures)
        for nu in cone:
            if any(v.numerator * N != 2 * T * v.denominator for v, T, N
                   in zip(theta_values(lvl, nu), nu._theta_i, c.theta_i_norms)):
                yield nu, samples[0]

    return first_failure(step_failures())


# one algebra of each FAMILY_TABLE row: one and two summands, and spo2-3's
# fermionic generator
@pytest.mark.parametrize("name", ["psl2-2", "spo2-3", "spo2-5", "d21-2-1", "f4", "g3"])
def test_affine_constants_per_algebra_match_the_per_level_construction(name):
    """The k-free affine weights and pairings are built once per algebra,
    in a module-level lru_cache keyed on the AlgebraId; at two levels of the
    algebra, check_affine_pairings gives the entries of the construction
    that built them at every level."""
    assert hasattr(ledger._affine_constants, "cache_clear")  # seen by the cache tests
    aid = AlgebraId.parse(name)
    ledger._affine_constants.cache_clear()
    for k in standard_levels(aid, 2):
        lvl = level(aid, k)
        assert check_affine_pairings(lvl).entries == per_level_affine_pairings(lvl).entries
    info = ledger._affine_constants.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def integrability_step(lvl):
    return entry(check_affine_pairings(lvl), "affine.integrability-step").computed


def test_integrability_step_matches_the_two_sample_form_on_the_grid():
    """At all 74 levels of selfcheck --all, the vacuum identity checked by
    its two coefficients in h gives the computed value of the two samples."""
    levels = list(cli._selfcheck_levels(True))
    assert len(levels) == 74
    for lvl in levels:
        want = render_value(two_sample_integrability_step(lvl))
        assert integrability_step(lvl) == want == "true", (lvl.name, lvl.k)


@pytest.mark.parametrize("field,shift,fails", [
    ("rho", lambda alg: F(1, 7) * alg.theta, False),
    ("theta", lambda alg: F(1, 3) * alg.theta_i[0], True),
    ("xi", lambda alg: F(1, 5) * alg.natural_simple[0].weight, False),
    ("xi", lambda alg: -2 * alg.natural_simple[-1].weight, False),
    ("xi", lambda alg: F(3, 2) * alg.theta_i[0], False),
], ids=["rho+theta/7", "theta+theta_1/3", "xi+alpha_nat_1/5", "xi-2alpha_nat_last",
        "xi+3/2theta_1"])
def test_integrability_step_matches_the_two_sample_form_on_a_mutated_algebra(
        monkeypatch, field, shift, fails):
    """Under each shift of the algebra data that test_classify makes, at two
    levels of one algebra per FAMILY_TABLE row: the same computed value as
    the two samples, failing or not."""
    with mutated_algebras(monkeypatch, field, shift):
        for name in MUTATION_LEVELS:
            for k in standard_levels(AlgebraId.parse(name), 2):
                lvl = level(name, k)
                got = integrability_step(lvl)
                assert got == render_value(two_sample_integrability_step(lvl)), (name, k)
                assert (got != "true") is fails, (name, k, got)


@pytest.mark.parametrize("name", MUTATION_LEVELS)
def test_a_nonzero_h_coefficient_fails_the_step_at_h_0(monkeypatch, name):
    """E (theta_hat|eta_i) raised by 1, and nothing else: the constant term
    of the vacuum identity still holds, so the h coefficient alone fails.
    The two samples named h = k - 1/3 here; the step names h = 0."""
    true_constants = classify._ambient_constants

    def raised(aid):
        c = true_constants(aid)
        return c._replace(theta_eta=tuple(t + 1 for t in c.theta_eta))

    monkeypatch.setattr(classify, "_ambient_constants", raised)
    monkeypatch.setattr(ledger, "_ambient_constants", raised)
    aid = AlgebraId.parse(name)
    lvl = level(aid, standard_levels(aid, 2)[1])
    zero = "nu=(" + ",".join("0" * lvl.alg.rank_natural) + ")"
    assert integrability_step(lvl) == f"{zero} h=0"
    assert two_sample_integrability_step(lvl) == f"{zero} h={render_value(lvl.k - F(1, 3))}"
