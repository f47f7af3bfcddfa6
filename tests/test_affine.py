from fractions import Fraction as F

import pytest

from walg.affine import (AffineRoot, AffineWeight, ReflectionError,
                         affine_coroot_pair, affine_pair, affine_simple_roots,
                         eta_membership_check, odd_reflect, reflected_base,
                         simple_root_set_json)
from walg.catalog import (AlgebraId, AlgebraMismatchError, IsotropyError,
                          Weight, build_algebra)

ALL_NAMES = ["psl2-2", "spo2-3", "spo2-5", "spo2-6", "spo2-7", "spo2-8",
             "d21-2-1", "d21-3-1", "d21-3-2", "d21-5-2", "d21-5-3", "f4", "g3"]


def alg(name):
    return build_algebra(AlgebraId.parse(name))


def test_pairing_conventions():
    a = alg("spo2-3")
    zero = Weight(a.id, [0] * a.id.dim)
    lam0 = AffineWeight(zero, 1, 0)
    delta = AffineWeight(zero, 0, 1)
    assert affine_pair(lam0, lam0) == 0
    assert affine_pair(delta, delta) == 0
    assert affine_pair(lam0, delta) == 1
    assert affine_pair(lam0, AffineWeight(a.theta)) == 0
    assert affine_pair(delta, AffineWeight(a.theta)) == 0


@pytest.mark.parametrize("name,k,h", [("spo2-3", F(-1), F(2, 3)),
                                      ("psl2-2", F(-2), F(-1, 2)),
                                      ("g3", F(-3, 2), F(5))])
def test_alpha0_pairing_is_k_minus_2h(name, k, h):
    a = alg(name)
    nu_hat = AffineWeight(h * a.theta, k, 0)
    alpha0 = AffineWeight(-a.theta, 0, 1)
    assert affine_pair(nu_hat, alpha0) == k - 2 * h
    # alpha_0 has square length 2, so this is also the coroot pairing
    assert affine_pair(alpha0, alpha0) == 2


def test_vacuum_norm_vanishes():
    a = alg("f4")
    k = F(-4, 3)
    k_lam0 = AffineWeight(Weight(a.id, [0] * a.id.dim), k, 0)
    rho_hat = AffineWeight(a.rho, a.h_check, 0)
    assert affine_pair(k_lam0, k_lam0 + 2 * rho_hat) == 0


def test_psl22_single_reflection_frozen():
    a = alg("psl2-2")
    pi = affine_simple_roots(a)
    alpha1 = pi[1]
    out = odd_reflect(pi, alpha1)

    def aw(coords, delta_mult=0):
        return AffineWeight(Weight(a.id, coords), 0, delta_mult)

    # slots: alpha_0 + beta, -beta, alpha_2 + beta, alpha_3 untouched
    assert out[0].weight == aw([0, 1, -1, 0], 1)    # delta - theta + (e1 - d1)
    assert out[1].weight == aw([-1, 0, 1, 0])       # d1 - e1
    assert out[2].weight == aw([1, 0, 0, -1])       # e1 - d2
    assert out[3].weight == aw([0, -1, 0, 1])       # d2 - e2
    assert [r.parity for r in out] == ["odd", "odd", "odd", "odd"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_reflection_is_involutive(name):
    pi = affine_simple_roots(alg(name))
    beta = pi[1]
    once = odd_reflect(pi, beta)
    minus_beta = once[1]
    assert minus_beta.weight == -beta.weight
    assert odd_reflect(once, minus_beta) == pi


@pytest.mark.parametrize("name", ALL_NAMES)
def test_reflection_preserves_cardinality(name):
    a = alg(name)
    pi = affine_simple_roots(a)
    out = odd_reflect(pi, pi[1])
    assert len(out) == len(pi)
    assert len(reflected_base(a)) == len(pi)


def test_psl22_reflection_preserves_offdiagonal_pairings():
    # a sample regression: for psl2-2 both reflections leave the multiset of
    # mutual pairings between distinct base members unchanged (self-pairings
    # change by design: isotropy moves around the base)
    a = alg("psl2-2")
    pi = affine_simple_roots(a)

    def offdiag(base):
        return sorted(affine_pair(r.weight, s.weight)
                      for i, r in enumerate(base)
                      for j, s in enumerate(base) if i != j)

    assert offdiag(odd_reflect(pi, pi[1])) == offdiag(pi)
    assert offdiag(reflected_base(a)) == offdiag(pi)


def test_reflect_errors():
    a = alg("spo2-3")
    pi = affine_simple_roots(a)
    with pytest.raises(ReflectionError):
        odd_reflect(pi, pi[0])          # alpha_0 is even
    with pytest.raises(ReflectionError):
        odd_reflect(pi[:1] + pi[2:], pi[1])   # beta must belong to the base
    stray = AffineRoot(AffineWeight(a.theta_i[0]), "odd")
    with pytest.raises(ReflectionError):
        odd_reflect(pi, stray)
    with pytest.raises(ReflectionError, match="^odd reflection needs an isotropic root$"):
        odd_reflect(pi + (stray,), stray)  # a member, odd, but (theta_1|theta_1) != 0


def test_affine_weights_of_two_algebras_do_not_mix():
    f4, g3 = AffineWeight(alg("f4").theta), AffineWeight(alg("g3").theta)
    with pytest.raises(AlgebraMismatchError, match="^cannot combine f4 and g3 weights$"):
        f4 + g3
    with pytest.raises(AlgebraMismatchError, match="^cannot combine f4 and g3 weights$"):
        f4 - g3
    with pytest.raises(AlgebraMismatchError, match="^cannot pair f4 with g3$"):
        affine_pair(f4, g3)


def test_affine_coroot_pair_rejects_isotropic():
    a = alg("spo2-3")
    alpha1 = affine_simple_roots(a)[1]
    with pytest.raises(IsotropyError,
                       match="^coroot pairing against an isotropic affine root$"):
        affine_coroot_pair(AffineWeight(a.theta), alpha1)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_eta_membership(name):
    report = eta_membership_check(alg(name))
    assert report.all_pass, [e.line() for e in report.failures()]


def test_eta_membership_specific_families():
    for name in ("spo2-7", "d21-3-2", "g3"):
        report = eta_membership_check(alg(name))
        assert len(report.entries) == alg(name).summands
        assert report.all_pass


@pytest.mark.parametrize("name", ALL_NAMES)
def test_theta_alpha1_pairing_is_one(name):
    from walg.catalog import pair
    a = alg(name)
    assert pair(a.theta, a.alpha1) == 1
    assert pair(a.alpha1, a.alpha1) == 0


def test_simple_root_set_json_shape():
    a = alg("d21-2-1")
    data = simple_root_set_json(reflected_base(a))
    assert all(set(d) == {"coords", "delta_mult", "parity"} for d in data)
    assert all(isinstance(d["delta_mult"], int) for d in data)


def test_affine_root_validation():
    a = alg("g3")
    zero = Weight(a.id, [0] * a.id.dim)
    with pytest.raises(ValueError):
        AffineRoot(AffineWeight(zero, 1, 0), "even")  # Lambda_0 part
    with pytest.raises(ValueError):
        AffineRoot(AffineWeight(zero, 0, F(1, 2)), "even")  # fractional delta
    with pytest.raises(ValueError, match="^parity must be 'even' or 'odd', got 'x'$"):
        AffineRoot(AffineWeight(a.theta), "x")
