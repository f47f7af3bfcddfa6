"""Regression ledger: the weight-arithmetic identities behind the
classification, re-verified as exact assertions.

Only weights and pairings are computed here; no statement about actual
singular vectors or module structure is made.  Check ids are stable strings
so golden reports diff cleanly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .affine import AffineWeight, affine_pair
from .catalog import AlgebraId, build_algebra, coroot_pair
from .classify import (A_value, DominantWeight, Level, _ambient_constants,
                       classify_w_modules, enumerate_Pk, first_failure,
                       level_M, table_M, theta_values)
from .report import Report
from .scalars import rational_str, solve_linear, vector

__all__ = [
    "check_singular_weights",
    "check_affine_pairings",
    "check_d21_cone",
    "check_zhu_consequences",
    "run_level_ledger",
]


def check_singular_weights(lvl: Level) -> Report:
    """Weights of the maximal-ideal generators, by mode bookkeeping.

    The generator attached to summand i is built from M_i(k) + 1 current
    modes of weight (theta_i, 1), so its W-weight is ((M_i+1) theta_i,
    M_i+1).  For spo2-3 the generator instead uses M_1(k) - 1 current modes
    and one fermionic mode of weight (xi, 3/2), giving (2(m-2) omega_1,
    m - 3/2) with m = M_1(k) + 2.
    """
    alg = lvl.alg
    rep = Report(alg.id.name, lvl.k)
    M = level_M(lvl)
    M_closed = table_M(lvl)

    for i, theta_i in enumerate(alg.theta_i):
        n_modes = M[i] + 1
        built_weight = n_modes * theta_i
        built_energy = n_modes * Fraction(1)
        rep.add(f"ideal.generator-weight[{i + 1}]",
                formula="(M_i+1) current modes give W-weight ((M_i+1) theta_i, M_i+1)",
                expected=(tuple(((M_closed[i] + 1) * theta_i).coords), M_closed[i] + 1),
                computed=(tuple(built_weight.coords), built_energy))

    if alg.id.spec.fermionic_generator:
        m = M[0] + 2
        built = (M[0] - 1) * alg.theta_i[0] + alg.xi
        built_energy = (M[0] - 1) + Fraction(3, 2)
        omega1 = alg.natural_fundamental[0]
        rep.add("ideal.spo23-generator-weight",
                formula="(M_1-1) current modes plus one fermionic mode give (2(m-2) omega_1, m-3/2)",
                expected=(tuple((2 * (m - 2) * omega1).coords), m - Fraction(3, 2)),
                computed=(tuple(built.coords), built_energy))
    return rep


@lru_cache(maxsize=None)
def _affine_constants(aid: AlgebraId):
    # the k-free weights and pairings of check_affine_pairings: alpha_1,
    # alpha_0 + alpha_1, Lambda' - k Lambda_0 = theta - alpha_1 - delta, and
    # per summand eta_i = delta - theta_i, (eta_i|eta_i), (alpha_1 +
    # alpha_0|eta_i), (alpha_1|eta_i), -xi(theta_i-coroot) and
    # alpha_1(theta_i-coroot)
    alg = build_algebra(aid)
    alpha1, theta = AffineWeight(alg.alpha1), AffineWeight(alg.theta)
    delta = AffineWeight(0 * alg.theta, 0, 1)
    alpha01 = delta - theta + alpha1
    etas = [delta - AffineWeight(t) for t in alg.theta_i]
    return alpha1, alpha01, theta - alpha1 - delta, tuple(
        (eta, affine_pair(eta, eta), affine_pair(alpha01, eta), affine_pair(alpha1, eta),
         -coroot_pair(alg.xi, t), coroot_pair(alg.alpha1, t))
        for eta, t in zip(etas, alg.theta_i))


def check_affine_pairings(lvl: Level) -> Report:
    """Affine pairing scalars used by the descent and ideal arguments."""
    alg, k = lvl.alg, lvl.k
    rep = Report(alg.id.name, k)
    M = level_M(lvl)
    fermionic = alg.id.spec.fermionic_generator
    # the k-free part is the algebra's; per level only k Lambda_0, Lambda'
    # and Lambda'''_i are built and paired
    alpha1, alpha01, shift, summands = _affine_constants(alg.id)
    k_lambda0 = AffineWeight(0 * alg.theta, k, 0)
    lam_prime = k_lambda0 + shift
    k_pairs = [affine_pair(k_lambda0, eta) for eta, *_ in summands]  # (k Lambda_0|eta_i)

    for i, (eta, norm, _, _, xi_value, alpha1_value) in enumerate(summands):
        rep.add(f"affine.level-pairing[{i + 1}]", formula="(Lambda'|eta_i-coroot) = M_i(k)",
                expected=M[i], computed=2 * affine_pair(lam_prime, eta) / norm)

        rep.add(f"affine.vacuum-eta[{i + 1}]", formula="(k Lambda_0|eta_i-coroot) = M_i(k) - chi_i",
                expected=M[i] - alg.chi[i], computed=2 * k_pairs[i] / norm)

        rep.add(f"affine.xi-restriction[{i + 1}]",
                formula="(alpha_1|theta_i-coroot) = -xi(theta_i-coroot)",
                expected=xi_value, computed=alpha1_value)

        lam_triple = lam_prime - (M[i] + 1) * eta
        if not fermionic:
            rep.add(f"affine.nonvanishing-linear[{i + 1}]",
                    formula="(Lambda'''_i|alpha_1) = -k + 1",
                    expected=-k + 1, computed=affine_pair(lam_triple, alpha1))
        else:
            rep.add("spo23.nonvanishing-a0a1", formula="(mu|alpha_0 + alpha_1) = -k - 1/2",
                    expected=-k - Fraction(1, 2),
                    computed=affine_pair(lam_triple, alpha01))
            rep.add("spo23.nonvanishing-alpha1",
                    formula="(k Lambda_0 - (M_1+1)(delta - theta_1)|alpha_1) = (M_1+1)/2",
                    expected=(M[0] + 1) / 2,
                    computed=affine_pair(k_lambda0 - (M[0] + 1) * eta, alpha1))

    # The step pairs nu_h - alpha_1 [- alpha_0] with the eta_i-coroot, for
    # nu_h = h theta_hat + w + k Lambda_0.  By bilinearity, and since
    # (w|eta_i) = -(w|theta_i) and (eta_i|eta_i) = (theta_i|theta_i), it
    # splits into the vacuum identity (h theta_hat + k Lambda_0 - a|eta_i-coroot)
    # = M_i(k) for a = alpha_1 [+ alpha_0], once per level, and per weight
    # the integer equation v_i N_i = 2 T_i, with v_i = nu(theta_i-coroot),
    # T_i = E (w|theta_i) and N_i = E (theta_i|theta_i).  The vacuum identity
    # is linear in h, so it is checked by its coefficients: the constant
    # 2 ((k Lambda_0|eta_i) - (a|eta_i)) = M_i (eta_i|eta_i) for both a, and
    # E (theta_hat|eta_i) = 0.  Its failure is named at the zero weight, where
    # the cone starts, and h = 0, where a nonzero (theta_hat|eta_i) =
    # -(alpha_0|eta_i) already fails one a.  Past it, the step is free of h.
    c = _ambient_constants(alg.id)  # E (theta_hat|eta_i) and N_i
    vacuum = all(not t and 2 * (lk - a) == m * n
                 for m, t, lk, (_, n, *a_pairs, _, _) in zip(M, c.theta_eta, k_pairs, summands)
                 for a in a_pairs)
    h0 = Fraction(0)

    def step_failures():
        cone = enumerate_Pk(lvl)
        yield from ((nu, h0) for nu in cone[:1] if not vacuum)
        for nu in cone:
            if any(v.numerator * N != 2 * T * v.denominator for v, T, N
                   in zip(theta_values(lvl, nu), nu._theta_i, c.theta_i_norms)):
                yield nu, h0

    rep.add("affine.integrability-step",
            formula="(nu_h - alpha_1 [- alpha_0]|eta_i-coroot) = M_i(k) - nu(theta_i-coroot)",
            expected=True, computed=first_failure(step_failures()))

    return rep


def check_d21_cone(m: int, n: int, q: int) -> Report:
    """Cone coefficients in the two-generator comparison for d21.

    Writes (mq alpha_2, mq) - (nq alpha_3, nq) over the weight cone basis
    {(-alpha_2, 0), (-alpha_3, 0), ((alpha_2+alpha_3)/2, 1/2)} by an exact
    3x3 solve; the coefficients are (-nq, mq, 2(m-n)q), so the first one is
    negative and the comparison is impossible.
    """
    if m <= n:
        raise ValueError("the d21 cone argument assumes m > n")
    if gcd(m, n) != 1:
        raise ValueError("d21 parameters must be coprime")
    if q < 1:
        raise ValueError("q must be a positive integer")
    rep = Report(f"d21-{m}-{n}", Fraction(-q * m * n, m + n))
    # columns in coordinates (alpha_2 coefficient, alpha_3 coefficient, energy)
    half = Fraction(1, 2)
    a = (
        vector([-1, 0, half]),
        vector([0, -1, half]),
        vector([0, 0, half]),
    )
    b = vector([m * q, -n * q, (m - n) * q])
    solution = solve_linear(a, b)
    rep.add("d21.cone-coefficients",
            formula="(mq alpha_2, mq) - (nq alpha_3, nq) over the cone basis",
            expected=vector([-n * q, m * q, 2 * (m - n) * q]),
            computed=solution)
    rep.add("d21.cone-negative", formula="the first cone coefficient is negative",
            expected=True, computed=solution[0] < 0)
    return rep


def check_zhu_consequences(lvl: Level) -> Report:
    """Numeric consequences of the top-component relations.

    For spo2-3 at k = -m/4 the extremal thresholds are A(k, j omega_1) = j/4
    at j = m-3 and m-2, and the complete W-list is the free family for
    j <= m-4 plus those two pinned labels.  For psl2-2 at k = -m-1 the single
    extremal label is (m omega_1, m/2) on top of the free family j <= m-1.
    """
    alg = lvl.alg
    aid = alg.id
    if not aid.spec.zhu:
        raise ValueError("zhu consequences are recorded for spo2-3 and psl2-2 only")
    rep = Report(aid.name, lvl.k)
    M = level_M(lvl)

    if aid.spec.fermionic_generator:  # spo2-3: two pinned labels
        m = M[0] + 2
        pinned = [j for j in (m - 3, m - 2) if j >= 0]
        quarter = Fraction(1, 4)
        for j in pinned:
            rep.add(f"zhu.threshold[j={j}]", formula="A(-m/4, j omega_1) = j/4 at j in {m-3, m-2}",
                    expected=j * quarter,
                    computed=A_value(lvl, DominantWeight(aid, (int(j),))))
        expected_list = [((int(j),), "free") for j in range(int(m) - 3)]
        expected_list += [((int(j),), rational_str(j * quarter)) for j in pinned]
    else:
        m = M[0]
        rep.add(f"zhu.threshold[j={m}]", formula="A(-m-1, m omega_1) = m/2",
                expected=m / 2,
                computed=A_value(lvl, DominantWeight(aid, (int(m),))))
        expected_list = [((int(j),), "free") for j in range(int(m))]
        expected_list += [((int(m),), rational_str(m / 2))]

    computed_list = [
        (rec.nu.coeffs, "free" if rec.ell0 is None else rational_str(rec.ell0))
        for rec in classify_w_modules(lvl)
    ]
    rep.add("zhu.module-list",
            formula="the classified W-list matches the explicit top-component list",
            expected=expected_list, computed=computed_list)
    return rep


def run_level_ledger(lvl: Level) -> Report:
    """All level-dependent ledger checks applicable to this algebra."""
    rep = Report()
    rep.extend(check_singular_weights(lvl))
    rep.extend(check_affine_pairings(lvl))
    if lvl.alg.id.spec.zhu:
        rep.extend(check_zhu_consequences(lvl))
    return rep
