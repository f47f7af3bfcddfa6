"""Levels, unitarity ranges, weight enumeration, and module classification.

A level is admissible ("in the unitarity range") when -k lies in the
family's arithmetic progression; on that range the affine levels
M_i(k) = 2k/(theta_i|theta_i) + chi_i are nonnegative integers.  For a
dominant integral weight nu of g-natural with nu(theta_i-coroot) <= M_i(k)
for all i, nu is extremal when nu(theta_i-coroot) > M_i(k) + chi_i for some
i, equivalently when nu + xi leaves the truncated dominant cone.

Highest-weight module labels:

* affine labels (nu, h): admissible iff nu is non-extremal (any h) or nu is
  extremal and h lies in {(xi|nu), k + 1 - (xi|nu)};
* W-algebra labels (nu, ell0): admissible iff nu is non-extremal (any ell0,
  a genuine one-parameter family) or nu is extremal and ell0 equals the
  threshold A(k, nu).  The same list is the complete list of irreducible
  positive-energy modules.

Everything is exact: k, h, ell0 are rationals, and each predicate is a
polynomial identity valid verbatim over any field extension.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, gt, le, mul
from typing import Iterable, NamedTuple, Optional

from .affine import AffineWeight, affine_pair
from .catalog import (AlgebraData, AlgebraId, AlgebraMismatchError, Weight,
                      _weight_sum, build_algebra, coroot_pair, pair)
from .report import Report
from .scalars import Frozen, fact, rational, rational_str, set_field

__all__ = [
    "Level",
    "level",
    "DominantWeight",
    "AffineModuleLabel",
    "WModuleLabel",
    "Verdict",
    "CriticalLevelError",
    "RangeError",
    "in_unitarity_range",
    "level_M",
    "table_M",
    "enumerate_Pk",
    "count_Pk",
    "in_truncated_cone",
    "theta_values",
    "is_extremal",
    "A_value",
    "ell0",
    "extremal_h_set",
    "affine_module_descends",
    "w_module_exists",
    "hamiltonian_reduce",
    "unitarity_verdict",
    "WModuleRecord",
    "AffineModuleRecord",
    "classify_w_modules",
    "classify_affine_modules",
    "standard_levels",
    "cross_identity_report",
    "first_failure",
]


# The most weights Level.cone enumerates: 15 times the largest document of
# the benchmark and the golden tests (6,391 records), while the cones a few
# levels deeper run to millions of weights
MAX_CONE = 100_000


class CriticalLevelError(ValueError):
    """k = -h_check is excluded everywhere."""


class RangeError(ValueError):
    """A precondition on the unitarity range or the dominant cone failed."""


class Level(Frozen):
    """One level k of one algebra.

    Construction sets the facts of k = p/q on integers, as plain attributes:
    in_range, and per summand the (numerator, denominator > 0) of M_i(k)
    (_M_ratios) and of M_i(k) + chi_i (_margin_ratios), and the floors of
    both (_floors).  The truncated cone and the k constants of A and ell0
    are computed on first use and kept on the instance.
    """

    def __init__(self, alg: AlgebraData, k: Fraction):
        k = rational(k)
        if k == -alg.h_check:
            raise CriticalLevelError(
                f"critical level k = {rational_str(k)} for {alg.id.name}")
        aid = alg.id
        step, n0 = aid.spec.progression(aid.m, aid.n)
        (p, q), (a, b) = k.as_integer_ratio(), step.as_integer_ratio()
        M, margins = [], []
        for slope, chi in zip(alg.slopes, alg.chi):
            # M_i(k) = slope_i k + chi_i = (s e p + c t q) / (t e q) for
            # slope_i = s/t and chi_i = c/e, and M_i(k) + chi_i adds c t q
            (s, t), (c, e) = slope.as_integer_ratio(), chi.as_integer_ratio()
            n, ctq = s * e * p, c * t * q
            M.append((n + ctq, t * e * q))
            margins.append((n + 2 * ctq, t * e * q))
        # in range: -k = step n for an integer n >= n0, so with step = a/b,
        # q a divides -p b and -p b >= n0 q a.  An integer exceeds a
        # rational exactly when it exceeds the rational's floor.
        vars(self).update(
            alg=alg, k=k, in_range=-p * b % (q * a) == 0 and -p * b >= n0 * q * a,
            _M_ratios=tuple(M), _margin_ratios=tuple(margins),
            _floors=(tuple(n // d for n, d in M), tuple(n // d for n, d in margins)))

    @property
    def name(self) -> str:
        return self.alg.id.name

    @property
    def M(self) -> tuple[Fraction, ...]:
        """Affine levels M_i(k) = 2k/(theta_i|theta_i) + chi_i."""
        return tuple(Fraction(n, d) for n, d in self._M_ratios)

    @fact
    def _A_consts(self) -> tuple[int, int, int, int]:
        # A = (u Q + X (v X - w)) / den for the integers Q and X of a weight
        # (see A_value): with k = p/q and h_check = a/b, u = q b D, v = 2 q b,
        # w = 2 b D (p + q) and den = 2 D^2 (p b + a q)
        D = _basis(self.alg.id).D
        (p, q), (a, b) = self.k.as_integer_ratio(), self.alg.h_check.as_integer_ratio()
        return q * b * D, 2 * q * b, 2 * b * D * (p + q), 2 * D * D * (p * b + a * q)

    @fact
    def _ell0_consts(self) -> tuple[int, int, int, int]:
        # ell0 = (c0 + c1 h + c2 h^2) / den (see _ell0_coeffs) with c0 = qb P
        # and c1 = 2 qb T + c for the integers P and T of a weight: with
        # k = p/q and h_check = a/b, qb = q b, den = 2 E (p b + a q),
        # c = qb R - den and c2 = qb N, from the ambient data, not _basis
        amb = _ambient_constants(self.alg.id)
        (p, q), (a, b) = self.k.as_integer_ratio(), self.alg.h_check.as_integer_ratio()
        qb, den = q * b, 2 * amb.E * (p * b + a * q)
        return qb, qb * amb.theta_two_rho - den, qb * amb.theta_theta, den

    @fact
    def cone(self) -> tuple[DominantWeight, ...]:
        """The truncated cone P_k, in lexicographic coefficient order.

        A depth-first walk over the coefficients: each summand keeps the
        budget M_i - sum_{b<a} c_b C[i][b] that the coefficients chosen so
        far leave, and c_a runs up to the least budget_i // C[i][a] over the
        summands that bound it (0 when none does).  Only feasible prefixes
        are visited.

        The walk fills in each weight's integer facts as it goes, each step
        in O(rank): the comark values M_i - budget_i (_comark_values), and
        Q and X of A (_A_ints), from the running gram.c with
        Q += c (two_rho[a] + 2 (gram.c)[a] + c gram[a][a]) and X += c xi[a].

        Every enumeration of the cone passes here, so here is its one size
        bound: a level off the unitarity range, or whose cone has more than
        MAX_CONE weights (counted first by count_Pk), raises RangeError.
        """
        count = count_Pk(self)
        if count > MAX_CONE:
            raise RangeError(
                f"the truncated cone of {self.name} at k = {rational_str(self.k)} has "
                f"{count} weights, more than the {MAX_CONE} that walg enumerates")
        aid = self.alg.id
        basis = _basis(aid)
        gram = basis.gram
        cols = tuple(zip(*basis.comarks))  # cols[a][i] = C[i][a]
        last = len(cols) - 1
        top = self._floors[0]
        out = []

        def walk(prefix, budgets, g, Q, X):
            # g = gram.c of the prefix, Q and X its threshold integers
            a = len(prefix)
            col = cols[a]
            cap = _cap(budgets, col)
            lin, diag, x = basis.two_rho[a] + 2 * g[a], gram[a][a], basis.xi[a]
            if a == last:
                # the comark values step by the column from c to c + 1
                spent = tuple(m - b for m, b in zip(top, budgets))
                for c in range(cap + 1):
                    out.append(_walked_weight(aid, prefix + (c,), spent,
                                              (Q + c * (lin + c * diag), X + c * x)))
                    spent = tuple(map(add, spent, col))
                return
            row = gram[a]
            for c in range(cap + 1):
                walk(prefix + (c,), tuple(b - c * r for b, r in zip(budgets, col)),
                     tuple(gb + c * ga for gb, ga in zip(g, row)),
                     Q + c * (lin + c * diag), X + c * x)

        walk((), top, (0,) * len(cols), 0, 0)
        return tuple(out)


def _cap(budgets: tuple[int, ...], col: tuple[int, ...]) -> int:
    """The largest c with c col <= budgets on every summand that bounds the
    coefficient (col[i] > 0); 0 when none does."""
    return min((b // r for b, r in zip(budgets, col) if r), default=0)


def level(algebra: AlgebraData | AlgebraId | str, k) -> Level:
    """Convenience constructor accepting an id, name, or built data."""
    if isinstance(algebra, str):
        algebra = build_algebra(AlgebraId.parse(algebra))
    elif isinstance(algebra, AlgebraId):
        algebra = build_algebra(algebra)
    return Level(algebra, rational(k))


def in_unitarity_range(lvl: Level) -> bool:
    """Is k in the unitarity range?  See Level.in_range."""
    return lvl.in_range


def level_M(lvl: Level) -> tuple[Fraction, ...]:
    """Affine levels M_i(k) = 2k/(theta_i|theta_i) + chi_i."""
    return lvl.M


def table_M(lvl: Level) -> tuple[Fraction, ...]:
    """The same levels by the per-family closed forms (cross-check)."""
    aid = lvl.alg.id
    slopes = aid.spec.M_slope(aid.m, aid.n)
    return tuple(s * lvl.k + c for s, c in zip(slopes, aid.spec.chi))


class DominantWeight(Frozen):
    """Nonnegative integer coefficients over the natural fundamental weights."""

    def __init__(self, algebra: AlgebraId, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if any(type(c) is not int for c in coeffs):
            raise TypeError(f"dominant weight coefficients must be ints, got {coeffs!r}")
        rank = algebra.rank_natural
        if len(coeffs) != rank:
            raise RangeError(
                f"{algebra.name} dominant weights take {rank} "
                f"coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise RangeError("dominant weight coefficients must be nonnegative")
        vars(self).update(algebra=algebra, coeffs=coeffs)

    def weight(self) -> Weight:
        """sum_a c_a omega_a in ambient coordinates, computed once per instance."""
        return self._weight

    @fact
    def _weight(self) -> Weight:
        alg = build_algebra(self.algebra)
        return _weight_sum(alg.id, zip(self.coeffs, alg.natural_fundamental))

    # The integers of the basis path: computed on first use from _Basis and
    # kept on the instance; none depends on k.

    @fact
    def _comark_values(self) -> tuple[int, ...]:  # nu(theta_i-coroot) per summand
        return tuple(_dot(self.coeffs, row) for row in _basis(self.algebra).comarks)

    @fact
    def _A_ints(self) -> tuple[int, int]:  # D (nu|nu + 2 rho_nat), D (xi|nu)
        basis, c = _basis(self.algebra), self.coeffs
        Q = sum(ca * (r + _dot(row, c)) for ca, r, row in zip(c, basis.two_rho, basis.gram) if ca)
        return Q, _dot(basis.xi, c)

    # The ambient pairings of w = weight() that the oracle reads, on the
    # integers of _Ambient: L w, then E times each pairing.  Each is computed
    # on first use and kept on the instance; none depends on k.

    @fact
    def _scaled(self) -> tuple[int, ...]:  # L w
        return tuple(_dot(self.coeffs, col) for col in _ambient_constants(self.algebra).omega)

    @fact
    def _norm(self) -> int:  # E (w|w + 2 rho)
        c = _ambient_constants(self.algebra)  # L w . (G' L w + G' L 2 rho)
        g_w = (_dot(self.coeffs, col) + r for col, r in zip(c.g_omega, c.g_two_rho))
        return _dot(self._scaled, g_w)

    @fact
    def _theta(self) -> int:  # E (theta|w)
        return _dot(self._scaled, _ambient_constants(self.algebra).g_theta)

    @fact
    def _theta_i(self) -> tuple[int, ...]:  # E (w|theta_i) per summand
        return tuple(_dot(self._scaled, t) for t in _ambient_constants(self.algebra).g_theta_i)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)  # the coefficients are nonnegative ints


def _walked_weight(aid: AlgebraId, coeffs: tuple[int, ...], comark_values: tuple[int, ...],
                   A_ints: tuple[int, int]) -> DominantWeight:
    """A weight of Level.cone with the facts of the walk in place.  The walk
    makes only nonnegative int coefficients of the right length, so the
    public checks are skipped; the weight equals and hashes as
    DominantWeight(aid, coeffs)."""
    nu = object.__new__(DominantWeight)
    vars(nu).update(algebra=aid, coeffs=coeffs, _comark_values=comark_values, _A_ints=A_ints)
    return nu


class _Basis(NamedTuple):
    """Integer data of one algebra over its natural fundamental weights omega_a.

    D is the least common denominator of the pairings, so that
    gram[a][b] = D (omega_a|omega_b), two_rho[a] = D (omega_a|2 rho_nat) and
    xi[a] = D (xi|omega_a) are integers.
    """

    comarks: tuple[tuple[int, ...], ...]  # C[i][a] = omega_a(theta_i-coroot) >= 0
    D: int
    gram: tuple[tuple[int, ...], ...]
    two_rho: tuple[int, ...]
    xi: tuple[int, ...]


@lru_cache(maxsize=None)
def _basis(aid: AlgebraId) -> _Basis:
    alg = build_algebra(aid)
    omegas = alg.natural_fundamental
    comarks = []
    for t in alg.theta_i:
        row = tuple(coroot_pair(omega, t) for omega in omegas)
        if any(v.denominator != 1 or v < 0 for v in row):
            raise RangeError(f"non-integral comark in {row} for {aid.name}")
        comarks.append(tuple(map(int, row)))
    gram = [[pair(a, b) for b in omegas] for a in omegas]
    two_rho = [pair(omega, 2 * alg.rho_nat) for omega in omegas]
    xi = [pair(alg.xi, omega) for omega in omegas]
    D = lcm(*(v.denominator for v in [*two_rho, *xi, *(g for row in gram for g in row)]))
    return _Basis(
        comarks=tuple(comarks),
        D=D,
        gram=tuple(tuple(int(D * g) for g in row) for row in gram),
        two_rho=tuple(int(D * v) for v in two_rho),
        xi=tuple(int(D * v) for v in xi))


def _label_algebra(lvl: Level, nu: DominantWeight) -> AlgebraId:
    """The level's algebra, once nu is known to belong to it."""
    aid = lvl.alg.id
    if nu.algebra is not aid and nu.algebra != aid:
        raise AlgebraMismatchError(f"a {nu.algebra} weight at a {aid} level")
    return aid


def theta_values(lvl: Level, nu: DominantWeight) -> tuple[Fraction, ...]:
    """nu(theta_i-coroot) per summand (integers for catalog weights)."""
    _label_algebra(lvl, nu)
    return tuple(map(Fraction, nu._comark_values))


def _require_range(lvl: Level):
    if not lvl.in_range:
        raise RangeError(
            f"k = {rational_str(lvl.k)} is outside the unitarity range of {lvl.name}")


def enumerate_Pk(lvl: Level) -> tuple[DominantWeight, ...]:
    """All dominant integral nu with nu(theta_i-coroot) <= M_i(k), in
    lexicographic coefficient order."""
    return lvl.cone


def count_Pk(lvl: Level) -> int:
    """len(enumerate_Pk(lvl)), without enumerating the cone, so also for a
    cone of more than MAX_CONE weights, which enumerate_Pk refuses.  Raises
    RangeError off the unitarity range.

    A dynamic program over the comark rows of the cone walk: with f(a, B)
    the number of ways to choose c_a, c_{a+1}, ... within the budgets B,
    f(a, B) = f(a + 1, B) + f(a, B - C[.][a]) while c_a can still grow.
    The memo holds one count per reachable (a, B) and lives for the call,
    so the work is O(rank) per budget vector reached, not per weight.
    """
    _require_range(lvl)
    cols = tuple(zip(*_basis(lvl.alg.id).comarks))
    last = len(cols) - 1
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def fits(a: int, budgets: tuple[int, ...]) -> int:
        col = cols[a]
        if a == last:
            return _cap(budgets, col) + 1
        # walk down B, B - col, B - 2 col, ... to a known count or to the
        # budgets where c_a can grow no further, then add up on the way back
        chain, total = [], 0
        while (a, budgets) not in memo:
            chain.append(budgets)
            if not _cap(budgets, col):
                break
            budgets = tuple(b - r for b, r in zip(budgets, col))
        else:
            total = memo[a, budgets]
        for budgets in reversed(chain):
            total += fits(a + 1, budgets)
            memo[a, budgets] = total
        return total

    return fits(0, lvl._floors[0])


def _extremal(lvl: Level, nu: DominantWeight) -> Optional[bool]:
    """Where nu sits against the levels: None outside the truncated cone
    (nu(theta_i-coroot) > M_i(k) for some summand i), else whether nu is
    extremal (nu(theta_i-coroot) > M_i(k) + chi_i for some i).  The comark
    values come from the weight, the floors of M_i(k) and M_i(k) + chi_i
    from the level."""
    if nu.algebra is not lvl.alg.id:
        _label_algebra(lvl, nu)
    vals, (floors, margins) = nu._comark_values, lvl._floors
    if any(map(gt, vals, floors)):
        return None
    return any(map(gt, vals, margins))


def in_truncated_cone(lvl: Level, nu: DominantWeight) -> bool:
    """Is nu dominant with nu(theta_i-coroot) <= M_i(k) for every summand?"""
    return _extremal(lvl, nu) is not None


def is_extremal(lvl: Level, nu: DominantWeight) -> bool:
    """nu(theta_i-coroot) > M_i(k) + chi_i for some summand i.

    Equivalent characterisation (kept as a cross-identity check): nu + xi is
    no longer in the truncated dominant cone.
    """
    extremal = _extremal(lvl, nu)
    if extremal is None:
        raise RangeError("extremality is only defined inside the truncated cone")
    return extremal


def A_value(lvl: Level, nu: DominantWeight) -> Fraction:
    """Minimal conformal-weight threshold of the label nu:

        A(k, nu) = (nu|nu + 2 rho_nat) / (2 (k + h_check))
                   + (xi|nu) ((xi|nu) - k - 1) / (k + h_check).

    With the integers Q = D (nu|nu + 2 rho_nat) and X = D (xi|nu) from the
    basis data, k = p/q and h_check = a/b, this is
    (q (Q D + 2 X^2) - 2 X D (p + q)) b / (2 D^2 (p b + a q)).  Q and X
    come from the weight (DominantWeight._A_ints), the k-dependent integers
    from the level (Level._A_consts), so one call is one Fraction.
    """
    if nu.algebra is not lvl.alg.id:
        _label_algebra(lvl, nu)
    Q, X = nu._A_ints
    u, v, w, den = lvl._A_consts
    return Fraction(u * Q + X * (v * X - w), den)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


class _Ambient(NamedTuple):
    """Ambient data of one algebra for the oracle and for the ledger's
    integrability step, on integers: with L and G the common denominators of
    the weights below and of the Gram matrix, and G' = G gram, (u|v) =
    (L u).G'(L v) / E for E = G L^2.  Vectors are L times a weight (G'
    applied where named g_), scalars E times a pairing."""

    E: int
    # L omega_a and G' L omega_a by coordinate: omega[j][a], g_omega[j][a]
    omega: tuple[tuple[int, ...], ...]
    g_omega: tuple[tuple[int, ...], ...]
    xi: tuple[int, ...]                      # L xi
    g_theta: tuple[int, ...]
    g_xi: tuple[int, ...]
    g_two_rho: tuple[int, ...]
    g_theta_i: tuple[tuple[int, ...], ...]
    # (G' L s, E (s|s)) per natural simple root s
    simple: tuple[tuple[tuple[int, ...], int], ...]
    theta_i_norms: tuple[int, ...]           # E (theta_i|theta_i)
    theta_theta: int                         # E (theta|theta)
    theta_two_rho: int                       # E (theta|2 rho)
    # E (theta_hat|eta_i), eta_i = delta - theta_i; 0 for the catalog, where
    # theta is orthogonal to g-natural, but paired rather than assumed
    theta_eta: tuple[int, ...]


@lru_cache(maxsize=None)
def _ambient_constants(aid: AlgebraId) -> _Ambient:
    alg = build_algebra(aid)
    simple = [s.weight for s in alg.natural_simple]
    two_rho = 2 * alg.rho
    weights = (*alg.natural_fundamental, alg.theta, alg.xi, two_rho, *alg.theta_i, *simple)
    L = lcm(*(x.denominator for w in weights for x in w.coords))
    G = lcm(*(g.denominator for row in alg.gram for g in row))
    E = G * L * L
    gram = [[int(G * g) for g in row] for row in alg.gram]

    def scaled(w: Weight) -> tuple[int, ...]:
        return tuple(int(L * x) for x in w.coords)

    def applied(w: Weight) -> tuple[int, ...]:
        v = scaled(w)
        return tuple(_dot(row, v) for row in gram)

    # each E (u|v) below is an integer, since L clears both weights
    return _Ambient(
        E=E,
        omega=tuple(zip(*map(scaled, alg.natural_fundamental))),
        g_omega=tuple(zip(*map(applied, alg.natural_fundamental))),
        xi=scaled(alg.xi),
        g_theta=applied(alg.theta),
        g_xi=applied(alg.xi),
        g_two_rho=applied(two_rho),
        g_theta_i=tuple(map(applied, alg.theta_i)),
        simple=tuple((applied(s), int(E * pair(s, s))) for s in simple),
        theta_i_norms=tuple(int(E * pair(t, t)) for t in alg.theta_i),
        theta_theta=int(E * pair(alg.theta, alg.theta)),
        theta_two_rho=int(E * pair(alg.theta, two_rho)),
        theta_eta=tuple(int(E * affine_pair(AffineWeight(alg.theta), AffineWeight(-t, 0, 1)))
                        for t in alg.theta_i))


def _ell0_coeffs(lvl: Level, nu: DominantWeight) -> tuple[int, int, int, int]:
    """ell0 as one integer quadratic in h, (c0 + c1 h + c2 h^2) / den (see
    ell0).  With k = p/q, h_check = a/b, qb = q b and d = p b + a q, these
    are c0 = qb P, c1 = qb (2 T + R) - 2 E d, c2 = qb N and den = 2 E d."""
    # all but the weight's P and T are the level's (Level._ell0_consts)
    _label_algebra(lvl, nu)
    qb, c, c2, den = lvl._ell0_consts
    return qb * nu._norm, 2 * qb * nu._theta + c, c2, den


def ell0(lvl: Level, nu: DominantWeight, h) -> Fraction:
    """Conformal weight of the reduced label,

        ell0(h) = (nu_hat|nu_hat + 2 rho_hat) / (2 (k + h_check)) - h,

    with nu_hat = h theta + w + k Lambda_0 and rho_hat = rho + h_check
    Lambda_0.  The Lambda_0 parts pair to 0, so by bilinearity the pairing
    is (P + h (2 T + R + h N)) / E with the integers P = E (w|w + 2 rho) and
    T = E (theta|w) of the weight, and R = E (theta|2 rho) and
    N = E (theta|theta) of the algebra (see _Ambient).  So ell0 is the
    integer quadratic (c0 + c1 h + c2 h^2) / den of _ell0_coeffs, and at
    h = r/s it is (c0 s^2 + r (c1 s + c2 r)) / (den s^2).
    """
    r, s = rational(h).as_integer_ratio()
    c0, c1, c2, den = _ell0_coeffs(lvl, nu)
    return Fraction(c0 * s * s + r * (c1 * s + c2 * r), den * s * s)


def extremal_h_set(lvl: Level, nu: DominantWeight) -> tuple[Fraction, ...]:
    """The two-point set {(xi|nu), k + 1 - (xi|nu)} in increasing order: a
    pair, or one point when the two coincide.  (xi|nu) = X / D, with X of
    the weight's threshold integers (DominantWeight._A_ints) and D of _basis."""
    aid = _label_algebra(lvl, nu)
    X, D, (p, q) = nu._A_ints[1], _basis(aid).D, lvl.k.as_integer_ratio()
    r = (p + q) * D - q * X  # q D (k + 1 - X/D), and q D > 0
    x = Fraction(X, D)
    if r == q * X:
        return (x,)
    mirror = Fraction(r, q * D)
    return (x, mirror) if r > q * X else (mirror, x)


class AffineModuleLabel(Frozen):
    def __init__(self, nu: DominantWeight, h: Fraction):
        set_field(self, "nu", nu)
        set_field(self, "h", h if type(h) is Fraction else rational(h))


class WModuleLabel(Frozen):
    """ell0 = None marks the symbolic free parameter (JSON: "free");
    only meaningful for non-extremal nu."""

    def __init__(self, nu: DominantWeight, ell0: Optional[Fraction]):
        set_field(self, "nu", nu)
        set_field(self, "ell0", ell0 if ell0 is None or type(ell0) is Fraction else rational(ell0))


class Verdict(Frozen):
    """Three-valued unitarity outcome."""

    # status: "unitary" | "not_unitary" | "open"; reason, the violated
    # condition: "1a" | "1b" | "1c"
    def __init__(self, status: str, reason: Optional[str] = None):
        set_field(self, "status", status)
        set_field(self, "reason", reason)

    def __str__(self) -> str:
        if self.status == "not_unitary":
            return f"not_unitary:{self.reason}"
        return self.status


UNITARY = Verdict("unitary")
OPEN = Verdict("open")


def not_unitary(reason: str) -> Verdict:
    if reason not in ("1a", "1b", "1c"):
        raise ValueError(f"unknown violated-condition tag {reason!r}")
    return Verdict("not_unitary", reason)


def affine_module_descends(lvl: Level, label: AffineModuleLabel) -> bool:
    """Does the irreducible affine module with this label live on the simple
    quotient vertex algebra?  True iff nu is in the truncated cone and either
    non-extremal (h arbitrary) or extremal with h in the two-point set."""
    _require_range(lvl)
    extremal = _extremal(lvl, label.nu)
    if not extremal:
        return extremal is not None
    return label.h in extremal_h_set(lvl, label.nu)


def w_module_exists(lvl: Level, label: WModuleLabel) -> bool:
    """Complete-list membership for irreducible highest-weight W-modules;
    the identical predicate classifies irreducible positive-energy modules."""
    _require_range(lvl)
    extremal = _extremal(lvl, label.nu)
    if extremal is None:
        return False
    return not extremal or (label.ell0 is not None and label.ell0 == A_value(lvl, label.nu))


def hamiltonian_reduce(lvl: Level, label: AffineModuleLabel) -> Optional[WModuleLabel]:
    """Image of the affine label under quantum Hamiltonian reduction.

    Vanishes exactly when k - 2h is a nonnegative integer; otherwise the
    image is the W-label (nu, ell0(h)).  Defined only on the unitarity range
    and for nu in the truncated cone.
    """
    _require_range(lvl)
    if not in_truncated_cone(lvl, label.nu):
        raise RangeError("reduction is only defined inside the truncated cone")
    if _reduction_vanishes(lvl.k, label.h):
        return None
    return WModuleLabel(label.nu, ell0(lvl, label.nu, label.h))


def _reduction_vanishes(k: Fraction, h: Fraction) -> bool:
    """Is k - 2h a nonnegative integer, i.e. p s - 2 r q = q s (k - 2h) for
    k = p/q and h = r/s a nonnegative multiple of q s?"""
    (p, q), (r, s) = k.as_integer_ratio(), h.as_integer_ratio()
    gap = p * s - 2 * r * q
    return gap >= 0 and gap % (q * s) == 0


def unitarity_verdict(lvl: Level, label: WModuleLabel) -> Verdict:
    """Three-valued unitarity classification of a concrete W-label.

    Necessary conditions (violations reported by tag): 1a, every M_i(k) is a
    nonnegative integer; 1b, nu(theta_i-coroot) <= M_i(k); 1c, ell0 >=
    A(k, nu), with equality forced for extremal nu.  Sufficient conditions:
    M_i(k) + chi_i nonnegative integers, nu non-extremal, ell0 >= A(k, nu).
    The vacuum label (0, 0) is unitary on the whole range (that is what the
    range asserts), and extremal labels at the threshold are settled only for
    psl2-2, spo2-3, and spo2-m at k = -1 (the row's proven_at_threshold);
    the rest stay open.  Condition 1a and the sufficient margin test read
    the level alone; 1b, extremality and A read the weight's comark values
    and threshold integers (see _extremal and A_value).

    At ell0 = A(k, nu) inside the truncated cone, 1b and 1c cannot fire and
    A(k, 0) = 0, so the weight enters only through its extremality and
    whether it is the zero weight: classify_w_modules calls this once per
    such class, and a test checks it against one call per weight.
    """
    if label.ell0 is None:
        raise ValueError("unitarity needs a concrete ell0, not the free marker")
    _require_range(lvl)
    if not all(n >= 0 and n % d == 0 for n, d in lvl._M_ratios):
        return not_unitary("1a")
    extremal = _extremal(lvl, label.nu)
    if extremal is None:
        return not_unitary("1b")
    threshold = A_value(lvl, label.nu)
    if label.ell0 < threshold or (extremal and label.ell0 != threshold):
        return not_unitary("1c")
    if label.nu.is_zero and label.ell0 == 0:
        return UNITARY
    if not extremal:
        margins_natural = all(n >= 0 and n % d == 0 for n, d in lvl._margin_ratios)
        return UNITARY if margins_natural else OPEN
    return UNITARY if lvl.alg.id.spec.proven_at_threshold(lvl.k) else OPEN


class WModuleRecord(NamedTuple):
    nu: DominantWeight
    ell0: Optional[Fraction]  # None = free one-parameter family
    extremal: bool
    threshold: Fraction       # A(k, nu)
    verdict: Verdict


class AffineModuleRecord(NamedTuple):
    nu: DominantWeight
    extremal: bool
    h_set: Optional[tuple[Fraction, ...]]  # extremal_h_set; None = h is free


def classify_w_modules(lvl: Level) -> tuple[WModuleRecord, ...]:
    """The complete highest-weight (equivalently positive-energy) list.

    Non-extremal weights carry a free ell0 (their verdict is reported at the
    minimal unitary value ell0 = A; any larger ell0 gives the same verdict),
    extremal ones are pinned to ell0 = A(k, nu).

    At ell0 = A the verdict reads the weight only through its extremality
    and whether it is the zero weight (see unitarity_verdict), so it is
    settled by one unitarity_verdict call per class, at most three per
    level, and the records of a class share its Verdict; the oracle test
    against a verdict per weight guards this.
    """
    out = []
    verdicts: dict[tuple[bool, bool], Verdict] = {}
    for nu in enumerate_Pk(lvl):
        extremal = is_extremal(lvl, nu)
        threshold = A_value(lvl, nu)
        ell = threshold if extremal else None
        key = (extremal, not any(nu.coeffs))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = unitarity_verdict(lvl, WModuleLabel(nu, threshold))
        out.append(WModuleRecord(nu, ell, extremal, threshold, verdict))
    return tuple(out)


def classify_affine_modules(lvl: Level) -> tuple[AffineModuleRecord, ...]:
    out = []
    for nu in enumerate_Pk(lvl):
        extremal = is_extremal(lvl, nu)
        h_set = extremal_h_set(lvl, nu) if extremal else None
        out.append(AffineModuleRecord(nu, extremal, h_set))
    return tuple(out)


def standard_levels(aid: AlgebraId, count: int = 10) -> list[Fraction]:
    """The first `count` admissible levels of the family, nearest to 0 first."""
    step, q0 = aid.spec.progression(aid.m, aid.n)
    return [-q * step for q in range(q0, q0 + count)]


def _nu_plus_xi_in_Pk(lvl: Level, nu: DominantWeight) -> bool:
    """Is v = w + xi in the truncated dominant cone?  On the integers of
    _Ambient, with V = L v: 2 V.G'(L s) / E (s|s) is a nonnegative integer
    per natural simple root s, and v(theta_i-coroot) <= M_i(k) reads
    2 (V.G'(L theta_i) - k E) / E (theta_i|theta_i) <= chi_i per summand."""
    c = _ambient_constants(lvl.alg.id)
    v = tuple(map(add, nu._scaled, c.xi))
    for g_s, norm in c.simple:
        quotient, remainder = divmod(2 * _dot(v, g_s), norm)
        if remainder or quotient < 0:
            return False
    # with k = p/q and chi_i = n/d this is x / (q N) <= n/d for the integers
    # x = 2 (V.G'(L theta_i) q - p E) and N = E (theta_i|theta_i), compared
    # as x d (q N) <= n (q N)^2, times d (q N)^2 > 0: every catalog N is
    # negative, so multiplying by q N alone would reverse the inequality
    p, q = lvl.k.as_integer_ratio()
    return all(2 * (_dot(v, g_t) * q - p * c.E) * chi.denominator * q * norm
               <= chi.numerator * (q * norm) ** 2
               for g_t, norm, chi in zip(c.g_theta_i, c.theta_i_norms, lvl.alg.chi))


def _threshold_identity(lvl: Level, nu: DominantWeight, threshold: Fraction) -> bool:
    """(w|w + 2 rho)/2 - A (k + h_check) = (xi|nu)(k + 1 - (xi|nu)) at A = An/Ad,
    times 2 E^2 q b Ad: with P and d as in _ell0_coeffs and (xi|nu) = x/E
    for the ambient integer x = E (xi|w),
    E (P q b Ad - 2 E d An) = 2 b Ad x ((p + q) E - q x)."""
    c = _ambient_constants(lvl.alg.id)
    E, x = c.E, _dot(nu._scaled, c.g_xi)
    (p, q), (a, b) = lvl.k.as_integer_ratio(), lvl.alg.h_check.as_integer_ratio()
    An, Ad = threshold.as_integer_ratio()
    return (E * (nu._norm * q * b * Ad - 2 * E * (p * b + a * q) * An)
            == 2 * b * Ad * x * ((p + q) * E - q * x))


def first_failure(failures: Iterable[tuple[DominantWeight, Optional[Fraction]]]) -> bool | str:
    """The `computed` value of a check over a grid of labels: True when
    `failures` yields no (nu, h), else where the first one failed, as
    "nu=(1,0,2)" or, with an h, "nu=(1,0,2) h=1/3"."""
    for nu, h in failures:
        site = "nu=(" + ",".join(map(str, nu.coeffs)) + ")"
        return site if h is None else f"{site} h={rational_str(h)}"
    return True


def cross_identity_report(lvl: Level) -> Report:
    """Exact cross-identities tying the classification machinery together.

    Runs over every nu in the truncated cone of the level: the two extremality
    characterisations agree; ell0 is symmetric under h -> k + 1 - h; ell0
    meets the threshold A exactly on the two-point h set (checked as a
    polynomial-coefficient identity plus direct evaluation); reduction of any
    admissible affine label either vanishes or lands on an existing W-label;
    the closed-form levels match; and the vacuum W-label always exists.
    Each (nu, h) comparison is cleared to integers: see _ell0_coeffs,
    _threshold_identity and _reduction_vanishes.
    """
    k, alg = lvl.k, lvl.alg
    rep = Report(lvl.name, k)

    rep.add("classify.M-closed-form",
            formula="2k/(theta_i|theta_i) + chi_i equals the closed-form levels",
            expected=table_M(lvl), computed=level_M(lvl))

    M = level_M(lvl)
    rep.add("classify.M-nonneg-integers",
            formula="each M_i(k) is a nonnegative integer on the range",
            expected=True,
            computed=all(m.denominator == 1 and m >= 0 for m in M))

    cone = enumerate_Pk(lvl)
    extremal = [is_extremal(lvl, nu) for nu in cone]  # aligned with the cone
    h_sets = [extremal_h_set(lvl, nu) for nu in cone]  # likewise, for two checks

    rep.add("classify.extremal-dual",
            formula="extremality by the chi margin agrees with nu + xi leaving the cone",
            expected=True,
            computed=first_failure((nu, None) for nu, ext in zip(cone, extremal)
                                   if ext == _nu_plus_xi_in_Pk(lvl, nu)))

    # ell0(r/s) = n(r, s) / (den s^2) with n(r, s) = c0 s^2 + r (c1 s + c2 r),
    # so ell0(h) = ell0(k + 1 - h) for k + 1 - h = r'/s' reads
    # n(r, s) s'^2 = n(r', s') s^2.  The c0 terms are equal, so that is
    # c1 B + c2 C = 0 for the integers B = r s s'^2 - r' s' s^2 = s s' g and
    # C = r^2 s'^2 - r'^2 s^2 = g (r s' + r' s), g = r s' - r' s, of each h,
    # formed once per level
    mirrored = []
    for h in (Fraction(0), Fraction(1), Fraction(-1, 2), k, k + 1):
        (r, s), (r2, s2) = h.as_integer_ratio(), (k + 1 - h).as_integer_ratio()
        g = r * s2 - r2 * s
        mirrored.append((h, s * s2 * g, g * (r * s2 + r2 * s)))

    def symmetry_failures():
        for nu in cone:
            _, c1, c2, _ = _ell0_coeffs(lvl, nu)
            for h, B, C in mirrored:
                if c1 * B + c2 * C:
                    yield nu, h

    rep.add("classify.ell0-symmetry", formula="ell0(h) = ell0(k + 1 - h)",
            expected=True, computed=first_failure(symmetry_failures()))

    # ell0(h) - A is a quadratic in h with leading coefficient 1/(k + h_check)
    # and root set {(xi|nu), k+1-(xi|nu)}; matching the constant coefficient
    # proves the equivalence "ell0(h) = A  iff  h in extremal_h_set".  The
    # constant coefficient is computed from the ambient pairing, so this
    # check is the oracle of the basis form of A.
    def threshold_failures():
        for nu, h_set in zip(cone, h_sets):
            threshold = A_value(lvl, nu)
            if not _threshold_identity(lvl, nu, threshold):
                yield nu, None
            for h in h_set:
                if ell0(lvl, nu, h) != threshold:
                    yield nu, h

    rep.add("classify.threshold-roots",
            formula="ell0(h) = A(k, nu) exactly for h in {(xi|nu), k+1-(xi|nu)}",
            expected=True, computed=first_failure(threshold_failures()))

    # the h of a non-extremal weight: these, sorted once per level, and (xi|nu)
    # sorted in when it is not one of them
    fixed_hs = sorted({Fraction(0), Fraction(-1, 2), k + 1})
    D = _basis(alg.id).D

    def reduce_failures():
        for nu, ext, hs in zip(cone, extremal, h_sets):
            if not ext:  # (xi|nu) = X / D, as extremal_h_set reads it
                x = Fraction(nu._A_ints[1], D)
                hs = fixed_hs if x in fixed_hs else sorted([*fixed_hs, x])
            for h in hs:
                label = AffineModuleLabel(nu, h)
                if not affine_module_descends(lvl, label):
                    continue
                reduced = hamiltonian_reduce(lvl, label)
                if reduced is not None and not w_module_exists(lvl, reduced):
                    yield nu, h

    rep.add("classify.reduce-descends",
            formula="reduction of an admissible affine label vanishes or is an admissible W-label",
            expected=True, computed=first_failure(reduce_failures()))

    # on integers: M_i + chi_i - v is an integer iff M_i + chi_i is one,
    # and then nonnegative iff v <= floor(M_i + chi_i)
    margins_integral = all(n % d == 0 for n, d in lvl._margin_ratios)
    rep.add("classify.margin-nonneg",
            formula="M_i(k) + chi_i - nu(theta_i-coroot) is a nonnegative integer off the extremal set",
            expected=True,
            computed=first_failure(
                (nu, None) for nu, ext in zip(cone, extremal) if not ext
                and not (margins_integral and all(map(le, nu._comark_values, lvl._floors[1])))))

    vacuum = WModuleLabel(DominantWeight(alg.id, (0,) * alg.rank_natural), Fraction(0))
    rep.add("classify.vacuum-exists",
            formula="the vacuum W-label (0, 0) always exists on the range",
            expected=True, computed=w_module_exists(lvl, vacuum))

    # a free one-parameter family exists whenever no margin M_i + chi_i is
    # negative (the boundary levels where one is are the collapsing ones)
    if all(n >= 0 for n, _ in lvl._margin_ratios):
        rep.add("classify.free-family", formula="some non-extremal nu carries a free ell0 family",
                expected=True,
                computed=not all(extremal))

    return rep
