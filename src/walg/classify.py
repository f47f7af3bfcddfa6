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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional

from .affine import AffineWeight, affine_pair
from .catalog import (AlgebraData, AlgebraId, Weight, build_algebra,
                      coroot_pair, pair)
from .report import Report
from .scalars import rational, rational_str

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
    "w_record_json",
    "affine_record_json",
    "standard_levels",
    "cross_identity_report",
]


class CriticalLevelError(ValueError):
    """k = -h_check is excluded everywhere."""


class RangeError(ValueError):
    """A precondition on the unitarity range or the dominant cone failed."""


@dataclass(frozen=True)
class Level:
    alg: AlgebraData
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", rational(self.k))
        if self.k == -self.alg.h_check:
            raise CriticalLevelError(
                f"critical level k = {rational_str(self.k)} for {self.alg.id.name}")

    @property
    def name(self) -> str:
        return self.alg.id.name


def level(algebra: AlgebraData | AlgebraId | str, k) -> Level:
    """Convenience constructor accepting an id, name, or built data."""
    if isinstance(algebra, str):
        algebra = build_algebra(AlgebraId.parse(algebra))
    elif isinstance(algebra, AlgebraId):
        algebra = build_algebra(algebra)
    return Level(algebra, rational(k))


def in_unitarity_range(lvl: Level) -> bool:
    """-k must lie in the family's admissible progression: -k = step * q
    for an integer q >= q0."""
    aid = lvl.alg.id
    step, q0 = aid.spec.progression(aid.m, aid.n)
    q = -lvl.k / step
    return q.denominator == 1 and q >= q0


@lru_cache(maxsize=None)
def _level_M(aid: AlgebraId, k: Fraction) -> tuple[Fraction, ...]:
    alg = build_algebra(aid)
    return tuple(2 * k / pair(t, t) + c for t, c in zip(alg.theta_i, alg.chi))


def level_M(lvl: Level) -> tuple[Fraction, ...]:
    """Affine levels M_i(k) = 2k/(theta_i|theta_i) + chi_i."""
    return _level_M(lvl.alg.id, lvl.k)


def table_M(lvl: Level) -> tuple[Fraction, ...]:
    """The same levels by the per-family closed forms (cross-check)."""
    aid = lvl.alg.id
    slopes = aid.spec.M_slope(aid.m, aid.n)
    return tuple(s * lvl.k + c for s, c in zip(slopes, aid.spec.chi))


@dataclass(frozen=True)
class DominantWeight:
    """Nonnegative integer coefficients over the natural fundamental weights."""

    algebra: AlgebraId
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if any(type(c) is not int for c in coeffs):
            raise TypeError(f"dominant weight coefficients must be ints, got {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)
        alg = build_algebra(self.algebra)
        if len(self.coeffs) != alg.rank_natural:
            raise RangeError(
                f"{self.algebra.name} dominant weights take {alg.rank_natural} "
                f"coefficients, got {len(self.coeffs)}")
        if any(c < 0 for c in self.coeffs):
            raise RangeError("dominant weight coefficients must be nonnegative")

    def weight(self) -> Weight:
        return _ambient(self.algebra, self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@lru_cache(maxsize=None)
def _ambient(aid: AlgebraId, coeffs: tuple[int, ...]) -> Weight:
    alg = build_algebra(aid)
    w = Weight(aid, [0] * aid.dim)
    for c, omega in zip(coeffs, alg.natural_fundamental):
        if c:
            w = w + c * omega
    return w


@lru_cache(maxsize=None)
def _comarks(aid: AlgebraId) -> tuple[tuple[int, ...], ...]:
    """C[i][a] = omega_a(theta_i-coroot); nonnegative integers."""
    alg = build_algebra(aid)
    rows = []
    for t in alg.theta_i:
        row = []
        for omega in alg.natural_fundamental:
            v = coroot_pair(omega, t)
            if v.denominator != 1 or v < 0:
                raise RangeError(f"non-integral comark {v} for {aid.name}")
            row.append(int(v))
        rows.append(tuple(row))
    return tuple(rows)


def theta_values(lvl: Level, nu: DominantWeight) -> tuple[Fraction, ...]:
    """nu(theta_i-coroot) per summand (integers for catalog weights)."""
    comarks = _comarks(lvl.alg.id)
    return tuple(Fraction(sum(c * k for c, k in zip(nu.coeffs, row)))
                 for row in comarks)


def _require_range(lvl: Level):
    if not in_unitarity_range(lvl):
        raise RangeError(
            f"k = {rational_str(lvl.k)} is outside the unitarity range of {lvl.name}")


@lru_cache(maxsize=None)
def _cone(aid: AlgebraId, k: Fraction) -> tuple[DominantWeight, ...]:
    M = _level_M(aid, k)
    comarks = _comarks(aid)
    rank = build_algebra(aid).rank_natural
    bounds = []
    for a in range(rank):
        cap = None
        for i, row in enumerate(comarks):
            if row[a] > 0:
                c = int(M[i]) // row[a]
                cap = c if cap is None else min(cap, c)
        bounds.append(cap if cap is not None else 0)
    out = []
    for coeffs in product(*(range(b + 1) for b in bounds)):
        if all(sum(c * w for c, w in zip(coeffs, row)) <= M[i]
               for i, row in enumerate(comarks)):
            out.append(DominantWeight(aid, coeffs))
    return tuple(out)


def enumerate_Pk(lvl: Level) -> tuple[DominantWeight, ...]:
    """All dominant integral nu with nu(theta_i-coroot) <= M_i(k), in
    lexicographic coefficient order."""
    _require_range(lvl)
    return _cone(lvl.alg.id, lvl.k)


def in_truncated_cone(lvl: Level, nu: DominantWeight) -> bool:
    """Is nu dominant with nu(theta_i-coroot) <= M_i(k) for every summand?"""
    M = level_M(lvl)
    return all(v <= m for v, m in zip(theta_values(lvl, nu), M))


def is_extremal(lvl: Level, nu: DominantWeight) -> bool:
    """nu(theta_i-coroot) > M_i(k) + chi_i for some summand i.

    Equivalent characterisation (kept as a cross-identity check): nu + xi is
    no longer in the truncated dominant cone.
    """
    if not in_truncated_cone(lvl, nu):
        raise RangeError("extremality is only defined inside the truncated cone")
    M = level_M(lvl)
    vals = theta_values(lvl, nu)
    return any(v > m + c for v, m, c in zip(vals, M, lvl.alg.chi))


@lru_cache(maxsize=None)
def _A(aid: AlgebraId, k: Fraction, coeffs: tuple[int, ...]) -> Fraction:
    alg = build_algebra(aid)
    w = _ambient(aid, coeffs)
    shifted = pair(w, w + 2 * alg.rho_nat)
    xi_nu = pair(alg.xi, w)
    denom = k + alg.h_check
    return shifted / (2 * denom) + xi_nu * (xi_nu - k - 1) / denom


def A_value(lvl: Level, nu: DominantWeight) -> Fraction:
    """Minimal conformal-weight threshold of the label nu."""
    return _A(lvl.alg.id, lvl.k, nu.coeffs)


@lru_cache(maxsize=None)
def _two_rho_hat(aid: AlgebraId) -> AffineWeight:
    alg = build_algebra(aid)
    return 2 * AffineWeight(alg.rho, alg.h_check, 0)


def ell0(lvl: Level, nu: DominantWeight, h) -> Fraction:
    """Conformal weight of the reduced label: computed through the affine
    pairing with rho-hat = rho + h_check * Lambda_0."""
    h = rational(h)
    alg = lvl.alg
    nu_hat = AffineWeight(h * alg.theta + nu.weight(), lvl.k, 0)
    return (affine_pair(nu_hat, nu_hat + _two_rho_hat(alg.id))
            / (2 * (lvl.k + alg.h_check)) - h)


def extremal_h_set(lvl: Level, nu: DominantWeight) -> frozenset[Fraction]:
    """{(xi|nu), k + 1 - (xi|nu)}; a singleton when the two coincide."""
    x = pair(lvl.alg.xi, nu.weight())
    return frozenset((x, lvl.k + 1 - x))


@dataclass(frozen=True)
class AffineModuleLabel:
    nu: DominantWeight
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", rational(self.h))


@dataclass(frozen=True)
class WModuleLabel:
    """ell0 = None marks the symbolic free parameter (JSON: "free");
    only meaningful for non-extremal nu."""

    nu: DominantWeight
    ell0: Optional[Fraction]

    def __post_init__(self):
        if self.ell0 is not None:
            object.__setattr__(self, "ell0", rational(self.ell0))


@dataclass(frozen=True)
class Verdict:
    """Three-valued unitarity outcome."""

    status: str  # "unitary" | "not_unitary" | "open"
    reason: Optional[str] = None  # violated condition: "1a" | "1b" | "1c"

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
    if not in_truncated_cone(lvl, label.nu):
        return False
    if not is_extremal(lvl, label.nu):
        return True
    return label.h in extremal_h_set(lvl, label.nu)


def w_module_exists(lvl: Level, label: WModuleLabel) -> bool:
    """Complete-list membership for irreducible highest-weight W-modules;
    the identical predicate classifies irreducible positive-energy modules."""
    _require_range(lvl)
    if not in_truncated_cone(lvl, label.nu):
        return False
    if not is_extremal(lvl, label.nu):
        return True
    return label.ell0 is not None and label.ell0 == A_value(lvl, label.nu)


def hamiltonian_reduce(lvl: Level, label: AffineModuleLabel) -> Optional[WModuleLabel]:
    """Image of the affine label under quantum Hamiltonian reduction.

    Vanishes exactly when k - 2h is a nonnegative integer; otherwise the
    image is the W-label (nu, ell0(h)).  Defined only on the unitarity range
    and for nu in the truncated cone.
    """
    _require_range(lvl)
    if not in_truncated_cone(lvl, label.nu):
        raise RangeError("reduction is only defined inside the truncated cone")
    gap = lvl.k - 2 * label.h
    if gap.denominator == 1 and gap >= 0:
        return None
    return WModuleLabel(label.nu, ell0(lvl, label.nu, label.h))


def unitarity_verdict(lvl: Level, label: WModuleLabel) -> Verdict:
    """Three-valued unitarity classification of a concrete W-label.

    Necessary conditions (violations reported by tag): 1a, every M_i(k) is a
    nonnegative integer; 1b, nu(theta_i-coroot) <= M_i(k); 1c, ell0 >=
    A(k, nu), with equality forced for extremal nu.  Sufficient conditions:
    M_i(k) + chi_i nonnegative integers, nu non-extremal, ell0 >= A(k, nu).
    The vacuum label (0, 0) is unitary on the whole range (that is what the
    range asserts), and extremal labels at the threshold are settled only for
    psl2-2, spo2-3, and spo2-m at k = -1 (the row's proven_at_threshold);
    the rest stay open.
    """
    if label.ell0 is None:
        raise ValueError("unitarity needs a concrete ell0, not the free marker")
    _require_range(lvl)
    M = level_M(lvl)
    if any(m.denominator != 1 or m < 0 for m in M):
        return not_unitary("1a")
    vals = theta_values(lvl, label.nu)
    if any(v > m for v, m in zip(vals, M)):
        return not_unitary("1b")
    threshold = A_value(lvl, label.nu)
    extremal = any(v > m + c for v, m, c in zip(vals, M, lvl.alg.chi))
    if label.ell0 < threshold or (extremal and label.ell0 != threshold):
        return not_unitary("1c")
    if label.nu.is_zero and label.ell0 == 0:
        return UNITARY
    if not extremal:
        if all((m + c).denominator == 1 and m + c >= 0
               for m, c in zip(M, lvl.alg.chi)):
            return UNITARY
        return OPEN
    return UNITARY if lvl.alg.id.spec.proven_at_threshold(lvl.k) else OPEN


@dataclass(frozen=True)
class WModuleRecord:
    nu: DominantWeight
    ell0: Optional[Fraction]  # None = free one-parameter family
    extremal: bool
    threshold: Fraction       # A(k, nu)
    verdict: Verdict


@dataclass(frozen=True)
class AffineModuleRecord:
    nu: DominantWeight
    extremal: bool
    h_set: Optional[frozenset[Fraction]]  # None = h is free


def classify_w_modules(lvl: Level) -> tuple[WModuleRecord, ...]:
    """The complete highest-weight (equivalently positive-energy) list.

    Non-extremal weights carry a free ell0 (their verdict is reported at the
    minimal unitary value ell0 = A; any larger ell0 gives the same verdict),
    extremal ones are pinned to ell0 = A(k, nu).
    """
    _require_range(lvl)
    out = []
    for nu in enumerate_Pk(lvl):
        extremal = is_extremal(lvl, nu)
        threshold = A_value(lvl, nu)
        ell = threshold if extremal else None
        verdict = unitarity_verdict(lvl, WModuleLabel(nu, threshold))
        out.append(WModuleRecord(nu, ell, extremal, threshold, verdict))
    return tuple(out)


def classify_affine_modules(lvl: Level) -> tuple[AffineModuleRecord, ...]:
    _require_range(lvl)
    out = []
    for nu in enumerate_Pk(lvl):
        extremal = is_extremal(lvl, nu)
        h_set = extremal_h_set(lvl, nu) if extremal else None
        out.append(AffineModuleRecord(nu, extremal, h_set))
    return tuple(out)


def w_record_json(rec: WModuleRecord) -> dict:
    return {
        "nu_coeffs": list(rec.nu.coeffs),
        "ell0": "free" if rec.ell0 is None else rational_str(rec.ell0),
        "extremal": rec.extremal,
        "A": rational_str(rec.threshold),
        "unitarity": str(rec.verdict),
    }


def affine_record_json(rec: AffineModuleRecord) -> dict:
    return {
        "nu_coeffs": list(rec.nu.coeffs),
        "extremal": rec.extremal,
        "h": "free" if rec.h_set is None else [rational_str(h) for h in sorted(rec.h_set)],
    }


def standard_levels(aid: AlgebraId, count: int = 10) -> list[Fraction]:
    """The first `count` admissible levels of the family, nearest to 0 first."""
    step, q0 = aid.spec.progression(aid.m, aid.n)
    return [-q * step for q in range(q0, q0 + count)]


def _nu_plus_xi_in_Pk(lvl: Level, nu: DominantWeight) -> bool:
    alg = lvl.alg
    w = nu.weight() + alg.xi
    for s in alg.natural_simple:
        v = coroot_pair(w, s)
        if v.denominator != 1 or v < 0:
            return False
    M = level_M(lvl)
    return all(coroot_pair(w, t) <= m for t, m in zip(alg.theta_i, M))


def cross_identity_report(lvl: Level) -> Report:
    """Exact cross-identities tying the classification machinery together.

    Runs over every nu in the truncated cone of the level: the two extremality
    characterisations agree; ell0 is symmetric under h -> k + 1 - h; ell0
    meets the threshold A exactly on the two-point h set (checked as a
    polynomial-coefficient identity plus direct evaluation); reduction of any
    admissible affine label either vanishes or lands on an existing W-label;
    the closed-form levels match; and the vacuum W-label always exists.
    """
    rep = Report()
    name = lvl.name
    k = lvl.k
    alg = lvl.alg

    rep.add("classify.M-closed-form", algebra=name, k=k,
            formula="2k/(theta_i|theta_i) + chi_i equals the closed-form levels",
            expected=table_M(lvl), computed=level_M(lvl))

    M = level_M(lvl)
    rep.add("classify.M-nonneg-integers", algebra=name, k=k,
            formula="each M_i(k) is a nonnegative integer on the range",
            expected=True,
            computed=all(m.denominator == 1 and m >= 0 for m in M))

    cone = enumerate_Pk(lvl)
    extremal = {nu: is_extremal(lvl, nu) for nu in cone}

    dual_ok = all(extremal[nu] == (not _nu_plus_xi_in_Pk(lvl, nu)) for nu in cone)
    rep.add("classify.extremal-dual", algebra=name, k=k,
            formula="extremality by the chi margin agrees with nu + xi leaving the cone",
            expected=True, computed=dual_ok)

    h_samples = (Fraction(0), Fraction(1), Fraction(-1, 2), k, k + 1)
    sym_ok = all(ell0(lvl, nu, h) == ell0(lvl, nu, k + 1 - h)
                 for nu in cone for h in h_samples)
    rep.add("classify.ell0-symmetry", algebra=name, k=k,
            formula="ell0(h) = ell0(k + 1 - h)",
            expected=True, computed=sym_ok)

    # ell0(h) - A is a quadratic in h with leading coefficient 1/(k + h_check)
    # and root set {(xi|nu), k+1-(xi|nu)}; matching the constant coefficient
    # proves the equivalence "ell0(h) = A  iff  h in extremal_h_set".
    const_ok = True
    at_e_ok = True
    for nu in cone:
        w = nu.weight()
        xi_nu = pair(alg.xi, w)
        threshold = A_value(lvl, nu)
        lhs = pair(w, w + 2 * alg.rho) / 2 - threshold * (k + alg.h_check)
        const_ok = const_ok and lhs == xi_nu * (k + 1 - xi_nu)
        at_e_ok = at_e_ok and all(ell0(lvl, nu, h) == threshold
                                  for h in extremal_h_set(lvl, nu))
    rep.add("classify.threshold-roots", algebra=name, k=k,
            formula="ell0(h) = A(k, nu) exactly for h in {(xi|nu), k+1-(xi|nu)}",
            expected=True, computed=const_ok and at_e_ok)

    reduce_ok = True
    for nu in cone:
        if extremal[nu]:
            hs = sorted(extremal_h_set(lvl, nu))
        else:
            hs = sorted({Fraction(0), Fraction(-1, 2), k + 1,
                         pair(alg.xi, nu.weight())})
        for h in hs:
            label = AffineModuleLabel(nu, h)
            if not affine_module_descends(lvl, label):
                continue
            reduced = hamiltonian_reduce(lvl, label)
            if reduced is not None and not w_module_exists(lvl, reduced):
                reduce_ok = False
    rep.add("classify.reduce-descends", algebra=name, k=k,
            formula="reduction of an admissible affine label vanishes or is an admissible W-label",
            expected=True, computed=reduce_ok)

    mi_ok = True
    for nu in cone:
        if extremal[nu]:
            continue
        for v, m, c in zip(theta_values(lvl, nu), M, alg.chi):
            mi = m + c - v
            mi_ok = mi_ok and mi.denominator == 1 and mi >= 0
    rep.add("classify.margin-nonneg", algebra=name, k=k,
            formula="M_i(k) + chi_i - nu(theta_i-coroot) is a nonnegative integer off the extremal set",
            expected=True, computed=mi_ok)

    vacuum = WModuleLabel(DominantWeight(alg.id, (0,) * alg.rank_natural), Fraction(0))
    rep.add("classify.vacuum-exists", algebra=name, k=k,
            formula="the vacuum W-label (0, 0) always exists on the range",
            expected=True, computed=w_module_exists(lvl, vacuum))

    # a free one-parameter family exists whenever no margin M_i + chi_i is
    # negative (the boundary levels where one is are the collapsing ones)
    if all(m + c >= 0 for m, c in zip(M, alg.chi)):
        rep.add("classify.free-family", algebra=name, k=k,
                formula="some non-extremal nu carries a free ell0 family",
                expected=True,
                computed=any(not extremal[nu] for nu in cone))

    return rep
