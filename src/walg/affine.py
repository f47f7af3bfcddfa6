"""Affine weight arithmetic and the odd-reflection engine.

An affine weight is a finite weight plus coefficients of Lambda_0 and delta,
paired by the usual conventions: Lambda_0 and delta are isotropic, pair to 1
with each other, and are orthogonal to every finite weight.  The affine
simple-root system is the finite one of the catalog prefixed with
alpha_0 = delta - theta.

Odd reflection at an odd isotropic simple root beta maps the base to

    {-beta} | {alpha : (alpha|beta) = 0} | {alpha + beta : (alpha|beta) != 0},

keeping every root in its original slot; the support identity used downstream
is that reflecting first at alpha_1 and then at alpha_0 + alpha_1 produces a
base containing eta_i = delta - theta_i for every summand.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import AlgebraData, IsotropyError, Weight, pair, weight_json
from .report import Report
from .scalars import Frozen, rational, set_field

__all__ = [
    "AffineWeight",
    "AffineRoot",
    "SimpleRootSet",
    "ReflectionError",
    "affine_pair",
    "affine_coroot_pair",
    "affine_simple_roots",
    "odd_reflect",
    "reflected_base",
    "eta_membership_check",
    "simple_root_set_json",
]


class ReflectionError(ValueError):
    """Odd reflection requested at a root that is not odd isotropic in the base."""


class AffineWeight(Frozen):
    """finite + c_lambda0 * Lambda_0 + c_delta * delta, all exact.  The
    finite parts refuse to mix two algebras (AlgebraMismatchError)."""

    def __init__(self, finite: Weight, c_lambda0: Fraction = Fraction(0),
                 c_delta: Fraction = Fraction(0)):
        set_field(self, "finite", finite)
        set_field(self, "c_lambda0",
                  c_lambda0 if type(c_lambda0) is Fraction else rational(c_lambda0))
        set_field(self, "c_delta", c_delta if type(c_delta) is Fraction else rational(c_delta))

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(self.finite + other.finite,
                            self.c_lambda0 + other.c_lambda0,
                            self.c_delta + other.c_delta)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(self.finite - other.finite,
                            self.c_lambda0 - other.c_lambda0,
                            self.c_delta - other.c_delta)

    def __neg__(self) -> "AffineWeight":
        return AffineWeight(-self.finite, -self.c_lambda0, -self.c_delta)

    def __mul__(self, scalar) -> "AffineWeight":
        s = rational(scalar)
        return AffineWeight(s * self.finite, s * self.c_lambda0, s * self.c_delta)

    __rmul__ = __mul__


def affine_pair(a: AffineWeight, b: AffineWeight) -> Fraction:
    """Bilinear form with (Lambda_0|Lambda_0) = (delta|delta) = 0 and
    (Lambda_0|delta) = 1, both orthogonal to finite weights."""
    return pair(a.finite, b.finite) + a.c_lambda0 * b.c_delta + a.c_delta * b.c_lambda0


class AffineRoot(Frozen):
    """A real or imaginary-shifted root: finite part plus an integer multiple
    of delta (no Lambda_0 component)."""

    def __init__(self, weight: AffineWeight, parity: str):
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        if weight.c_lambda0 != 0:
            raise ValueError("affine roots carry no Lambda_0 component")
        if weight.c_delta.denominator != 1:
            raise ValueError("affine roots carry an integer multiple of delta")
        set_field(self, "weight", weight)
        set_field(self, "parity", parity)

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    def is_isotropic(self) -> bool:
        return affine_pair(self.weight, self.weight) == 0


SimpleRootSet = tuple[AffineRoot, ...]


def affine_coroot_pair(w: AffineWeight, alpha) -> Fraction:
    root = alpha.weight if isinstance(alpha, AffineRoot) else alpha
    norm = affine_pair(root, root)
    if norm == 0:
        raise IsotropyError("coroot pairing against an isotropic affine root")
    return 2 * affine_pair(w, root) / norm


def affine_simple_roots(alg: AlgebraData) -> SimpleRootSet:
    """The base {alpha_0 = delta - theta, alpha_1, ...} in catalog order."""
    alpha0 = AffineRoot(AffineWeight(-alg.theta, 0, 1), "even")
    rest = tuple(AffineRoot(AffineWeight(r.weight), r.parity) for r in alg.simple_roots)
    return (alpha0,) + rest


def _flip(parity: str) -> str:
    return "odd" if parity == "even" else "even"


def odd_reflect(pi: SimpleRootSet, beta: AffineRoot) -> SimpleRootSet:
    """Reflect the base at the odd isotropic member beta.

    beta must belong to pi; the result keeps each root in its slot, so the
    cardinality never changes.
    """
    if beta not in pi:
        raise ReflectionError("reflection root is not a member of the base")
    if not beta.is_odd:
        raise ReflectionError("odd reflection needs an odd root")
    if not beta.is_isotropic():
        raise ReflectionError("odd reflection needs an isotropic root")
    out = []
    for alpha in pi:
        if alpha == beta:
            out.append(AffineRoot(-beta.weight, beta.parity))
        elif affine_pair(alpha.weight, beta.weight) == 0:
            out.append(alpha)
        else:
            out.append(AffineRoot(alpha.weight + beta.weight, _flip(alpha.parity)))
    return tuple(out)


def reflected_base(alg: AlgebraData) -> SimpleRootSet:
    """The base obtained by reflecting first at alpha_1, then at
    alpha_0 + alpha_1 (always odd isotropic for the catalog)."""
    pi = affine_simple_roots(alg)
    alpha0, alpha1 = pi[0], pi[1]
    pi1 = odd_reflect(pi, alpha1)
    target = alpha0.weight + alpha1.weight
    second = next((r for r in pi1 if r.weight == target), None)
    if second is None:
        raise ReflectionError("alpha_0 + alpha_1 is not a member after the first reflection")
    return odd_reflect(pi1, second)


def eta_membership_check(alg: AlgebraData) -> Report:
    """Verify eta_i = delta - theta_i lies in the doubly reflected base."""
    rep = Report(alg.id.name)
    base = reflected_base(alg)
    for i, theta_i in enumerate(alg.theta_i):
        eta = AffineWeight(-theta_i, 0, 1)
        member = next((r for r in base if r.weight == eta), None)
        rep.add(f"affine.eta-membership[{i + 1}]",
                formula="delta - theta_i belongs to the doubly reflected base, with even parity",
                expected=True,
                computed=member is not None and member.parity == "even")
    return rep


def simple_root_set_json(pi: SimpleRootSet) -> list[dict]:
    return [
        {
            "coords": weight_json(r.weight.finite),
            "delta_mult": r.weight.c_delta.numerator,
            "parity": r.parity,
        }
        for r in pi
    ]
