"""Static data for the six admissible families and its self-validation.

Each family carries: an ambient rational coordinate space (epsilon
coordinates first, then delta coordinates), the invariant bilinear form as a
Gram matrix normalised so that the highest root theta has square length 2,
an ordered simple-root system whose first member alpha_1 is odd isotropic,
the full positive-root list (loaded from the embedded data files), the
highest roots theta_i of the simple summands of the small reductive
subalgebra g-natural, the odd root pairs gamma_1/gamma_2 with
theta - gamma_1 - gamma_2 = -theta_i, and derived invariants: the Weyl
vectors rho and rho-natural, the g-natural highest weight xi of the
half-grading, the integers chi_i = -xi(theta_i-coroot), and the dual
Coxeter number h_check = 1 + (rho|theta).

Every per-family fact lives in FAMILY_TABLE, one FamilySpec row per catalog
line; an AlgebraId finds its row once, on construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Optional

from . import rootdata
from .report import Report
from .scalars import (Frozen, Matrix, Vector, fact, rational, rational_str, set_field,
                      solve_linear, vector)

__all__ = [
    "FamilySpec",
    "FAMILY_TABLE",
    "AlgebraId",
    "Weight",
    "Root",
    "AlgebraData",
    "InvalidAlgebraError",
    "AlgebraMismatchError",
    "IsotropyError",
    "build_algebra",
    "pair",
    "coroot_pair",
    "selfcheck_algebra",
    "expected_h_check",
    "expected_chi",
    "algebra_json",
    "weight_json",
    "root_json",
]

_HALF = Fraction(1, 2)


class InvalidAlgebraError(ValueError):
    """The requested family/parameters are not in the catalog."""


class AlgebraMismatchError(ValueError):
    """Weights from different algebras were combined."""


class IsotropyError(ValueError):
    """A coroot pairing was requested against an isotropic root."""


class Roots(NamedTuple):
    """Distinguished roots of one family, as ambient coordinate tuples."""

    simple: tuple        # (coords, parity) pairs, odd isotropic alpha_1 first
    theta: tuple
    theta_i: tuple       # highest roots of the simple summands of g-natural
    gamma1: tuple        # odd pairs with theta - gamma_1 - gamma_2 = -theta_i
    gamma2: tuple


class FamilySpec(NamedTuple):
    """One catalog line: every per-family fact the library uses.

    Facts that depend on the family parameters are functions of (m, n).  The
    closed forms h_check, chi and M_slope are typed in, never derived from
    the root data, so the self-checks that compare them with the computed
    values stay independent.
    """

    name: str              # catalog line, as in the README table
    family: str            # AlgebraId.family of the line's instances
    params: int            # integer parameters in the name: spo2-<m>, d21-<m>-<n>
    check: Callable        # raises InvalidAlgebraError on bad parameters
    dims: Callable[[int, int], tuple[int, int]]  # (num_e, num_d) coordinates
    gram: Callable[[int, int], Matrix]           # invariant form, (theta|theta) = 2
    roots: Callable[[int, int], Roots]
    data: Callable[[int, int], tuple[str, Optional[int]]]  # root-data file, its bound m
    # admissible levels -k = step * q for integers q >= q0: (step, q0)
    progression: Callable[[int, int], tuple[Fraction, int]]
    h_check: Callable[[int, int], Fraction]
    chi: tuple[int, ...]
    M_slope: Callable[[int, int], tuple[Fraction, ...]]  # M_i(k) = slope_i k + chi_i
    # are extremal labels at the threshold A(k, nu) proven unitary at level k?
    proven_at_threshold: Callable[[Fraction], bool]
    m: Optional[int] = None          # the single parameter value of the line (spo2-3)
    zhu: bool = False                # top-component (Zhu) consequences are recorded
    fermionic_generator: bool = False  # the ideal generator has a fermionic mode


def matrix_diag(entries) -> Matrix:
    vals = vector(entries)
    n = len(vals)
    return tuple(tuple(vals[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))


def _no_params(aid: "AlgebraId"):
    if aid.m or aid.n:
        raise InvalidAlgebraError(f"{aid.family} takes no parameters")


def _spo2_params(aid: "AlgebraId"):
    if aid.n:
        raise InvalidAlgebraError("spo2 takes a single parameter m")
    if not isinstance(aid.m, int) or aid.m < 3 or aid.m == 4:
        raise InvalidAlgebraError(f"spo2-{aid.m}: m must be an integer >= 3 and != 4")


def _d21_params(aid: "AlgebraId"):
    if not (type(aid.m) is int and type(aid.n) is int and aid.m >= 1 and aid.n >= 1):
        raise InvalidAlgebraError("d21 needs positive integers m, n")
    if gcd(aid.m, aid.n) != 1:
        raise InvalidAlgebraError(f"d21-{aid.m}-{aid.n}: m and n must be coprime")


def _spo2_roots(m: int) -> Roots:
    """spo(2|m), m >= 5, in coordinates e_1..e_r, d_1 with r = m // 2."""
    r = m // 2

    def vec(*terms):  # (coordinate index, coefficient) pairs; index r is d1
        row = [0] * (r + 1)
        for idx, coeff in terms:
            row[idx] += coeff
        return tuple(row)

    simple = [(vec((r, 1), (0, -1)), "odd")]                               # d1 - e1
    simple += [(vec((i, 1), (i + 1, -1)), "even") for i in range(r - 1)]   # e_i - e_{i+1}
    if m % 2:
        simple.append((vec((r - 1, 1)), "even"))                           # e_r
    else:
        simple.append((vec((r - 2, 1), (r - 1, 1)), "even"))               # e_{r-1} + e_r
    return Roots(simple=tuple(simple),
                 theta=vec((r, 2)),                                         # 2 d1
                 theta_i=(vec((0, 1), (1, 1)),),                            # e1 + e2
                 gamma1=(vec((r, 1), (0, 1)),),                             # d1 + e1
                 gamma2=(vec((r, 1), (1, 1)),))                             # d1 + e2


FAMILY_TABLE: tuple[FamilySpec, ...] = (
    FamilySpec(
        name="psl2-2", family="psl2-2", params=0, check=_no_params,
        dims=lambda m, n: (2, 2),
        gram=lambda m, n: matrix_diag([1, 1, -1, -1]),
        roots=lambda m, n: Roots(
            simple=(((1, 0, -1, 0), "odd"),      # e1 - d1
                    ((0, 0, 1, -1), "even"),     # d1 - d2
                    ((0, -1, 0, 1), "odd")),     # d2 - e2
            theta=(1, -1, 0, 0),
            theta_i=((0, 0, 1, -1),),
            gamma1=((1, 0, 0, -1),),             # e1 - d2
            gamma2=((0, -1, 1, 0),)),            # d1 - e2
        data=lambda m, n: ("psl2-2", None),
        progression=lambda m, n: (Fraction(1), 2),
        h_check=lambda m, n: Fraction(0),
        chi=(-1,),
        M_slope=lambda m, n: (Fraction(-1),),
        proven_at_threshold=lambda k: True,
        zhu=True),
    FamilySpec(
        name="spo2-3", family="spo2", params=1, check=_spo2_params, m=3,
        dims=lambda m, n: (1, 1),
        gram=lambda m, n: matrix_diag([-_HALF, _HALF]),
        roots=lambda m, n: Roots(
            simple=(((-1, 1), "odd"),            # d1 - e1
                    ((1, 0), "even")),           # e1
            theta=(0, 2),                        # 2 d1
            theta_i=((1, 0),),                   # e1
            gamma1=((1, 1),),                    # d1 + e1
            gamma2=((0, 1),)),                   # d1
        data=lambda m, n: ("spo2-odd", 1),
        progression=lambda m, n: (Fraction(1, 4), 3),
        h_check=lambda m, n: _HALF,
        chi=(-2,),
        M_slope=lambda m, n: (Fraction(-4),),
        proven_at_threshold=lambda k: True,
        zhu=True, fermionic_generator=True),
    FamilySpec(
        name="spo2-m", family="spo2", params=1, check=_spo2_params,
        dims=lambda m, n: (m // 2, 1),
        gram=lambda m, n: matrix_diag([-_HALF] * (m // 2) + [_HALF]),
        roots=lambda m, n: _spo2_roots(m),
        data=lambda m, n: ("spo2-odd" if m % 2 else "spo2-even", m // 2),
        progression=lambda m, n: (_HALF, 2),
        h_check=lambda m, n: 2 - Fraction(m, 2),
        chi=(-1,),
        M_slope=lambda m, n: (Fraction(-2),),
        proven_at_threshold=lambda k: k == -1),
    FamilySpec(
        name="d21-m-n", family="d21", params=2, check=_d21_params,
        dims=lambda m, n: (3, 0),
        gram=lambda m, n: matrix_diag(
            [_HALF, Fraction(-n, 2 * (m + n)), Fraction(-m, 2 * (m + n))]),
        roots=lambda m, n: Roots(
            simple=(((1, -1, -1), "odd"),
                    ((0, 2, 0), "even"),
                    ((0, 0, 2), "even")),
            theta=(2, 0, 0),
            theta_i=((0, 2, 0), (0, 0, 2)),
            gamma1=((1, 1, -1), (1, 1, 1)),
            gamma2=((1, 1, 1), (1, -1, 1))),
        data=lambda m, n: ("d21", None),
        progression=lambda m, n: (Fraction(m * n, m + n), 1),
        h_check=lambda m, n: Fraction(0),
        chi=(-1, -1),
        M_slope=lambda m, n: (Fraction(-(m + n), n), Fraction(-(m + n), m)),
        proven_at_threshold=lambda k: False),
    FamilySpec(
        name="f4", family="f4", params=0, check=_no_params,
        dims=lambda m, n: (3, 1),
        gram=lambda m, n: matrix_diag([Fraction(-2, 3)] * 3 + [2]),
        roots=lambda m, n: Roots(
            simple=(((-_HALF, -_HALF, -_HALF, _HALF), "odd"),   # (d1 - e1 - e2 - e3)/2
                    ((0, 0, 1, 0), "even"),                     # e3
                    ((0, 1, -1, 0), "even"),                    # e2 - e3
                    ((1, -1, 0, 0), "even")),                   # e1 - e2
            theta=(0, 0, 0, 1),
            theta_i=((1, 1, 0, 0),),
            gamma1=((_HALF, _HALF, -_HALF, _HALF),),
            gamma2=((_HALF, _HALF, _HALF, _HALF),)),
        data=lambda m, n: ("f4", None),
        progression=lambda m, n: (Fraction(2, 3), 2),
        h_check=lambda m, n: Fraction(-2),
        chi=(-1,),
        M_slope=lambda m, n: (Fraction(-3, 2),),
        proven_at_threshold=lambda k: False),
    FamilySpec(
        # the third epsilon is rewritten as -e1 - e2 on input
        name="g3", family="g3", params=0, check=_no_params,
        dims=lambda m, n: (2, 1),
        # (e_i|e_i) = -1/2, (e_1|e_2) = 1/4, (d|d) = 1/2
        gram=lambda m, n: ((-_HALF, Fraction(1, 4), Fraction(0)),
                           (Fraction(1, 4), -_HALF, Fraction(0)),
                           (Fraction(0), Fraction(0), _HALF)),
        roots=lambda m, n: Roots(
            simple=(((-1, -1, 1), "odd"),        # d1 + e3
                    ((1, 0, 0), "even"),         # e1
                    ((-1, 1, 0), "even")),       # e2 - e1
            theta=(0, 0, 2),
            theta_i=((1, 2, 0),),                # e2 - e3
            gamma1=((1, 1, 1),),                 # d1 - e3
            gamma2=((0, 1, 1),)),                # d1 + e2
        data=lambda m, n: ("g3", None),
        progression=lambda m, n: (Fraction(3, 4), 2),
        h_check=lambda m, n: Fraction(-3, 2),
        chi=(-1,),
        M_slope=lambda m, n: (Fraction(-4, 3),),
        proven_at_threshold=lambda k: False),
)

_NAME_PATTERNS = tuple((re.compile(re.escape(spec.family) + "-([0-9]+)" * spec.params),
                        spec.family) for spec in FAMILY_TABLE)


class AlgebraId(Frozen):
    """One admissible family instance.

    family is one of ``psl2-2``, ``spo2`` (with m >= 3, m != 4), ``d21``
    (with coprime m, n >= 1, so the deformation parameter m/n avoids the
    degenerate values 0 and -1), ``f4``, ``g3``.  spec is its FAMILY_TABLE
    row and dim its number of ambient coordinates; neither is compared.
    """

    def __init__(self, family: str, m: int = 0, n: int = 0):
        spec = next((row for row in FAMILY_TABLE
                     if row.family == family and row.m in (None, m)), None)
        if spec is None:
            raise InvalidAlgebraError(f"unknown algebra family {family!r}")
        attrs = vars(self)
        attrs.update(family=family, m=m, n=n)
        spec.check(self)
        # every cache lookup and every weight's hash hashes the id: the
        # hash of the compared fields, computed once
        attrs.update(spec=spec, dim=sum(spec.dims(m, n)), _hash=hash((family, m, n)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the row holds functions, which do not pickle; rebuild from the fields
        return AlgebraId, (self.family, self.m, self.n)

    @property
    def name(self) -> str:
        return "-".join([self.family, *map(str, (self.m, self.n)[:self.spec.params])])

    @fact
    def rank_natural(self) -> int:
        """Rank of g-natural, read off the row without building the algebra:
        the even simple roots orthogonal to theta, as build_algebra selects
        natural_simple."""
        roots = self.spec.roots(self.m, self.n)
        g_theta = [sum(map(mul, row, roots.theta)) for row in self.spec.gram(self.m, self.n)]
        return sum(parity == "even" and sum(map(mul, coords, g_theta)) == 0
                   for coords, parity in roots.simple)

    @classmethod
    def parse(cls, text: str) -> "AlgebraId":
        """Parse a CLI-style name: psl2-2, spo2-<m>, d21-<m>-<n>, f4, g3."""
        text = text.strip().lower()
        for pattern, family in _NAME_PATTERNS:
            match = pattern.fullmatch(text)
            if match:
                return cls(family, *map(int, match.groups()))
        raise InvalidAlgebraError(f"unknown algebra name {text!r}")

    def __str__(self) -> str:
        return self.name


class Weight(Frozen):
    """A finite weight in the ambient coordinates of one algebra."""

    def __init__(self, algebra: AlgebraId, coords: Vector):
        if not (type(coords) is tuple and all(type(c) is Fraction for c in coords)):
            coords = vector(coords)
        if len(coords) != algebra.dim:
            raise AlgebraMismatchError(
                f"{algebra} weights have {algebra.dim} coordinates, got {len(coords)}")
        set_field(self, "algebra", algebra)
        set_field(self, "coords", coords)

    def _check(self, other: "Weight"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"cannot combine {self.algebra} and {other.algebra} weights")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> "Weight":
        s = rational(scalar)
        return Weight(self.algebra, tuple(s * a for a in self.coords))

    __rmul__ = __mul__


class Root(Frozen):
    def __init__(self, weight: Weight, parity: str):  # parity "even" | "odd"
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        set_field(self, "weight", weight)
        set_field(self, "parity", parity)

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"


class AlgebraData(Frozen):
    """Complete static description of one family instance (immutable)."""

    def __init__(self, id: AlgebraId, coord_names: tuple[str, ...], gram: Matrix,
                 simple_roots: tuple[Root, ...], positive_roots: tuple[Root, ...],
                 theta: Weight, theta_i: tuple[Weight, ...], xi: Weight, rho: Weight,
                 rho_nat: Weight, h_check: Fraction, chi: tuple[Fraction, ...],
                 slopes: tuple[Fraction, ...],  # 2/(theta_i|theta_i): M_i(k) = slope_i k + chi_i
                 gamma1: tuple[Weight, ...], gamma2: tuple[Weight, ...],
                 natural_simple: tuple[Root, ...], natural_fundamental: tuple[Weight, ...]):
        vars(self).update(
            id=id, coord_names=coord_names, gram=gram, simple_roots=simple_roots,
            positive_roots=positive_roots, theta=theta, theta_i=theta_i, xi=xi, rho=rho,
            rho_nat=rho_nat, h_check=h_check, chi=chi, slopes=slopes, gamma1=gamma1,
            gamma2=gamma2, natural_simple=natural_simple,
            natural_fundamental=natural_fundamental)

    @property
    def summands(self) -> int:
        """Number of simple summands of g-natural (1, or 2 for d21)."""
        return len(self.theta_i)

    @property
    def rank_natural(self) -> int:
        return len(self.natural_simple)

    @property
    def alpha1(self) -> Weight:
        """The distinguished odd isotropic simple root (first in the list)."""
        return self.simple_roots[0].weight


# per row i of the Gram matrix, (j, numerator, denominator) of each nonzero G_ij
@lru_cache(maxsize=None)
def _gram_sparse(aid: AlgebraId) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    return tuple(tuple((j, *v.as_integer_ratio()) for j, v in enumerate(row) if v != 0)
                 for row in aid.spec.gram(aid.m, aid.n))


# pair and _weight_sum add integer terms n/d over one running denominator,
# which only grows (to its lcm with d) when d does not divide it, and make
# one Fraction per result
def _weight_sum(aid: AlgebraId, terms) -> Weight:
    """sum c w over (coefficient, weight) pairs, as one Weight of aid."""
    nums = [0] * aid.dim
    dens = [1] * aid.dim
    for c, w in terms:
        cn, cd = c.as_integer_ratio()
        if cn:
            for j, v in enumerate(w.coords):
                vn, vd = v.as_integer_ratio()
                if vn:
                    d, den = cd * vd, dens[j]
                    if den % d:
                        nums[j] *= d // gcd(den, d)
                        dens[j] = den = lcm(den, d)
                    nums[j] += cn * vn * (den // d)
    return Weight(aid, tuple(map(Fraction, nums, dens)))


def pair(a: Weight, b: Weight) -> Fraction:
    """Invariant bilinear form of two weights of the same algebra."""
    if a.algebra != b.algebra:
        raise AlgebraMismatchError(f"cannot pair {a.algebra} with {b.algebra}")
    sparse = _gram_sparse(a.algebra)
    bc = b.coords
    num, den = 0, 1
    for i, ai in enumerate(a.coords):
        an, ad = ai.as_integer_ratio()
        if an:
            for j, gn, gd in sparse[i]:
                bn, bd = bc[j].as_integer_ratio()
                if bn:
                    d = ad * gd * bd
                    if den % d:
                        num, den = num * (d // gcd(den, d)), lcm(den, d)
                    num += an * gn * bn * (den // d)
    return Fraction(num, den)


def coroot_pair(w: Weight, alpha) -> Fraction:
    """Evaluate w on the coroot of alpha: 2 (w|alpha) / (alpha|alpha)."""
    root = alpha.weight if isinstance(alpha, Root) else alpha
    norm = pair(root, root)
    if norm == 0:
        raise IsotropyError("coroot pairing against an isotropic root")
    return 2 * pair(w, root) / norm


def _solve_fundamental(natural_simple: tuple[Root, ...]) -> tuple[Weight, ...]:
    """Dual basis to the g-natural simple coroots, inside their span.

    Solves omega_a(alpha_b-coroot) = delta_ab with omega_a expanded over the
    natural simple roots, in one elimination over [C | I]: C is the (exact)
    Cartan matrix of g-natural and is always nonsingular for the catalog.
    """
    roots = [r.weight for r in natural_simple]
    n = len(roots)
    norms = [pair(r, r) for r in roots]
    cartan = tuple(tuple(2 * pair(roots[b], roots[c]) / norms[c] for b in range(n))
                   for c in range(n))
    # row a holds the coefficients of omega_a over the natural simple roots
    rows = solve_linear(cartan, [[int(b == a) for b in range(n)] for a in range(n)])
    return tuple(_weight_sum(roots[0].algebra, zip(row, roots)) for row in rows)


@lru_cache(maxsize=None)
def build_algebra(aid: AlgebraId) -> AlgebraData:
    """Construct the full static data of one family instance."""
    spec, m, n = aid.spec, aid.m, aid.n
    num_e, num_d = spec.dims(m, n)
    names = (tuple(f"e{i}" for i in range(1, num_e + 1))
             + tuple(f"d{i}" for i in range(1, num_d + 1)))
    roots = spec.roots(m, n)
    simple = tuple(Root(Weight(aid, c), p) for c, p in roots.simple)
    theta = Weight(aid, roots.theta)
    theta_i = tuple(Weight(aid, c) for c in roots.theta_i)
    gamma1 = tuple(Weight(aid, c) for c in roots.gamma1)
    gamma2 = tuple(Weight(aid, c) for c in roots.gamma2)

    data_key, bound = spec.data(m, n)
    raw = rootdata.load_positive_roots(data_key, num_e=num_e, num_d=num_d, m=bound)
    positive = tuple(Root(Weight(aid, coords), parity) for parity, coords in raw)

    rho = _weight_sum(aid, ((-_HALF if r.is_odd else _HALF, r.weight) for r in positive))
    rho_nat = _weight_sum(aid, ((_HALF, r.weight) for r in positive
                               if not r.is_odd and pair(r.weight, theta) == 0))

    alpha1 = simple[0].weight
    # restriction to the Cartan of g-natural = orthogonal projection away
    # from theta; xi is minus that restriction of alpha_1
    proj_coeff = pair(alpha1, theta) / pair(theta, theta)
    xi = proj_coeff * theta - alpha1

    chi = tuple(-coroot_pair(xi, t) for t in theta_i)
    slopes = tuple(2 / pair(t, t) for t in theta_i)
    h_check = 1 + pair(rho, theta)
    natural_simple = tuple(r for r in simple
                           if not r.is_odd and pair(r.weight, theta) == 0)
    natural_fundamental = _solve_fundamental(natural_simple)

    return AlgebraData(
        id=aid,
        coord_names=names,
        gram=spec.gram(m, n),
        simple_roots=simple,
        positive_roots=positive,
        theta=theta,
        theta_i=theta_i,
        xi=xi,
        rho=rho,
        rho_nat=rho_nat,
        h_check=h_check,
        chi=chi,
        slopes=slopes,
        gamma1=gamma1,
        gamma2=gamma2,
        natural_simple=natural_simple,
        natural_fundamental=natural_fundamental,
    )


def expected_h_check(aid: AlgebraId) -> Fraction:
    """Catalog dual Coxeter number of the family (closed form)."""
    return aid.spec.h_check(aid.m, aid.n)


def expected_chi(aid: AlgebraId) -> tuple[Fraction, ...]:
    """Catalog chi values: -2 for spo2-3, otherwise -1 per summand."""
    return tuple(Fraction(c) for c in aid.spec.chi)


def _in_natural_cone(alg: AlgebraData, weights) -> bool:
    """Is every w of weights a nonnegative-integer combination of the
    g-natural simple roots?

    Since omega_a(alpha_b-coroot) = delta_ab, the coefficient of alpha_a in
    w = sum_b c_b alpha_b is c_a = 2 (w|omega_a) / (alpha_a|alpha_a).  The
    alpha_a are independent, so w lies in their span exactly when the
    expansion with these coefficients reproduces w.
    """
    roots = [r.weight for r in alg.natural_simple]
    norms = [pair(r, r) for r in roots]
    for w in weights:
        coeffs = [2 * pair(w, o) / norm for o, norm in zip(alg.natural_fundamental, norms)]
        if (_weight_sum(alg.id, zip(coeffs, roots)) != w
                or not all(c.denominator == 1 and c >= 0 for c in coeffs)):
            return False
    return True


def selfcheck_algebra(alg: AlgebraData) -> Report:
    """Validate every catalog invariant of one family instance."""
    rep = Report(alg.id.name)

    rep.add("catalog.theta-norm", formula="(theta|theta) = 2",
            expected=Fraction(2), computed=pair(alg.theta, alg.theta))

    rep.add("catalog.alpha1-isotropic", formula="(alpha_1|alpha_1) = 0",
            expected=Fraction(0), computed=pair(alg.alpha1, alg.alpha1))

    rep.add("catalog.theta-alpha1", formula="(theta|alpha_1) = 1",
            expected=Fraction(1), computed=pair(alg.theta, alg.alpha1))

    rep.add("catalog.dual-coxeter", formula="1 + (rho|theta) equals the catalog h_check",
            expected=expected_h_check(alg.id), computed=1 + pair(alg.rho, alg.theta))

    rep.add("catalog.chi-values", formula="-xi(theta_i-coroot) equals the catalog chi_i",
            expected=expected_chi(alg.id),
            computed=tuple(-coroot_pair(alg.xi, t) for t in alg.theta_i))

    for i in range(alg.summands):
        rep.add(f"catalog.gamma-decomposition[{i + 1}]",
                formula="theta - gamma_1 - gamma_2 = -theta_i",
                expected=(-alg.theta_i[i]).coords,
                computed=(alg.theta - alg.gamma1[i] - alg.gamma2[i]).coords)

    odd_pos = [r.weight for r in alg.positive_roots if r.is_odd]
    gammas_listed = all(g in odd_pos for g in alg.gamma1 + alg.gamma2)
    rep.add("catalog.gamma-odd-positive", formula="gamma_1, gamma_2 are odd positive roots",
            expected=True, computed=gammas_listed)

    coords = [r.weight.coords for r in alg.positive_roots]
    pos_set = set(coords)
    no_dups = len(pos_set) == len(coords)
    no_neg = all(tuple(-c for c in w) not in pos_set for w in coords)
    simple_listed = all(s.weight.coords in pos_set for s in alg.simple_roots)
    rep.add("catalog.positive-root-sanity",
            formula="positive roots: no duplicates, no alpha with -alpha, simples included",
            expected=True, computed=no_dups and no_neg and simple_listed)

    theta_pairs = [pair(r.weight, alg.theta) for r in alg.positive_roots]
    grading_ok = True
    theta_count = 0
    for r, g in zip(alg.positive_roots, theta_pairs):
        if r.is_odd:
            grading_ok = grading_ok and g == 1
        else:
            grading_ok = grading_ok and g in (0, 2)
            if g == 2:
                theta_count += 1
                grading_ok = grading_ok and r.weight == alg.theta
    rep.add("catalog.parity-grading",
            formula="odd positives sit in x-degree 1/2, even in degree 0 or 1 (theta only)",
            expected=True, computed=grading_ok and theta_count == 1)

    natural_pos = [r.weight for r, g in zip(alg.positive_roots, theta_pairs)
                   if not r.is_odd and g == 0]
    rep.add("catalog.natural-span",
            formula="every positive g-natural root is a Z+-combination of the natural simples",
            expected=True, computed=_in_natural_cone(alg, natural_pos))

    highest = True
    for t in alg.theta_i:
        highest = highest and t.coords in pos_set
        for s in alg.natural_simple:
            highest = highest and (t + s.weight).coords not in pos_set
    rep.add("catalog.theta-i-highest",
            formula="each theta_i is a positive g-natural root and theta_i + simple is never a root",
            expected=True, computed=highest)

    duality = all(
        coroot_pair(alg.natural_fundamental[a], alg.natural_simple[b]) == int(a == b)
        for a in range(alg.rank_natural) for b in range(alg.rank_natural))
    orthogonal = all(pair(w, alg.theta) == 0 for w in alg.natural_fundamental)
    rep.add("catalog.fundamental-duality",
            formula="omega_a(alpha_b-coroot) = delta_ab and omega_a orthogonal to theta",
            expected=True, computed=duality and orthogonal)

    xi_dominant = all(
        (lambda v: v.denominator == 1 and v >= 0)(coroot_pair(alg.xi, s))
        for s in alg.natural_simple)
    rep.add("catalog.xi-dominant", formula="xi is a dominant integral weight of g-natural",
            expected=True, computed=xi_dominant)

    return rep


def weight_json(w: Weight) -> list[str]:
    return [rational_str(c) for c in w.coords]


def root_json(r: Root) -> dict:
    return {"coords": weight_json(r.weight), "parity": r.parity}


def algebra_json(alg: AlgebraData) -> dict:
    """Deterministic JSON form of the full static data."""
    return {
        "algebra": alg.id.name,
        "coordinates": list(alg.coord_names),
        "gram": [[rational_str(v) for v in row] for row in alg.gram],
        "simple_roots": [root_json(r) for r in alg.simple_roots],
        "positive_roots": [root_json(r) for r in alg.positive_roots],
        "theta": weight_json(alg.theta),
        "theta_i": [weight_json(w) for w in alg.theta_i],
        "xi": weight_json(alg.xi),
        "rho": weight_json(alg.rho),
        "rho_nat": weight_json(alg.rho_nat),
        "h_check": rational_str(alg.h_check),
        "chi": [rational_str(c) for c in alg.chi],
        "gamma1": [weight_json(w) for w in alg.gamma1],
        "gamma2": [weight_json(w) for w in alg.gamma2],
        "natural_simple": [root_json(r) for r in alg.natural_simple],
        "natural_fundamental": [weight_json(w) for w in alg.natural_fundamental],
    }
