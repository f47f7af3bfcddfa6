import ast
import pickle
from fractions import Fraction as F
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import walg
from walg.affine import eta_membership_check
from walg.catalog import (FAMILY_TABLE, AlgebraData, AlgebraId, AlgebraMismatchError,
                          InvalidAlgebraError, IsotropyError, Root, Weight,
                          _in_natural_cone, _weight_sum, build_algebra, coroot_pair,
                          expected_chi, expected_h_check, pair,
                          selfcheck_algebra)
from walg.scalars import solve_linear, vector

ALL_NAMES = ["psl2-2", "spo2-3", "spo2-5", "spo2-6", "spo2-7", "spo2-8",
             "d21-2-1", "d21-3-1", "d21-3-2", "d21-5-2", "d21-5-3", "f4", "g3"]


def alg(name):
    return build_algebra(AlgebraId.parse(name))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_selfcheck_all_pass(name):
    report = selfcheck_algebra(alg(name))
    assert report.all_pass, [e.line() for e in report.failures()]


# the last three hold a non-ASCII digit or a "_", which int() alone would read
@pytest.mark.parametrize("bad", ["spo2-4", "spo2-2", "spo2-1", "d21-2-4", "d21-6-3",
                                 "spo2-\u0665", "d21-\u0663-2", "spo2-1_0"])
def test_invalid_ids_rejected(bad):
    with pytest.raises(InvalidAlgebraError):
        AlgebraId.parse(bad)


@pytest.mark.parametrize("args,message", [
    (("f4", 1), "f4 takes no parameters"),
    (("spo2", 5, 1), "spo2 takes a single parameter m"),
    (("e8",), "unknown algebra family 'e8'"),
], ids=["no-parameters", "single-parameter", "unknown-family"])
def test_algebra_id_rejects_wrong_parameters(args, message):
    with pytest.raises(InvalidAlgebraError, match=f"^{message}$"):
        AlgebraId(*args)


@pytest.mark.parametrize("m,n", [(True, 2), (2, True), (1, True)])
def test_d21_rejects_bool_parameters(m, n):
    with pytest.raises(InvalidAlgebraError):
        AlgebraId("d21", m, n)


WIDE_GRID = ([f"spo2-{m}" for m in range(5, 33)]
             + [f"d21-{m}-{n}" for m in range(1, 10) for n in range(1, 10) if gcd(m, n) == 1])


@pytest.mark.parametrize("name", WIDE_GRID)
def test_catalog_invariants_on_the_wide_grid(name):
    a = alg(name)
    for report in (selfcheck_algebra(a), eta_membership_check(a)):
        assert report.all_pass, [e.line() for e in report.failures()]


@pytest.mark.parametrize("name", ALL_NAMES + WIDE_GRID + ["spo2-33", "d21-1-1"])
def test_rank_is_read_off_the_table_row(name):
    # AlgebraId.rank_natural counts from the row what build_algebra selects
    assert AlgebraId.parse(name).rank_natural == alg(name).rank_natural


def test_d21_1_1_is_constructible_but_off_the_sampling_grid():
    # coprime (1, 1) passes the id invariants; it is simply never sampled
    a = alg("d21-1-1")
    assert selfcheck_algebra(a).all_pass


def test_unknown_name_rejected():
    with pytest.raises(InvalidAlgebraError):
        AlgebraId.parse("sl2-3")


def test_psl22_gram_and_theta():
    a = alg("psl2-2")
    e1 = Weight(a.id, [1, 0, 0, 0])
    e2 = Weight(a.id, [0, 1, 0, 0])
    d1 = Weight(a.id, [0, 0, 1, 0])
    d2 = Weight(a.id, [0, 0, 0, 1])
    assert pair(e1, e1) == 1 and pair(e2, e2) == 1
    assert pair(d1, d1) == -1 and pair(d2, d2) == -1
    assert pair(e1, d1) == 0 and pair(e1, e2) == 0
    assert a.theta == e1 - e2


def test_spo23_table_values():
    a = alg("spo2-3")
    assert a.h_check == F(1, 2)
    assert a.chi == (F(-2),)
    e1 = Weight(a.id, [1, 0])
    assert pair(e1, e1) == F(-1, 2)


def test_d21_two_summands():
    a = alg("d21-3-2")
    assert a.theta_i == (Weight(a.id, [0, 2, 0]), Weight(a.id, [0, 0, 2]))
    assert a.chi == (F(-1), F(-1))


def test_f4_gram_entries():
    a = alg("f4")
    e1 = Weight(a.id, [1, 0, 0, 0])
    e2 = Weight(a.id, [0, 1, 0, 0])
    assert pair(e1, e2) == 0
    assert pair(e1, e1) == F(-2, 3)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_theta_square_length_is_two(name):
    a = alg(name)
    assert pair(a.theta, a.theta) == 2


@pytest.mark.parametrize("name,value", [
    ("g3", F(-3, 2)), ("f4", F(-2)), ("psl2-2", F(0)),
    ("spo2-3", F(1, 2)), ("spo2-5", F(-1, 2)), ("spo2-8", F(-2)),
    ("d21-5-3", F(0)),
])
def test_dual_coxeter_recomputation(name, value):
    a = alg(name)
    assert 1 + pair(a.rho, a.theta) == value
    assert expected_h_check(a.id) == value
    assert a.h_check == value


def test_coroot_pair_examples():
    a = alg("spo2-3")
    omega1 = a.natural_fundamental[0]
    theta1 = a.theta_i[0]
    assert omega1 == Weight(a.id, [F(1, 2), 0])
    assert coroot_pair(omega1, theta1) == 1
    assert coroot_pair(theta1, theta1) == 2

    b = alg("psl2-2")
    assert coroot_pair(b.natural_fundamental[0], b.theta_i[0]) == 1


@pytest.mark.parametrize("name", ["psl2-2", "spo2-7", "d21-5-3", "f4", "g3"])
def test_pair_symmetric_bilinear(name):
    a = alg(name)
    dim = len(a.coord_names)
    u = Weight(a.id, [F(i + 1, 3) for i in range(dim)])
    v = Weight(a.id, [F(2 - i, 5) for i in range(dim)])
    w = Weight(a.id, [F((-1) ** i, 7) for i in range(dim)])
    assert pair(u, v) == pair(v, u)
    assert pair(u + w, v) == pair(u, v) + pair(w, v)
    assert pair(F(3, 2) * u, v) == F(3, 2) * pair(u, v)


# --- pair, coroot_pair and _weight_sum against plain Fraction sums ----------

# zero, negative and fractional coordinates, denominators up to 12
coordinates = st.one_of(st.just(F(0)),
                        st.fractions(min_value=-20, max_value=20, max_denominator=12))


def draw_algebra(data, row) -> AlgebraId:
    """An instance of a FAMILY_TABLE row, its parameters drawn."""
    if row.params == 0 or row.m is not None:
        return AlgebraId(row.family, row.m or 0)
    if row.params == 1:
        return AlgebraId(row.family, data.draw(st.integers(5, 20)))
    m, n = data.draw(st.tuples(st.integers(1, 9), st.integers(1, 9))
                     .filter(lambda mn: gcd(*mn) == 1))
    return AlgebraId(row.family, m, n)


def gram_product(a: Weight, b: Weight) -> F:
    """sum a_i G_ij b_j over the full Gram matrix of the table row."""
    aid = a.algebra
    gram = aid.spec.gram(aid.m, aid.n)
    return sum((x * g * y for x, row in zip(a.coords, gram) for g, y in zip(row, b.coords)),
               F(0))


@pytest.mark.parametrize("row", FAMILY_TABLE, ids=lambda row: row.name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_pairings_match_plain_fractions(row, data):
    aid = draw_algebra(data, row)
    weights = st.lists(coordinates, min_size=aid.dim, max_size=aid.dim).map(
        lambda coords: Weight(aid, coords))
    a, b = data.draw(weights), data.draw(weights)
    assert pair(a, b) == gram_product(a, b)
    norm = gram_product(b, b)
    if norm:
        assert coroot_pair(a, b) == 2 * gram_product(a, b) / norm
    else:
        with pytest.raises(IsotropyError):
            coroot_pair(a, b)
    terms = data.draw(st.lists(st.tuples(st.one_of(coordinates, st.integers(-6, 6)), weights),
                               max_size=6))
    total = _weight_sum(aid, terms)
    assert total.coords == tuple(sum((c * w.coords[j] for c, w in terms), F(0))
                                 for j in range(aid.dim))
    assert all(type(x) is F for x in total.coords)
    # d21-2-1 and d21-3-1 share a dimension but not a form
    for other in (AlgebraId("d21", 2, 1), AlgebraId("d21", 3, 1), AlgebraId("g3")):
        if other != aid:
            with pytest.raises(AlgebraMismatchError):
                pair(a, Weight(other, [1] * other.dim))


def test_coroot_pair_rejects_isotropic():
    a = alg("psl2-2")
    with pytest.raises(IsotropyError):
        coroot_pair(a.theta, a.alpha1)


def test_fundamental_weight_examples():
    assert alg("spo2-3").natural_fundamental[0] == Weight(alg("spo2-3").id, [F(1, 2), 0])
    b = alg("psl2-2")
    assert b.natural_fundamental[0] == Weight(b.id, [0, 0, F(1, 2), F(-1, 2)])
    c = alg("d21-3-2")
    assert c.natural_fundamental == (Weight(c.id, [0, 1, 0]), Weight(c.id, [0, 0, 1]))


@pytest.mark.parametrize("name", ALL_NAMES + [n for n in WIDE_GRID if n not in ALL_NAMES])
def test_fundamental_duality(name):
    # each omega_a also equals its own one-right-hand-side solve of the
    # Cartan system, recombined over the natural simple roots by plain sums
    a = alg(name)
    roots = [s.weight for s in a.natural_simple]
    n = len(roots)
    cartan = tuple(tuple(coroot_pair(roots[b], roots[c]) for b in range(n)) for c in range(n))
    for i, w in enumerate(a.natural_fundamental):
        row = solve_linear(cartan, vector(int(b == i) for b in range(n)))
        assert w.coords == tuple(sum((x * r.coords[j] for x, r in zip(row, roots)), F(0))
                                 for j in range(a.id.dim))
        assert pair(w, a.theta) == 0
        for j, s in enumerate(a.natural_simple):
            assert coroot_pair(w, s) == int(i == j)


# an algebra of each FAMILY_TABLE row: spo2-m up to m = 64, d21-m-n with
# coprime m, n < 12
_ROW_NAMES = st.one_of(
    st.sampled_from(["psl2-2", "spo2-3", "f4", "g3"]),
    st.integers(5, 64).map("spo2-{}".format),
    st.tuples(st.integers(1, 11), st.integers(1, 11)).filter(lambda mn: gcd(*mn) == 1)
    .map(lambda mn: "d21-{}-{}".format(*mn)))


@settings(max_examples=40, deadline=None)
@given(_ROW_NAMES)
@example("spo2-64")
def test_fundamental_weights_are_dual_on_every_row(name):
    """The one solve of the Cartan system gives weights dual to the natural
    simple coroots and orthogonal to theta, on algebras past the grid too."""
    a = alg(name)
    for i, w in enumerate(a.natural_fundamental):
        assert pair(w, a.theta) == 0
        duals = [coroot_pair(w, s) for s in a.natural_simple]
        assert duals == [int(i == j) for j in range(len(duals))]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_positive_roots_closed_under_negation_exclusion(name):
    a = alg(name)
    coords = {r.weight.coords for r in a.positive_roots}
    for w in coords:
        assert tuple(-c for c in w) not in coords


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gamma_pairs_reproduce_theta_i(name):
    a = alg(name)
    for i in range(a.summands):
        assert a.theta - a.gamma1[i] - a.gamma2[i] == -a.theta_i[i]


def test_xi_restriction_identity():
    # (xi|theta_i-coroot) = -chi_i for every family
    for name in ALL_NAMES:
        a = alg(name)
        for t, c in zip(a.theta_i, a.chi):
            assert coroot_pair(a.xi, t) == -c
        assert expected_chi(a.id) == a.chi


def test_weight_algebra_mismatch():
    a = alg("f4")
    b = alg("g3")
    with pytest.raises(AlgebraMismatchError):
        pair(a.theta, b.theta)
    with pytest.raises(AlgebraMismatchError):
        a.theta + b.theta
    with pytest.raises(AlgebraMismatchError):
        Weight(a.id, [1, 2, 3])


def test_root_isotropy_is_derived():
    a = alg("spo2-3")
    alpha1 = a.simple_roots[0]
    assert alpha1.is_odd and pair(alpha1.weight, alpha1.weight) == 0
    # d1 is odd but not isotropic
    d1 = next(r for r in a.positive_roots
              if r.is_odd and r.weight == Weight(a.id, [0, 1]))
    assert pair(d1.weight, d1.weight) != 0
    with pytest.raises(ValueError, match="^parity must be 'even' or 'odd', got 'Odd'$"):
        Root(d1.weight, "Odd")


def test_build_is_cached_and_immutable():
    a1 = alg("g3")
    a2 = alg("g3")
    assert a1 is a2
    with pytest.raises(AttributeError):
        a1.h_check = F(0)  # frozen


def test_algebra_ids_and_data_pickle():
    a = alg("d21-3-2")
    assert pickle.loads(pickle.dumps(a)) == a
    assert pickle.loads(pickle.dumps(a.id)).spec is a.id.spec


@pytest.mark.parametrize("name", ALL_NAMES)
def test_equal_algebra_ids_hash_equal(name):
    """AlgebraId keeps its hash, computed once, and it is the hash of the
    compared fields that the generated dataclass hash would give."""
    aid = AlgebraId.parse(name)
    twin = AlgebraId(aid.family, aid.m, aid.n)
    assert twin == aid and twin is not aid
    assert hash(twin) == hash(aid) == hash((aid.family, aid.m, aid.n))
    assert {aid: 1}[twin] == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_algebra_id_pickle_keeps_its_hash(name):
    aid = AlgebraId.parse(name)
    back = pickle.loads(pickle.dumps(aid))
    assert back == aid and hash(back) == hash(aid)
    assert back.spec is aid.spec and back.dim == aid.dim


FAMILY_WORDS = ("family", "fam")


def family_branches(tree):
    """Line numbers of comparisons that branch on the family: a family name
    or attribute compared with anything but another one, any comparison with
    a family-name literal, and the spo2-3 special case m == 3."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = [getattr(o, "attr", getattr(o, "id", None)) for o in operands]
        consts = [c.value for o in operands for c in ast.walk(o)
                  if isinstance(c, ast.Constant)]
        equality = all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if (any(isinstance(v, str) and v.startswith(("psl2", "spo2", "d21", "f4", "g3"))
                for v in consts)
                or (any(n in FAMILY_WORDS for n in names)
                    and not all(n in FAMILY_WORDS for n in names))
                or (equality and "m" in names and 3 in consts)):
            yield node.lineno


def test_family_branches_are_detected():
    code = """
if aid.family == "d21": pass
if fam in ("psl2-2", "f4"): pass
if text in ("psl2-2", "f4"): pass
if alg.id.family != other: pass
if aid.m == 3: pass
if aid.m < 3 or aid.m == 4 or row.family == aid.family: pass
"""
    assert list(family_branches(ast.parse(code))) == [2, 3, 4, 5, 6]


def test_no_family_branches_outside_the_table():
    # per-family facts live in catalog.FAMILY_TABLE; code reads them from a row
    src = Path(walg.__file__).parent
    hits = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
            for line in family_branches(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []


def _in_natural_cone_by_gram(alg: AlgebraData, w: Weight) -> bool:
    """Is w a nonnegative-integer combination of the g-natural simple roots?

    Solves for the coefficients via the (nonsingular) Gram matrix of the
    natural simple roots, then verifies the expansion reproduces w exactly.
    """
    roots = [r.weight for r in alg.natural_simple]
    n = len(roots)
    gram = tuple(tuple(pair(roots[a], roots[b]) for b in range(n)) for a in range(n))
    rhs = vector(pair(w, roots[a]) for a in range(n))
    coeffs = solve_linear(gram, rhs)
    recombined = Weight(alg.id, [0] * alg.id.dim)
    for c, r in zip(coeffs, roots):
        recombined = recombined + c * r
    if recombined != w:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coeffs)


def natural_span_candidates(a):
    """Roots in and out of the natural cone, off-lattice and off-span weights."""
    simple = [s.weight for s in a.natural_simple]
    for r in a.positive_roots:
        yield r.weight
        yield -r.weight
    for s, t in product(simple, repeat=2):
        yield s + t
    for s in simple:
        yield F(1, 2) * s
    yield from (a.theta, a.xi, a.rho)


def test_natural_span_matches_the_gram_solve():
    names = ALL_NAMES + ["spo2-9", "spo2-16", "d21-7-4"]
    tried = inside = 0
    for name in names:
        a = alg(name)
        for w in natural_span_candidates(a):
            expected = _in_natural_cone_by_gram(a, w)
            assert _in_natural_cone(a, [w]) is expected, (name, w)
            tried += 1
            inside += expected
    assert tried == 738
    assert 0 < inside < tried


@pytest.mark.parametrize("name", ALL_NAMES)
def test_natural_span_reads_the_fundamental_weights(name):
    # omega_1 + alpha_last/3 is no longer dual to the simple coroots, and the
    # coefficients read off it no longer rebuild the natural roots
    a = alg(name)
    shifted = a.natural_fundamental[0] + F(1, 3) * a.natural_simple[-1].weight
    fields = {f: getattr(a, f) for f in AlgebraData._fields}
    bad = AlgebraData(**{**fields, "natural_fundamental": (shifted,) + a.natural_fundamental[1:]})
    failed = {e.check_id for e in selfcheck_algebra(bad).failures()}
    assert {"catalog.fundamental-duality", "catalog.natural-span"} <= failed
