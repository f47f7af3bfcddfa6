from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from walg.scalars import (DimensionError, SingularMatrixError, rational,
                          rational_str, solve_linear, vector)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_basic_arithmetic():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(-3, 4) * F(-4, 3) == 1


def test_level_scalar_hand_oracle():
    # 2k/(theta_1|theta_1) with k = -3/4 and square length -1/2 gives 3,
    # the chi-free part of the affine level for spo2-3
    k = F(-3, 4)
    assert 2 * k / F(-1, 2) == 3


def test_rational_parsing_and_rendering():
    assert rational("3/4") == F(3, 4)
    assert rational("-7") == -7
    assert rational(F(2, 6)) == F(1, 3)
    assert rational_str(F(5, 10)) == "1/2"
    assert rational_str(F(-4, 2)) == "-2"
    assert rational_str(7) == "7"


@pytest.mark.parametrize("text", ["1/0", "-3/00", "+7/0"])
def test_rational_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator") as info:
        rational(text)
    assert repr(text) in str(info.value)


@pytest.mark.parametrize("text", ["-\u0663", "1/\u0662", "1_0", "1/2_0"])
def test_rational_reads_ascii_digits_only(text):
    # Fraction() alone reads the Arabic-Indic digits three and two
    with pytest.raises(ValueError, match=f"^not a p/q rational: '{text}'$"):
        rational(text)


# the texts that _RATIONAL_TEXT accepts: a sign or none, ASCII digits with
# leading zeros, perhaps "/" and more digits, in surrounding whitespace
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=30)
SPACE = st.text(alphabet=" \t\n\r\f\v", max_size=2)
RATIONAL_TEXTS = st.builds(
    lambda pad, sign, zeros, num, den, tail: f"{pad}{sign}{zeros}{num}{den}{tail}",
    SPACE, st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "000"]), DIGITS,
    st.just("") | DIGITS.filter(lambda d: d.strip("0")).map("/{}".format),
    SPACE)


@settings(max_examples=500)
@given(RATIONAL_TEXTS)
def test_rational_text_reads_as_fraction_reads_it(text):
    assert rational(text) == F(text.strip())
    assert type(rational(text)) is F


@pytest.mark.parametrize("text", ["0.5", "1e3", "1/2/3", "/2", "1/", "- 1", "1 /2", ""])
def test_rational_refuses_what_is_not_p_over_q(text):
    with pytest.raises(ValueError) as info:
        rational(text)
    assert str(info.value) == f"not a p/q rational: {text!r}"


@given(st.one_of(st.integers(-2**100, 2**100), st.fractions(), RATIONAL_TEXTS))
def test_rational_str_writes_what_fraction_writes(value):
    assert rational_str(value) == str(rational(value))


@pytest.mark.parametrize("value, error", [(0.5, TypeError), (True, TypeError),
                                          ("0.5", ValueError), ("1/0", ValueError)])
def test_rational_str_refuses_what_rational_refuses(value, error):
    with pytest.raises(error):
        rational_str(value)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F(1, 2) / F(0)


def test_solve_identity_returns_rhs():
    b = vector([F(1, 3), -2, F(7, 5)])
    assert solve_linear(((1, 0, 0), (0, 1, 0), (0, 0, 1)), b) == b


def test_solve_one_by_one():
    assert solve_linear(((2,),), vector([3])) == (F(3, 2),)


def test_solve_d21_cone_system():
    # cone basis {(-a2, 0), (-a3, 0), ((a2+a3)/2, 1/2)} against
    # (mq a2, mq) - (nq a3, nq) at (m, n, q) = (2, 1, 1)
    h = F(1, 2)
    a = ((-1, 0, h), (0, -1, h), (0, 0, h))
    b = vector([2, -1, 1])
    assert solve_linear(a, b) == (F(-1), F(2), F(2))


def test_solve_singular_reports_rank():
    a = ((1, 2), (2, 4))
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(a, vector([1, 1]))
    assert err.value.rank == 1


def test_solve_singular_with_a_consistent_side_reports_rank():
    # the second row of [A | b] reduces to all zeros
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(((1, 2), (2, 4)), [vector([1, 2]), vector([0, 0])])
    assert err.value.rank == 1


def test_dimension_checks():
    with pytest.raises(DimensionError):
        solve_linear(((1, 2),), vector([1]))
    with pytest.raises(DimensionError):
        solve_linear(((1, 0), (0, 1)), vector([1]))


@given(rationals, rationals, rationals)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(rationals.filter(lambda x: x != 0))
def test_multiplicative_inverse(a):
    assert a * (1 / a) == 1


@settings(max_examples=40)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(rationals, min_size=n, max_size=n))))
def test_solve_resubstitution(data):
    rows, rhs = data
    b = vector(rhs)
    try:
        x = solve_linear(rows, b)
    except SingularMatrixError:
        return
    assert tuple(sum(a * xi for a, xi in zip(row, x)) for row in rows) == b


# --- several right-hand sides in one elimination -----------------------------

def square_systems(singular: bool):
    """An n x n matrix and 1-4 right-hand sides; singular ones repeat a
    multiple of their first row last."""
    def system(n):
        rows = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
        if singular:
            rows = st.tuples(rows, rationals).map(
                lambda r: r[0][:-1] + [[r[1] * x for x in r[0][0]]])
        return st.tuples(rows, st.lists(st.lists(rationals, min_size=n, max_size=n),
                                        min_size=1, max_size=4))
    return st.integers(2 if singular else 1, 4).flatmap(system)


@settings(max_examples=60)
@given(square_systems(singular=False))
def test_several_right_hand_sides_equal_one_solve_each(data):
    rows, sides = data
    try:
        singles = tuple(solve_linear(rows, vector(b)) for b in sides)
    except SingularMatrixError as err:
        with pytest.raises(SingularMatrixError) as several:
            solve_linear(rows, [vector(b) for b in sides])
        assert several.value.rank == err.rank
        return
    assert solve_linear(rows, [vector(b) for b in sides]) == singles
    assert solve_linear(rows, tuple(map(tuple, sides))) == singles


@settings(max_examples=40)
@given(square_systems(singular=True))
def test_several_right_hand_sides_report_the_same_rank(data):
    rows, sides = data
    with pytest.raises(SingularMatrixError) as one:
        solve_linear(rows, vector(sides[0]))
    with pytest.raises(SingularMatrixError) as several:
        solve_linear(rows, [vector(b) for b in sides])
    assert several.value.rank == one.value.rank < len(rows)


def rational_gauss_jordan(rows, sides):
    """The elimination solve_linear ran on Fractions before it ran on
    integers: the first nonzero pivot per column, each pivot row scaled to
    1.  Returns the solutions, or the rank reached on a singular matrix."""
    n = len(rows)
    aug = [[F(v) for v in row] + [F(side[i]) for side in sides] for i, row in enumerate(rows)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        aug[rank] = [v / aug[rank][col] for v in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[rank])]
        rank += 1
    if rank < n:
        return rank
    return tuple(tuple(row[n + j] for row in aug) for j in range(len(sides)))


@settings(max_examples=80)
@given(st.booleans().flatmap(square_systems))
def test_the_integer_elimination_matches_the_rational_one(data):
    rows, sides = data
    expected = rational_gauss_jordan(rows, sides)
    if isinstance(expected, int):
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(rows, [vector(b) for b in sides])
        assert err.value.rank == expected
    else:
        assert solve_linear(rows, [vector(b) for b in sides]) == expected


@pytest.mark.parametrize("sides", [
    [vector([1])],
    [vector([1, 0]), vector([1])],
    [vector([1]), vector([1, 0])],
    [vector([1, 0]), vector([0, 1]), vector([1, 2, 3])],
], ids=["only", "last", "first", "third"])
def test_several_right_hand_sides_reject_a_wrong_length(sides):
    with pytest.raises(DimensionError):
        solve_linear(((1, 0), (0, 1)), sides)
