"""Exact rational scalars and small dense exact linear algebra.

Every scalar in the math core is a `fractions.Fraction`: arithmetic is exact,
values are kept in lowest terms with a positive denominator, and floats are
rejected at the boundary so binary rounding can never leak in.  So are bools,
which Python counts as the ints 0 and 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction]

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

__all__ = [
    "Vector",
    "Matrix",
    "DimensionError",
    "SingularMatrixError",
    "rational",
    "rational_str",
    "vector",
    "solve_linear",
    "Frozen",
    "FrozenInstanceError",
]


class DimensionError(ValueError):
    """Operands have incompatible or non-square dimensions."""


class SingularMatrixError(ValueError):
    """A linear solve hit a singular matrix; carries the rank reached."""

    def __init__(self, rank: int):
        super().__init__(f"singular matrix (rank {rank})")
        self.rank = rank


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a Frozen value."""


# how the __init__ of a Frozen value sets its fields
set_field = object.__setattr__


class Frozen:
    """Base of walg's immutable value classes.

    A subclass's fields are the two or more parameters of its own
    ``__init__``, which validates them and sets them with set_field or
    through ``vars(self)``.  Instances keep a ``__dict__``, which holds
    each ``fact`` read.  Two values are equal when they are of the same
    class and their fields are equal as a tuple; any other operand gets
    NotImplemented.  A value hashes as that tuple and reprs as
    ``Name(field=value, ...)``.  Assigning or deleting any attribute raises
    FrozenInstanceError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class fact:
    """A fact of a Frozen value: computed by the method on the first read and
    kept in the instance's ``__dict__`` under its name, which later reads
    find first.  As with the standard library's cached property on Python
    3.12+, no lock is taken: racing threads may each compute the fact (a
    pure one), and all of them read the value kept first."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


# ASCII digits only: Fraction() alone would also read "1_0" and "٣"
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` string to an exact Fraction.

    Strings must be integers or fractions; decimal notation is rejected so
    no precision question can ever arise.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"{type(value).__name__} values are not exact rationals; "
                        "pass an int, Fraction, or 'p/q' string")
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValueError(f"not a p/q rational: {value!r}")
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the rational {value!r}") from None
    return Fraction(value)


def rational_str(value: RationalLike) -> str:
    """Render as ``p/q``, or plain ``n`` when the denominator is 1."""
    num, den = rational(value).as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def vector(entries: Iterable[RationalLike]) -> Vector:
    return tuple(rational(x) for x in entries)


def solve_linear(a: Matrix, b):
    """Solve ``A x = b`` exactly by Gauss-Jordan elimination.

    b is one right-hand side (a Vector), answered by one solution Vector, or
    a sequence of right-hand sides, answered by a tuple of solutions in
    their order; all of them are reduced in one pass over ``[A | b...]``.
    Pivoting takes the first nonzero entry in each column; there is no
    tolerance anywhere, a pivot is either zero or usable.  A must be square
    and nonsingular: a singular A raises :class:`SingularMatrixError`
    carrying the rank that was reached.

    The elimination runs on integers: each row of ``[A | b...]`` is scaled
    by the lcm of its denominators, a row is reduced by cross-multiplying
    with the pivot row and divided by its gcd, and each solution entry is
    one Fraction at the end.  Every integer row is a nonzero multiple of the
    row a rational elimination would hold, so the pivots, the rank and the
    solutions are the same.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError("solve_linear needs a square matrix")
    several = bool(b) and isinstance(b[0], (tuple, list))
    sides = b if several else (b,)
    if any(len(side) != n for side in sides):
        raise DimensionError("right-hand side length does not match the matrix")
    aug = []
    for i, row in enumerate(a):
        row = [rational(v) for v in row] + [rational(side[i]) for side in sides]
        scale = lcm(*(v.denominator for v in row))
        aug.append([v.numerator * (scale // v.denominator) for v in row])
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        top = aug[rank]
        for r in range(n):
            if r != rank and (f := aug[r][col]):
                row = [top[col] * v - f * w for v, w in zip(aug[r], top)]
                g = gcd(*row) or 1
                aug[r] = [v // g for v in row]
        rank += 1
    if rank < n:
        raise SingularMatrixError(rank)
    solutions = tuple(tuple(Fraction(row[n + j], row[i]) for i, row in enumerate(aug))
                      for j in range(len(sides)))
    return solutions if several else solutions[0]
