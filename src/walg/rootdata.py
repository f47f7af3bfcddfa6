"""Loader for the embedded positive-root data files.

Each family ships one human-readable text file (``data/<family>.roots``) with
one positive root, or one indexed pattern of positive roots, per line:

    <parity> <expression> [for 1<=i<j<=m | for 1<=i<=m]

An expression is a signed sum of terms ``[coef]e(t)`` / ``[coef]d(t)`` where
``coef`` is a nonnegative integer or ``p/q`` fraction and ``t`` is a literal
index or one of the range variables ``i``, ``j``.  The upper bound ``m`` in a
range is supplied by the caller; a literal integer bound is also accepted.

Setting the environment variable ``WALG_DATA_DIR`` to a directory overrides
the embedded data file-by-file: a family whose ``<family>.roots`` is present
there is loaded from the override, the rest keep the embedded data.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .scalars import Vector

__all__ = ["load_positive_roots", "RootDataError", "DATA_ENV_VAR", "FORMAT_HEADER"]

DATA_ENV_VAR = "WALG_DATA_DIR"
FORMAT_HEADER = "# walg positive-root data, format v1"

_TERM = re.compile(r"([+-]?)([0-9]+(?:/[0-9]+)?)?([ed])\((\w)\)")
_RANGE_PAIR = re.compile(r"^for 1<=i<j<=(\w+)$")
_RANGE_SINGLE = re.compile(r"^for 1<=i<=(\w+)$")
_DIGITS = re.compile(r"[0-9]+")


# the embedded data files, installed next to this module (importlib.resources
# would cost 30-80 ms of imports, inspect's among them on Python 3.12 and 3.13)
_EMBEDDED = os.path.join(os.path.dirname(__file__), "data")


class RootDataError(ValueError):
    """A root data file is missing, malformed, or of the wrong version."""


def _read_text(family: str) -> str:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        path = os.path.join(override, f"{family}.roots")
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    return fh.read()
            except OSError as exc:
                raise RootDataError(f"cannot read root data override {path}: {exc}") from exc
    try:
        with open(os.path.join(_EMBEDDED, f"{family}.roots"), "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise RootDataError(f"no embedded root data for family {family!r}") from exc


def _parse_terms(expr: str, num_e: int, num_d: int, env: dict[str, int]) -> Vector:
    coords = [Fraction(0)] * (num_e + num_d)
    pos = 0
    expr = expr.replace(" ", "")
    for match in _TERM.finditer(expr):
        if match.start() != pos:
            raise RootDataError(f"cannot parse root expression {expr!r}")
        pos = match.end()
        sign, coef, kind, idx = match.groups()
        value = Fraction(coef) if coef else Fraction(1)
        if sign == "-":
            value = -value
        t = env[idx] if idx in env else _literal(idx)
        if kind == "e":
            if not 1 <= t <= num_e:
                raise RootDataError(f"index e({t}) out of range in {expr!r}")
            coords[t - 1] += value
        else:
            if not 1 <= t <= num_d:
                raise RootDataError(f"index d({t}) out of range in {expr!r}")
            coords[num_e + t - 1] += value
    if pos != len(expr):
        raise RootDataError(f"cannot parse root expression {expr!r}")
    return tuple(coords)


def _bound(token: str, m: int | None) -> int:
    if token == "m":
        if m is None:
            raise RootDataError("root data uses the bound 'm' but no value was supplied")
        return m
    return _literal(token)


def _literal(token: str) -> int:
    """An index or bound written in ASCII digits; int() alone would also
    read "1_0" and "٣"."""
    value = int(token)  # a letter fails here, naming itself
    if not _DIGITS.fullmatch(token):
        raise RootDataError(f"not an integer in ASCII digits: {token!r}")
    return value


def _line_roots(line: str, num_e: int, num_d: int, m: int | None) -> list[tuple[str, Vector]]:
    """The roots of one data line, stripped of its comment and not blank."""
    out: list[tuple[str, Vector]] = []
    parts = line.split(None, 1)
    if len(parts) != 2 or parts[0] not in ("even", "odd"):
        raise RootDataError("expected a parity, even or odd, and an expression")
    parity, rest = parts
    if " for " in rest:
        expr, range_part = rest.split(" for ", 1)
        range_part = "for " + range_part.strip()
    else:
        expr, range_part = rest, ""
    expr = expr.strip()
    if not range_part:
        return [(parity, _parse_terms(expr, num_e, num_d, {}))]
    pair = _RANGE_PAIR.match(range_part)
    single = _RANGE_SINGLE.match(range_part)
    if pair:
        top = _bound(pair.group(1), m)
        for i in range(1, top + 1):
            for j in range(i + 1, top + 1):
                out.append((parity, _parse_terms(expr, num_e, num_d, {"i": i, "j": j})))
    elif single:
        top = _bound(single.group(1), m)
        for i in range(1, top + 1):
            out.append((parity, _parse_terms(expr, num_e, num_d, {"i": i})))
    else:
        raise RootDataError(f"bad range clause {range_part!r}")
    return out


def load_positive_roots(family: str, *, num_e: int, num_d: int,
                        m: int | None = None) -> list[tuple[str, Vector]]:
    """Return ``(parity, coords)`` pairs for the family's positive roots."""
    text = _read_text(family)
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise RootDataError(f"root data for {family!r} lacks the v1 format header")
    out: list[tuple[str, Vector]] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.extend(_line_roots(line, num_e, num_d, m))
        except (ValueError, ZeroDivisionError) as exc:
            # a RootDataError, or int() or Fraction() of a bad token
            raise RootDataError(f"bad root data line {raw!r}: {exc}") from exc
    return out
