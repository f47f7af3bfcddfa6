"""Command-line front end: queries as JSON/table artifacts plus the full
self-check suite.

Exit codes: 0 success, 1 any self-check failure, 2 usage or precondition
error.  All rationals are written ``p/q``; decimals are never parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .affine import eta_membership_check, reflected_base, simple_root_set_json
from .catalog import (AlgebraId, algebra_json, build_algebra, selfcheck_algebra)
from .classify import (AffineModuleLabel, A_value, DominantWeight, Level,
                       RangeError, WModuleLabel, affine_record_json,
                       classify_affine_modules, classify_w_modules,
                       cross_identity_report, hamiltonian_reduce, in_unitarity_range,
                       is_extremal, level, level_M, standard_levels,
                       unitarity_verdict, w_record_json)
from .ledger import check_d21_cone, run_level_ledger
from .report import Report
from .scalars import rational, rational_str

SELFCHECK_ALGEBRAS = (
    "psl2-2", "spo2-3", "spo2-5", "spo2-6", "spo2-7", "spo2-8",
    "d21-2-1", "d21-3-1", "d21-3-2", "d21-5-2", "d21-5-3", "f4", "g3",
)
CONE_PAIRS = ((2, 1), (3, 1), (3, 2), (5, 2), (5, 3))

_RATIONAL_FLAGS = ("--k", "--h", "--ell0")


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")

    def print_help(self, file=None):
        # -h/--help calls this and then exit(); hand the text back instead
        raise _HelpRequested(self.format_help())


def _join_rational_values(argv: list[str]) -> list[str]:
    # "--k -3/4" confuses argparse (the value looks like a flag); fold it in
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RATIONAL_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _build_parser() -> _Parser:
    """The parser tree, built on the first call and shared by every later
    one; argparse keeps no state of its own between parses."""
    parser = _Parser(prog="walg", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("info", help="full static data of one algebra, as JSON")
    p.add_argument("algebra")

    p = sub.add_parser("range", help="unitarity-range membership and the levels M_i(k)")
    p.add_argument("algebra")
    p.add_argument("--k", required=True)

    p = sub.add_parser("modules", help="classification of irreducible highest-weight modules")
    p.add_argument("algebra")
    p.add_argument("--k", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--affine", action="store_true",
                       help="affine labels (nu, h) instead of W-labels")
    group.add_argument("--w", action="store_true",
                       help="W-labels (nu, ell0); the default")
    p.add_argument("--json", action="store_true")
    p.add_argument("--ledger", action="store_true",
                   help="the level's ledger (JSON section or text summary); exit 1 on failure")

    p = sub.add_parser("unitary", help="three-valued unitarity verdict for one W-label")
    p.add_argument("algebra")
    p.add_argument("--k", required=True)
    p.add_argument("--nu", required=True,
                   help="comma-separated nonnegative integers over the fundamental weights")
    p.add_argument("--ell0", required=True)

    p = sub.add_parser("reduce", help="quantum Hamiltonian reduction of an affine label")
    p.add_argument("algebra")
    p.add_argument("--k", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--h", required=True)

    p = sub.add_parser("reflect", help="doubly odd-reflected base and the eta membership check")
    p.add_argument("algebra")

    p = sub.add_parser("selfcheck", help="catalog and ledger verification suites")
    p.add_argument("--all", action="store_true",
                   help="include the level-dependent ledger and cross-identity grids")
    p.add_argument("--json", action="store_true")

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _parse_nu(alg, text: str) -> DominantWeight:
    try:
        coeffs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"--nu expects comma-separated integers, got {text!r}") from exc
    return DominantWeight(alg.id, coeffs)


def _dump(payload) -> str:
    """The bytes of json.dumps(payload, indent=2) + "\\n", the one writer of
    every CLI document (see docs/schema.md).  It writes what walg's
    documents hold: str, int, bool and None leaves in lists and in dicts
    keyed by str, each matched by exact type; any other value raises
    TypeError."""
    return _encode(payload, "\n") + "\n"


_escape = json.encoder.encode_basestring_ascii
_WORDS = {True: "true", False: "false", None: "null"}.__getitem__
_LEAVES = {str: _escape, int: int.__repr__, bool: _WORDS, type(None): _WORDS}


def _encode(value, newline: str) -> str:
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii refuses a key that is not a str
        items = [_escape(k) + ": " + _encode(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"a walg document holds no {kind.__name__}")


def _catalog_header(lvl: Level) -> dict:
    return {
        "tool": "walg",
        "version": __version__,
        "algebra": lvl.name,
        "k": rational_str(lvl.k),
        "M": [rational_str(m) for m in level_M(lvl)],
    }


def _cmd_info(args) -> tuple[int, str]:
    alg = build_algebra(AlgebraId.parse(args.algebra))
    return 0, _dump(algebra_json(alg))


def _cmd_range(args) -> tuple[int, str]:
    lvl = level(args.algebra, args.k)
    payload = {
        "algebra": lvl.name,
        "k": rational_str(lvl.k),
        "in_range": in_unitarity_range(lvl),
        "M": [rational_str(m) for m in level_M(lvl)],
    }
    return 0, _dump(payload)


def _cmd_modules(args) -> tuple[int, str]:
    lvl = level(args.algebra, args.k)
    payload = _catalog_header(lvl)
    if args.affine:
        payload["kind"] = "affine"
        records = [affine_record_json(r) for r in classify_affine_modules(lvl)]
    else:
        payload["kind"] = "w"
        payload["positive_energy_complete"] = True
        records = [w_record_json(r) for r in classify_w_modules(lvl)]
    payload["modules"] = records
    code = 0
    if args.ledger:
        ledger = run_level_ledger(lvl)
        payload["ledger"] = ledger.to_json()
        code = 0 if ledger.all_pass else 1
    if args.json:
        return code, _dump(payload)
    lines = [f"{payload['algebra']}  k={payload['k']}  M={','.join(payload['M'])}"]
    for rec in records:
        nu = ",".join(str(c) for c in rec["nu_coeffs"])
        kind = "extremal" if rec["extremal"] else "generic"
        if args.affine:
            h = rec["h"] if isinstance(rec["h"], str) else " or ".join(rec["h"])
            lines.append(f"  nu=({nu})  h={h}  [{kind}]")
        else:
            lines.append(f"  nu=({nu})  ell0={rec['ell0']}  A={rec['A']}"
                         f"  [{kind}]  {rec['unitarity']}")
    if args.ledger:
        lines += _failures_and_summary("ledger", ledger)
    return code, "\n".join(lines) + "\n"


def _cmd_unitary(args) -> tuple[int, str]:
    lvl = level(args.algebra, args.k)
    nu = _parse_nu(lvl.alg, args.nu)
    label = WModuleLabel(nu, rational(args.ell0))
    verdict = unitarity_verdict(lvl, label)
    try:
        extremal = is_extremal(lvl, nu)
    except RangeError:  # outside the truncated cone
        extremal = None
    payload = {
        "algebra": lvl.name,
        "k": rational_str(lvl.k),
        "nu": list(nu.coeffs),
        "ell0": rational_str(label.ell0),
        "extremal": extremal,
        "A": rational_str(A_value(lvl, nu)),
        "verdict": str(verdict),
    }
    return 0, _dump(payload)


def _cmd_reduce(args) -> tuple[int, str]:
    lvl = level(args.algebra, args.k)
    nu = _parse_nu(lvl.alg, args.nu)
    label = AffineModuleLabel(nu, rational(args.h))
    reduced = hamiltonian_reduce(lvl, label)
    payload = {
        "algebra": lvl.name,
        "k": rational_str(lvl.k),
        "nu": list(nu.coeffs),
        "h": rational_str(label.h),
    }
    if reduced is None:
        payload["result"] = "zero"
    else:
        payload["result"] = {
            "nu_coeffs": list(reduced.nu.coeffs),
            "ell0": rational_str(reduced.ell0),
        }
    return 0, _dump(payload)


def _cmd_reflect(args) -> tuple[int, str]:
    alg = build_algebra(AlgebraId.parse(args.algebra))
    report = eta_membership_check(alg)
    payload = {
        "algebra": alg.id.name,
        "reflected_base": simple_root_set_json(reflected_base(alg)),
        "eta_checks": report.to_json(),
        "pass": report.all_pass,
    }
    return (0 if report.all_pass else 1), _dump(payload)


def _selfcheck_levels(run_all: bool):
    """The levels of the ledger (and, with run_all, cross-identity) grid."""
    for name in SELFCHECK_ALGEBRAS:
        alg = build_algebra(AlgebraId.parse(name))
        if run_all:
            if alg.summands == 2:  # d21: two coprime parameters, sampled by pairs
                count = 2
            elif alg.rank_natural >= 3:
                count = 6  # deep levels of high-rank cones get large
            else:
                count = 10
        else:
            count = 2
        for k in standard_levels(alg.id, count):
            yield Level(alg, k)


def _selfcheck_report(run_all: bool) -> Report:
    report = Report()
    for name in SELFCHECK_ALGEBRAS:
        alg = build_algebra(AlgebraId.parse(name))
        report.extend(selfcheck_algebra(alg))
        report.extend(eta_membership_check(alg))
    for lvl in _selfcheck_levels(run_all):
        report.extend(run_level_ledger(lvl))
        if run_all:
            report.extend(cross_identity_report(lvl))
    for m, n in CONE_PAIRS:
        for q in range(1, 5 if run_all else 2):
            report.extend(check_d21_cone(m, n, q))
    return report


def _cmd_selfcheck(args) -> tuple[int, str]:
    report = _selfcheck_report(args.all)
    code = 0 if report.all_pass else 1
    if args.json:
        payload = {
            "tool": "walg",
            "version": __version__,
            "checks": len(report.entries),
            "pass": report.all_pass,
            "entries": report.to_json(),
        }
        return code, _dump(payload)
    return code, "\n".join(_failures_and_summary("selfcheck", report)) + "\n"


def _failures_and_summary(name: str, report: Report) -> list[str]:
    """The text-mode lines of a report: each failing entry, then a count."""
    failures = report.failures()
    status = f"{len(failures)} FAILED" if failures else "all pass"
    return [e.line() for e in failures] + [f"{name}: {len(report.entries)} checks, {status}"]


_COMMANDS = {
    "info": _cmd_info,
    "range": _cmd_range,
    "modules": _cmd_modules,
    "unitary": _cmd_unitary,
    "reduce": _cmd_reduce,
    "reflect": _cmd_reflect,
    "selfcheck": _cmd_selfcheck,
}


def run_command(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit_code, stdout_text).

    Never exits: usage errors return code 2 and --help returns code 0, each
    with its text."""
    parser = _build_parser()
    try:
        argv = _join_rational_values(list(argv))
        args, extra = parser.parse_known_args(argv)
        if extra:
            # argparse hands a subcommand's unknown arguments back to the
            # root parser; the subcommand reports them, with its own usage,
            # unless something precedes it (the root has no option but -h)
            owner = parser.commands[args.command] if argv[:1] == [args.command] else parser
            owner.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            raise _UsageError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except _HelpRequested as exc:
        return 0, str(exc)
    except _UsageError as exc:
        return 2, str(exc)
    except (ValueError, ZeroDivisionError) as exc:
        return 2, f"walg: error: {exc}\n"


def main(argv: list[str] | None = None) -> None:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
