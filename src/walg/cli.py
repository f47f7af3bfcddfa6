"""Command-line front end: queries as JSON/table artifacts plus the full
self-check suite.

Exit codes: 0 success, 1 any self-check failure, 2 usage or precondition
error.  All rationals are written ``p/q``; decimals are never parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__
from .affine import eta_membership_check, reflected_base, simple_root_set_json
from .catalog import (AlgebraId, algebra_json, build_algebra, selfcheck_algebra)
from .classify import (AffineModuleLabel, AffineModuleRecord, A_value, DominantWeight,
                       Level, RangeError, WModuleLabel, WModuleRecord,
                       classify_affine_modules, classify_w_modules,
                       cross_identity_report, hamiltonian_reduce, in_unitarity_range,
                       is_extremal, level, level_M, standard_levels, unitarity_verdict)
from .ledger import check_d21_cone, run_level_ledger
from .report import Report
from .scalars import rational, rational_str

SELFCHECK_ALGEBRAS = (
    "psl2-2", "spo2-3", "spo2-5", "spo2-6", "spo2-7", "spo2-8",
    "d21-2-1", "d21-3-1", "d21-3-2", "d21-5-2", "d21-5-3", "f4", "g3",
)
CONE_PAIRS = ((2, 1), (3, 1), (3, 2), (5, 2), (5, 3))
# The most levels the point queries keep per process: more than a query
# stream cycles through (bench/'s point-queries stream visits 390 per round),
# since an LRU smaller than that cycle would almost never hit
QUERY_LEVELS = 1024

_RATIONAL_FLAGS = ("--k", "--h", "--ell0")
# a --nu text: integers, each with whitespace around it as str.strip removes
# it, separated by commas; ASCII digits only, since int() alone would also
# read "1_0" and "٣"
_NU_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*(?:,\s*[+-]?[0-9]+\s*)*")
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")


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
    # "--k -3/4" confuses argparse (the value looks like a flag); fold it in.
    # "--" is left to argparse, which reads it as the end of the flags, so
    # "--k --" is refused as a flag without its value
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RATIONAL_FLAGS and i + 1 < len(argv) and argv[i + 1] != "--":
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
    # each subcommand's parser carries its handler, and every flag is read
    # by its full name only
    parser = _Parser(prog="walg", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(metavar="command",
                                parser_class=functools.partial(_Parser, allow_abbrev=False))

    p = sub.add_parser("info", help="full static data of one algebra, as JSON")
    p.set_defaults(handler=_cmd_info)
    p.add_argument("algebra")

    p = sub.add_parser("range", help="unitarity-range membership and the levels M_i(k)")
    p.set_defaults(handler=_cmd_range)
    p.add_argument("algebra")
    p.add_argument("--k", required=True)

    p = sub.add_parser("modules", help="classification of irreducible highest-weight modules")
    p.set_defaults(handler=_cmd_modules)
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
    p.set_defaults(handler=_cmd_unitary)
    p.add_argument("algebra")
    p.add_argument("--k", required=True)
    p.add_argument("--nu", required=True,
                   help="comma-separated nonnegative integers over the fundamental weights")
    p.add_argument("--ell0", required=True)

    p = sub.add_parser("reduce", help="quantum Hamiltonian reduction of an affine label")
    p.set_defaults(handler=_cmd_reduce)
    p.add_argument("algebra")
    p.add_argument("--k", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--h", required=True)

    p = sub.add_parser("reflect", help="doubly odd-reflected base and the eta membership check")
    p.set_defaults(handler=_cmd_reflect)
    p.add_argument("algebra")

    p = sub.add_parser("selfcheck", help="catalog and ledger verification suites")
    p.set_defaults(handler=_cmd_selfcheck)
    p.add_argument("--all", action="store_true",
                   help="include the level-dependent ledger and cross-identity grids")
    p.add_argument("--json", action="store_true")

    parser.set_defaults(handler=None)  # no subcommand given
    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _parse_nu(alg, text: str) -> DominantWeight:
    if not _NU_TEXT.fullmatch(text):
        raise ValueError(f"--nu expects comma-separated integers, got {text!r}")
    # int() would refuse some of the whitespace that str.strip removes
    return DominantWeight(alg.id, tuple(map(int, _INTEGER_TEXT.findall(text))))


def _dump(payload) -> str:
    """The bytes of json.dumps(payload, indent=2) + "\\n", the writer of
    every CLI document but the records of `modules` (see _modules_json) and
    the `range`, `unitary` and `reduce` documents, which their handlers
    write in one step (see _query_head and docs/schema.md).  It writes what
    walg's documents hold: str, int, bool and None leaves in lists and in
    dicts keyed by str, each matched by exact type; any other value raises
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


def _modules_json(header: dict, records: list[str], ledger: list | None) -> str:
    """The bytes of _dump(header | {"modules": [...], "ledger": ledger}),
    ledger omitted when None, for records written by _w_record or
    _affine_record; _encode writes the header and the ledger around them."""
    head = _encode(header, "\n")[:-2]  # without its closing "\n}"
    modules = "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"
    tail = "" if ledger is None else ',\n  "ledger": ' + _encode(ledger, "\n  ")
    return f'{head},\n  "modules": {modules}{tail}\n}}\n'


def _w_record(rec: WModuleRecord, unitarity: str) -> str:
    """One W-module record in one step, as _dump writes it at its indent in
    a modules document; unitarity is the verdict's JSON text.  ell0 reuses
    A's text when it is the threshold object, as classify_w_modules pins it."""
    n, d = rec.threshold.as_integer_ratio()
    A = str(n) if d == 1 else f"{n}/{d}"
    ell0 = ("free" if rec.ell0 is None else A if rec.ell0 is rec.threshold
            else rational_str(rec.ell0))
    coeffs = rec.nu.coeffs
    return (_record_head(len(coeffs)) % coeffs + f'      "ell0": "{ell0}",\n'
            f'      "extremal": {"true" if rec.extremal else "false"},\n'
            f'      "A": "{A}",\n'
            f'      "unitarity": {unitarity}\n    }}')


def _affine_record(rec: AffineModuleRecord) -> str:
    """One affine-module record in one step, as _w_record writes a W one."""
    h = '"free"' if rec.h_set is None else _column(f'"{rational_str(h)}"' for h in rec.h_set)
    coeffs = rec.nu.coeffs
    return (_record_head(len(coeffs)) % coeffs
            + f'      "extremal": {"true" if rec.extremal else "false"},\n'
            f'      "h": {h}\n    }}')


# a record's opening through its "nu_coeffs" list, one %d per coefficient:
# formed once per rank, since a modules document writes one record per
# weight of one algebra
@functools.lru_cache(maxsize=16)
def _record_head(rank: int) -> str:
    return '    {\n      "nu_coeffs": ' + _column(["%d"] * rank) + ",\n"


def _column(items, indent: int = 6) -> str:
    """A nonempty list of JSON texts as the value of a key at that indent:
    a record's by default, or a point query's top-level or nested key."""
    head, sep, close = _COLUMNS[indent]
    return head + sep.join(items) + close


# the text before a list's first item, between two items and after its last,
# by the indent of its key; formed once, since a modules document writes one
# list per record
_COLUMNS = {n: ("[\n" + " " * (n + 2), ",\n" + " " * (n + 2), "\n" + " " * n + "]")
            for n in (2, 4, 6)}


def _query_head(lvl: Level) -> str:
    """The opening of a range, unitary or reduce document: "{", then its
    "algebra" and "k" lines, as _dump writes them."""
    return f'{{\n  "algebra": {_escape(lvl.name)},\n  "k": "{rational_str(lvl.k)}",\n'


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


@functools.lru_cache(maxsize=QUERY_LEVELS)
def _query_level(algebra: str, k: str) -> tuple[Level, str]:
    """level(algebra, k) for a point query's argv texts, with _query_head."""
    lvl = level(algebra, k)
    return lvl, _query_head(lvl)


def _cmd_range(args) -> tuple[int, str]:
    lvl, head = _query_level(args.algebra, args.k)
    M = _column((f'"{rational_str(m)}"' for m in level_M(lvl)), 2)
    return 0, (f'{head}  "in_range": {_WORDS(in_unitarity_range(lvl))},\n'
               f'  "M": {M}\n}}\n')


def _cmd_modules(args) -> tuple[int, str]:
    lvl = level(args.algebra, args.k)
    header = _catalog_header(lvl)
    if args.affine:
        header["kind"] = "affine"
        records = classify_affine_modules(lvl)
    else:
        header["kind"] = "w"
        header["positive_energy_complete"] = True
        records = classify_w_modules(lvl)
    code, ledger = 0, None
    if args.ledger:
        ledger = run_level_ledger(lvl)
        code = 0 if ledger.all_pass else 1
    if args.json:
        if args.affine:
            items = list(map(_affine_record, records))
        else:
            items, texts = [], {}  # a verdict's text, once per class: see classify_w_modules
            for rec in records:
                unitarity = texts.get(id(rec.verdict))
                if unitarity is None:
                    unitarity = texts[id(rec.verdict)] = _escape(str(rec.verdict))
                items.append(_w_record(rec, unitarity))
        return code, _modules_json(header, items, ledger if ledger is None else ledger.to_json())
    lines = [f"{header['algebra']}  k={header['k']}  M={','.join(header['M'])}"]
    for rec in records:
        nu = ",".join(map(str, rec.nu.coeffs))
        kind = "extremal" if rec.extremal else "generic"
        if args.affine:
            h = "free" if rec.h_set is None else " or ".join(map(rational_str, rec.h_set))
            lines.append(f"  nu=({nu})  h={h}  [{kind}]")
        else:
            ell0 = "free" if rec.ell0 is None else rational_str(rec.ell0)
            lines.append(f"  nu=({nu})  ell0={ell0}  A={rational_str(rec.threshold)}"
                         f"  [{kind}]  {rec.verdict}")
    if args.ledger:
        lines += _failures_and_summary("ledger", ledger)
    return code, "\n".join(lines) + "\n"


def _cmd_unitary(args) -> tuple[int, str]:
    lvl, head = _query_level(args.algebra, args.k)
    nu = _parse_nu(lvl.alg, args.nu)
    label = WModuleLabel(nu, rational(args.ell0))
    verdict = unitarity_verdict(lvl, label)
    try:
        extremal = is_extremal(lvl, nu)
    except RangeError:  # outside the truncated cone
        extremal = None
    return 0, (f'{head}  "nu": {_column(map(str, nu.coeffs), 2)},\n'
               f'  "ell0": "{rational_str(label.ell0)}",\n  "extremal": {_WORDS(extremal)},\n'
               f'  "A": "{rational_str(A_value(lvl, nu))}",\n  "verdict": "{verdict}"\n}}\n')


def _cmd_reduce(args) -> tuple[int, str]:
    lvl, head = _query_level(args.algebra, args.k)
    nu = _parse_nu(lvl.alg, args.nu)
    label = AffineModuleLabel(nu, rational(args.h))
    reduced = hamiltonian_reduce(lvl, label)
    result = '"zero"' if reduced is None else (
        f'{{\n    "nu_coeffs": {_column(map(str, reduced.nu.coeffs), 4)},\n'
        f'    "ell0": "{rational_str(reduced.ell0)}"\n  }}')
    return 0, (f'{head}  "nu": {_column(map(str, nu.coeffs), 2)},\n'
               f'  "h": "{rational_str(label.h)}",\n  "result": {result}\n}}\n')


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


# Each point query's handler and its flags, all of them required
_POINT_QUERIES = {
    "range": (_cmd_range, {"--k"}),
    "unitary": (_cmd_unitary, {"--k", "--nu", "--ell0"}),
    "reduce": (_cmd_reduce, {"--k", "--nu", "--h"}),
}
# tokens whose reading argparse decides wherever they stand (help, and "--",
# which ends the flags, also where a flag's value is due)
_NOT_READ = {"-h", "--help", "--"}


def _read_point_query(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that the subcommand's parser builds from a well-formed
    point query: `range`, `unitary` or `reduce`, an algebra, then each flag
    of that command once, its value the next token.  None for any other
    argv, which argparse then reads, usage and help texts included."""
    handler, flags = _POINT_QUERIES.get(argv[0] if argv else None, (None, set()))
    if handler is None or len(argv) != 2 + 2 * len(flags):
        return None
    values = dict(zip(argv[2::2], argv[3::2]))
    if (values.keys() != flags or argv[1].startswith("-")
            or values.get("--nu", "").startswith("-") or not _NOT_READ.isdisjoint(argv)):
        return None
    # one update, where Namespace(**fields) would set each field by setattr
    args = argparse.Namespace()
    vars(args).update({f[2:]: v for f, v in values.items()}, algebra=argv[1], handler=handler)
    return args


def run_command(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit_code, stdout_text).

    Never exits: usage errors return code 2 and --help returns code 0, each
    with its text.  A well-formed `range`, `unitary` or `reduce` query is
    read without argparse (see _read_point_query), and the argument parser
    is built on the first call that needs it.  These three commands reuse
    the Level of an (algebra, --k) text pair asked before, up to
    QUERY_LEVELS per process; none keeps a cone.  Library calls build a new
    Level each time."""
    argv = list(argv)
    try:
        args = _read_point_query(argv)
        if args is None:
            parser = _build_parser()
            argv = _join_rational_values(argv)
            # an argv that starts with a subcommand is parsed by that
            # subcommand's parser alone, which reports a usage error with its
            # own usage; any other argv goes through the root parser
            command = parser.commands.get(argv[0]) if argv else None
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
            if args.handler is None:
                raise _UsageError(parser.format_usage())
        return args.handler(args)
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
