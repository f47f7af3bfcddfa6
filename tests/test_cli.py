import json
import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import walg
from walg import classify, cli
from walg.catalog import AlgebraId
from walg.classify import AffineModuleRecord, DominantWeight, WModuleRecord, standard_levels
from walg.cli import main, run_command
from walg.report import Report
from walg.scalars import rational_str


def run_json(argv):
    code, out = run_command(argv)
    assert code == 0, out
    return json.loads(out)


def test_info_contains_catalog_values():
    data = run_json(["info", "spo2-3"])
    assert data["h_check"] == "1/2"
    assert data["chi"] == ["-2"]
    assert data["theta"] == ["0", "2"]


def test_range_membership():
    data = run_json(["range", "spo2-3", "--k", "-3/4"])
    assert data["in_range"] is True and data["M"] == ["1"]
    data = run_json(["range", "f4", "--k", "-2/3"])
    assert data["in_range"] is False


def test_modules_w_json_matches_expected_list():
    data = run_json(["modules", "spo2-3", "--k", "-1", "--w", "--json"])
    assert data["M"] == ["2"]
    assert data["positive_energy_complete"] is True
    assert [(tuple(m["nu_coeffs"]), m["ell0"]) for m in data["modules"]] == [
        ((0,), "free"), ((1,), "1/4"), ((2,), "1/2")]


def test_modules_affine_json():
    data = run_json(["modules", "psl2-2", "--k", "-2", "--affine", "--json"])
    assert [(tuple(m["nu_coeffs"]), m["h"]) for m in data["modules"]] == [
        ((0,), "free"), ((1,), ["-1/2"])]


def test_modules_table_output():
    code, out = run_command(["modules", "spo2-3", "--k", "-1", "--w"])
    assert code == 0
    assert "ell0=free" in out and "ell0=1/4" in out and "ell0=1/2" in out
    # both extremal weights have a two-point h set, written "x or k + 1 - x"
    assert run_command(["modules", "spo2-3", "--k", "-1", "--affine"]) == (0, (
        "spo2-3  k=-1  M=2\n"
        "  nu=(0)  h=free  [generic]\n"
        "  nu=(1)  h=-1/4 or 1/4  [extremal]\n"
        "  nu=(2)  h=-1/2 or 1/2  [extremal]\n"))


def test_modules_with_ledger_section():
    data = run_json(["modules", "spo2-3", "--k", "-1", "--w", "--json", "--ledger"])
    assert all(e["pass"] for e in data["ledger"])


def _ledger_with_one_failure(lvl):
    report = Report(lvl.name, lvl.k)
    report.add("fake.pass", formula="1 = 1", expected=1, computed=1)
    report.add("fake.fail", formula="1 = 2", expected=1, computed=2)
    return report


def test_modules_ledger_failure_exits_1_with_the_same_document(monkeypatch):
    argv = ["modules", "psl2-2", "--k", "-2", "--json", "--ledger"]
    passing = run_json(argv)
    monkeypatch.setattr(cli, "run_level_ledger", _ledger_with_one_failure)
    code, out = run_command(argv)
    assert code == 1
    failing = json.loads(out)
    fake = _ledger_with_one_failure(classify.level("psl2-2", -2))
    assert failing.pop("ledger") == fake.to_json()
    passing.pop("ledger")
    assert failing == passing


def test_modules_ledger_text_ends_with_a_summary(monkeypatch):
    table = run_command(["modules", "psl2-2", "--k", "-2"])[1]
    argv = ["modules", "psl2-2", "--k", "-2", "--ledger"]
    assert run_command(argv) == (0, table + "ledger: 8 checks, all pass\n")
    monkeypatch.setattr(cli, "run_level_ledger", _ledger_with_one_failure)
    assert run_command(argv) == (1, table + (
        "[FAIL] fake.fail (psl2-2 k=-2) 1 = 2  expected 1, got 2\n"
        "ledger: 2 checks, 1 FAILED\n"))


def test_unitary_command():
    data = run_json(["unitary", "spo2-3", "--k", "-1", "--nu", "1", "--ell0", "1/4"])
    assert data["verdict"] == "unitary" and data["extremal"] is True
    data = run_json(["unitary", "spo2-3", "--k", "-1", "--nu", "2", "--ell0", "0"])
    assert data["verdict"] == "not_unitary:1c"


def test_reduce_command():
    data = run_json(["reduce", "spo2-3", "--k", "-1", "--nu", "0", "--h", "-1/2"])
    assert data["result"] == "zero"
    data = run_json(["reduce", "spo2-3", "--k", "-1", "--nu", "1", "--h", "-1/4"])
    assert data["result"] == {"nu_coeffs": [1], "ell0": "1/4"}


def test_reduce_rejects_labels_off_range_or_outside_the_cone():
    # M = 2 at k = -1, so nu = 9 lies outside the truncated cone
    code, out = run_command(["reduce", "spo2-3", "--k", "-1", "--nu", "9", "--h", "1/3"])
    assert code == 2 and "truncated cone" in out
    code, out = run_command(["reduce", "psl2-2", "--k", "-3/2", "--nu", "0", "--h", "1/3"])
    assert code == 2 and "unitarity range" in out


def test_reflect_command():
    data = run_json(["reflect", "d21-3-2"])
    assert data["pass"] is True
    assert len(data["eta_checks"]) == 2


def test_selfcheck_quick():
    code, out = run_command(["selfcheck"])
    assert code == 0
    assert "all pass" in out


def test_selfcheck_text_names_each_failing_check(monkeypatch):
    true_A = classify.A_value
    monkeypatch.setattr(classify, "A_value", lambda lvl, nu: true_A(lvl, nu) + 1)
    code, out = run_command(["selfcheck"])
    *failures, summary = out.splitlines()
    assert code == 1 and failures
    assert all(line.startswith("[FAIL] zhu.module-list (") for line in failures)
    assert (
        "[FAIL] zhu.module-list (spo2-3 k=-1) the classified W-list matches the explicit "
        "top-component list  expected [[[0], free], [[1], 1/4], [[2], 1/2]], "
        "got [[[0], free], [[1], 5/4], [[2], 3/2]]") in failures
    assert summary.startswith("selfcheck: ") and summary.endswith(f" checks, {len(failures)} FAILED")


def test_selfcheck_json_mode():
    code, out = run_command(["selfcheck", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["checks"] == len(data["entries"])


def test_exit_code_2_on_usage_errors():
    assert run_command([])[0] == 2
    assert run_command(["bogus"])[0] == 2
    assert run_command(["modules", "spo2-3"])[0] == 2          # missing --k
    assert run_command(["modules", "spo2-4", "--k", "-1"])[0] == 2
    assert run_command(["modules", "d21-4-2", "--k", "-1"])[0] == 2
    assert run_command(["unitary", "spo2-3", "--k", "-1", "--nu", "x", "--ell0", "0"])[0] == 2
    assert run_command(["modules", "psl2-2", "--k", "-3/2"]) == (
        2, "walg: error: k = -3/2 is outside the unitarity range of psl2-2\n")
    code, text = run_command(["modules", "spo2-3", "--k", "-1", "--max-records", "3"])
    assert code == 2 and "unrecognized arguments: --max-records" in text
    assert run_command(["range", "psl2-2", "--k", "0.5"])[0] == 2     # no decimals
    code, text = run_command(["range", "f4", "--k", "1/0"])
    assert code == 2 and text == "walg: error: zero denominator in the rational '1/0'\n"


@pytest.mark.parametrize("argv,usage", [
    (["modules", "spo2-3", "--k", "-1", "--bogus"], "usage: walg modules [-h] --k K"),
    (["unitary", "spo2-3", "--k", "-1", "--nu", "1", "--ell0", "1/4", "--bogus"],
     "usage: walg unitary [-h] --k K --nu NU --ell0 ELL0"),
    (["--bogus"], "usage: walg [-h] command"),
    (["--bogus", "modules", "spo2-3", "--k", "-1"], "usage: walg [-h] command"),
], ids=["modules", "unitary", "top-level", "before-modules"])
def test_unknown_arguments_name_their_command(argv, usage):
    """An unknown argument after a subcommand is reported by that
    subcommand, with its usage; before any subcommand, by walg itself."""
    code, text = run_command(argv)
    prog = "walg" if argv[0] == "--bogus" else f"walg {argv[0]}"
    assert code == 2
    message, usage_line = text.splitlines()
    assert message == f"{prog}: error: unrecognized arguments: --bogus"
    assert usage_line.startswith(usage)


# The usage and help texts of the CLI, frozen: a change to how argv is
# parsed must leave each (exit code, text) as it is.
ROOT_USAGE = "usage: walg [-h] command ...\n"
ROOT_HELP = ROOT_USAGE + """
Command-line front end: queries as JSON/table artifacts plus the full self-
check suite. Exit codes: 0 success, 1 any self-check failure, 2 usage or
precondition error. All rationals are written ``p/q``; decimals are never
parsed.

positional arguments:
  command
"""
if sys.version_info < (3, 13):
    ROOT_HELP += """\
    info      full static data of one algebra, as JSON
    range     unitarity-range membership and the levels M_i(k)
    modules   classification of irreducible highest-weight modules
    unitary   three-valued unitarity verdict for one W-label
    reduce    quantum Hamiltonian reduction of an affine label
    reflect   doubly odd-reflected base and the eta membership check
    selfcheck
              catalog and ledger verification suites

options:
  -h, --help  show this help message and exit
"""
else:  # argparse 3.13 widens the help column to fit "selfcheck"
    ROOT_HELP += """\
    info       full static data of one algebra, as JSON
    range      unitarity-range membership and the levels M_i(k)
    modules    classification of irreducible highest-weight modules
    unitary    three-valued unitarity verdict for one W-label
    reduce     quantum Hamiltonian reduction of an affine label
    reflect    doubly odd-reflected base and the eta membership check
    selfcheck  catalog and ledger verification suites

options:
  -h, --help   show this help message and exit
"""
RANGE_USAGE = "usage: walg range [-h] --k K algebra\n"
UNITARY_USAGE = "usage: walg unitary [-h] --k K --nu NU --ell0 ELL0 algebra\n"
MODULES_USAGE = "usage: walg modules [-h] --k K [--affine | --w] [--json] [--ledger] algebra\n"
INVALID_CHOICE = ("walg: error: argument command: invalid choice: {!r} (choose from 'info', "
                  "'range', 'modules', 'unitary', 'reduce', 'reflect', 'selfcheck')\n")
RANGE_PSL2 = '{\n  "algebra": "psl2-2",\n  "k": "-2",\n  "in_range": true,\n  "M": [\n    "1"\n  ]\n}\n'
RANGE_SPO2 = '{\n  "algebra": "spo2-3",\n  "k": "-3/4",\n  "in_range": true,\n  "M": [\n    "1"\n  ]\n}\n'
UNITARY_PSL2 = ('{{\n  "algebra": "psl2-2",\n  "k": "-2",\n  "nu": [\n    0\n  ],\n'
                '  "ell0": "{}",\n  "extremal": false,\n  "A": "0",\n  "verdict": "{}"\n}}\n')
MODULES_PSL2 = ["modules", "psl2-2", "--k", "-2"]
UNITARY_NU0 = ["unitary", "psl2-2", "--k", "-2", "--nu", "0"]

USAGE_TABLE = {
    "no-arguments": ([], (2, ROOT_USAGE)),
    "root-h": (["-h"], (0, ROOT_HELP)),
    "root-help": (["--help"], (0, ROOT_HELP)),
    "unknown-command": (["bogus"], (2, INVALID_CHOICE.format("bogus") + ROOT_USAGE)),
    "bogus-before-command": (["--bogus", "modules", "spo2-3", "--k", "-1"],
                             (2, "walg: error: unrecognized arguments: --bogus\n" + ROOT_USAGE)),
    "h-before-command": (["-h", "unitary"], (0, ROOT_HELP)),
    "h-after-command": (["unitary", "-h"], (0, UNITARY_USAGE + """
positional arguments:
  algebra

options:
  -h, --help   show this help message and exit
  --k K
  --nu NU      comma-separated nonnegative integers over the fundamental
               weights
  --ell0 ELL0
""")),
    "missing-positional": (["unitary", "--k", "-1", "--nu", "0", "--ell0", "0"], (
        2, "walg unitary: error: the following arguments are required: algebra\n"
        + UNITARY_USAGE)),
    "missing-required-flag": (["range", "spo2-3"], (
        2, "walg range: error: the following arguments are required: --k\n" + RANGE_USAGE)),
    "flag-without-value": (["range", "spo2-3", "--k"], (
        2, "walg range: error: argument --k: expected one argument\n" + RANGE_USAGE)),
    "mutually-exclusive": (["modules", "spo2-3", "--k", "-1", "--affine", "--w"], (
        2, "walg modules: error: argument --w: not allowed with argument --affine\n"
        + MODULES_USAGE)),
    "repeated-k": (["range", "spo2-3", "--k", "-1", "--k", "-3/4"], (0, RANGE_SPO2)),
    "option-before-positional": (["range", "--k", "-3/4", "spo2-3"], (0, RANGE_SPO2)),
    "dashdash-before-command": (["--", "range", "psl2-2", "--k", "-2"],
                                (2, INVALID_CHOICE.format("--") + ROOT_USAGE)),
    "dashdash-after-command": (["range", "--k", "-2", "--", "psl2-2"], (0, RANGE_PSL2)),
    "k-equals-negative": (["range", "psl2-2", "--k=-2"], (0, RANGE_PSL2)),
    "k-zero-denominator": (["range", "psl2-2", "--k", "1/0"], (
        2, "walg: error: zero denominator in the rational '1/0'\n")),
    "single-dash-k": (["range", "psl2-2", "-k", "-2"], (
        2, "walg range: error: the following arguments are required: --k\n" + RANGE_USAGE)),
    "extra-positional": (["info", "psl2-2", "f4"], (
        2, "walg info: error: unrecognized arguments: f4\nusage: walg info [-h] algebra\n")),
    "ell0-negative": (UNITARY_NU0 + ["--ell0", "-1/2"],
                      (0, UNITARY_PSL2.format("-1/2", "not_unitary:1c"))),
    # every flag is read by its full name only, whatever the sign of its value
    "abbrev-el": (UNITARY_NU0 + ["--el", "1/2"], (
        2, "walg unitary: error: the following arguments are required: --ell0\n"
        + UNITARY_USAGE)),
    "abbrev-el-negative": (UNITARY_NU0 + ["--el", "-1/2"], (
        2, "walg unitary: error: the following arguments are required: --ell0\n"
        + UNITARY_USAGE)),
    "abbrev-al": (["selfcheck", "--al", "--bogus"], (
        2, "walg selfcheck: error: unrecognized arguments: --al --bogus\n"
        "usage: walg selfcheck [-h] [--all] [--json]\n")),
    "abbrev-a": (MODULES_PSL2 + ["--a"], (
        2, "walg modules: error: unrecognized arguments: --a\n" + MODULES_USAGE)),
    "abbrev-j": (MODULES_PSL2 + ["--j"], (
        2, "walg modules: error: unrecognized arguments: --j\n" + MODULES_USAGE)),
}


@pytest.mark.parametrize("argv,expected", USAGE_TABLE.values(), ids=USAGE_TABLE.keys())
def test_usage_texts_are_frozen(argv, expected):
    assert run_command(argv) == expected


def test_an_abbreviated_flag_is_refused_whatever_the_sign_of_its_value():
    """--k, --h and --ell0 values are folded in by their full names, so an
    abbreviation read one sign of value and refused the other; now both."""
    assert run_command(UNITARY_NU0 + ["--el", "1/2"]) == run_command(UNITARY_NU0 + ["--el", "-1/2"])
    assert run_command(UNITARY_NU0 + ["--el", "-1/2"])[0] == 2
    assert run_command(UNITARY_NU0 + ["--ell0", "-1/2"])[0] == 0


POINT_QUERIES = {
    "unitary": ["unitary", "spo2-3", "--k", "-1", "--nu", "1", "--ell0", "1/4"],
    "reduce": ["reduce", "spo2-3", "--k", "-1", "--nu", "1", "--h", "-1/4"],
    "range": ["range", "spo2-3", "--k", "-3/4"],
}


@pytest.mark.parametrize("argv,parsers", [
    *((argv, []) for argv in POINT_QUERIES.values()),
    (["range", "spo2-3", "--k=-1"], ["walg range"]),
    (["range", "spo2-3", "--k", "-1", "--k", "-3/4"], ["walg range"]),
    ([*POINT_QUERIES["unitary"], "--help"], ["walg unitary"]),
    (["reduce", *POINT_QUERIES["reduce"][2:], "spo2-3"], ["walg reduce"]),
    (["--bogus", *POINT_QUERIES["range"]], ["walg", "walg range"]),
    (["--", *POINT_QUERIES["range"]], ["walg"]),
    (["-h", "range"], ["walg"]),
    ([], ["walg"]),
], ids=[*POINT_QUERIES, "k-equals", "repeated-k", "help-after-flags", "algebra-after-flags",
        "option-first", "dashdash-first", "help-first", "empty"])
def test_a_call_is_parsed_once(monkeypatch, argv, parsers):
    """A well-formed point query is read without argparse.  Any other call
    that starts with a subcommand is parsed once, by that subcommand's
    parser alone; any other argv starts at the root parser, which hands
    what follows a subcommand name to that subcommand's."""
    parses = []
    true_parse = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return true_parse(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    run_command(argv)
    assert parses == parsers


@pytest.mark.parametrize("name,expected", [
    ("unitary", {"unitarity_verdict": 1, "is_extremal": 1, "A_value": 2}),
    ("reduce", {"hamiltonian_reduce": 1, "in_truncated_cone": 1, "ell0": 1}),
    ("range", {}),
])
def test_point_queries_reach_the_public_predicates(monkeypatch, name, expected):
    """Each point query calls the classify predicates it answers with
    through the names the benchmark tracer wraps, in every walg namespace
    that binds them, as often as before its parse was cut to one."""
    calls = {}
    for fn in ("unitarity_verdict", "is_extremal", "A_value", "ell0",
               "hamiltonian_reduce", "in_truncated_cone"):
        true_fn = getattr(classify, fn)

        def counted(*args, _fn=fn, _true=true_fn):
            calls[_fn] = calls.get(_fn, 0) + 1
            return _true(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "walg" and vars(module).get(fn) is true_fn:
                monkeypatch.setattr(module, fn, counted)
    code, _ = run_command(POINT_QUERIES[name])
    assert code == 0 and calls == expected


def test_unitary_reads_extremality_once(monkeypatch):
    """walg unitary takes the payload's extremal from one is_extremal call
    (None outside the truncated cone), so the comark values are put against
    the levels twice per query: there and in unitarity_verdict."""
    extremal_calls, placements = [], []

    def counted_is_extremal(lvl, nu, _true=cli.is_extremal):
        extremal_calls.append(nu.coeffs)
        return _true(lvl, nu)

    def counted_extremal(lvl, nu, _true=classify._extremal):
        placements.append(nu.coeffs)
        return _true(lvl, nu)

    monkeypatch.setattr(cli, "is_extremal", counted_is_extremal)
    monkeypatch.setattr(classify, "_extremal", counted_extremal)
    answers = [json.loads(run_command(["unitary", "spo2-3", "--k", "-1", "--nu", nu,
                                       "--ell0", "1/4"])[1]) for nu in ("0", "1", "9")]
    assert [(a["extremal"], a["verdict"]) for a in answers] == [
        (False, "unitary"), (True, "unitary"), (None, "not_unitary:1b")]
    assert extremal_calls == [(0,), (1,), (9,)]
    assert placements == [(0,), (0,), (1,), (1,), (9,), (9,)]


# the levels of the memo tests: three on the range of each family row, one
# off it and the critical level -h_check, with the weights a query may name
MEMO_ALGEBRAS = [classify.build_algebra(AlgebraId.parse(name))
                 for name in ("psl2-2", "spo2-3", "spo2-5", "d21-3-2", "f4", "g3")]
MEMO_LEVELS = [(alg, k) for alg in MEMO_ALGEBRAS
               for k in (*standard_levels(alg.id, 3), Fraction(-1, 7), -alg.h_check)]


def _k_texts(k):
    """k as written by rational_str and twice with a common factor (-2/4)."""
    p, q = k.as_integer_ratio()
    return [rational_str(k), f"{2 * p}/{2 * q}", f"{3 * p}/{3 * q}"]


def _memo_queries(seed, count):
    """A seeded mixed stream of unitary, reduce and range argv over
    MEMO_LEVELS: weights inside the cone, extremal ones and one outside it;
    ell0 below, at and above A(k, nu); h at k/2 and 1/3."""
    rng = random.Random(seed)
    pools = []
    for alg, k in MEMO_LEVELS:
        lvl = None if k == -alg.h_check else classify.Level(alg, k)
        inside = list(classify.enumerate_Pk(lvl)) if lvl is not None and lvl.in_range else []
        extremal = [nu for nu in inside if classify.is_extremal(lvl, nu)]
        nus = [nu.coeffs for nu in inside + extremal]
        pools.append((alg.id.name, k, lvl, nus + [(99,) + (0,) * (alg.rank_natural - 1)]))
    queries = []
    for _ in range(count):
        name, k, lvl, nus = rng.choice(pools)
        head = [name, "--k", rng.choice(_k_texts(k))]
        kind = rng.choice(("unitary", "reduce", "range"))
        coeffs = rng.choice(nus)
        nu = ",".join(map(str, coeffs))
        if kind == "range":
            queries.append(["range", *head])
        elif kind == "reduce":
            h = rng.choice((k / 2, Fraction(1, 3)))
            queries.append(["reduce", *head, "--nu", nu, "--h", rational_str(h)])
        else:
            nu_weight = DominantWeight(AlgebraId.parse(name), coeffs)
            A = Fraction(0) if lvl is None else classify.A_value(lvl, nu_weight)
            ell0 = A + rng.choice((-1, 0, 1))
            queries.append(["unitary", *head, "--nu", nu, "--ell0", rational_str(ell0)])
    return queries


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoized_levels_answer_as_fresh_ones(seed):
    """A stream that repeats levels answers each query as the same query
    with the level memo cleared before it: every (code, text) agrees, off
    the range, outside the cone and at the critical level too."""
    queries = _memo_queries(seed, 300)
    cli._query_level.cache_clear()
    answers = [run_command(argv) for argv in queries]
    assert cli._query_level.cache_info().hits > len(queries) // 2
    fresh = []
    for argv in queries:
        cli._query_level.cache_clear()
        fresh.append(run_command(argv))
    assert answers == fresh
    assert {code for code, _ in answers} == {0, 2}


def test_a_refused_level_is_refused_every_time():
    """The memo keeps no refusal: the critical level of spo2-3 exits 2 on
    each call, under any text of k, and adds no entry; a valid level still
    answers after it."""
    cli._query_level.cache_clear()
    for text in ("-1/2", "-2/4", "-1/2"):
        for argv in (["range", "spo2-3", "--k", text],
                     ["unitary", "spo2-3", "--k", text, "--nu", "0", "--ell0", "0"]):
            code, out = run_command(argv)
            assert code == 2 and "critical level k = -1/2" in out
    assert cli._query_level.cache_info().currsize == 0
    assert run_json(["range", "spo2-3", "--k", "-3/4"]) == {
        "algebra": "spo2-3", "k": "-3/4", "in_range": True, "M": ["1"]}


def test_the_level_memo_is_bounded():
    cli._query_level.cache_clear()
    for n in range(1, cli.QUERY_LEVELS + 41):
        assert run_command(["range", "psl2-2", "--k", f"-{n}/3"])[0] == 0
    info = cli._query_level.cache_info()
    assert info.maxsize == cli.QUERY_LEVELS
    assert info.currsize == cli.QUERY_LEVELS and info.misses == cli.QUERY_LEVELS + 40


def test_memoized_levels_hold_no_cone():
    """No memoized Level keeps a cone, also after `modules` at the same
    level, which builds its own Level and adds no entry.  Each entry holds
    its Level and the head of that level's documents."""
    cli._query_level.cache_clear()
    queries = _memo_queries(4, 100) + [["range", "spo2-3", "--k", "-1"],
                                       ["range", "f4", "--k", "-2"]]
    for argv in queries:
        run_command(argv)
    size = cli._query_level.cache_info().currsize
    code, _ = run_command(["modules", "spo2-3", "--k", "-1", "--json"])
    assert code == 0 and run_command(["modules", "f4", "--k", "-2"])[0] == 0
    assert cli._query_level.cache_info().currsize == size
    for argv in queries:
        try:
            lvl, head = cli._query_level(argv[1], argv[3])
        except ValueError:  # refused, so never memoized
            continue
        assert "cone" not in vars(lvl) and head == cli._query_head(lvl), argv
    assert cli._query_level.cache_info().currsize == size


# spo2-16 at k = -21 (q0 + 40): 21,312,720 weights in the truncated cone
OVERSIZED = ["modules", "spo2-16", "--k", "-21"]


@pytest.mark.parametrize("extra", [[], ["--json"], ["--affine"], ["--ledger", "--json"]],
                         ids=["default", "json", "affine", "ledger"])
def test_modules_refuses_an_oversized_cone_at_once(monkeypatch, extra):
    def walked(*args):  # a guard that let the cone through fails here, not in 21 M weights
        raise AssertionError("modules walked the oversized cone")

    monkeypatch.setattr(classify, "_walked_weight", walked)
    start = time.perf_counter()
    code, text = run_command(OVERSIZED + extra)
    elapsed = time.perf_counter() - start
    assert (code, text) == (2, "walg: error: the truncated cone of spo2-16 at k = -21 has "
                               "21312720 weights, more than the 100000 that walg enumerates\n")
    assert elapsed < 1.0


# f4 at k = -82/3, the largest deep level of the benchmark (6,391 weights)
DEEP_F4 = ["modules", "f4", "--k", "-82/3"]


@pytest.mark.parametrize("extra, kind", [(["--json"], "w"), ([], "w"),
                                         (["--affine", "--json"], "affine")],
                         ids=["json", "text", "affine"])
def test_modules_lists_what_the_classifier_returns(monkeypatch, extra, kind):
    """walg modules writes the records of classify_w_modules or
    classify_affine_modules, which reach the cone, extremality, the
    threshold and the verdicts through the classify module globals, the
    names the benchmark tracer wraps: a writer that bypassed the classifier
    would leave one of these counts short."""
    calls = {}
    for owner, name in [(cli, "classify_w_modules"), (cli, "classify_affine_modules"),
                        (classify, "enumerate_Pk"), (classify, "is_extremal"),
                        (classify, "A_value"), (classify, "unitarity_verdict")]:
        def counted(*args, _name=name, _true=getattr(owner, name)):
            calls[_name] += 1
            return _true(*args)
        calls[name] = 0
        monkeypatch.setattr(owner, name, counted)
    code, _ = run_command(DEEP_F4 + extra)
    assert code == 0
    cone = classify.count_Pk(classify.level("f4", Fraction(-82, 3)))
    verdicts = calls["unitarity_verdict"]
    if kind == "w":  # one verdict per class, each with an A_value of its own
        assert 1 <= verdicts <= 3
        expected = {"classify_w_modules": 1, "classify_affine_modules": 0,
                    "A_value": cone + verdicts}
    else:
        expected = {"classify_w_modules": 0, "classify_affine_modules": 1,
                    "A_value": 0, "unitarity_verdict": 0}
    assert calls == {"enumerate_Pk": 1, "is_extremal": cone, "unitarity_verdict": verdicts,
                     **expected}


@pytest.mark.parametrize("name,k", [("spo2-3", "-1"), ("f4", "-82/3")])
def test_a_negated_is_extremal_flips_every_record(monkeypatch, name, k):
    """classify_w_modules, and so walg modules --json, takes each record's
    extremal, and with it ell0, from one classify.is_extremal call per
    weight: negating that global flips both in every record, as a shifted
    classify.A_value shifts every A (see
    test_selfcheck_text_names_each_failing_check)."""
    argv = ["modules", name, "--k", k, "--json"]
    records = classify.classify_w_modules(classify.level(name, k))
    document = run_json(argv)["modules"]
    assert {rec.extremal for rec in records} == {True, False}
    true_is_extremal = classify.is_extremal
    monkeypatch.setattr(classify, "is_extremal", lambda lvl, nu: not true_is_extremal(lvl, nu))
    flipped = classify.classify_w_modules(classify.level(name, k))
    assert len(flipped) == len(records)
    for rec, new in zip(records, flipped):
        assert (new.nu, new.threshold) == (rec.nu, rec.threshold)
        assert new.extremal is not rec.extremal
        assert new.ell0 == (None if rec.extremal else rec.threshold)
    written = run_json(argv)["modules"]
    assert len(written) == len(document)
    for rec, new in zip(document, written):
        assert (new["nu_coeffs"], new["A"]) == (rec["nu_coeffs"], rec["A"])
        assert new["extremal"] is not rec["extremal"]
        assert new["ell0"] == ("free" if rec["extremal"] else rec["A"])


def test_help_is_returned_not_printed(capsys):
    for argv in (["--help"], ["unitary", "--help"], ["modules", "-h"]):
        code, text = run_command(argv)
        assert code == 0
        assert text.startswith("usage: walg")
    assert capsys.readouterr().out == ""


def test_main_prints_help_and_exits_0(capsys):
    _, text = run_command(["--help"])
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == text


# One argv sequence for the shared parser: flags set by one call must not
# leak into the next, and usage errors must read the same.
REUSE_SEQUENCE = (
    ["modules", "spo2-3", "--k", "-1", "--affine", "--json", "--ledger"],
    ["modules", "spo2-3", "--k", "-1", "--json"],
    ["unitary", "spo2-3", "--k", "-1", "--nu", "1", "--ell0", "1/4"],
    ["modules", "spo2-3", "--k", "-1", "--affine", "--w"],
    ["reduce", "spo2-3", "--k", "-1", "--nu", "1", "--h", "-1/4"],
    ["modules", "spo2-3"],
    ["unitary", "spo2-3", "--k=-1", "--nu", "2", "--ell0", "0"],
    ["range", "spo2-3", "--k=-1"],
    ["reduce", "spo2-3", "--k=-1", "--nu", "0", "--h=-1/2"],
    ["unitary", "--help"],
    ["modules", "spo2-3", "--k", "-1"],
)


def test_shared_parser_answers_as_a_fresh_one():
    cli._build_parser.cache_clear()
    shared = [run_command(argv) for argv in REUSE_SEQUENCE]
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(run_command(argv))
    assert shared == fresh
    after_affine = json.loads(shared[1][1])
    assert after_affine["kind"] == "w" and "ledger" not in after_affine
    assert shared[3][0] == 2 and "not allowed with argument" in shared[3][1]
    assert shared[5][0] == 2 and "--k" in shared[5][1]
    assert [code for code, _ in shared[6:]] == [0] * 5


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for _ in range(50):  # "--k=" leaves the call to argparse
        assert run_command(["range", "spo2-3", "--k=-3/4"])[0] == 0
    # one tree: the root parser and one parser per subcommand
    assert built.count("walg") == 1
    assert len(built) == 1 + len(cli._build_parser().commands)


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import walg.cli; print(walg.cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_point_queries_build_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from walg import cli\n"
         "for argv in (['range', 'spo2-3', '--k', '-3/4'],\n"
         "             ['unitary', 'spo2-3', '--k', '-1', '--nu', '1', '--ell0', '1/4'],\n"
         "             ['reduce', 'spo2-3', '--k', '-1', '--nu', '1', '--h', '-1/4']):\n"
         "    assert cli.run_command(argv)[0] == 0, argv\n"
         "print(cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def _through_argparse(argv):
    """run_command(argv) with the point-query reader declining every argv."""
    with mock.patch.object(cli, "_read_point_query", return_value=None):
        return run_command(argv)


# well-formed point queries whose values the handlers refuse or answer at an
# edge: each raises, or answers, inside run_command's one try on both paths
BAD_POINT_QUERIES = {
    "nu-not-an-integer": ["unitary", "f4", "--k", "-9/2", "--nu", "1,x", "--ell0", "1"],
    "nu-underscore": ["unitary", "spo2-3", "--k", "-1", "--nu", "1_0", "--ell0", "1/2"],
    "nu-arabic-indic-digit": ["reduce", "spo2-3", "--k", "-1", "--nu", "\u0663", "--h", "0"],
    "nu-too-long": ["reduce", "spo2-3", "--k", "-1", "--nu", "1,0", "--h", "0"],
    "k-zero-denominator": ["range", "f4", "--k", "1/0"],
    "k-critical": ["unitary", "spo2-3", "--k", "-1/2", "--nu", "0", "--ell0", "0"],
    "k-off-range": ["reduce", "psl2-2", "--k", "-3/2", "--nu", "0", "--h", "0"],
    "ell0-decimal": ["unitary", "spo2-3", "--k", "-1", "--nu", "1", "--ell0", "1.5"],
    "h-minus-zero": ["reduce", "spo2-3", "--k", "-1", "--nu", "0", "--h", "-0"],
    "nu-outside-the-cone": ["reduce", "spo2-3", "--k", "-1", "--nu", "99", "--h", "0"],
    "unitary-outside-the-cone": ["unitary", "spo2-3", "--k", "-1", "--nu", "99",
                                 "--ell0", "1"],
    "unknown-algebra": ["range", "spo2-4", "--k", "-1"],
}


@pytest.mark.parametrize("argv", BAD_POINT_QUERIES.values(), ids=BAD_POINT_QUERIES.keys())
def test_bad_point_queries_answer_as_through_argparse(argv):
    assert cli._read_point_query(argv) is not None
    assert run_command(argv) == _through_argparse(argv)


UNITARY_HEAD = ["unitary", "spo2-3", "--k", "-1"]
DECLINED = {
    "missing-flag": [*UNITARY_HEAD, "--nu", "0"],
    "repeated-flag": [*UNITARY_HEAD, "--nu", "0", "--ell0", "0", "--nu", "0"],
    "repeated-not-missing": [*UNITARY_HEAD, "--k", "-1", "--nu", "0"],
    "unknown-flag": [*UNITARY_HEAD, "--nu", "0", "--el", "0"],
    "flag-equals-value": ["unitary", "spo2-3", "--k=-1", "--nu", "0", "--ell0", "0"],
    "help-after-flags": [*UNITARY_HEAD, "--nu", "0", "--ell0", "0", "--help"],
    "h-as-value": [*UNITARY_HEAD, "--nu", "0", "--ell0", "-h"],
    "dashdash-as-value": [*UNITARY_HEAD, "--nu", "0", "--ell0", "--"],
    "nu-negative": [*UNITARY_HEAD, "--nu", "-1", "--ell0", "0"],
    "algebra-after-flags": ["range", "--k", "-1", "spo2-3"],
    "algebra-dash": ["range", "-x", "--k", "-1"],
    "h-as-algebra": ["range", "-h", "--k", "-1"],
    "other-command": ["modules", "spo2-3", "--k", "-1"],
}


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED.keys())
def test_the_point_query_reader_declines(argv):
    assert cli._read_point_query(argv) is None


def test_a_bad_nu_is_a_usage_error_on_the_read_path():
    argv = BAD_POINT_QUERIES["nu-not-an-integer"]
    assert run_command(argv) == (
        2, "walg: error: --nu expects comma-separated integers, got '1,x'\n")


# "--" as a flag's value: argparse reads it as the end of the flags, so the
# flag is refused for want of its value, with the subcommand's usage
DASHDASH_VALUES = {
    "range-k": (["range", "psl2-2", "--k", "--"], "range", "--k", RANGE_USAGE),
    "unitary-ell0": ([*UNITARY_NU0, "--ell0", "--"], "unitary", "--ell0", UNITARY_USAGE),
    "reduce-h": (["reduce", "psl2-2", "--k", "-2", "--nu", "0", "--h", "--"], "reduce", "--h",
                 "usage: walg reduce [-h] --k K --nu NU --h H algebra\n"),
    "modules-k": (["modules", "psl2-2", "--k", "--"], "modules", "--k", MODULES_USAGE),
}


@pytest.mark.parametrize("argv,command,flag,usage", DASHDASH_VALUES.values(),
                         ids=DASHDASH_VALUES.keys())
def test_a_dashdash_value_is_a_flag_without_its_value(argv, command, flag, usage):
    assert run_command(argv) == (
        2, f"walg {command}: error: argument {flag}: expected one argument\n" + usage)


POINT_FLAGS = {"range": ["--k"], "unitary": ["--k", "--nu", "--ell0"],
               "reduce": ["--k", "--nu", "--h"]}
# the tokens of the argvs below: names, numbers of either sign and junk
JUNK = ["-h", "--help", "--", "-", "", "x", "-x", "1_0", "\u0663", "1.5", "--bogus",
        "--el", "-k", "--k=-1", "--nu=0", "--ell0=1/2", "--h=-1/4", "modules", "info"]
NUMBERS = ["0", "1", "-1", "2", "-2", "3/4", "-3/4", "-1/2", "1/0", "-0", "+1", "1,0",
           "-1,0", "0,1,0", " 1 ", "9"]
TOKENS = st.sampled_from([*POINT_FLAGS, "psl2-2", "spo2-3", "f4", "--k", "--nu", "--ell0",
                          "--h", *JUNK, *NUMBERS])


@st.composite
def _near_point_queries(draw):
    """A point query with its flags in any order, and perhaps a flag
    dropped or repeated or a token put in anywhere."""
    command = draw(st.sampled_from(sorted(POINT_FLAGS)))
    flags = draw(st.permutations(POINT_FLAGS[command]))
    change = draw(st.sampled_from([None] * 4 + ["drop", "repeat", "insert"]))
    if change == "drop":
        flags = flags[1:]
    elif change == "repeat":
        flags.append(draw(st.sampled_from(flags)))
    argv = [command, draw(st.sampled_from(["psl2-2", "spo2-3", "f4", "spo2-4", "x", "-x", "-h"]))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(NUMBERS * 3 + JUNK))]
    if change == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_point_queries(), st.lists(TOKENS, max_size=8)))
def test_the_point_query_reader_declines_or_answers_as_argparse(argv):
    # every argv is answered, none raises out of run_command
    code, text = run_command(argv)
    assert code in (0, 1, 2) and type(text) is str
    read = cli._read_point_query(argv)
    if read is not None:
        parsed = cli._build_parser().commands[argv[0]].parse_args(
            cli._join_rational_values(argv)[1:])
        assert vars(read) == vars(parsed) and read == parsed
        assert run_command(argv) == _through_argparse(argv)


@pytest.mark.parametrize("argv,message", [
    (["unitary", "spo2-3", "--k", "-1", "--nu", "1_0", "--ell0", "1/2"],
     "walg: error: --nu expects comma-separated integers, got '1_0'\n"),
    (["unitary", "spo2-3", "--k", "-1", "--nu", "\u0663", "--ell0", "1/2"],
     "walg: error: --nu expects comma-separated integers, got '\u0663'\n"),
    (["range", "psl2-2", "--k", "-\u0663"], "walg: error: not a p/q rational: '-\u0663'\n"),
], ids=["nu-underscore", "nu-arabic-indic-digit", "k-arabic-indic-digit"])
def test_numbers_are_written_in_ascii_digits(argv, message):
    # int() and Fraction() alone would read 1_0 as 10 and the digit three as 3
    assert run_command(argv) == (2, message)


def test_nu_parts_parse_as_int_reads_them():
    argv = ["unitary", "spo2-3", "--k", "-1", "--ell0", "1/2", "--nu"]
    assert run_command(argv + [" +2 "]) == run_command(argv + ["2"])
    assert run_command(argv + ["-1"])[0] == 2


def _per_part_parse_nu(alg, text):
    """The --nu reader as it was, one strip and one match per part: the
    oracle of the one-pattern reader."""
    parts = [part.strip() for part in text.split(",")]
    if not all(map(re.compile(r"[+-]?[0-9]+").fullmatch, parts)):
        raise ValueError(f"--nu expects comma-separated integers, got {text!r}")
    return DominantWeight(alg.id, tuple(map(int, parts)))


def _outcome(read, alg, text):
    try:
        return read(alg, text)
    except ValueError as exc:  # RangeError too: a negative part or a wrong count
        return type(exc), str(exc)


# signs, digits, separators, str.strip's whitespace (also what int() refuses,
# as U+001C) and what int() alone reads as digits
NU_PIECES = ["0", "1", "7", "12", "-", "+", ",", " ", "\t", "\n", "\r", "\x0b", "\x1c",
             "\u00a0", "\u2003", "\u3000", "_", "\u0663", "\uff11", "x", "/", "."]


_NU_SPACE = st.lists(st.sampled_from(NU_PIECES[7:16]), max_size=2).map("".join)
# comma-separated parts, each a sign and digits in whitespace, or any piece
_NU_PARTS = st.lists(st.one_of(
    st.tuples(_NU_SPACE, st.sampled_from(["", "+", "-"]), st.sampled_from(NU_PIECES[:4]),
              _NU_SPACE).map("".join),
    st.sampled_from(NU_PIECES)), min_size=1, max_size=4).map(",".join)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["psl2-2", "spo2-5", "d21-3-2"]),
       st.one_of(_NU_PARTS, st.lists(st.sampled_from(NU_PIECES), max_size=10).map("".join)))
@example("spo2-5", " 1 ,\x1c2\u3000")
@example("spo2-5", "1,2,")
@example("spo2-5", ",1,2")
@example("spo2-5", "1,,2")
@example("spo2-5", "1_0,2")
@example("spo2-5", "+1,-2")
@example("psl2-2", "1\n")
@example("psl2-2", "")
def test_the_nu_pattern_reads_as_the_per_part_reader(name, text):
    alg = classify.build_algebra(AlgebraId.parse(name))
    assert _outcome(cli._parse_nu, alg, text) == _outcome(_per_part_parse_nu, alg, text)


def test_negative_fraction_flag_values_parse():
    code, _ = run_command(["range", "spo2-3", "--k", "-3/4"])
    assert code == 0
    code, _ = run_command(["reduce", "spo2-3", "--k=-1", "--nu", "0", "--h=-1/2"])
    assert code == 0


def test_json_round_trip_is_byte_identical():
    for argv in (["modules", "spo2-3", "--k", "-1", "--w", "--json"],
                 ["modules", "d21-3-2", "--k", "-6/5", "--affine", "--json"],
                 ["info", "g3"],
                 ["reflect", "f4"]):
        code, out = run_command(argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


# non-ASCII (with a lone surrogate and an astral character), control
# characters, quotes and backslashes, besides any text
TEXT = st.one_of(st.text(max_size=6),
                 st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600a',
                         max_size=6))
# the types of walg's documents: str, int, bool and None leaves in lists
# and str-keyed dicts
LEAVES = st.one_of(TEXT, st.none(), st.booleans(),
                   st.integers(), st.integers(-2**200, 2**200),
                   st.sampled_from([[], {}]))
JSON_VALUES = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.dictionaries(TEXT, children, max_size=4)), max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert cli._dump(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value, kind", [
    ([object()], "object"), ({"a": {1, 2}}, "set"), ({(1, 2): 0}, "tuple"),
    (1j, "complex"), ([Fraction(1, 2)], "Fraction")],
    ids=["object", "set", "tuple-key", "complex", "fraction"])
def test_writer_refuses_what_json_refuses(value, kind):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        cli._dump(value)


# json writes each of these; no walg document holds one
@pytest.mark.parametrize("value, kind", [
    (1.5, "float"), ([float("nan")], "float"), ({"a": [float("inf")]}, "float"),
    ((1, 2), "tuple"), ({"a": ()}, "tuple"),
    (_Str("a"), "_Str"), ([_Int(1)], "_Int"), (_List(), "_List"), ({"a": _Dict()}, "_Dict"),
    ({1: 0}, "int"), ({None: 0}, "NoneType"), ({"a": {True: 0}}, "bool")],
    ids=["float", "nan", "inf", "tuple", "empty-tuple", "str-subclass", "int-subclass",
         "list-subclass", "dict-subclass", "int-key", "none-key", "bool-key"])
def test_writer_refuses_what_walg_never_writes(value, kind):
    json.dumps(value, indent=2)
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        cli._dump(value)


# The dict forms of a modules record that json.dumps is compared with
def _w_record_dict(rec):
    return {"nu_coeffs": list(rec.nu.coeffs),
            "ell0": "free" if rec.ell0 is None else rational_str(rec.ell0),
            "extremal": rec.extremal,
            "A": rational_str(rec.threshold),
            "unitarity": str(rec.verdict)}


def _affine_record_dict(rec):
    return {"nu_coeffs": list(rec.nu.coeffs),
            "extremal": rec.extremal,
            "h": "free" if rec.h_set is None else [rational_str(h) for h in sorted(rec.h_set)]}


# negative, fractional and big rationals; dominant weights of ranks 1 to 24
# (spo2-(2r+1) has rank r) with big coefficients
RATIONALS = st.one_of(st.integers(-10, 10).map(Fraction),
                      st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**80)))
WEIGHTS = st.integers(1, 24).flatmap(lambda r: st.builds(
    DominantWeight, st.just(AlgebraId.parse(f"spo2-{2 * r + 1}")),
    st.tuples(*[st.integers(0, 2**70)] * r)))
VERDICTS = st.sampled_from([classify.UNITARY, classify.OPEN,
                            *map(classify.not_unitary, ("1a", "1b", "1c"))])
W_RECORDS = st.builds(WModuleRecord, WEIGHTS, st.none() | RATIONALS, st.booleans(),
                      RATIONALS, VERDICTS)
AFFINE_RECORDS = st.builds(AffineModuleRecord, WEIGHTS, st.booleans(),
                           st.none() | st.lists(RATIONALS, min_size=1, max_size=2, unique=True)
                           .map(lambda hs: tuple(sorted(hs))))
HEADER = cli._catalog_header(classify.level("f4", -2))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.just("w"), st.lists(W_RECORDS, max_size=4)),
    st.tuples(st.just("affine"), st.lists(AFFINE_RECORDS, max_size=4))),
    st.none() | st.lists(st.dictionaries(TEXT, LEAVES, max_size=3), max_size=3))
def test_record_writers_give_the_bytes_of_json_dumps(kind_records, ledger):
    kind, records = kind_records
    if kind == "w":
        items = [cli._w_record(rec, cli._escape(str(rec.verdict))) for rec in records]
        dicts = list(map(_w_record_dict, records))
    else:
        items = list(map(cli._affine_record, records))
        dicts = list(map(_affine_record_dict, records))
    header = {**HEADER, "kind": kind}
    document = {**header, "modules": dicts, **({} if ledger is None else {"ledger": ledger})}
    assert cli._modules_json(header, items, ledger) == json.dumps(document, indent=2) + "\n"


def _point_query_payload(argv):
    """The document of a range, unitary or reduce query as a dict, built
    from the library calls alone: the reference that each point-query
    writer is held to through _dump."""
    command, values = argv[0], dict(zip(argv[2::2], argv[3::2]))
    lvl = classify.level(argv[1], values["--k"])
    payload = {"algebra": lvl.name, "k": rational_str(lvl.k)}
    if command == "range":
        return {**payload, "in_range": classify.in_unitarity_range(lvl),
                "M": [rational_str(m) for m in classify.level_M(lvl)]}
    nu = DominantWeight(lvl.alg.id, tuple(map(int, values["--nu"].split(","))))
    payload["nu"] = list(nu.coeffs)
    if command == "unitary":
        label = classify.WModuleLabel(nu, values["--ell0"])
        verdict = classify.unitarity_verdict(lvl, label)
        try:
            extremal = classify.is_extremal(lvl, nu)
        except classify.RangeError:
            extremal = None
        return {**payload, "ell0": rational_str(label.ell0), "extremal": extremal,
                "A": rational_str(classify.A_value(lvl, nu)), "verdict": str(verdict)}
    label = classify.AffineModuleLabel(nu, values["--h"])
    reduced = classify.hamiltonian_reduce(lvl, label)
    payload["h"] = rational_str(label.h)
    payload["result"] = "zero" if reduced is None else {
        "nu_coeffs": list(reduced.nu.coeffs), "ell0": rational_str(reduced.ell0)}
    return payload


# one algebra of each FAMILY_TABLE row, spo2-m odd and even, d21-m-n at two
# parameter pairs: ranks 1 (psl2-2, spo2-3) to 3 (spo2-6, f4)
WRITER_ALGEBRAS = ["psl2-2", "spo2-3", "spo2-5", "spo2-6", "d21-2-1", "d21-5-3", "f4", "g3"]
# small, negative and fractional rationals, and big ones
QUERY_RATIONALS = st.one_of(st.fractions(-9, 9, max_denominator=8), RATIONALS)


@st.composite
def _written_point_queries(draw):
    """A range query at any level but the critical one, or a unitary or
    reduce query on the unitarity range: unitary with a weight inside the
    cone or perhaps outside it (extremal null) and ell0 at, below or above
    A; reduce with a weight of the cone and h in its two-point set, at a
    vanishing h (result "zero") or anywhere.  Rationals are written in
    lowest terms or with a common factor."""
    name = draw(st.sampled_from(WRITER_ALGEBRAS))
    aid = AlgebraId.parse(name)
    command = draw(st.sampled_from(sorted(POINT_FLAGS)))
    if command == "range":
        k = draw(QUERY_RATIONALS.filter(lambda k: k != -classify.build_algebra(aid).h_check))
        return ["range", name, "--k", draw(st.sampled_from(_k_texts(k)))]
    k = draw(st.sampled_from(standard_levels(aid, 3)))
    lvl = classify.level(name, k)
    cone = classify.enumerate_Pk(lvl)
    rank = len(cone[0].coeffs)
    outside = st.tuples(*[st.integers(0, 9)] * rank).map(lambda c: DominantWeight(aid, c))
    nu = draw(st.sampled_from(cone) | outside if command == "unitary" else st.sampled_from(cone))
    if command == "unitary":
        flag = "--ell0"
        value = classify.A_value(lvl, nu) + draw(st.sampled_from([0, 0, -1, 1]) | QUERY_RATIONALS)
    else:
        flag = "--h"
        value = draw(st.sampled_from(classify.extremal_h_set(lvl, nu))
                     | st.integers(0, 3).map(lambda n: (k - n) / 2) | QUERY_RATIONALS)
    return [command, name, "--k", draw(st.sampled_from(_k_texts(k))),
            "--nu", ",".join(map(str, nu.coeffs)), flag, draw(st.sampled_from(_k_texts(value)))]


@settings(max_examples=300, deadline=None)
@given(_written_point_queries())
@example(["unitary", "f4", "--k", "-2", "--nu", "9,1,0", "--ell0", "3/2"])  # extremal null
@example(["reduce", "spo2-5", "--k", "-3/2", "--nu", "1,0", "--h", "-3/4"])  # zero
@example(["reduce", "spo2-5", "--k", "-3/2", "--nu", "1,0", "--h", "-1/2"])  # nested
def test_point_query_writers_give_the_bytes_of_dump(argv):
    assert run_command(argv) == (0, cli._dump(_point_query_payload(argv)))


def test_repeat_invocations_are_deterministic():
    first = run_command(["modules", "f4", "--k", "-2", "--w", "--json"])
    second = run_command(["modules", "f4", "--k", "-2", "--w", "--json"])
    assert first == second


def test_data_dir_override(tmp_path):
    # a truncated root file must change (and here break) the build
    (tmp_path / "g3.roots").write_text(
        "# walg positive-root data, format v1\neven 2d(1)\n", encoding="utf-8")
    env = dict(os.environ, WALG_DATA_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "walg", "selfcheck"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    # a failing run writes its report to stderr, and nothing else
    *failures, summary = proc.stderr.splitlines()
    assert failures and all(line.startswith("[FAIL] catalog.") for line in failures)
    assert summary.startswith("selfcheck: ") and summary.endswith(f" checks, {len(failures)} FAILED")


def test_python_m_walg_runs_the_cli_cleanly():
    proc = subprocess.run([sys.executable, "-m", "walg", "selfcheck"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("all pass\n")


def test_star_import_binds_no_submodule():
    assert not [name for name in walg.__all__
                if isinstance(getattr(walg, name), types.ModuleType)]
    assert {"run_command", "Report", "level", "rational"} <= set(walg.__all__)
    # the benchmark tracer wraps the functions of sys.modules["walg.cli"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, walg; print('walg.cli' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.stdout == "True\n"


def test_console_entry_point():
    # the target of the installed `walg` script, walg.cli:main
    proc = subprocess.run(
        [sys.executable, "-c", "from walg.cli import main; main()", "info", "psl2-2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["h_check"] == "0"
