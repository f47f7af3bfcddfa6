import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import walg
from walg import classify, cli
from walg.cli import main, run_command
from walg.report import Report


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
    report = Report()
    report.add("fake.pass", algebra=lvl.name, k=lvl.k, formula="1 = 1", expected=1, computed=1)
    report.add("fake.fail", algebra=lvl.name, k=lvl.k, formula="1 = 2", expected=1, computed=2)
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
    for _ in range(50):
        assert run_command(["range", "spo2-3", "--k", "-3/4"])[0] == 0
    # one tree: the root parser and one parser per subcommand
    assert built.count("walg") == 1
    assert len(built) == 1 + len(cli._COMMANDS)


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import walg.cli; print(walg.cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


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
