import re

import pytest

from walg.rootdata import RootDataError, load_positive_roots


def test_loader_counts():
    # spo(2|3): inner parameter 1 -> 2 even and 3 odd positive roots
    roots = load_positive_roots("spo2-odd", num_e=1, num_d=1, m=1)
    assert len([p for p, _ in roots if p == "even"]) == 2
    assert len([p for p, _ in roots if p == "odd"]) == 3
    # f4: 10 even, 8 odd
    roots = load_positive_roots("f4", num_e=3, num_d=1)
    assert len(roots) == 18


def test_loader_requires_version_header(tmp_path, monkeypatch):
    target = tmp_path / "d21.roots"
    target.write_text("even 2e(1)\n", encoding="utf-8")
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    with pytest.raises(RootDataError):
        load_positive_roots("d21", num_e=3, num_d=0)


@pytest.mark.parametrize("line,reason", [
    ("odd 2x(1)", "cannot parse root expression '2x(1)'"),
    # an index that is neither a literal nor i, j
    ("even e(k) for 1<=i<=m", "invalid literal for int() with base 10: 'k'"),
    # a bound that is neither m nor a literal
    ("even e(i) for 1<=i<=x", "invalid literal for int() with base 10: 'x'"),
    ("even 1/0e(1)", "Fraction(1, 0)"),
    ("even e(1)xe(2)", "cannot parse root expression 'e(1)xe(2)'"),
    ("even e(9)", "index e(9) out of range in 'e(9)'"),
    ("even d(1)", "index d(1) out of range in 'd(1)'"),  # d21 has no d coordinates
    ("weird e(1)", "expected a parity, even or odd, and an expression"),
    ("even", "expected a parity, even or odd, and an expression"),
    ("even e(i) for 1<i<=m", "bad range clause 'for 1<i<=m'"),
    # int() alone would read these as 3, 2 and 10
    ("even e(\u0663)", "not an integer in ASCII digits: '\u0663'"),
    ("even \u0662e(1)", "cannot parse root expression '\u0662e(1)'"),
    ("even e(i) for 1<=i<=1_0", "not an integer in ASCII digits: '1_0'"),
], ids=["bad-term", "unbound-index", "bad-bound", "zero-denominator", "junk-between-terms",
        "e-index-out-of-range", "d-index-out-of-range", "bad-parity", "no-expression",
        "bad-range", "non-ascii-index", "non-ascii-coefficient", "underscore-bound"])
def test_loader_rejects_malformed_lines(tmp_path, monkeypatch, line, reason):
    target = tmp_path / "d21.roots"
    target.write_text(
        f"# walg positive-root data, format v1\n{line}\n", encoding="utf-8")
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    with pytest.raises(RootDataError,
                       match=re.escape(f"bad root data line {line!r}: {reason}")):
        load_positive_roots("d21", num_e=3, num_d=0, m=3)


def test_loader_requires_m_for_an_m_bound():
    with pytest.raises(RootDataError, match=re.escape(
            "bad root data line 'even e(i)-e(j) for 1<=i<j<=m': "
            "root data uses the bound 'm' but no value was supplied")):
        load_positive_roots("spo2-odd", num_e=1, num_d=1)


def test_loader_reports_an_unreadable_override(tmp_path, monkeypatch):
    (tmp_path / "f4.roots").mkdir()
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    with pytest.raises(RootDataError, match="^cannot read root data override "
                                            + re.escape(str(tmp_path / "f4.roots"))):
        load_positive_roots("f4", num_e=3, num_d=1)


def test_missing_family():
    with pytest.raises(RootDataError):
        load_positive_roots("nope", num_e=1, num_d=1)


def test_override_falls_back_per_file(tmp_path, monkeypatch):
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    # nothing in the override directory: embedded data still loads
    roots = load_positive_roots("g3", num_e=2, num_d=1)
    assert len(roots) == 14
