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


@pytest.mark.parametrize("line", [
    "odd 2x(1)",
    "even e(k) for 1<=i<=m",   # an index that is neither a literal nor i, j
    "even e(i) for 1<=i<=x",   # a bound that is neither m nor a literal
    "even 1/0e(1)",            # a zero denominator
], ids=["bad-term", "unbound-index", "bad-bound", "zero-denominator"])
def test_loader_rejects_malformed_lines(tmp_path, monkeypatch, line):
    target = tmp_path / "d21.roots"
    target.write_text(
        f"# walg positive-root data, format v1\n{line}\n", encoding="utf-8")
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    with pytest.raises(RootDataError, match=re.escape(line)):
        load_positive_roots("d21", num_e=3, num_d=0, m=3)


def test_missing_family():
    with pytest.raises(RootDataError):
        load_positive_roots("nope", num_e=1, num_d=1)


def test_override_falls_back_per_file(tmp_path, monkeypatch):
    monkeypatch.setenv("WALG_DATA_DIR", str(tmp_path))
    # nothing in the override directory: embedded data still loads
    roots = load_positive_roots("g3", num_e=2, num_d=1)
    assert len(roots) == 14
