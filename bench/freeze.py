"""Freeze the benchmark's inputs and the program's answers into ``data/``.

Usage, from the repository root:  python3 bench/freeze.py

The frozen files are the benchmark's oracle: the answers of the commit the
benchmark was defined on.  Re-freezing after a change to the program replaces
those answers with the new program's, so do it only when an output change is
intended and reviewed.  The inputs come from the program's own grids and level
lists as they were when frozen; the benchmark then reads only the files.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from walg import affine, catalog, classify, cli, ledger  # noqa: E402
from walg.scalars import rational_str  # noqa: E402

import workloads  # noqa: E402

MODULES_CASES = (("f4", "-82/3"), ("spo2-16", "-7/2"), ("spo2-8", "-13/2"),
                 ("d21-5-3", "-75/8"))
QUERY_LEVELS = 30
# Weights per level of the point-query universe.  The 390 levels' cones hold
# 619,908 weights in all, too many to freeze an answer for each, so every
# level keeps a seeded uniform sample of its cone (the first levels' cones
# are smaller than this, and are kept whole).
POOL_NUS = 16


def _keys(report) -> list[str]:
    return [f"{e.algebra}|{e.k}|{e.check_id}" for e in report.entries]


def freeze_grid() -> dict:
    """The ``selfcheck --all`` grid of the CLI, unit by unit."""
    algebras = list(cli.SELFCHECK_ALGEBRAS)
    levels, check_ids = [], {}
    for name in algebras:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(name))
        rep = catalog.selfcheck_algebra(alg)
        rep.extend(affine.eta_membership_check(alg))
        check_ids[name] = _keys(rep)
    for name in algebras:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(name))
        if alg.id.family == "d21":
            count = 2
        elif alg.rank_natural >= 3:
            count = 6
        else:
            count = 10
        for k in classify.standard_levels(alg.id, count):
            lvl = classify.Level(alg, k)
            rep = ledger.run_level_ledger(lvl)
            rep.extend(classify.cross_identity_report(lvl))
            levels.append([name, rational_str(k)])
            check_ids[f"{name}|{rational_str(k)}"] = _keys(rep)
    cone_pairs = [[m, n, q] for m, n in cli.CONE_PAIRS for q in range(1, 5)]
    for m, n, q in cone_pairs:
        check_ids[f"cone|{m}|{n}|{q}"] = _keys(ledger.check_d21_cone(m, n, q))
    grid = {"algebras": algebras, "levels": levels, "cone_pairs": cone_pairs,
            "checks": sum(len(v) for v in check_ids.values()),
            "check_ids": check_ids}
    _, failures = workloads.grid_check(grid, workloads.grid_pass(grid))
    if failures:
        raise SystemExit(f"the grid fails at freeze time: {failures[:3]}")
    return grid


def freeze_modules() -> dict:
    cases = []
    for name, k in MODULES_CASES:
        code, text = cli.run_command(["modules", name, "--k", k, "--json"])
        if code != 0:
            raise SystemExit(f"modules {name} --k {k} exited {code}")
        payload = json.loads(text)
        cases.append({
            "algebra": name, "k": k, "weights": len(payload["modules"]),
            "box_points": workloads.box_points(name, k), "M": payload["M"],
            "modules_sha256": workloads.canonical_digest(payload["modules"]),
        })
    return {"cases": cases}


def _answer(argv: list[str]):
    code, text = cli.run_command(argv)
    return workloads.query_answer(argv, code, text)


def _level_nus(lvl, label: str) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """A uniform sample of POOL_NUS weights of the level's whole truncated
    cone (all of it when smaller), drawn with a seed made from `label`; plus
    one weight outside the cone."""
    rank = lvl.alg.rank_natural
    cone = classify.enumerate_Pk(lvl)
    sample = random.Random(label).sample(cone, min(POOL_NUS, len(cone)))
    inside = sorted(nu.coeffs for nu in sample)
    top = max(int(m) for m in classify.level_M(lvl))
    outside = ((top + 1),) + (0,) * (rank - 1)
    if classify.in_truncated_cone(lvl, classify.DominantWeight(lvl.alg.id, outside)):
        raise SystemExit(f"{outside} is unexpectedly inside the cone")
    return inside, outside


def freeze_queries() -> dict:
    levels = []
    for name in cli.SELFCHECK_ALGEBRAS:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(name))
        for k in classify.standard_levels(alg.id, QUERY_LEVELS):
            lvl = classify.Level(alg, k)
            ks = rational_str(k)
            inside, outside = _level_nus(lvl, f"{name}|{ks}")
            nus = {}
            for coeffs in inside + [outside]:
                nu = ",".join(map(str, coeffs))
                # ell0 below, at and above the threshold A(k, nu): the
                # branches of unitarity_verdict
                threshold = classify.A_value(lvl, classify.DominantWeight(alg.id, coeffs))
                ell0s = [rational_str(threshold + d) for d in (-1, 0, 1)]
                # h = k/2 makes the reduction vanish; h = 1/3 reduces to a
                # label through ell0 and the affine pairing
                hs = [rational_str(k / 2), "1/3"] if coeffs != outside else []
                nus[nu] = {
                    "unitary": {e: _answer(["unitary", name, "--k", ks, "--nu", nu,
                                            "--ell0", e]) for e in ell0s},
                    "reduce": {h: _answer(["reduce", name, "--k", ks, "--nu", nu,
                                           "--h", h]) for h in hs},
                }
            levels.append({"algebra": name, "k": ks,
                           "range": _answer(["range", name, "--k", ks]), "nus": nus})
    return {"levels": levels}


def _write(name: str, payload: dict) -> None:
    """Plain JSON, or gzip-compressed JSON when `name` ends in ``.gz``."""
    path = workloads.DATA_DIR / f"{name}"
    path.parent.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)} ({path.stat().st_size} bytes)")


def main() -> None:
    _write("selfcheck_grid.json", freeze_grid())
    _write("modules_deep.json", freeze_modules())
    _write("point_queries.json.gz", freeze_queries())


if __name__ == "__main__":
    main()
