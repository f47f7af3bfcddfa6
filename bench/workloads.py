"""The benchmark's three workloads: frozen inputs, one pass of each, and the
output oracles.

walg is imported inside the functions, after the benchmark has timed the
import, and every call goes through a module attribute (``catalog.pair``, not
a name imported from it), so the wrappers that ``tracer.py`` installs in the
module namespaces see every call.  The inputs and the expected answers are
frozen in ``data/`` by ``freeze.py``; the workloads do not read the CLI's own
grids or level lists, which later changes may widen.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("selfcheck-grid", "modules-deep", "point-queries")

# Query mix of the point-query stream; weights of random.choices.  A chosen
# mix, not a measured one: most queries carry a label (nu with ell0 or h) and
# run the single-label classify path, and range, a per-level check, is the
# minority.
QUERY_MIX = (("unitary", 45), ("reduce", 40), ("range", 15))

# Queries in one point-query pass, and per timed segment of a pass.
POINT_QUERIES = 3_000
QUERY_BLOCK = 100

# The tiny size of the smoke test: the first units of the grid, the two
# cheapest modules cases, and a short query stream.
TINY_GRID_LEVELS = 6
TINY_CASES = ("d21-5-3", "spo2-8")
TINY_QUERIES = 50


def load_data(name: str) -> dict:
    """A frozen file of ``data/``: ``<name>.json``, or ``<name>.json.gz``."""
    path = DATA_DIR / f"{name}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return json.loads(gzip.decompress((DATA_DIR / f"{name}.json.gz").read_bytes()))


def canonical_digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_algebras(names) -> None:
    from walg import catalog
    for name in names:
        catalog.build_algebra(catalog.AlgebraId.parse(name))


# --- selfcheck-grid ----------------------------------------------------------

def grid_inputs(tiny: bool) -> dict:
    grid = load_data("selfcheck_grid")
    if tiny:
        grid["levels"] = grid["levels"][:TINY_GRID_LEVELS]
        grid["cone_pairs"] = grid["cone_pairs"][:1]
    return grid


def grid_pass(grid: dict, lap=lambda label: None) -> str:
    """The calls ``selfcheck --all --json`` makes, over the frozen grid.
    ``lap(label)`` is called at the end of each unit of work."""
    from walg import affine, catalog, classify, ledger, report as report_mod, scalars
    report = report_mod.Report()
    for name in grid["algebras"]:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(name))
        report.extend(catalog.selfcheck_algebra(alg))
        report.extend(affine.eta_membership_check(alg))
    lap("static")
    for name, k in grid["levels"]:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(name))
        lvl = classify.Level(alg, scalars.rational(k))
        report.extend(ledger.run_level_ledger(lvl))
        report.extend(classify.cross_identity_report(lvl))
        lap(f"{name}|{k}")
    for m, n, q in grid["cone_pairs"]:
        report.extend(ledger.check_d21_cone(m, n, q))
    lap("cones")
    payload = {"checks": len(report.entries), "pass": report.all_pass,
               "entries": report.to_json()}
    text = json.dumps(payload, indent=2) + "\n"
    lap("serialise")
    return text


def grid_check(grid: dict, text: str) -> tuple[int, list[str]]:
    """Every entry passes and every frozen check id of the grid is present;
    extra check ids are tolerated.  Returns (checks attempted, failures)."""
    entries = json.loads(text)["entries"]
    failures = [f"check failed: {e.get('check_id')} ({e.get('algebra')} k={e.get('k')})"
                for e in entries if e.get("pass") is not True]
    seen = {f"{e.get('algebra')}|{e.get('k')}|{e.get('check_id')}" for e in entries}
    units = set(grid["algebras"]) | {f"{a}|{k}" for a, k in grid["levels"]}
    units |= {f"cone|{m}|{n}|{q}" for m, n, q in grid["cone_pairs"]}
    missing = [key for unit, ids in grid["check_ids"].items() if unit in units
               for key in ids if key not in seen]
    failures += [f"check missing: {key}" for key in missing]
    return len(entries) + len(missing), failures


# --- modules-deep ------------------------------------------------------------

def case_inputs(seed: int, tiny: bool) -> list[dict]:
    cases = load_data("modules_deep")["cases"]
    if tiny:
        cases = [c for c in cases if c["algebra"] in TINY_CASES]
    random.Random(seed).shuffle(cases)
    return cases


def modules_call(case: dict) -> tuple[int, str]:
    from walg import cli
    return cli.run_command(["modules", case["algebra"], "--k", case["k"], "--json"])


def modules_check(case: dict, code: int, text: str) -> list[str]:
    """Exit code, ``M`` and the digest of the ``modules`` records match the
    frozen answer; extra top-level keys are tolerated."""
    where = f"modules {case['algebra']} k={case['k']}"
    if code != 0:
        return [f"{where}: exit code {code}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"{where}: output is not JSON"]
    failures = []
    if payload.get("M") != case["M"]:
        failures.append(f"{where}: M {payload.get('M')} != {case['M']}")
    modules = payload.get("modules", [])
    if canonical_digest(modules) != case["modules_sha256"]:
        failures.append(f"{where}: modules digest differs ({len(modules)} records, "
                        f"expected {case['weights']})")
    return failures


def box_points(algebra: str, k: str) -> int:
    """Points of the bounding box a box enumeration of the truncated cone
    walks, from level_M and the theta_values of the unit weights."""
    from walg import catalog, classify, scalars
    alg = catalog.build_algebra(catalog.AlgebraId.parse(algebra))
    lvl = classify.Level(alg, scalars.rational(k))
    M = classify.level_M(lvl)
    rank = alg.rank_natural
    rows = [classify.theta_values(lvl, classify.DominantWeight(
        alg.id, tuple(int(a == b) for b in range(rank)))) for a in range(rank)]
    total = 1
    for a in range(rank):
        caps = [int(M[i]) // int(v) for i, v in enumerate(rows[a]) if v > 0]
        total *= min(caps) + 1 if caps else 1
    return total


# --- point-queries -----------------------------------------------------------

def query_universe() -> dict:
    """The frozen query universe and its answers, per level:
    ``nus[nu]["unitary"][ell0]``, ``nus[nu]["reduce"][h]`` and ``range``."""
    return load_data("point_queries")


def generate_stream(seed: int, count: int, universe: dict) -> list[list[str]]:
    """A seeded stream of `count` queries (CLI argv lists) drawn from the
    frozen universe; a shorter count gives a prefix of a longer one.

    Levels are visited in seeded random orders, each order covering every
    level once, so every seed spreads its queries evenly over the levels;
    the query kind, nu, ell0 and h are drawn at random from the level's
    frozen pools (see freeze.py): nu from a uniform sample of the truncated
    cone, plus, for `unitary`, one weight outside it; ell0 one below, at or
    one above the threshold A(k, nu); h either k/2 or 1/3.  `reduce` draws
    nu only from inside the truncated cone, checked with the public
    in_truncated_cone here.
    """
    from walg import catalog, classify, scalars
    rng = random.Random(seed)
    kinds, weights = zip(*QUERY_MIX)
    reducible = {}
    for level in universe["levels"]:
        alg = catalog.build_algebra(catalog.AlgebraId.parse(level["algebra"]))
        lvl = classify.Level(alg, scalars.rational(level["k"]))
        reducible[id(level)] = [
            nu for nu, entry in sorted(level["nus"].items()) if entry["reduce"]
            and classify.in_truncated_cone(lvl, classify.DominantWeight(
                alg.id, tuple(int(c) for c in nu.split(","))))]

    stream = []
    order: list[dict] = []
    for _ in range(count):
        if not order:
            order = rng.sample(universe["levels"], len(universe["levels"]))
        level = order.pop()
        alg_name, k = level["algebra"], level["k"]
        kind = rng.choices(kinds, weights)[0]
        if kind == "range":
            argv = ["range", alg_name, "--k", k]
        elif kind == "unitary":
            nu = rng.choice(sorted(level["nus"]))
            ell0 = rng.choice(sorted(level["nus"][nu]["unitary"]))
            argv = ["unitary", alg_name, "--k", k, "--nu", nu, "--ell0", ell0]
        else:
            nu = rng.choice(reducible[id(level)])
            h = rng.choice(sorted(level["nus"][nu]["reduce"]))
            argv = ["reduce", alg_name, "--k", k, "--nu", nu, "--h", h]
        stream.append(argv)
    return stream


def stream_properties(stream: list[list[str]]) -> dict:
    """The query mix, and the share of queries that repeat an earlier
    (algebra, k) and, of those carrying a nu, an earlier (algebra, k, nu)."""
    mix = {kind: 0 for kind, _ in QUERY_MIX}
    seen_levels, seen_weights = set(), set()
    level_repeats = weight_repeats = with_nu = 0
    for argv in stream:
        mix[argv[0]] += 1
        level = (argv[1], argv[3])
        level_repeats += level in seen_levels
        seen_levels.add(level)
        if argv[0] != "range":
            with_nu += 1
            weight_repeats += (level, argv[5]) in seen_weights
            seen_weights.add((level, argv[5]))
    return {
        "queries": len(stream),
        "mix": mix,
        "level_repeat_share": level_repeats / max(len(stream), 1),
        "weight_repeat_share": weight_repeats / max(with_nu, 1),
        "distinct_levels": len(seen_levels),
        "distinct_weights": len(seen_weights),
    }


# The answer fields the oracle compares, per query kind, in stored order.
ANSWER_FIELDS = {
    "unitary": ("verdict", "A", "extremal"),
    "reduce": ("result",),
    "range": ("in_range", "M"),
}


def query_answer(argv: list[str], code: int, text: str) -> list:
    """[exit code, answer fields...]; a failed call carries no fields."""
    if code != 0:
        return [code]
    try:
        payload = json.loads(text)
    except ValueError:
        return [code, "output is not JSON"]
    return [code] + [payload.get(f) for f in ANSWER_FIELDS[argv[0]]]


def expected_answer(argv: list[str], universe_index: dict):
    level = universe_index[(argv[1], argv[3])]
    if argv[0] == "range":
        return level["range"]
    entry = level["nus"].get(argv[5], {})
    return entry.get(argv[0], {}).get(argv[7])
