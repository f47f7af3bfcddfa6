"""walg benchmark: one workload, measured in fresh processes, outputs checked.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each is there):

* selfcheck-grid: the calls of ``walg selfcheck --all --json`` over a frozen
  copy of its grid (13 algebras, 74 levels, the d21 cone pairs).
* modules-deep: ``walg modules <alg> --k <k> --json`` at four deep levels,
  in an order drawn from the seed.
* point-queries: a seeded closed-loop stream of ``unitary``, ``reduce`` and
  ``range`` queries from one client, in one long-lived process.

Every measured pass runs in a fresh interpreter (``child.py``), so walg's
caches start cold, as they do for a CLI call.  With ``--trace 0`` the run
repeats passes for ``--seconds`` seconds and reports the end-to-end metrics:

* setup_s: ``import walg`` plus ``build_algebra`` of the workload's algebras,
  the median over set-ups in separate processes and in the passes;
* peak_rss_mb: ``ru_maxrss`` of a pass's process, the median over passes;
* items_per_s: levels verified, weights classified or queries answered per
  second of a pass.

Times are scaled to a nominal machine speed, see pass_time().  The lines
before the last give the unscaled figures, the same rates under the
workload's own name (verify_levels_per_s, weights_per_s, queries_per_s),
query_p50_ms and query_p99_ms with their sample counts, fail_ratio, and a
record of the run's inputs.  With ``--trace 1`` the run makes TRACE_ROUNDS
rounds of one untraced pass and one traced process of two identical passes
(cold, then warm), reports the per-layer metrics and the tracing overhead,
and checks the traced passes' span trees.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import TRACED, check_span_records  # noqa: E402

SETUP_PROBES = 12         # set-up-only processes per run, besides the passes
# The time of child.reference_seconds() at which times are reported: about
# its fastest time on the 2-vCPU machine the benchmark was first run on.
REFERENCE_NOMINAL_S = 0.00075
TRACE_ROUNDS = 3
# The least share of a traced pass's busy time that its traced calls at the
# top level take: a public function the tracer missed would leave a gap.
MIN_TRACED_SHARE = 0.9
# The traced functions each workload does not call; it calls every other one
# in every cold pass.
NOT_REACHED = {
    "selfcheck-grid": {"cli.run_command"},
    "modules-deep": {"catalog.selfcheck_algebra", "affine.affine_pair",
                     "affine.eta_membership_check", "classify.ell0",
                     "classify.cross_identity_report", "ledger.run_level_ledger",
                     "ledger.check_affine_pairings", "report.Report.to_json"},
    "point-queries": {"catalog.selfcheck_algebra", "affine.eta_membership_check",
                      "classify.enumerate_Pk", "classify.classify_w_modules",
                      "classify.cross_identity_report", "ledger.run_level_ledger",
                      "ledger.check_affine_pairings", "report.Report.to_json"},
}
RUN_LIMIT_S = 170         # a run ends within this, or fails
MAX_REPORTED_FAILURES = 5

# Per-layer metric suffixes of every traced function.
LAYER_STATS = (("calls", "count"), ("s", "s"), ("self_s", "s"),
               ("warm_s", "s"), ("warm_self_s", "s"))
EXTRA_LAYER_METRICS = (
    ("classify.cone_weights", "count"),
    ("classify.cone_box_points", "count"),
    ("classify.cone_yield", "ratio"),
    ("cli.output_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"))
# What one item of items_per_s is, per workload, under its own name.
ITEM_NAMES = {
    "selfcheck-grid": "verify_levels_per_s",
    "modules-deep": "weights_per_s",
    "point-queries": "queries_per_s",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    names = [(f"{fn}.{suffix}", unit) for fn in TRACED for suffix, unit in LAYER_STATS]
    return names + list(EXTRA_LAYER_METRICS)


class ChildError(RuntimeError):
    pass


def run_child(request: dict, timeout: float) -> dict:
    """Run child.py on one request in a fresh interpreter and wait for it."""
    proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_algebras(workload: str, tiny: bool, seed: int) -> list[str]:
    if workload == "selfcheck-grid":
        return workloads.grid_inputs(tiny)["algebras"]
    if workload == "modules-deep":
        return sorted({c["algebra"] for c in workloads.case_inputs(seed, tiny)})
    return list(dict.fromkeys(lv["algebra"] for lv in workloads.query_universe()["levels"]))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def say(line: str) -> None:
    print(line, flush=True)


def pass_time(passes: list[dict], scaled: bool = True) -> float:
    """The time of one pass, at the nominal speed of the machine.

    Every pass does the same work, timed in segments: the static checks, each
    level and the serialisation of selfcheck-grid, each case of modules-deep,
    each block of QUERY_BLOCK queries of point-queries.  On a machine shared
    with other tenants the speed this process gets changes within seconds, by
    up to a factor of two.  So each segment's time is divided by the time of
    the reference loop sampled next to it (the faster of the samples before
    and after it), and multiplied by REFERENCE_NOMINAL_S; a segment's time is
    the median of that over the passes, and a pass's time the sum over the
    segments.  With scaled=False, the medians of the measured times.
    """
    by_segment: dict[str, list[float]] = {}
    for p in passes:
        for label, seconds, before, after in p["segments"]:
            scale = REFERENCE_NOMINAL_S / min(before, after) if scaled else 1.0
            by_segment.setdefault(label, []).append(seconds * scale)
    return sum(statistics.median(v) for v in by_segment.values())


class Run:
    """One benchmark run: the requests it sends to child processes, the
    checks of their outputs, and the temporary files they exchange."""

    def __init__(self, args):
        self.started = perf_counter()
        self.args = args
        self.out = BENCH / "out"
        self.out.mkdir(exist_ok=True)
        self.stem = f"{args.workload}-seed{args.seed}"
        self.temporary: list[Path] = []
        self.base = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                     "trace": False,
                     "algebras": workload_algebras(args.workload, args.tiny, args.seed),
                     "outputs_path": str((self.out / self.stem).relative_to(ROOT))}
        self.stream: list[list[str]] = []
        if args.workload == "point-queries":
            self.write_stream(workloads.TINY_QUERIES if args.tiny else workloads.POINT_QUERIES)

    def write_stream(self, count: int) -> None:
        """Generate the point-query stream and hand it to children as a file."""
        universe = workloads.query_universe()
        self.answers = {(lv["algebra"], lv["k"]): lv for lv in universe["levels"]}
        self.stream = workloads.generate_stream(self.args.seed, count, universe)
        path = self.out / f"{self.stem}-stream.jsonl"
        self.temporary.append(path)
        path.write_text("".join(json.dumps(q) + "\n" for q in self.stream), encoding="utf-8")
        self.base["stream_path"] = str(path.relative_to(ROOT))

    def child(self, **request) -> dict:
        result = run_child({**self.base, **request},
                           timeout=max(self.started + RUN_LIMIT_S - perf_counter(), 1))
        for record in result["passes"]:
            self.check(record)
        return result

    def check(self, record: dict) -> None:
        """Check a pass's outputs against the frozen answers; sets the pass's
        items, attempted, failed and failures, and drops its outputs."""
        args, outputs = self.args, record.pop("outputs")
        if args.workload == "selfcheck-grid":
            grid = workloads.grid_inputs(args.tiny)
            attempted, failures = workloads.grid_check(grid, outputs)
            record["checks"] = attempted
            items = len(grid["levels"])
        elif args.workload == "modules-deep":
            cases = workloads.case_inputs(args.seed, args.tiny)
            failures = []
            for case, (code, name) in zip(cases, outputs):
                path = ROOT / name
                self.temporary.append(path)
                failures += workloads.modules_check(case, code, path.read_text(encoding="utf-8"))
            items, attempted = sum(c["weights"] for c in cases), len(cases)
        else:
            path = ROOT / outputs
            self.temporary.append(path)
            failures = []
            with open(path, encoding="utf-8") as answers:
                for argv, line in zip(self.stream, answers):
                    got = json.loads(line)
                    want = workloads.expected_answer(argv, self.answers)
                    if got != want:
                        failures.append(f"{' '.join(argv)}: got {got}, expected {want}")
            items = attempted = len(record["latencies_ms"])
        record.update(items=items, attempted=attempted, failed=len(failures),
                      failures=failures[:MAX_REPORTED_FAILURES])

    def cleanup(self) -> None:
        for path in self.temporary:
            path.unlink(missing_ok=True)

    def measure(self) -> tuple[dict, dict, list[str]]:
        """--trace 0: passes for --seconds; end-to-end metrics."""
        args = self.args
        results = [self.child(mode="setup") for _ in range(1 if args.tiny else SETUP_PROBES)]
        passes = []
        deadline = perf_counter() + args.seconds
        while not passes or perf_counter() < deadline:
            result = self.child(mode="pass", passes=1)
            results.append(result)
            passes += result["passes"]
        setups = [r["setup_s"] for r in results]
        scaled_setups = [r["setup_s"] * REFERENCE_NOMINAL_S / r["setup_reference_s"]
                         for r in results]
        rss = [p["rss_mb"] for p in passes]
        items = passes[0]["items"]
        metrics = {"setup_s": statistics.median(scaled_setups),
                   "peak_rss_mb": statistics.median(rss),
                   "items_per_s": items / pass_time(passes)}
        unscaled_rate = items / pass_time(passes, scaled=False)
        item_name = ITEM_NAMES[args.workload]
        say(f"metric setup_s = {metrics['setup_s']:.4f} s (import walg + build_algebra, "
            f"median of {len(setups)} set-ups; unscaled {statistics.median(setups):.4f} s)")
        say(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB "
            f"(ru_maxrss, median of {len(rss)} processes)")
        say(f"metric items_per_s = {metrics['items_per_s']:.4f} 1/s (= {item_name}, "
            f"{len(passes)} passes; unscaled {unscaled_rate:.4f} 1/s)")
        say(f"metric {item_name} = {metrics['items_per_s']:.4f} 1/s")
        record = {"passes": len(passes), "pass_busy_s": [p["busy_s"] for p in passes],
                  "setup_samples_s": setups, "unscaled_items_per_s": unscaled_rate}
        if args.workload == "selfcheck-grid":
            record["checks_per_pass"] = passes[0]["checks"]
        elif args.workload == "modules-deep":
            record["cases"] = [
                {**{key: c[key] for key in ("algebra", "k", "weights", "output_bytes")},
                 "box_points": workloads.box_points(c["algebra"], c["k"])}
                for c in passes[0]["cases"]]
        else:
            record["stream"] = workloads.stream_properties(self.stream)
            latencies = [ms for p in passes for ms in p["latencies_ms"]]
            for q in (50, 99):
                say(f"metric query_p{q}_ms = {percentile(latencies, q):.4f} ms "
                    f"({len(latencies)} samples)")
        return metrics, self.totals(passes, record), []

    def trace(self) -> tuple[dict, dict, list[str]]:
        """--trace 1: per-layer metrics, cold and warm, and the tracing
        overhead as traced minus untraced time of the workload's segments.

        TRACE_ROUNDS rounds each run one untraced pass and one traced process
        of a cold and a warm pass.  Every per-layer time is the median over
        the rounds, as measured; the overhead compares the pass times of
        pass_time(), medians over the rounds at the nominal speed."""
        untraced, cold, warm = [], [], []
        spans_path = self.out / f"spans-{self.stem}.jsonl"
        for round_ in range(TRACE_ROUNDS):
            untraced += self.child(mode="pass", passes=1)["passes"]
            spans = {"spans_path": str(spans_path.relative_to(ROOT))} if round_ == 0 else {}
            first, second = self.child(mode="pass", passes=2, trace=True, **spans)["passes"]
            cold.append(first)
            warm.append(second)
        metrics = {}
        for fn in TRACED:
            metrics[f"{fn}.calls"] = cold[0]["trace"]["stats"][fn][0]
            for suffix, passes in (("", cold), ("warm_", warm)):
                metrics[f"{fn}.{suffix}s"] = statistics.median(
                    p["trace"]["stats"][fn][1] for p in passes)
                metrics[f"{fn}.{suffix}self_s"] = statistics.median(
                    p["trace"]["stats"][fn][2] for p in passes)
        first = cold[0]["trace"]
        weights = sum(n for _, _, n in first["cones"])
        box = sum(workloads.box_points(a, k) for a, k, _ in first["cones"])
        base, traced = pass_time(untraced), pass_time(cold)
        overhead = traced - base
        metrics.update({
            "classify.cone_weights": weights,
            "classify.cone_box_points": box,
            "classify.cone_yield": weights / box if box else 0.0,
            "cli.output_bytes": first["output_bytes"],
            "trace.spans": first["spans"],
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / base,
        })
        say(f"trace: untraced {base:.4f} s, traced {traced:.4f} s, warm traced "
            f"{pass_time(warm):.4f} s; overhead {overhead:.4f} s "
            f"({100 * overhead / base:.1f}%)")
        say(f"trace: {first['spans']} spans of the first cold pass in "
            f"{spans_path.relative_to(ROOT)}")
        with open(spans_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        problems = check_span_records(rows, first["stats"])
        for number, p in enumerate(cold):
            problems += self.coverage_problems(f"cold pass {number}", p, cold=True)
        for number, p in enumerate(warm):
            problems += self.coverage_problems(f"warm pass {number}", p, cold=False)
        problems = [f"span tree: {p}" for p in problems]
        record = {"rounds": TRACE_ROUNDS, "untraced_s": base, "cold_traced_s": traced,
                  "warm_traced_s": pass_time(warm), "span_tree_ok": not problems,
                  "traced_share_of_busy": [p["trace"]["top_s"] / p["busy_s"]
                                           for p in cold + warm]}
        return metrics, self.totals(untraced + cold + warm, record), problems

    def coverage_problems(self, label: str, record: dict, cold: bool) -> list[str]:
        """Checks of a traced pass against its own clock: the traced calls at
        the top level take at least MIN_TRACED_SHARE of the workload's busy
        time and no more than that plus the set-up's, and, in a cold pass,
        every traced function the workload reaches was called."""
        trace, busy = record["trace"], record["busy_s"]
        problems = []
        if not MIN_TRACED_SHARE * busy <= trace["top_s"] <= busy + record["build_s"] + 1e-3:
            problems.append(f"{label}: traced calls take {trace['top_s']:.4f} s of "
                            f"{busy:.4f} s busy and {record['build_s']:.4f} s set-up")
        if cold:
            missed = [fn for fn in TRACED if trace["stats"][fn][0] == 0
                      and fn not in NOT_REACHED[self.args.workload]]
            if missed:
                problems.append(f"{label}: no calls of {', '.join(missed)}")
        return problems

    @staticmethod
    def totals(passes: list[dict], record: dict) -> dict:
        return {"attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "failures": [f for p in passes for f in p["failures"]],
                "record": record}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a tiny size of each workload, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "walg" / "__init__.py").is_file():
        print(f"error: no walg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import walg
    if not Path(walg.__file__).resolve().is_relative_to(src):
        print(f"error: imported walg from {walg.__file__}, not {src}", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        metrics, counts, problems = run.trace() if args.trace else run.measure()
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "python": sys.version.split()[0],
              "nproc": len(os.sched_getaffinity(0)), **counts.pop("record")}
    say("record: " + json.dumps(record))
    attempted, failed = max(counts.pop("attempted"), 1), counts.pop("failed")
    if not args.trace:
        say(f"metric fail_ratio = {failed / attempted:.6f} ({failed} of {attempted})")
    for failure in counts["failures"] + problems[:MAX_REPORTED_FAILURES]:
        say(f"failure: {failure}")
    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
