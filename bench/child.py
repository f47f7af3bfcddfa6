"""One measured process of the benchmark; run.py starts it.

Reads one request as JSON on stdin and prints one JSON result on stdout.  The
process is a fresh interpreter, so every walg cache starts cold, as it does
for a ``walg`` CLI call.  A "setup" request times ``import walg`` plus
``build_algebra`` of the workload's algebras; a "pass" request also runs the
workload, once or more, optionally under the tracer.  run.py checks the
outputs, so that no oracle data sits in this process's memory.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_STEPS = 400


def import_walg() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import walg  # noqa: F401


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_seconds() -> float:
    """Time of one run of a fixed loop of Fraction arithmetic, the kind of
    work walg does, with the garbage collector off so that walg's heap does
    not enter it.  run.py measures walg's time in units of this loop's time
    next to it, which takes out most of the changing speed the shared machine
    gives this process."""
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, REFERENCE_STEPS):
            total += Fraction(i % 7, i % 5 + 1)
        return perf_counter() - start
    finally:
        gc.enable()


class Segments:
    """Times the segments of a pass, and samples reference_seconds() before
    and after each one, outside its time."""

    def __init__(self):
        self.times: list[list] = []  # [label, seconds, reference before, after]
        self.restart()

    def restart(self) -> None:
        self._before = reference_seconds()
        self._start = perf_counter()

    def lap(self, label: str, seconds: float | None = None) -> None:
        """End the segment that began at the last restart or lap, or record
        one of the given length."""
        if seconds is None:
            seconds = perf_counter() - self._start
        after = reference_seconds()
        self.times.append([label, seconds, self._before, after])
        self._before = after
        self._start = perf_counter()


# Each workload: inputs(request), loaded before any timing, and
# run(inputs, request, pass index, tracer) -> (busy seconds in walg calls,
# outputs for run.py to check, details to report, with the timed segments).

def grid_inputs(req):
    grid = workloads.grid_inputs(req["tiny"])
    del grid["check_ids"]
    return grid


def grid_run(grid, req, index, tracer):
    segments = Segments()
    text = workloads.grid_pass(grid, segments.lap)
    if tracer is not None:
        tracer.output_bytes += len(text)
    return sum(t[1] for t in segments.times), text, {"segments": segments.times}


def modules_run(cases, req, index, tracer):
    """Each case's output is written to a file and dropped, so the peak RSS
    is that of the program, not of the outputs held for checking."""
    outputs, details = [], []
    segments = Segments()
    for number, case in enumerate(cases):
        segments.restart()
        code, text = workloads.modules_call(case)
        segments.lap(f"{case['algebra']}|{case['k']}")
        path = ROOT / f"{req['outputs_path']}-{index}-{number}.json"
        path.write_text(text, encoding="utf-8")
        outputs.append([code, str(path.relative_to(ROOT))])
        details.append({"algebra": case["algebra"], "k": case["k"],
                        "weights": case["weights"], "output_bytes": len(text)})
        del text
    busy = sum(t[1] for t in segments.times)
    return busy, outputs, {"cases": details, "segments": segments.times}


def queries_run(_, req, index, tracer):
    """Closed loop, one client: each query is sent when the previous one has
    been answered.  The stream is read from a file one query at a time, and
    the answers are written to a file, both outside the timing."""
    from walg import cli
    answers_path = ROOT / f"{req['outputs_path']}-{index}-answers.jsonl"
    latencies = []
    segments = Segments()
    with open(ROOT / req["stream_path"], encoding="utf-8") as queries, \
            open(answers_path, "w", encoding="utf-8") as answers:
        for line in queries:
            argv = json.loads(line)
            start = perf_counter()
            code, text = cli.run_command(argv)
            latencies.append(perf_counter() - start)
            answers.write(json.dumps(workloads.query_answer(argv, code, text)) + "\n")
            if len(latencies) % workloads.QUERY_BLOCK == 0:
                block = latencies[-workloads.QUERY_BLOCK:]
                segments.lap(f"queries {len(latencies) - len(block)}-", sum(block))
    if len(latencies) % workloads.QUERY_BLOCK:
        tail = latencies[len(latencies) - len(latencies) % workloads.QUERY_BLOCK:]
        segments.lap(f"queries {len(latencies) - len(tail)}-", sum(tail))
    return (sum(latencies), str(answers_path.relative_to(ROOT)),
            {"latencies_ms": [s * 1000 for s in latencies], "segments": segments.times})


RUNNERS = {
    "selfcheck-grid": (grid_inputs, grid_run),
    "modules-deep": (lambda req: workloads.case_inputs(req["seed"], req["tiny"]), modules_run),
    "point-queries": (lambda req: None, queries_run),
}


def write_spans(tracer: Tracer, path: str) -> None:
    out = ROOT / path
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for row in tracer.span_records():
            fh.write(json.dumps(row) + "\n")


def main() -> None:
    req = json.loads(sys.stdin.read())
    prepare, run = RUNNERS[req["workload"]]
    inputs = prepare(req) if req["mode"] == "pass" else None

    # set-up: import walg, then build_algebra of the workload's algebras
    reference = reference_seconds()
    start = perf_counter()
    import_walg()
    import_s = perf_counter() - start
    result = {"passes": []}
    if req["mode"] == "setup":
        start = perf_counter()
        workloads.build_algebras(req["algebras"])
        result["setup_s"] = import_s + perf_counter() - start
        result["setup_reference_s"] = min(reference, reference_seconds())
        print(json.dumps(result))
        return

    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
    for index in range(req["passes"]):
        if tracer is not None:
            tracer.begin_pass()
        start = perf_counter()
        workloads.build_algebras(req["algebras"])
        build_s = perf_counter() - start
        if index == 0:
            result["setup_s"] = import_s + build_s
            result["setup_reference_s"] = min(reference, reference_seconds())
        busy_s, outputs, details = run(inputs, req, index, tracer)
        rss_mb = peak_rss_mb()
        snapshot = None
        if tracer is not None:
            snapshot = tracer.end_pass()
            if index == 0 and req.get("spans_path"):
                write_spans(tracer, req["spans_path"])
        record = {"busy_s": busy_s, "build_s": build_s, "rss_mb": rss_mb,
                  "outputs": outputs, **details}
        if snapshot is not None:
            snapshot["cones"] = [[a, k, n] for (a, k), n in snapshot["cones"].items()]
            record["trace"] = snapshot
        result["passes"].append(record)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
