"""Per-layer tracing from outside the program.

The tracer replaces walg's public functions, in every ``walg.*`` namespace
that binds them, with one wrapper per function.  ``cli`` and ``ledger`` import
functions by name, so replacing the defining module's attribute alone would
miss their calls.  Each wrapped call is one span at a layer boundary (name,
start, end, parent); a span's self time is its duration minus the time of the
traced calls it makes.  The leaf pairings are called millions of times, so for
them, and for any function past SPAN_CAP calls in a pass, only the aggregate
count and times are kept.  Nothing under ``src/`` changes.

check_span_records() checks a pass's span tree as written, against the
aggregates; run.py also checks the traced time against the pass's own clock.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Traced functions as "<module>.<attribute path>" under the walg package;
# these are also the per-layer metric prefixes.
TRACED = (
    "rootdata.load_positive_roots",
    "catalog.build_algebra",
    "catalog.pair",
    "catalog.coroot_pair",
    "catalog.selfcheck_algebra",
    "affine.affine_pair",
    "affine.eta_membership_check",
    "classify.enumerate_Pk",
    "classify.A_value",
    "classify.is_extremal",
    "classify.unitarity_verdict",
    "classify.classify_w_modules",
    "classify.ell0",
    "classify.cross_identity_report",
    "ledger.run_level_ledger",
    "ledger.check_affine_pairings",
    "report.Report.to_json",
    "cli.run_command",
)
AGGREGATE_ONLY = frozenset({"catalog.pair", "catalog.coroot_pair", "affine.affine_pair"})
SPAN_CAP = 10_000

ROOT_ID = 0


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, total s, self s
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.cones: dict[tuple[str, str], int] = {}  # enumerate_Pk results by level
        self.output_bytes = 0
        self._stack = [[0.0, ROOT_ID]]  # frames: [traced child time, span id]
        self._next_id = ROOT_ID + 1
        self._start = self._end = 0.0

    def install(self) -> None:
        """Wrap every traced function in every walg namespace binding it."""
        hooks = {"classify.enumerate_Pk": self._record_cone,
                 "cli.run_command": self._record_output}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "walg" or n.startswith("walg."))]
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = sys.modules[f"walg.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if hasattr(original, "__traced__"):
                raise RuntimeError(f"{name} is already traced")
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            bound = [(module, attr) for module in modules
                     for attr, value in vars(module).items() if value is original]
            if not bound:
                raise RuntimeError(f"no walg namespace binds {name}")
            for module, attr in bound:
                setattr(module, attr, wrapper)

    def _record_cone(self, args, result) -> None:
        lvl = args[0]
        self.cones[(lvl.name, str(lvl.k))] = len(result)

    def _record_output(self, args, result) -> None:
        self.output_bytes += len(result[1])

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        cap = 0 if name in AGGREGATE_ONLY else SPAN_CAP
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            record = stats[0] < cap
            if record:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                parent[0] += duration
                if record:
                    spans.append((frame[1], name, start, end, parent[1]))
            if hook is not None:
                hook(args, result)
            return result

        traced.__traced__ = name
        return traced

    def begin_pass(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.cones.clear()
        self.output_bytes = 0
        self._stack[:] = [[0.0, ROOT_ID]]
        self._next_id = ROOT_ID + 1
        self._start = perf_counter()

    def end_pass(self) -> dict:
        """Close the root span; return the pass's aggregates, with the time
        of the traced calls made at the top level (top_s)."""
        self._end = perf_counter()
        return {
            "duration_s": self._end - self._start,
            "top_s": self._stack[0][0],
            "stats": {name: list(st) for name, st in self.stats.items()},
            "cones": dict(self.cones),
            "output_bytes": self.output_bytes,
            "spans": len(self.spans),
        }

    def span_records(self) -> list[dict]:
        """The pass's spans, with times relative to the root span's start."""
        rows = [{"id": ROOT_ID, "name": "pass", "start": 0.0,
                 "end": self._end - self._start, "parent": None}]
        rows += [{"id": sid, "name": name, "start": s - self._start, "end": e - self._start,
                  "parent": parent} for sid, name, s, e, parent in self.spans]
        return rows


def check_span_records(rows: list[dict], stats: dict) -> list[str]:
    """Sanity checks of a pass's span tree, rebuilt from its records as
    span_records() writes them, against the aggregates of the same pass:

    * every span has a parent span and lies inside it, and the spans of one
      parent do not overlap, as the workloads run in one thread;
    * no span is the child of a span of the same function: no traced
      function calls itself, so that is a function wrapped twice;
    * for each function that keeps all its spans, the records' count and
      summed durations equal the aggregate calls and time.
    """
    problems = []
    by_id = {row["id"]: row for row in rows}
    children: dict[int, list[dict]] = {}
    totals: dict[str, list] = {}
    for row in rows[1:]:
        where = f"span {row['id']} ({row['name']})"
        parent = by_id.get(row["parent"])
        if parent is None:
            problems.append(f"{where} has no parent span {row['parent']}")
            continue
        if row["start"] < parent["start"] or row["end"] > parent["end"]:
            problems.append(f"{where} is not inside its parent {parent['id']}")
        if row["name"] == parent["name"]:
            problems.append(f"{where} is the child of a span of the same function")
        children.setdefault(parent["id"], []).append(row)
        total = totals.setdefault(row["name"], [0, 0.0])
        total[0] += 1
        total[1] += row["end"] - row["start"]
    for parent_id, kids in children.items():
        kids.sort(key=lambda row: row["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append(f"spans {a['id']} and {b['id']} overlap in {parent_id}")
                break
    for name, (calls, seconds, _) in stats.items():
        if name in AGGREGATE_ONLY or calls > SPAN_CAP:
            continue
        count, total_s = totals.get(name, (0, 0.0))
        if count != calls or abs(total_s - seconds) > 1e-6 + 1e-9 * calls:
            problems.append(f"{name}: {count} spans of {total_s:.6f} s written, "
                            f"{calls} calls of {seconds:.6f} s counted")
    return problems
