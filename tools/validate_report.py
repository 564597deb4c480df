#!/usr/bin/env python3
"""Validate ghd_cli observability artifacts (stdlib only, no jsonschema dep).

Usage:
  validate_report.py --schema tools/report_schema.json report.json [...]
  validate_report.py --trace trace.json [...]
  validate_report.py --heartbeat [--min-lines N] \
      [--require-stop-reason R] heartbeat.jsonl [...]

Report mode checks each file against the checked-in simplified schema
(tools/report_schema.json) and additionally asserts the memo-soundness
invariant: if the counters section reports decider activity, the
decider_memo_poisoned counter must be present and zero. --require-counter
NAME[:MIN] (repeatable) asserts that a named counter is present with at
least MIN (default 1) — CI uses it to pin incremental-serving activity in
replay reports. Reports carrying an
`attribution` section get the tree checked recursively: every node well
formed, children's wall-time sums bounded by their parent (within tolerance),
and the top-level nodes accounting for at least --min-attribution-coverage
of the outcome's wall_seconds.

Trace mode checks Chrome trace_event structure: a traceEvents array whose
entries carry name/ph/pid/tid, containing at least one complete ("ph": "X")
span with ts/dur and at least one thread_name metadata event.

Heartbeat mode reads files of ghd_cli --heartbeat-ms stderr output (lines
that are not JSON objects — e.g. the anytime ladder log — are ignored),
checks every heartbeat line against the documented schema, and enforces the
stream contract: sequential seq numbers, at least --min-lines lines, and
exactly one final line, last, carrying "final": true (whose stop_reason must
equal --require-stop-reason when given).

Exit code 0 when every file validates, 1 otherwise.
"""

import argparse
import json
import sys


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    return True


def check(value, schema, path, errors):
    """Recursively validate `value` against the simplified-schema node."""
    expected = schema.get("type")
    if expected is not None and not type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key {req!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                check(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                check(sub, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], f"{path}[{i}]", errors)


def check_report_invariants(report, errors):
    counters = report.get("counters")
    if not isinstance(counters, dict):
        return
    decider_active = any(
        key.startswith("decider_") and key != "decider_memo_poisoned"
        for key in counters
    )
    if decider_active:
        poisoned = counters.get("decider_memo_poisoned")
        if poisoned is None:
            errors.append(
                "counters: decider ran but decider_memo_poisoned missing")
        elif poisoned != 0:
            errors.append(
                f"counters: decider_memo_poisoned = {poisoned}, must be 0")


def check_required_counters(report, requirements, errors):
    """--require-counter NAME[:MIN] assertions against the counters section."""
    counters = report.get("counters")
    for spec in requirements:
        name, _, minimum = spec.partition(":")
        need = int(minimum) if minimum else 1
        value = counters.get(name) if isinstance(counters, dict) else None
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"counters: required counter {name!r} missing")
        elif value < need:
            errors.append(f"counters: {name} = {value} < required {need}")


ATTRIBUTION_SUM_TOLERANCE = 0.05  # 50ms of scope-entry/exit slack per node


def check_attribution(node, path, errors):
    """Recursive structural + accounting checks for one attribution node."""
    if not isinstance(node, dict):
        errors.append(f"{path}: attribution node is not an object")
        return 0.0
    for req, kinds in (("name", str), ("wall_seconds", (int, float)),
                       ("ticks", int), ("visits", int), ("counters", dict),
                       ("children", list)):
        if req not in node:
            errors.append(f"{path}: missing {req!r}")
        elif not isinstance(node[req], kinds) or isinstance(node[req], bool):
            errors.append(f"{path}.{req}: wrong type {type(node[req]).__name__}")
    wall = node.get("wall_seconds", 0.0)
    if isinstance(wall, (int, float)) and wall < 0:
        errors.append(f"{path}.wall_seconds: negative ({wall})")
    child_sum = 0.0
    for i, child in enumerate(node.get("children", [])):
        name = child.get("name", i) if isinstance(child, dict) else i
        child_sum += check_attribution(child, f"{path}.{name}", errors)
    if isinstance(wall, (int, float)) \
            and child_sum > wall + ATTRIBUTION_SUM_TOLERANCE:
        errors.append(
            f"{path}: children wall sum {child_sum:.4f}s exceeds node wall "
            f"{wall:.4f}s")
    return wall if isinstance(wall, (int, float)) else 0.0


def check_report_attribution(report, min_coverage, errors):
    attribution = report.get("attribution")
    if attribution is None:
        return
    check_attribution(attribution, "attribution", errors)
    outcome = report.get("outcome", {})
    run_wall = outcome.get("wall_seconds")
    if not isinstance(run_wall, (int, float)) or run_wall < 0.01:
        return  # micro runs: coverage is all scope-entry noise
    covered = sum(
        child.get("wall_seconds", 0.0)
        for child in attribution.get("children", [])
        if isinstance(child, dict))
    if covered < min_coverage * run_wall:
        errors.append(
            f"attribution: top-level nodes cover {covered:.4f}s of "
            f"{run_wall:.4f}s wall ({100 * covered / run_wall:.1f}% < "
            f"{100 * min_coverage:.0f}%)")


HEARTBEAT_INT_KEYS = (
    "seq", "lb", "ub", "k", "frontier_depth", "memo_states", "interner_sets",
    "guard_family", "dp_layer", "incr_version", "incr_retained", "ticks",
    "resident_kb", "bytes_charged",
)
HEARTBEAT_NUMBER_KEYS = (
    "at_seconds", "ticks_per_sec", "memo_inserts_per_sec",
    "deadline_fraction", "tick_fraction", "memory_fraction",
)
HEARTBEAT_STR_KEYS = ("type", "phase", "rung", "stop_reason")


def check_heartbeat_stream(text, min_lines, require_stop_reason, errors):
    """Validates one file of heartbeat stderr output (JSONL, mixed lines)."""
    beats = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line.startswith("{"):
            continue  # ladder/progress log lines share stderr
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON: {e}")
            continue
        if obj.get("type") != "heartbeat":
            continue  # other JSON surfaces (e.g. metrics dumps) pass through
        beats.append((lineno, obj))
        for key in HEARTBEAT_INT_KEYS:
            if not isinstance(obj.get(key), int) \
                    or isinstance(obj.get(key), bool):
                errors.append(f"line {lineno}: {key!r} missing or not integer")
        for key in HEARTBEAT_NUMBER_KEYS:
            value = obj.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"line {lineno}: {key!r} missing or not number")
        for key in HEARTBEAT_STR_KEYS:
            if not isinstance(obj.get(key), str):
                errors.append(f"line {lineno}: {key!r} missing or not string")
        if not isinstance(obj.get("final"), bool):
            errors.append(f"line {lineno}: 'final' missing or not boolean")
    if len(beats) < min_lines:
        errors.append(
            f"stream: {len(beats)} heartbeat line(s), need >= {min_lines}")
    if not beats:
        return
    for i, (lineno, obj) in enumerate(beats):
        if obj.get("seq") != i:
            errors.append(f"line {lineno}: seq {obj.get('seq')!r}, expected {i}")
    finals = [obj for _, obj in beats if obj.get("final") is True]
    if len(finals) != 1 or beats[-1][1].get("final") is not True:
        errors.append(
            "stream: expected exactly one final line, at the end "
            f"(got {len(finals)} final line(s))")
    if require_stop_reason is not None and finals:
        got = finals[-1].get("stop_reason")
        if got != require_stop_reason:
            errors.append(
                f"stream: final stop_reason {got!r}, "
                f"expected {require_stop_reason!r}")


def check_trace(trace, errors):
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        errors.append("trace: missing traceEvents array")
        return
    spans = 0
    thread_names = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"traceEvents[{i}]: not an object")
            continue
        for req in ("name", "ph", "pid", "tid"):
            if req not in event:
                errors.append(f"traceEvents[{i}]: missing {req!r}")
        ph = event.get("ph")
        if ph == "X":
            spans += 1
            for req in ("ts", "dur", "cat"):
                if req not in event:
                    errors.append(f"traceEvents[{i}]: span missing {req!r}")
        elif ph == "M" and event.get("name") == "thread_name":
            thread_names += 1
    if spans == 0:
        errors.append("trace: no complete ('ph': 'X') spans recorded")
    if thread_names == 0:
        errors.append("trace: no thread_name metadata (lane labels) present")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", help="simplified schema for report files")
    parser.add_argument("--trace", action="store_true",
                        help="validate Chrome trace files instead of reports")
    parser.add_argument("--heartbeat", action="store_true",
                        help="validate heartbeat JSONL streams instead of "
                             "reports")
    parser.add_argument("--min-lines", type=int, default=1,
                        help="heartbeat mode: minimum heartbeat line count")
    parser.add_argument("--require-stop-reason", default=None,
                        help="heartbeat mode: exact stop_reason the final "
                             "line must carry")
    parser.add_argument("--min-attribution-coverage", type=float, default=0.9,
                        help="report mode: fraction of outcome wall_seconds "
                             "the top-level attribution nodes must cover")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME[:MIN]",
                        help="report mode: the counters section must carry "
                             "NAME with value >= MIN (default 1); repeatable")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    if args.trace and args.heartbeat:
        parser.error("--trace and --heartbeat are mutually exclusive")
    if not args.trace and not args.heartbeat and not args.schema:
        parser.error("report mode requires --schema")

    schema = None
    if args.schema:
        with open(args.schema, encoding="utf-8") as f:
            schema = json.load(f)

    failures = 0
    for path in args.files:
        errors = []
        if args.heartbeat:
            try:
                with open(path, encoding="utf-8") as f:
                    text = f.read()
            except OSError as e:
                errors.append(f"cannot read: {e}")
            else:
                check_heartbeat_stream(text, args.min_lines,
                                       args.require_stop_reason, errors)
            data = None
        else:
            try:
                with open(path, encoding="utf-8") as f:
                    data = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                errors.append(f"cannot parse: {e}")
                data = None
        if data is not None:
            if args.trace:
                check_trace(data, errors)
            else:
                check(data, schema, "$", errors)
                check_report_invariants(data, errors)
                check_required_counters(data, args.require_counter, errors)
                check_report_attribution(
                    data, args.min_attribution_coverage, errors)
        if errors:
            failures += 1
            print(f"FAIL {path}")
            for err in errors:
                print(f"  {err}")
        else:
            print(f"OK   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
