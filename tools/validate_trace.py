#!/usr/bin/env python3
"""Validate rannc trace / rannc explain outputs against the checked-in
JSON schemas.

Usage:
    validate_trace.py trace.json [metrics.json]
    validate_trace.py --explain explain.json

Validates trace.json against tools/trace_schema.json (and metrics.json
against tools/metrics_schema.json when given) using a small built-in
subset of JSON Schema (type / required / properties / additionalProperties
as a schema or false / items / enum), then applies rannc-specific semantic checks:

  * pid 1 (search, wall clock) has complete spans for >= 3 search phases
    and the search's cumulative `sweep_progress` counter series: present,
    non-empty, and per search counting jobs_done 1, 2, 3, ... in
    timestamp order with dp_cells and profile_queries non-decreasing
  * pid 2 (pipeline schedule, virtual time) has >= 1 complete span
  * both pids carry process_name metadata

With --explain the single argument is a rannc explain attribution report
(rannc.explain.v4), validated against tools/explain_schema.json, whose
top level admits no keys beyond the schema's, plus semantic checks: every
stage's buckets are exactly compute / bubble / total and compute + bubble
equals the step time *bit-exactly* (the serializer emits max_digits10
doubles, so the C++ conservation guarantee survives the JSON round-trip
into Python floats), the critical path tiles [start, makespan] with no
gaps, stragglers is a permutation of the stages, and the
what-if catalog has >= 5 entries (>= 4 at one microbatch, which has no
halved count), each with the report's step time as its baseline.

Exits 0 when everything passes, 1 otherwise. No third-party deps.
"""

import json
import os
import sys

SCHEMA_DIR = os.path.dirname(os.path.abspath(__file__))

TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def check(value, schema, path, errors):
    """Validate `value` against the supported JSON-Schema subset."""
    typ = schema.get("type")
    if typ is not None:
        allowed = typ if isinstance(typ, list) else [typ]
        ok = False
        for t in allowed:
            py = TYPE_MAP[t]
            if isinstance(value, py) and not (
                t in ("number", "integer") and isinstance(value, bool)
            ):
                ok = True
                break
        if not ok:
            errors.append(f"{path}: expected type {typ}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key '{req}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for k, v in value.items():
            if k in props:
                check(v, props[k], f"{path}.{k}", errors)
            elif isinstance(extra, dict):
                check(v, extra, f"{path}.{k}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key '{k}'")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], f"{path}[{i}]", errors)


def validate_file(data_path, schema_name):
    with open(os.path.join(SCHEMA_DIR, schema_name)) as f:
        schema = json.load(f)
    with open(data_path) as f:
        data = json.load(f)
    errors = []
    check(data, schema, os.path.basename(data_path), errors)
    return data, errors


def sweep_progress_checks(events):
    """The cumulative search counter series: present and non-empty. Ordered
    by timestamp, each search's samples (a new search restarts at
    jobs_done == 1; traced searches run one after another) count jobs_done
    1, 2, 3, ... with dp_cells and profile_queries non-decreasing."""
    samples = [e.get("args", {}) for e in sorted(
        (e for e in events
         if e["pid"] == 1 and e["ph"] == "C" and e["name"] == "sweep_progress"),
        key=lambda e: (e["ts"], e.get("args", {}).get("jobs_done", 0)))]
    if not samples:
        return ["search domain: no sweep_progress counter samples"]
    fields = ("dp_cells", "profile_queries", "jobs_done")
    for a in samples:
        if any(not isinstance(a.get(f), int) for f in fields):
            return [f"sweep_progress: sample without integer {fields}: {a}"]
    errors = []
    prev = None
    for a in samples:
        if a["jobs_done"] == 1:
            prev = None  # the next search's series starts
        if prev is None:
            if a["jobs_done"] != 1:
                errors.append("sweep_progress: a series does not start at "
                              "jobs_done 1")
        elif a["jobs_done"] != prev["jobs_done"] + 1:
            errors.append(f"sweep_progress: jobs_done {prev['jobs_done']} "
                          f"followed by {a['jobs_done']}")
        elif (a["dp_cells"] < prev["dp_cells"]
              or a["profile_queries"] < prev["profile_queries"]):
            errors.append("sweep_progress: dp_cells or profile_queries "
                          f"decreases at jobs_done {a['jobs_done']}")
        prev = a
    return errors


def semantic_trace_checks(trace):
    errors = []
    events = trace["traceEvents"]
    search_spans = {e["name"] for e in events if e["pid"] == 1 and e["ph"] == "X"}
    phases = {n for n in search_spans if n.startswith(("phase", "verify"))}
    if len(phases) < 3:
        errors.append(f"search domain: expected >= 3 phase spans, got {sorted(phases)}")
    errors += sweep_progress_checks(events)
    if not any(e["pid"] == 2 and e["ph"] == "X" for e in events):
        errors.append("schedule domain (pid 2): no complete spans")
    named_pids = {
        e["pid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    for pid in (1, 2):
        if pid not in named_pids:
            errors.append(f"pid {pid}: missing process_name metadata")
    for e in events:
        if e["ph"] == "X" and e.get("dur", 0) < 0:
            errors.append(f"negative duration on span '{e['name']}'")
            break
    return errors


def semantic_explain_checks(rep):
    errors = []

    t = rep["step_time"]
    for name, b in [("step", rep["step"])] + [
            (f"stage {e['stage']}", e["buckets"]) for e in rep["stages"]]:
        if set(b) != {"compute", "bubble", "total"}:
            errors.append(f"{name}: bucket keys {sorted(b)}, expected "
                          "compute / bubble / total")
            continue
        # The sum the C++ side fits bit-exactly.
        total = b["compute"] + b["bubble"]
        if b["total"] != t or total != t:
            errors.append(f"{name}: compute + bubble = {total!r}, "
                          f"total {b['total']!r}, step_time {t!r}")
    anchor = rep["anchor_stage"]
    if 0 <= anchor < len(rep["stages"]):
        if rep["step"] != rep["stages"][anchor]["buckets"]:
            errors.append("step decomposition is not the anchor stage's buckets")
    if sorted(rep["stragglers"]) != list(range(rep["num_stages"])):
        errors.append(f"stragglers {rep['stragglers']} is not a permutation of stages")

    cp = rep["critical_path"]
    segs = cp["segments"]
    for a, b in zip(segs, segs[1:]):
        if a["end"] != b["start"]:
            errors.append(
                f"critical path gap: segment ends {a['end']!r}, next starts {b['start']!r}"
            )
            break
    if segs and segs[-1]["end"] != cp["makespan"]:
        errors.append("critical path does not end at the makespan")
    if cp["makespan"] != t:
        errors.append("critical_path.makespan != step_time")

    # Three compute scalings, doubled microbatches, and halved ones when
    # there are at least two to halve.
    want = 5 if rep["microbatches"] > 1 else 4
    if len(rep["what_if"]) < want:
        errors.append(f"what-if catalog has {len(rep['what_if'])} entries, "
                      f"expected >= {want}")
    for w in rep["what_if"]:
        if w["baseline"] != t:
            errors.append(f"what-if {w['name']}: baseline != step_time")
    return errors


def main(argv):
    if "--explain" in argv:
        argv = [a for a in argv if a != "--explain"]
        if len(argv) != 2:
            print(__doc__)
            return 2
        rep, failures = validate_file(argv[1], "explain_schema.json")
        if not failures:
            failures += semantic_explain_checks(rep)
        for msg in failures[:50]:
            print(f"FAIL: {msg}")
        if failures:
            return 1
        print(f"OK: {argv[1]}")
        return 0

    if len(argv) < 2 or len(argv) > 3:
        print(__doc__)
        return 2
    failures = []

    trace, errors = validate_file(argv[1], "trace_schema.json")
    failures += errors
    if not errors:
        failures += semantic_trace_checks(trace)

    if len(argv) == 3:
        _, errors = validate_file(argv[2], "metrics_schema.json")
        failures += errors

    for msg in failures[:50]:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print(f"OK: {argv[1]}" + (f" and {argv[2]}" if len(argv) == 3 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
