#!/usr/bin/env python3
"""Continuous regression sentinel over the committed BENCH_*.json baselines.

Usage:
    bench_sentinel.py --build-dir build [--quick] [--baseline-dir .]
                      [--work-dir DIR] [--skip NAME ...]

Re-runs the four benchmark suites (bench_serve, bench_runtime,
bench_search, bench_kernels) and compares their fresh JSON output against
the committed BENCH_{SERVE,RUNTIME,SEARCH,KERNELS}.json baselines.
Wall-clock timings are machine-dependent and never compared with a
baseline's; the sentinel guards the *deterministic* surface, plus kernel
throughput ratios taken within one run:

  serve         phase request/hit/miss/disk-hit counts and the p99 gate
                when the trace length matches the baseline's.
  runtime       per-model final losses (bit-cited in the baseline) when
                the quick flags match, plus thread_bit_identical. The
                benchmark's own 5x speedup gate is wall-clock-dependent,
                so the sentinel reruns it with --gate 1.0 (the fast path
                must merely not be slower than the naive one).
  search        rows matched by name, the same rows in both files: both
                engines (exhaustive and pruned, one thread each) must agree
                on the plan, and the 105k-task row must keep its 10x
                cells/speedup gate. Every search-work counter (DP cells,
                profile queries and saves, bound queries, every prune
                counter), the Phase-2 block counters, feasibility and the
                estimated iteration time must equal the baseline's for
                both engines: at one thread they count algorithmic work,
                so any drift is a behaviour change, not noise. The suite
                has one mode; --quick does not shrink it.
  kernels       google-benchmark rows of bench_kernels at BERT-tiny's GEMM
                shapes, one thread (BM_MatMul and BM_MatMulGradA with
                solo:1): on the same run, matmul_grad_a's time per flop
                must be at most 1.5x forward matmul's at every shape (best
                of three repetitions each). Every such shape in the
                baseline must be in the current run.

A --quick serve or runtime run whose size differs from the baseline's
(trace length, step counts) skips its count and loss drift checks with a
note, never a failure; invariant gates on the current run (plans identical
across engines, restart served entirely from disk, runtime pass) always
apply.

Exits 0 when nothing drifted, 1 on drift or a failed invariant, 2 on
usage/setup errors. No third-party deps.
"""

import argparse
import json
import os
import subprocess
import sys

BENCHES = ["serve", "runtime", "search", "kernels"]
REL_TOL = 1e-9


def rel_close(a, b, tol=REL_TOL):
    """a and b differ by at most `tol` of the larger magnitude (relative at
    every scale, so a 5-microsecond time is held to 1e-9 of itself)."""
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


class Sentinel:
    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def expect(self, cond, msg):
        if not cond:
            self.fail(msg)


def check_serve(s, base, cur):
    phases = cur.get("phases", {})
    if "restart" in phases:
        s.expect(phases["restart"].get("hit_rate") == 1,
                 "serve/restart: not every key served from the durable store")
    if "rerun" in phases:
        s.expect(phases["rerun"].get("hit_rate") == 1,
                 "serve/rerun: warm reruns missed the in-memory cache")
    s.expect(cur.get("gate_warm_p99_le_1ms") is True,
             "serve: warm-hit p99 gate failed on the current run")
    if cur.get("trace_len") != base.get("trace_len"):
        s.note(f"serve: trace length {cur.get('trace_len')} != baseline "
               f"{base.get('trace_len')}, count drift check skipped")
        return
    s.expect(cur.get("distinct_keys") == base.get("distinct_keys"),
             "serve: distinct key count drifted")
    for name, bp in base.get("phases", {}).items():
        cp = phases.get(name)
        if cp is None:
            s.fail(f"serve/{name}: phase missing from current run")
            continue
        for field in ("requests", "hits", "misses", "disk_hits"):
            s.expect(cp[field] == bp[field],
                     f"serve/{name}.{field}: {cp[field]} != "
                     f"baseline {bp[field]}")


def check_runtime(s, base, cur):
    s.expect(cur.get("pass") is True,
             "runtime: fast path slower than the naive path (gate 1.0x)")
    base_models = {m["name"]: m for m in base.get("models", [])}
    same_mode = cur.get("quick") == base.get("quick")
    for m in cur.get("models", []):
        key = f"runtime/{m['name']}"
        s.expect(m.get("thread_bit_identical") is True,
                 f"{key}: losses not bit-identical across thread counts")
        b = base_models.get(m["name"])
        if b is None:
            s.note(f"{key}: no baseline model")
            continue
        s.expect(m["stages"] == b["stages"] and
                 m["microbatches"] == b["microbatches"],
                 f"{key}: pipeline shape drifted")
        if same_mode:
            for variant in ("naive", "fast"):
                if not rel_close(m[variant]["final_loss"],
                                 b[variant]["final_loss"], 1e-6):
                    s.fail(f"{key}/{variant}.final_loss: "
                           f"{m[variant]['final_loss']} != baseline "
                           f"{b[variant]['final_loss']}")
        else:
            s.note(f"{key}: quick-mode step counts differ from baseline, "
                   "final_loss drift check skipped")


SEARCH_COUNTERS = ("feasible", "dp_cells", "profile_queries",
                   "profile_queries_saved", "bound_queries", "jobs_pruned",
                   "jobs_dominated", "ranges_pruned", "columns_pruned",
                   "paths_pruned", "incumbent_updates", "blocks",
                   "coarsen_levels", "uncoarsen_moves", "compaction_merges")


def check_search(s, base, cur):
    # Invariants on the current run: both engines produce the same plan bit
    # for bit, and bound-and-prune keeps its 10x bar at scale.
    for row in cur.get("rows", []):
        key = f"search/{row['name']}"
        s.expect(row.get("plans_identical") is True,
                 f"{key}: engines disagree on the winning plan")
        if "gate_10x" in row:
            s.expect(row["gate_10x"] is True,
                     f"{key}: pruned engine lost the 10x cells/speedup gate")
    # Drift: every counter is deterministic per row and engine at one
    # thread, independent of machine speed.
    cur_names = {r["name"] for r in cur.get("rows", [])}
    for b_row in base.get("rows", []):
        if b_row["name"] not in cur_names:
            s.fail(f"search/{b_row['name']}: row missing from the current run")
    base_rows = {r["name"]: r for r in base.get("rows", [])}
    for row in cur.get("rows", []):
        key = f"search/{row['name']}"
        b_row = base_rows.get(row["name"])
        if b_row is None:
            s.fail(f"{key}: row missing from the baseline")
            continue
        for field in ("tasks", "nodes", "devices_per_node", "batch_size"):
            s.expect(row[field] == b_row[field],
                     f"{key}.{field}: {row[field]} != baseline "
                     f"{b_row[field]}")
        labels = [e["label"] for e in row["engines"]]
        if labels != [e["label"] for e in b_row["engines"]]:
            s.fail(f"{key}: engines {labels} differ from the baseline's")
            continue
        for e, b in zip(row["engines"], b_row["engines"]):
            for field in SEARCH_COUNTERS:
                s.expect(e[field] == b[field],
                         f"{key}/{e['label']}.{field}: {e[field]} != "
                         f"baseline {b[field]}")
            s.expect(rel_close(e["est_iteration"], b["est_iteration"]),
                     f"{key}/{e['label']}.est_iteration: "
                     f"{e['est_iteration']} != baseline {b['est_iteration']}")


GRAD_A_OVER_MATMUL_MAX = 1.5
KERNEL_FILTER = "^BM_MatMul(GradA)?/.*/solo:1$"


def solo_gemm_rates(doc):
    """{(kernel, (m, k, n)): best flop rate} over the solo GEMM rows of a
    google-benchmark JSON document (repetitions and aggregates folded)."""
    rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        parts = b.get("run_name", b["name"]).split("/")
        args = dict(p.split(":", 1) for p in parts[1:] if ":" in p)
        if parts[0] not in ("BM_MatMul", "BM_MatMulGradA") or \
                args.get("solo") != "1" or "items_per_second" not in b:
            continue
        key = (parts[0], (int(args["m"]), int(args["k"]), int(args["n"])))
        rates[key] = max(rates.get(key, 0.0), b["items_per_second"])
    return rates


def check_kernels(s, base, cur):
    rates = solo_gemm_rates(cur)
    base_shapes = {shape for _, shape in solo_gemm_rates(base)}
    shapes = {shape for _, shape in rates}
    for shape in sorted(base_shapes - shapes):
        s.fail(f"kernels: shape m={shape[0]} k={shape[1]} n={shape[2]} "
               "missing from the current run")
    for shape in sorted(shapes):
        key = f"kernels/m={shape[0]} k={shape[1]} n={shape[2]}"
        fwd = rates.get(("BM_MatMul", shape))
        ga = rates.get(("BM_MatMulGradA", shape))
        if not fwd or not ga:
            s.fail(f"{key}: matmul or matmul_grad_a row missing")
            continue
        ratio = fwd / ga  # grad_a time per flop over matmul's
        s.expect(ratio <= GRAD_A_OVER_MATMUL_MAX,
                 f"{key}: matmul_grad_a takes {ratio:.2f}x forward matmul's "
                 f"time per flop (limit {GRAD_A_OVER_MATMUL_MAX}x)")


CHECKS = {
    "serve": check_serve,
    "runtime": check_runtime,
    "search": check_search,
    "kernels": check_kernels,
}


# Suites with a smaller --quick mode.
QUICK_SUITES = ("serve", "runtime")


def run_bench(name, build_dir, work_dir, quick):
    exe = os.path.join(os.path.abspath(build_dir), "bench", f"bench_{name}")
    if not os.path.exists(exe):
        raise RuntimeError(f"benchmark binary not found: {exe}")
    out_path = os.path.join(work_dir, f"BENCH_{name.upper()}.json")
    cmd = [exe]
    if name == "kernels":  # google-benchmark flags, the same in quick mode
        cmd += [f"--benchmark_filter={KERNEL_FILTER}",
                "--benchmark_repetitions=3",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json"]
    elif quick and name in QUICK_SUITES:
        cmd.append("--quick")
    if name != "kernels":
        cmd += ["--out", out_path]
    if name == "runtime":
        # The benchmark's 5x speedup gate is wall-clock-dependent; the
        # sentinel only requires the fast path not to be slower.
        cmd += ["--gate", "1.0"]
    proc = subprocess.run(cmd, cwd=work_dir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench_{name} exited {proc.returncode}: {proc.stderr[-500:]}")
    with open(out_path) as f:
        return json.load(f)


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline-dir", default=".",
                    help="directory holding the committed BENCH_*.json files")
    ap.add_argument("--work-dir", default="sentinel-out",
                    help="where fresh benchmark output is written")
    ap.add_argument("--quick", action="store_true",
                    help="pass --quick to the serve and runtime suites "
                         "(CI smoke mode)")
    ap.add_argument("--skip", action="append", default=[], choices=BENCHES,
                    help="skip one benchmark (repeatable)")
    args = ap.parse_args(argv[1:])

    # The benchmarks run with the work dir as cwd, so --out must not be
    # relative to the caller's cwd.
    args.work_dir = os.path.abspath(args.work_dir)
    os.makedirs(args.work_dir, exist_ok=True)
    s = Sentinel()
    ran = 0
    for name in BENCHES:
        if name in args.skip:
            s.note(f"{name}: skipped by request")
            continue
        baseline_path = os.path.join(
            args.baseline_dir, f"BENCH_{name.upper()}.json")
        if not os.path.exists(baseline_path):
            print(f"error: missing baseline {baseline_path}", file=sys.stderr)
            return 2
        with open(baseline_path) as f:
            base = json.load(f)
        try:
            cur = run_bench(name, args.build_dir, args.work_dir, args.quick)
        except RuntimeError as e:
            s.fail(f"{name}: {e}")
            continue
        CHECKS[name](s, base, cur)
        ran += 1

    for msg in s.notes:
        print(f"note: {msg}")
    for msg in s.failures:
        print(f"DRIFT: {msg}")
    if s.failures:
        print(f"sentinel: {len(s.failures)} failure(s) across {ran} suite(s)")
        return 1
    print(f"sentinel: OK ({ran} suite(s), {len(s.notes)} note(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
