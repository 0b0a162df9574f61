#!/usr/bin/env python3
"""Continuous regression sentinel over the committed BENCH_*.json baselines.

Usage:
    bench_sentinel.py --build-dir build [--quick] [--baseline-dir .]
                      [--work-dir DIR] [--skip NAME ...]

Re-runs the five benchmark suites (bench_partitioner, bench_serve,
bench_runtime, bench_search_scale, bench_kernels) and compares their fresh
JSON output against the committed
BENCH_{PARTITIONER,SERVE,RUNTIME,SEARCH,KERNELS}.json
baselines. Wall-clock timings are machine-dependent and never compared
with a baseline's; the sentinel guards the *deterministic* surface, plus
kernel throughput ratios taken within one run:

  partitioner   geometries matched by (name, batch_size): task counts,
                feasibility, plans_identical, and the search-work counters
                (dp_cells, profile_queries, profile_queries_saved) per
                config label must be identical — these count algorithmic work,
                so any drift is a behaviour change, not noise.
  serve         phase request/hit/miss/disk-hit counts and the p99 gate
                when the trace length matches the baseline's.
  runtime       per-model final losses (bit-cited in the baseline) when
                the quick flags match, plus thread_bit_identical. The
                benchmark's own 5x speedup gate is wall-clock-dependent,
                so the sentinel reruns it with --gate 1.0 (the fast path
                must merely not be slower than the naive one).
  search        scenarios matched by name: every engine must be feasible
                and all three (exhaustive, pruned, pruned-t1) must agree
                on the plan. The Phase-2 block counters (blocks,
                coarsen_levels, uncoarsen_moves, compaction_merges) must
                be identical to the baseline for every engine, since
                Phase 2 runs before the engine choice. DP-cell counts,
                profile/bound queries and the
                prune counters must be identical to the baseline for the
                engines whose counters are scheduling-independent
                (exhaustive, and pruned-t1 at one thread); the threaded
                pruned engine's counters depend on incumbent-cut timing
                across threads, so it is only required never to visit
                more cells than exhaustive. The 10x cells/speedup gate is
                enforced on full-size runs; a --quick rerun checks the
                small scenarios instead.
  kernels       google-benchmark rows of bench_kernels at BERT-tiny's GEMM
                shapes, one thread (BM_MatMul and BM_MatMulGradA with
                solo:1): on the same run, matmul_grad_a's time per flop
                must be at most 1.5x forward matmul's at every shape (best
                of three repetitions each). Every such shape in the
                baseline must be in the current run.

Rows/geometries/phases present only in the baseline (e.g. a --quick run
covers a subset) are skipped with a note, never failed; invariant gates
on the current run (plans identical across thread counts, restart served
entirely from disk, runtime pass) always apply.

Exits 0 when nothing drifted, 1 on drift or a failed invariant, 2 on
usage/setup errors. No third-party deps.
"""

import argparse
import json
import os
import subprocess
import sys

BENCHES = ["partitioner", "serve", "runtime", "search", "kernels"]
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


def check_partitioner(s, base, cur):
    for g in cur.get("geometries", []):
        key = f"partitioner/{g['name']}"
        s.expect(g.get("plans_identical") is True,
                 f"{key}: plans differ across thread counts")
        for c in g.get("configs", []):
            s.expect(c.get("feasible") is True,
                     f"{key}/{c['label']}: infeasible partition")
    base_geoms = {(g["name"], g["batch_size"]): g
                  for g in base.get("geometries", [])}
    for g in cur.get("geometries", []):
        bg = base_geoms.get((g["name"], g["batch_size"]))
        key = f"partitioner/{g['name']}"
        if bg is None:
            s.note(f"{key} (batch {g['batch_size']}): no matching baseline "
                   "geometry, drift check skipped")
            continue
        s.expect(g["tasks"] == bg["tasks"],
                 f"{key}: task count {g['tasks']} != baseline {bg['tasks']}")
        base_cfgs = {c["label"]: c for c in bg.get("configs", [])}
        for c in g.get("configs", []):
            b = base_cfgs.get(c["label"])
            if b is None:
                s.note(f"{key}/{c['label']}: no baseline config")
                continue
            for field in ("dp_cells", "profile_queries",
                          "profile_queries_saved"):
                s.expect(
                    c[field] == b[field],
                    f"{key}/{c['label']}.{field}: {c[field]} != "
                    f"baseline {b[field]}")


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


PHASE2_FIELDS = ("blocks", "coarsen_levels", "uncoarsen_moves",
                 "compaction_merges")


def check_search(s, base, cur):
    # Invariants on the current run: all engines feasible, and both pruned
    # engines must produce the exhaustive engine's plan bit for bit.
    for sc in cur.get("scenarios", []):
        key = f"search/{sc['name']}"
        s.expect(sc.get("plans_identical") is True,
                 f"{key}: engines disagree on the winning plan")
        for e in sc.get("engines", []):
            s.expect(e.get("feasible") is True,
                     f"{key}/{e['label']}: engine found no feasible plan")
        phase2 = {tuple(e.get(f) for f in PHASE2_FIELDS)
                  for e in sc.get("engines", [])}
        s.expect(len(phase2) <= 1,
                 f"{key}: engines disagree on the Phase-2 block counters")
    if cur.get("quick") is False:
        # The 10x acceptance gate only means anything on the full-size
        # scenario; quick reruns cover the small scenarios.
        s.expect(cur.get("gate_10x") is True,
                 "search: pruned engine lost the 10x cells/speedup gate")
    # Drift: the search-work counters are deterministic per scenario and
    # engine, independent of thread count and machine speed.
    base_scs = {sc["name"]: sc for sc in base.get("scenarios", [])}
    for sc in cur.get("scenarios", []):
        b_sc = base_scs.get(sc["name"])
        key = f"search/{sc['name']}"
        if b_sc is None:
            s.note(f"{key}: no matching baseline scenario, drift check "
                   "skipped")
            continue
        s.expect(sc["tasks"] == b_sc["tasks"],
                 f"{key}: task count {sc['tasks']} != baseline "
                 f"{b_sc['tasks']}")
        engines = {e["label"]: e for e in sc.get("engines", [])}
        ex = engines.get("exhaustive")
        base_engines = {e["label"]: e for e in b_sc.get("engines", [])}
        for e in sc.get("engines", []):
            b = base_engines.get(e["label"])
            if b is None:
                s.note(f"{key}/{e['label']}: no baseline engine")
                continue
            # Phase 2 runs before the engine choice: its block counters are
            # deterministic for every engine, the pruned one included.
            for field in PHASE2_FIELDS:
                s.expect(
                    e.get(field) == b.get(field),
                    f"{key}/{e['label']}.{field}: {e.get(field)} != "
                    f"baseline {b.get(field)}")
            # Pruning never does MORE work than the exhaustive sweep.
            if e["label"] != "exhaustive" and ex is not None:
                s.expect(e["dp_cells"] <= ex["dp_cells"],
                         f"{key}/{e['label']}: visited more DP cells "
                         f"({e['dp_cells']}) than exhaustive "
                         f"({ex['dp_cells']})")
            if e["label"] == "pruned":
                # The threaded incumbent engine's counters depend on cut
                # timing across worker threads (a stale incumbent read only
                # prunes less), so exact counts vary run to run. The plan is
                # still bit-identical (checked above).
                s.note(f"{key}/pruned: counters are cut-timing-dependent, "
                       "exact drift check skipped")
                continue
            # exhaustive (no cuts) and pruned-t1 (one thread, so the
            # incumbent advances in job order) have scheduling-independent
            # counters.
            for field in ("dp_cells", "profile_queries", "bound_queries",
                          "jobs_pruned", "jobs_dominated", "ranges_pruned",
                          "columns_pruned", "paths_pruned",
                          "incumbent_updates"):
                s.expect(
                    e[field] == b[field],
                    f"{key}/{e['label']}.{field}: {e[field]} != "
                    f"baseline {b[field]}")


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
    "partitioner": check_partitioner,
    "serve": check_serve,
    "runtime": check_runtime,
    "search": check_search,
    "kernels": check_kernels,
}


# Suites whose binary name differs from the BENCH_*.json stem.
EXE_NAMES = {"search": "bench_search_scale"}


def run_bench(name, build_dir, work_dir, quick):
    exe = os.path.join(os.path.abspath(build_dir), "bench",
                       EXE_NAMES.get(name, f"bench_{name}"))
    if not os.path.exists(exe):
        raise RuntimeError(f"benchmark binary not found: {exe}")
    out_path = os.path.join(work_dir, f"BENCH_{name.upper()}.json")
    cmd = [exe]
    if name == "kernels":  # google-benchmark flags, the same in quick mode
        cmd += [f"--benchmark_filter={KERNEL_FILTER}",
                "--benchmark_repetitions=3",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json"]
    elif quick:
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
                    help="pass --quick to every benchmark that has one "
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
