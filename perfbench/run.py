#!/usr/bin/env python3
"""Host benchmark of the t3dsim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig9 --seed 42 --seconds 50 --trace 0

Builds perfbench_harness (perfbench/CMakeLists.txt) under .bench_build/,
runs the workload for --seconds, checks its outputs, prints a readable
report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run, whose spans go to
.bench_build/results/<workload>-s<seed>-t1.trace.json (Chrome trace
JSON).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
GOLDENS = os.path.join(HERE, "goldens.json")
# A run must end within 180 s once the harness is built.
HARNESS_LIMIT_S = 170.0

WORKLOADS = ("fig9", "serve")
# These run like the others but are not BENCHMARK.json workloads (see
# README.md); traced runs use them as homes of their layer metrics.
UNGATED = ("ladders", "weak16k")

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_pe_cycles_per_s", "pe_cycles/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
)

# Per-layer metrics: (name, unit, better, workloads that measure it).
# A traced run measures each metric on the selected workload when that
# workload exercises the layer, and otherwise on the first workload
# listed (its home), traced in the same run.
EM3D = ("fig9", "weak16k")
MACHINE = ("weak16k",)
SIMULATED = ("fig9", "ladders", "weak16k")
ALL = WORKLOADS
PER_LAYER = (
    ("em3d.graph_build_s", "s", "lower", EM3D),
    ("em3d.simulate_s", "s", "lower", EM3D),
    ("machine.ctor_s", "s", "lower", MACHINE),
    ("machine.dtor_s", "s", "lower", MACHINE),
    ("machine.modeled_bytes_per_pe", "B", "lower", MACHINE),
    ("apps.bsort.run_s", "s", "lower", ("ladders",)),
    ("apps.qcd.run_s", "s", "lower", ("ladders",)),
    ("apps.bsort.plan_build_s", "s", "lower", ("ladders",)),
    ("apps.qcd.plan_build_s", "s", "lower", ("ladders",)),
    ("apps.qcd.reference_s", "s", "lower", ("ladders",)),
    ("taskgraph.parse_us", "us", "lower", ("serve",)),
    ("taskgraph.validate_us", "us", "lower", ("serve",)),
    ("taskgraph.lower_us", "us", "lower", ("serve",)),
    ("taskgraph.predict_us", "us", "lower", ("serve",)),
    ("taskgraph.simulate_ms", "ms", "lower", ("serve",)),
    ("service.queue_wait_ms", "ms", "lower", ("serve",)),
    ("service.cache_hit_ratio", "ratio", "higher", ("serve",)),
    ("alpha.load_hit_ns", "ns", "lower", ALL),
    ("alpha.store_ns", "ns", "lower", ALL),
    ("mem.load_miss_ns", "ns", "lower", ALL),
    ("shell.remote_read_ns", "ns", "lower", ALL),
    ("shell.remote_write_ns", "ns", "lower", ALL),
    ("shell.get_ns", "ns", "lower", ALL),
    ("shell.blt_ns_per_kib", "ns/KiB", "lower", ALL),
    ("splitc.barrier_ns_per_pe", "ns", "lower", ALL),
    ("splitc.resume_ns", "ns", "lower", ALL),
    ("sim_cycles", "count", "lower", SIMULATED),
    ("alpha.l1_hits", "count", "higher", SIMULATED),
    ("alpha.l1_misses", "count", "lower", SIMULATED),
    ("alpha.wb_stalls", "count", "lower", SIMULATED),
    ("mem.dram_page_misses", "count", "lower", SIMULATED),
    ("shell.annex_faults", "count", "lower", SIMULATED),
    ("shell.remote_reads", "count", "lower", SIMULATED),
    ("shell.remote_write_lines", "count", "lower", SIMULATED),
    ("shell.prefetch_issues", "count", "lower", SIMULATED),
    ("shell.blt_transfers", "count", "lower", SIMULATED),
    ("splitc.barriers", "count", "lower", SIMULATED),
    ("net.torus_hops", "count", "lower", SIMULATED),
)

# Per-layer count name -> probes::PerfCounters field.
COUNTERS = {
    "alpha.l1_hits": "l1Hits",
    "alpha.l1_misses": "l1Misses",
    "alpha.wb_stalls": "wbStalls",
    "mem.dram_page_misses": "dramPageMisses",
    "shell.annex_faults": "annexFaults",
    "shell.remote_reads": "remoteReads",
    "shell.remote_write_lines": "remoteWriteLines",
    "shell.prefetch_issues": "prefetchIssues",
    "shell.blt_transfers": "bltTransfers",
    "splitc.barriers": "barriers",
    "net.torus_hops": "torusHops",
}

# Top-level spans must cover at least this share of a traced pass.
MIN_COVERAGE = 0.97


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", "4"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"perfbench: build failed ({' '.join(cmd)}); "
                    f"see {log_path}")
                return False
    return True


def source_commit():
    """`git rev-parse HEAD`, with "-dirty" when the tree has changes;
    "unknown" outside a git checkout."""
    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head + ("-dirty" if git("status", "--porcelain") else "")


def homes_needed(workload):
    """Workloads a traced run of @p workload must also trace."""
    extra = []
    for _, _, _, where in PER_LAYER:
        if workload not in where and where[0] not in extra:
            extra.append(where[0])
    return extra


# --------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------

def check_passes(passes, verify, seed, goldens):
    """(attempted, failed, notes). Every job of every pass is one
    operation, and so is every one-time verification."""
    attempted = len(verify)
    failures = [f"{v['key']}: standalone answer differs"
                for v in verify if not v["ok"]]
    first_cycles = {}
    first_counters = {}
    for p in passes:
        w = p["workload"]
        golden = goldens.get(w, {}) if seed == goldens["default_seed"] else {}
        groups = {}
        for j in p["jobs"]:
            if j["group"] and j["kind"] != "predict":
                groups.setdefault(j["group"], j["checksum"])
        for j in p["jobs"]:
            attempted += 1
            key = (w, j["key"])
            why = None
            if not j["ok"]:
                why = "job reported failure (error, unsorted or unconverged)"
            elif j["group"] and j["kind"] != "predict" and \
                    j["checksum"] != groups[j["group"]]:
                why = f"checksum disagrees within group {j['group']}"
            elif first_cycles.setdefault(key, j["cycles"]) != j["cycles"]:
                why = "simulated cycles differ from the first pass"
            elif j["key"] in golden and golden[j["key"]] != \
                    [j["cycles"], j["checksum"]][:len(golden[j["key"]])]:
                why = f"differs from golden {golden[j['key']]}"
            if why:
                failures.append(f"{w} {j['key']}: {why}")
        if p["counters"] is not None:
            attempted += 1
            if first_counters.setdefault(w, p["counters"]) != p["counters"]:
                failures.append(f"{w}: counters differ between passes")
    return attempted, len(failures), failures


def check_coverage(spans):
    """Share of each traced pass that its top-level spans cover:
    (shares, failures)."""
    shares = [(s["name"], stats.coverage(s, spans)) for s in spans
              if s["name"].startswith("pass.")]
    bad = [f"{name}: top-level spans cover only {c:.3f} of the pass"
           for name, c in shares if c < MIN_COVERAGE]
    return shares, bad


# --------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------

def executed_pe_cycles(p):
    return sum(j["cycles"] * j["pes"] for j in p["jobs"]
               if j["kind"] != "predict" and not j["hit"])


def end_to_end(data, workload):
    """Per-pass figures are medians over the run's passes. Latency
    percentiles are taken over the jobs of a pass (every pass repeats
    the same jobs), each at its median latency over the passes, so that
    a host hiccup in one pass sets neither the median nor the tail."""
    passes = [p for p in data["passes"]
              if p["workload"] == workload and not p["traced"]]
    # The first pass warms the caches and the allocator; it is checked
    # like the others but measured only when it is the only one.
    passes = passes[1:] or passes

    def per_pass(fn):
        return stats.median(fn(p) for p in passes)

    by_job = {}
    for p in passes:
        for j in p["jobs"]:
            by_job.setdefault((j["key"], j["kind"]), []).append(j["ms"])
    typical_ms = [stats.median(v) for v in by_job.values()]
    predict_ms = [stats.median(v) for (_, kind), v in by_job.items()
                  if kind == "predict"]
    metrics = {
        "wall_s": per_pass(lambda p: p["wall_s"]),
        # A pass's set-up estimate comes from replicas timed beside its
        # runs; several replicas per pass, the median over passes.
        "setup_s": per_pass(lambda p: p["setup_s"]),
        # Per host second of the whole pass, as bench_sim_speed counts
        # it: subtracting the set-up estimate, ~80% of a fig9 pass,
        # would magnify its error about fivefold.
        "sim_pe_cycles_per_s": per_pass(
            lambda p: executed_pe_cycles(p) / p["wall_s"]),
        "peak_rss_mb": data["peak_rss_mb"],
        "job_p50_ms": stats.percentile(typical_ms, 50),
        "job_p95_ms": stats.percentile(typical_ms, 95),
        "jobs_per_s": per_pass(lambda p: len(p["jobs"]) / p["wall_s"]),
    }
    extra = {
        "passes": len(passes),
        "distinct_jobs": len(typical_ms),
        "job_tail_percentile": stats.tail_percentile(len(typical_ms)),
    }
    if predict_ms:
        extra["predict_p50_ms"] = stats.percentile(predict_ms, 50)
        extra["predict_samples"] = len(predict_ms)
    return metrics, extra


def per_layer(data, workload):
    metrics, source = {}, {}
    for name, _, _, where in PER_LAYER:
        w = workload if workload in where else where[0]
        source[name] = w
        passes = [p for p in data["passes"]
                  if p["workload"] == w and p["traced"]]
        if name in data["probes"]:
            metrics[name] = data["probes"][name]
        elif name == "sim_cycles":
            metrics[name] = stats.median(
                sum(j["cycles"] for j in p["jobs"]) for p in passes)
        elif name in COUNTERS:
            metrics[name] = stats.median(
                p["counters"][COUNTERS[name]] for p in passes)
        else:
            metrics[name] = stats.median(p["layers"][name] for p in passes)
    return metrics, source


def trace_accounting(data, workload, spans):
    mine = [p for p in data["passes"] if p["workload"] == workload]
    traced = [p["wall_s"] for p in mine if p["traced"]]
    untraced = [p["wall_s"] for p in mine if not p["traced"]]
    shares, bad = check_coverage(spans)
    by_name = {}
    self_time = stats.self_times(spans)
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + self_time[s["id"]]
    return {
        "tracing_overhead_s": stats.median(traced) - stats.median(untraced),
        "untraced_wall_s": stats.median(untraced),
        "traced_wall_s": stats.median(traced),
        "span_coverage": shares,
        "self_time_s": dict(sorted(by_name.items(),
                                   key=lambda kv: -kv[1])),
    }, bad


# --------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + UNGATED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}"
                                     f"-t{args.trace}")
    out_path, spans_path = stem + ".raw.json", stem + ".trace.json"
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--spans", spans_path,
                "--also", ",".join(homes_needed(args.workload))]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("T3DSIM_")}
    try:
        r = subprocess.run(cmd, env=env, timeout=HARNESS_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: harness exceeded {HARNESS_LIMIT_S:.0f} s")
        return 1
    if r.returncode != 0:
        log(f"perfbench: harness exited with {r.returncode}")
        return 1
    with open(out_path) as fh:
        data = json.load(fh)
    with open(GOLDENS) as fh:
        goldens = json.load(fh)

    attempted, failed, failures = check_passes(
        data["passes"], data["verify"], args.seed, goldens)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": dict(data["provenance"],
                                 commit=source_commit())}
    if args.trace:
        with open(spans_path) as fh:
            spans = stats.spans_from_chrome(json.load(fh))
        metrics, source = per_layer(data, args.workload)
        accounting, bad = trace_accounting(data, args.workload, spans)
        attempted += len(accounting["span_coverage"])
        failed += len(bad)
        failures += bad
        record.update(metrics=metrics, measured_on=source,
                      accounting=accounting, spans=spans_path)
        units = {n: u for n, u, _, _ in PER_LAYER}
    else:
        metrics, extra = end_to_end(data, args.workload)
        record.update(metrics=metrics, details=extra)
        units = {n: u for n, u, _ in END_TO_END}
    record.update(attempted=attempted, failed=failed,
                  error_rate=failed / attempted, failures=failures)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    report(record, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


def report(record, units):
    prov = record["provenance"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['failed']} of "
          f"{record['attempted']} operations failed "
          f"(error_rate {record['error_rate']:.4g})")
    print("  host: nproc={nproc} build={build_type} ipo={ipo} "
          "counters_compiled={counters_compiled} compiler={compiler} "
          "commit={commit}".format(**prov))
    for line in record["failures"][:10]:
        print("  FAILED " + line)
    where = record.get("measured_on", {})
    for name, value in record["metrics"].items():
        on = where.get(name)
        suffix = f"  (on {on})" if on and on != record["workload"] else ""
        print(f"  {name:30s} {value:>16.6g} {units[name]}{suffix}")
    if "details" in record:
        d = record["details"]
        tail = d["job_tail_percentile"]
        print(f"  {d['passes']} passes; latencies of {d['distinct_jobs']} "
              f"distinct jobs, each its median over the passes; highest "
              f"percentile with >= {stats.MIN_BEYOND} of them beyond it: "
              f"{'p%g' % tail if tail else 'none'}")
        if "predict_p50_ms" in d:
            print(f"  {'predict_p50_ms':30s} {d['predict_p50_ms']:>16.6g} ms"
                  f"  ({d['predict_samples']} predict jobs)")
    if "accounting" in record:
        a = record["accounting"]
        print(f"  tracing overhead {a['tracing_overhead_s']:.4f} s per pass "
              f"(traced {a['traced_wall_s']:.4f} s, untraced "
              f"{a['untraced_wall_s']:.4f} s)")
        print("  span coverage: " + ", ".join(
            f"{name} {c:.4f}" for name, c in a["span_coverage"]))
        top = list(a["self_time_s"].items())[:8]
        print("  self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
        print(f"  spans: {record['spans']}")


if __name__ == "__main__":
    sys.exit(main())
