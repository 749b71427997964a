#!/usr/bin/env python3
"""Serve smoke: drive t3d-serve with a concurrent job batch.

Pushes a >= 64-job batch (simulate + predict over a pool of distinct
graphs, so most jobs are repeats) through `t3d-serve` at each host
thread count, and asserts

  - every response is ok and answers arrive for every job id;
  - results are bit-identical to standalone execution (`--once`) and
    across every thread count;
  - the cache short-circuits repeats: the server's stats line must
    report exactly one simulation (prediction) per distinct graph,
    everything else cache hits;
  - a jobs/sec floor, recorded per thread count and mode into
    BENCH_serve.json (schema t3dsim-serve-v1);
  - a cache-miss phase: a batch of distinct graphs, so every job
    simulates (the stats line must say simulations == jobs) and each
    answer is bit-identical to `--once`. Once a first job has been
    answered (the server is up), the rest are submitted together; it
    records their jobs/s and p50/p95 submit-to-response latency per
    thread count, which measures the simulator rather than the cache.

Run from the repo root after building bench_serve:

    python3 tools/serve_smoke.py --serve build/bench/t3d-serve
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import threading
import time

STATS_RE = re.compile(
    r"jobs=(\d+) simulations=(\d+) predictions=(\d+) "
    r"cache_hits=(\d+) errors=(\d+)")


def graph(index: int) -> dict:
    """A small fork/join DAG; index varies the weights so each one is
    a distinct cache key."""
    base = 50 + 17 * index
    return {
        "name": f"smoke-{index}",
        "tasks": [
            {"id": "src", "cycles": base},
            {"id": "l", "cycles": base + 40},
            {"id": "r", "cycles": base + 90},
            {"id": "wide", "cycles": base + 10},
            {"id": "sink", "cycles": 25},
        ],
        "edges": [
            {"src": "src", "dst": "l", "bytes": 128},
            {"src": "src", "dst": "r", "bytes": 1500},
            {"src": "src", "dst": "wide", "bytes": 12000},
            {"src": "l", "dst": "sink", "bytes": 64},
            {"src": "r", "dst": "sink", "bytes": 64},
            {"src": "wide", "dst": "sink", "bytes": 64},
        ],
    }


def job_line(job_id: str, mode: str, index: int) -> str:
    return json.dumps({
        "id": job_id, "mode": mode, "pes": 8, "graph": graph(index),
    })


def payload_fields(response: dict) -> dict:
    """The executed result, minus routing/cache fields."""
    return {k: v for k, v in response.items()
            if k not in ("id", "cache")}


def run_batch(serve: str, threads: int, lines: list[str]):
    """Feed the whole batch at once; returns (responses by id,
    stats dict, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [serve, f"--threads={threads}"],
        input="\n".join(lines) + "\n",
        capture_output=True, text=True, check=True)
    wall = time.monotonic() - start
    responses = {}
    for line in proc.stdout.splitlines():
        r = json.loads(line)
        assert r.get("ok") is True, f"job failed: {line}"
        responses[r["id"]] = r
    m = STATS_RE.search(proc.stderr)
    assert m, f"no stats line on stderr: {proc.stderr!r}"
    stats = dict(zip(
        ("jobs", "simulations", "predictions", "cache_hits", "errors"),
        (int(g) for g in m.groups())))
    return responses, stats, wall


def run_timed(serve: str, threads: int, lines: list[str]):
    """Run the batch on one server and time each job from its own
    submission to its response. The first job is sent alone and its
    answer awaited, so process spawn and server start-up fall outside
    every timed job; the rest are then submitted together, so a
    latency includes the job's wait behind the batch. Returns
    (responses by id, stats dict, wall seconds of the submitted rest,
    latencies in ms of the rest)."""
    proc = subprocess.Popen(
        [serve, f"--threads={threads}"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    ids = [json.loads(line)["id"] for line in lines]
    submitted = {}

    def feed():
        for job_id, line in zip(ids[1:], lines[1:]):
            submitted[job_id] = time.monotonic()
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        proc.stdin.close()

    proc.stdin.write(lines[0] + "\n")
    proc.stdin.flush()
    responses, latencies = {}, []
    writer = threading.Thread(target=feed)
    start = None
    for line in proc.stdout:
        now = time.monotonic()
        r = json.loads(line)
        assert r.get("ok") is True, f"job failed: {line}"
        responses[r["id"]] = r
        if start is None:
            start = now
            writer.start()
        else:
            latencies.append((now - submitted[r["id"]]) * 1e3)
    writer.join()
    stderr = proc.stderr.read()
    assert proc.wait() == 0, stderr
    wall = time.monotonic() - start
    m = STATS_RE.search(stderr)
    assert m, f"no stats line on stderr: {stderr!r}"
    stats = dict(zip(
        ("jobs", "simulations", "predictions", "cache_hits", "errors"),
        (int(g) for g in m.groups())))
    return responses, stats, wall, latencies


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ranked = sorted(values)
    return ranked[max(0, int(-(-len(ranked) * q // 100)) - 1)]


def miss_phase(serve: str, thread_counts: list[int], jobs: int,
               first_index: int) -> list[dict]:
    """Every job a distinct graph: all simulate, none hit the cache."""
    lines = [job_line(f"miss{i}", "simulate", first_index + i)
             for i in range(jobs)]
    reference = {
        f"miss{i}": payload_fields(run_once(serve, line))
        for i, line in enumerate(lines)
    }
    rows = []
    for threads in thread_counts:
        responses, stats, wall, latencies = run_timed(serve, threads,
                                                      lines)
        assert len(responses) == jobs, (
            f"miss@{threads}: {len(responses)} responses")
        assert stats["errors"] == 0, stats
        assert stats["simulations"] == jobs, (
            f"miss@{threads}: {stats['simulations']} of {jobs} jobs "
            f"simulated: {stats}")
        assert stats["cache_hits"] == 0, stats
        for job_id, r in responses.items():
            assert payload_fields(r) == reference[job_id], (
                f"{job_id}@{threads} diverges from --once")
        row = {
            "threads": threads,
            "jobs": jobs,
            "simulations": stats["simulations"],
            "jobs_per_s": round((jobs - 1) / wall, 1),
            "p50_ms": round(statistics.median(latencies), 2),
            "p95_ms": round(percentile(latencies, 95), 2),
        }
        rows.append(row)
        print(f"cache-miss threads={threads}: {row['jobs_per_s']} "
              f"jobs/s, p50 {row['p50_ms']} ms, p95 {row['p95_ms']} ms")
    return rows


def run_once(serve: str, line: str) -> dict:
    proc = subprocess.run(
        [serve, "--once"], input=line + "\n",
        capture_output=True, text=True, check=True)
    r = json.loads(proc.stdout.strip())
    assert r.get("ok") is True, proc.stdout
    return r


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", default="build/bench/t3d-serve")
    ap.add_argument("--jobs", type=int, default=64,
                    help="batch size per mode (>= 64 per the serve "
                         "acceptance bar)")
    ap.add_argument("--unique", type=int, default=8,
                    help="distinct graphs per batch; the rest repeat")
    ap.add_argument("--threads", default="1,2,4,8")
    ap.add_argument("--floor", type=float, default=20.0,
                    help="minimum jobs/sec per thread count and mode")
    ap.add_argument("--out", default="BENCH_serve.json")
    args = ap.parse_args()

    thread_counts = [int(t) for t in args.threads.split(",")]
    batches = {
        mode: [job_line(f"{mode}{i}", mode, i % args.unique)
               for i in range(args.jobs)]
        for mode in ("simulate", "predict")
    }

    # Standalone references: one --once run per distinct simulate
    # graph, the bit-identity baseline for every served answer.
    reference = {
        i: payload_fields(run_once(
            args.serve, job_line(f"ref{i}", "simulate", i)))
        for i in range(args.unique)
    }

    sweep = []
    golden = {}  # job id -> payload, pinned across thread counts
    for threads in thread_counts:
        row = {"threads": threads, "modes": {}}
        for mode, lines in batches.items():
            responses, stats, wall = run_batch(args.serve, threads,
                                               lines)
            assert len(responses) == args.jobs, (
                f"{mode}@{threads}: {len(responses)} responses")
            assert stats["errors"] == 0, stats
            executed = stats["simulations" if mode == "simulate"
                             else "predictions"]
            assert executed == args.unique, (
                f"{mode}@{threads}: cache failed to short-circuit: "
                f"{stats}")
            assert stats["cache_hits"] == args.jobs - args.unique, stats

            for job_id, r in responses.items():
                payload = payload_fields(r)
                if mode == "simulate":
                    index = int(job_id.removeprefix(mode)) % args.unique
                    assert payload == reference[index], (
                        f"{job_id}@{threads} diverges from --once")
                if job_id in golden:
                    assert golden[job_id] == payload, (
                        f"{job_id}: differs between thread counts")
                golden[job_id] = payload

            rate = args.jobs / wall if wall > 0 else float("inf")
            assert rate >= args.floor, (
                f"{mode}@{threads}: {rate:.1f} jobs/s under floor "
                f"{args.floor}")
            row["modes"][mode] = {
                "jobs_per_s": round(rate, 1),
                "wall_s": round(wall, 4),
                "cache_hits": stats["cache_hits"],
                "executed": executed,
            }
        sweep.append(row)
        print(f"threads={threads}: " + ", ".join(
            f"{m} {row['modes'][m]['jobs_per_s']} jobs/s"
            for m in row["modes"]))

    # Graph indices past the cached batch's, so no miss-phase graph
    # repeats one of them.
    miss_sweep = miss_phase(args.serve, thread_counts, args.jobs,
                            args.unique)

    out = {
        "schema": "t3dsim-serve-v1",
        "jobs_per_mode": args.jobs,
        "unique_graphs": args.unique,
        "floor_jobs_per_s": args.floor,
        "bit_identical_to_standalone": True,
        "sweep": sweep,
        "miss_sweep": miss_sweep,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}: {args.jobs} jobs x "
          f"{len(thread_counts)} thread counts x 2 modes, "
          "bit-identical to standalone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
