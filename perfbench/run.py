"""Benchmark entry point.

    python3 perfbench/run.py --workload tpch-scan --seed 0 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 6

Run from the repository root. Prints an environment header, every metric
by name with its unit, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with no tracing; with
``--trace 1`` they are the per-layer ones, from spans recorded around
each layer (written to ``perfbench/out/``). ``--workload all`` runs every
workload of ``BENCHMARK.json`` in its own process and prints them
together. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, SRC, use_repo_src


def environment(args) -> dict:
    import numpy
    import pyspark

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "pyspark": pyspark.__version__,
        "spark_master": "none",
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def run_one(args) -> int:
    use_repo_src()
    env = environment(args)
    if args.workload == "spark-osm":
        import sparkbench as bench
    else:
        import floodbench as bench
    tracer = None
    if args.trace:
        import tracing
        tracer = (tracing.spark_tracer() if args.workload == "spark-osm"
                  else tracing.flood_tracer())
    rep = bench.run(args.workload, args.seed, args.seconds, tracer)
    env.update(rep.env)
    print("# env " + json.dumps(env))
    for key, value in rep.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    print_metrics(rep.metrics)
    print(f"  {'error_rate':34s} {rep.failed / max(1, rep.attempted):14.6g} fraction"
          f"  ({rep.failed} of {rep.attempted} operations)")
    if tracer is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"# spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(json.dumps({
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload of BENCHMARK.json in its own process, one after another."""
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for name in names:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"all-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"# results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Flood benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["tpch-scan", "sales-lookup", "spark-osm", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
