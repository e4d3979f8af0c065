"""chipfire benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {group,verify,divisor} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every measurement runs in a fresh interpreter
(perfbench/worker.py) with `src/` on PYTHONPATH, one closed-loop client and
no threads.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
peak_rss_mb, success_ratio (1 - error rate) and setup_s, the median of
several fresh set-ups.  --trace 1 runs the ops traced, then the first half
of them again untraced, and prints the per-layer metrics plus
trace.overhead_ratio.

Every answer is checked; a wrong answer or an exception is a failed op.  The
last stdout line is the result object; the line before it records the
environment.  The exit code is 1 if any op failed, 2 on a usage error or
when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import monotonic

import workloads
from tracing import CONSTRUCT, GRAPH_CONSTRUCTORS, SNF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 6  # fresh set-ups per run, on top of the measured process's own
BUDGET_S = 170.0  # the whole command, children included
MIN_OPS = 100  # so that at least 10 samples lie beyond the p90


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        paths = [os.path.join(ROOT, "src"), self.env.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def child(self, *extra: str) -> dict:
        """Run worker.py to completion in a fresh interpreter; its result."""
        spawned = monotonic()
        argv = [
            sys.executable, WORKER,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", self.workdir,
            "--spawned", repr(spawned),
            *extra,
        ]
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, self.deadline - spawned),
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(runner: Runner, seconds: float):
    runner.child("--setup-only")  # warm-up: compiles bytecode, fills the page cache
    setups = [runner.child("--setup-only") for _ in range(SETUP_SAMPLES)]
    run = runner.child("--seconds", str(seconds))
    setups.append(run)

    def timings(prefix=""):
        lat = run[prefix + "latencies_ms"]
        return {
            "ops_per_s": (run["ops"] / run[prefix + "loop_s"], "1/s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
            "setup_s": (statistics.median(s[prefix + "setup_s"] for s in setups), "s"),
        }

    metrics = timings()
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    metrics["success_ratio"] = (1 - run["failed"] / run["ops"], "ratio")
    info = {
        "raw": {k: v for k, (v, _) in timings("raw_").items()},
        "probe_median_ms": run["probe_median_ms"],
    }
    return run, metrics, info


def _cache_metrics(caches: dict, ops: int) -> dict:
    """Summed over the SNF caches that exist; absent when none is left."""
    if not caches:
        return {}
    hits = sum(c["hits"] for c in caches.values())
    misses = sum(c["misses"] for c in caches.values())
    return {
        "sandpile.snf_cache.hits": (hits / ops, "count/op"),
        "sandpile.snf_cache.misses": (misses / ops, "count/op"),
        "sandpile.snf_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
    }


LAYER_SELF_MS = (
    "cli.main",
    "intlinalg.determinant",
    "intlinalg.char_poly",
    "intlinalg.smith_normal_form",
    "sandpile.is_principal",
    "sandpile.class_order",
    "sandpile.subgroup_invariants",
    "sandpile.quotient_by_classes",
    "sandpile.critical_group",
    "sandpile.laplacian",
    "sandpile.char_poly_restricted",
    "sandpile.spanning_tree_count",
    "theorems.verify_cone_theorem",
    "theorems.verify_join_theorem",
)


def per_layer(runner: Runner, seconds: float):
    # one file per workload, overwritten by its latest traced run
    trace_path = os.path.join(OUT_DIR, f"trace-{runner.workload}.json")
    traced = runner.child("--seconds", str(seconds), "--trace-out", trace_path)
    ops = traced["ops"]
    # the overhead is measured on the first half of the traced ops, which
    # keeps a traced run at 1.5x the length of an untraced one
    half = (ops + 1) // 2
    plain = runner.child("--ops", str(half))
    totals = traced["trace"]["totals"]

    def per_op(name, key="calls", scale=1.0):
        return totals.get(name, {}).get(key, 0) * scale / ops

    def self_ms(*names):
        return sum(per_op(n, "self_s", 1e3) for n in names)

    metrics = {
        "trace.ops": (ops, "count"),
        "trace.overhead_ratio": (traced["op_ends_s"][half - 1] / plain["loop_s"], "ratio"),
        "snf_calls_per_op": (per_op(SNF), "count/op"),
        f"{SNF}.max_dim": (traced["trace"]["snf"]["max_dim"], "count"),
        f"{SNF}.witness_bits_max": (traced["trace"]["snf"]["bits"], "bits"),
        "intlinalg.IntMatrix.constructions": (per_op(CONSTRUCT), "count/op"),
        "intlinalg.IntMatrix.construct_ms": (self_ms(CONSTRUCT), "ms/op"),
        "graphs.read_edge_list.ms": (per_op("graphs.read_edge_list", "total_s", 1e3), "ms/op"),
        "graphs.construct.ms": (self_ms(*GRAPH_CONSTRUCTORS), "ms/op"),
        "graphs.is_connected.ms": (self_ms("graphs.is_connected"), "ms/op"),
    }
    for name in ("cli.main", "intlinalg.determinant", "intlinalg.char_poly", "graphs.is_connected"):
        metrics[f"{name}.calls"] = (per_op(name), "count/op")
    for name in LAYER_SELF_MS:
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms/op")
    metrics.update(_cache_metrics(traced["caches"], ops))
    info = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "bindings_wrapped": traced["trace"]["bindings"],
    }
    # both processes' answers are checked, so both count as attempted ops
    run = dict(traced, ops=ops + plain["ops"], failed=traced["failed"] + plain["failed"])
    return run, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "chipfire", "__init__.py")):
        print(f"error: no chipfire source under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        run, metrics, extra = measure(runner, args.seconds)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run["ops"] < MIN_OPS:
        print(f"warning: only {run['ops']} ops; the p90 rests on fewer than 10 samples",
              file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": run["ops"],
        "error_rate": run["failed"] / run["ops"],
        "repeat_share": run["repeat_share"],
        "caches": run["caches"],
        **extra,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
