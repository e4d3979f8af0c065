"""One benchmark process: set up, run the closed loop, check every answer.

Started by run.py in a fresh interpreter, so the library's caches and the
process RSS start cold.  Prints one JSON object on its last stdout line.

Set-up time runs from the moment run.py spawned this process (`--spawned`,
a CLOCK_MONOTONIC reading, which is shared by all processes on the host)
until the first op can run, minus the time spent generating inputs, which
is the benchmark's own work.  Input generation and speed probes are also
taken off the loop's wall time.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from time import monotonic, perf_counter

import workloads
from tracing import Tracer

CACHE_NAMES = ("_reduced_snf", "_full_laplacian_snf")
MAX_REPORTED_FAILURES = 5
# Peak RSS is read after this many ops, not at the end, so that a faster
# program, which fits more ops and so more cache entries into the same
# seconds, does not read as using more memory.
RSS_OPS = 100


# Host speed on shared machines drifts by up to 2x over seconds to minutes,
# which swamps run-to-run comparisons.  Every reported time is therefore
# scaled to a reference speed: a fixed kernel of the benchmark's own (a
# Bareiss determinant on plain ints, the same kind of work as the library's
# hot loops, and independent of chipfire) is timed every PROBE_EVERY_S of
# the loop, and an op's time is multiplied by PROBE_REF_S over the median
# probe time near it.  Raw times are reported next to the scaled ones.
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 2  # readings on each side of an op that set its speed
# The kernel's time at reference speed: roughly its uncontended time on a
# 2-vCPU Intel Xeon guest under CPython 3.11.  Only ratios between runs matter.
PROBE_REF_S = 0.0015


class SpeedProbe:
    def __init__(self):
        self.graph = (28, workloads.gnp(random.Random("speed-probe"), 28, 0.4))
        self.readings = []
        self.total_s = 0.0

    def probe(self) -> None:
        t0 = perf_counter()
        workloads.spanning_trees(*self.graph)
        elapsed = perf_counter() - t0
        self.readings.append(elapsed)
        self.total_s += elapsed

    def scale(self, reading: int) -> float:
        """Factor to reference speed for work done between `reading` and the
        next one: the median of PROBE_WINDOW readings on either side."""
        start = max(0, reading - PROBE_WINDOW + 1)
        window = self.readings[start : reading + PROBE_WINDOW + 1]
        return PROBE_REF_S / statistics.median(window)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_counters(sandpile) -> dict:
    """hits/misses per SNF cache of sandpile; a cache that no longer exists
    is left out rather than reported as zero."""
    out = {}
    for name in CACHE_NAMES:
        cached = getattr(sandpile, name, None)
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


class Session:
    """The loaded library plus the workload's inputs."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workdir = workdir
        self.gen_s = 0.0
        self.pool_edges = None
        if workload == "divisor":
            t0 = perf_counter()
            self.pool_edges = workloads.divisor_pool(seed)
            pool_text = [workloads.edge_list_text(n, e) for n, e in self.pool_edges]
            self.gen_s += perf_counter() - t0

        import chipfire
        import chipfire.cli

        self.chipfire = chipfire
        self.cli = chipfire.cli
        self.graphs = None
        if workload == "divisor":
            self.graphs = [chipfire.parse_edge_list(text) for text in pool_text]

    def next_op(self, stream) -> workloads.Op:
        t0 = perf_counter()
        op = next(stream)
        for name, text in op.files:
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.gen_s += perf_counter() - t0
        return op

    def run(self, op: workloads.Op):
        """The timed call.  Returns the raw answer, checked later."""
        if op.argv is not None:
            out = io.StringIO()
            argv = [os.path.join(self.workdir, a) if a.endswith(".txt") else a for a in op.argv]
            code = self.cli.main(argv, out)
            return code, out.getvalue()
        fn = getattr(self.chipfire, op.kind)
        g = self.graphs[op.graph]
        if op.kind in ("is_principal", "class_order"):
            return fn(g, op.divisors[0])
        return fn(g, op.divisors).invariant_factors

    def cleanup(self, op: workloads.Op) -> None:
        for name, _ in op.files:
            os.remove(os.path.join(self.workdir, name))


def check_divisor(session: Session, done: list) -> list:
    """Check library answers against facts that do not come from the timed
    call: Pic0 orders from the benchmark's own determinant, principal
    divisors built as L x, and |subgroup| * |quotient| = |Pic0|."""
    cf = session.chipfire
    orders = [workloads.spanning_trees(n, e) for n, e in session.pool_edges]
    pairs = {}
    failures = []
    for index, op, answer in done:
        g, order = session.graphs[op.graph], orders[op.graph]
        try:
            if op.kind == "is_principal":
                if op.expect.get("principal") and answer is not True:
                    raise ValueError("L x reported as not principal")
                if answer != (cf.class_order(g, op.divisors[0]) == 1):
                    raise ValueError("is_principal disagrees with class_order == 1")
            elif op.kind == "class_order":
                d = op.divisors[0]
                if answer < 1 or order % answer:
                    raise ValueError(f"class order {answer} does not divide |Pic0| = {order}")
                if not cf.is_principal(g, tuple(answer * c for c in d)):
                    raise ValueError("class_order(d) * d is not principal")
            else:
                workloads.factor_chain(answer)
                pairs.setdefault((op.graph, op.divisors), {})[op.kind] = (index, answer)
        except Exception as exc:  # any error in a check is a wrong answer
            failures.append((index, f"{op.kind}: {exc!r}"))
    for (gi, gens), found in pairs.items():
        try:
            product = 1
            for kind in ("subgroup_invariants", "quotient_by_classes"):
                if kind in found:
                    factors = found[kind][1]
                else:  # the run ended between the two ops of the pair
                    factors = getattr(cf, kind)(session.graphs[gi], gens).invariant_factors
                product *= math.prod(factors)
            if product != orders[gi]:
                raise ValueError("|subgroup| * |quotient| != |Pic0|")
        except Exception as exc:
            failures += [(index, f"graph {gi}: {exc!r}") for index, _ in found.values()]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    parser.add_argument("--trace-out", default=None, help="trace the run; write spans here")
    args = parser.parse_args(argv)

    session = Session(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    setup_s = monotonic() - args.spawned - session.gen_s
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(session.chipfire.__file__).startswith(src + os.sep):
        print(f"chipfire imported from {session.chipfire.__file__}, not {src}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    if args.setup_only:
        for _ in range(2 * PROBE_WINDOW):
            probe.probe()
        result = {"setup_s": setup_s * probe.scale(PROBE_WINDOW - 1), "raw_setup_s": setup_s}
        print(json.dumps(result))
        return 0

    stream = workloads.ops_for(args.workload, args.seed, session.pool_edges)
    done, latencies, op_ends, op_probe, errors = [], [], [], [], []
    seen, repeats = set(), 0
    excluded_before = session.gen_s
    loop_start = perf_counter()

    def loop_time():  # wall time minus input generation and probes
        excluded = session.gen_s + probe.total_s - excluded_before
        return perf_counter() - loop_start - excluded

    last_probe = -PROBE_EVERY_S
    if tracer:
        tracer.enabled = True
    while True:
        index = len(latencies)
        if args.ops:
            if index >= args.ops:
                break
        elif loop_time() >= args.seconds:
            break
        if loop_time() - last_probe >= PROBE_EVERY_S:
            last_probe = loop_time()
            probe.probe()
        op_probe.append(len(probe.readings) - 1)
        op = session.next_op(stream)
        repeats += op.key in seen
        seen.add(op.key)
        if tracer:
            tracer.op = index
            frame = tracer.enter("op")
        t0 = perf_counter()
        try:
            answer = session.run(op)
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            answer = None
            errors.append((index, "".join(traceback.format_exception_only(exc)).strip()))
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.exit(frame)
        if answer is not None:
            done.append((index, op, answer))
        session.cleanup(op)
        op_ends.append(loop_time())
        if index + 1 == RSS_OPS:
            peak_rss_mb = max_rss_mb()
    loop_s = loop_time()
    for _ in range(PROBE_WINDOW):
        probe.probe()
    if tracer:
        tracer.enabled = False
    if len(latencies) < RSS_OPS:
        peak_rss_mb = max_rss_mb()
    caches = cache_counters(sys.modules["chipfire.sandpile"])

    failures = list(errors)
    if args.workload == "divisor":
        failures += check_divisor(session, done)
    else:
        for index, op, (code, text) in done:
            try:
                workloads.check_cli(op, code, text)
            except Exception as exc:  # any error in a check is a wrong answer
                failures.append((index, f"{' '.join(op.argv)}: {exc!r}"))
    failed_ops = {i for i, _ in failures}
    for index, message in failures[:MAX_REPORTED_FAILURES]:
        print(f"op {index} failed: {message}", file=sys.stderr)

    scales = [probe.scale(i) for i in op_probe]
    slots = [end - start for start, end in zip([0.0] + op_ends, op_ends)]
    result = {
        "ops": len(latencies),
        "failed": len(failed_ops),
        "loop_s": sum(x * f for x, f in zip(slots, scales)),
        "latencies_ms": [x * f * 1e3 for x, f in zip(latencies, scales)],
        "op_ends_s": list(itertools.accumulate(x * f for x, f in zip(slots, scales))),
        "raw_loop_s": loop_s,
        "raw_latencies_ms": [x * 1e3 for x in latencies],
        "probe_median_ms": statistics.median(probe.readings) * 1e3,
        "setup_s": setup_s * probe.scale(0),
        "raw_setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "repeat_share": repeats / max(1, len(latencies)),
        "caches": caches,
    }
    if tracer:
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
        result["trace"] = {
            "totals": tracer.totals(scales),
            "snf": tracer.snf_extremes(),
            "bindings": tracer.bindings,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
