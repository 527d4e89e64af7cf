"""One repetition of a benchmark workload, in a process of its own.

run.py starts this file once per repetition, so every repetition begins with
empty functools.cache memo tables, as a command-line call does, and has its
own peak memory.  It imports ncshift from <root>/src, builds the ops from the
seed, runs them one after another (a closed loop with one client), checks
each output against the goldens and prints one JSON object as the last line
of its standard output.

    python3 bench/child.py --root . --workload symbolic --seed 1 \
        [--scale tiny] [--trace spans.bin]

Every repetition of one seed runs the same ops with the same inputs, on
every commit.  Building the inputs (the session's request files) runs
ncshift code, so the memo tables are emptied after it, before the first op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

#: the reference loop's time at the speed the reported timings are scaled to
REF_NOMINAL_S = 0.0015
#: iterations of the reference loop, and the least time between two samples
REF_ITERATIONS = 400
REF_EVERY_S = 0.025


class Speed:
    """The machine's speed over one repetition, sampled with a reference loop.

    On a shared machine the same work takes up to twice as long from one
    second to the next.  run.py therefore scales this repetition's timings
    by REF_NOMINAL_S over the mean time of a fixed pure-Python loop
    (Fraction and dict arithmetic, no ncshift code), sampled when the child
    starts, between ops at most every REF_EVERY_S, and at the end.
    Set-up time is scaled by the samples taken around it alone.  The time
    spent sampling is left out of every timing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall = self.cpu = 0.0  # spent sampling
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        t, c = time.perf_counter(), time.process_time()
        if not force and t - self.last < REF_EVERY_S:
            return
        acc: dict = {}
        for i in range(1, REF_ITERATIONS):
            k = (i % 13, i % 7)
            acc[k] = acc.get(k, 0) + Fraction(i % 7 + 1, i % 5 + 2)
        self.last = time.perf_counter()
        self.samples.append(self.last - t)
        self.wall += self.last - t
        self.cpu += time.process_time() - c


def scale(samples: list[float]) -> float:
    """The factor that takes times measured during the samples to reference speed."""
    return REF_NOMINAL_S / statistics.mean(samples)


def judge(golden, out, err) -> str:
    """'pass', 'known' (a contract violation recorded as a known defect on
    the golden commit) or 'fail'."""
    if golden is None:
        return "fail"
    if isinstance(golden, bool):
        return "pass" if err is None and out is golden else "fail"
    if err is None:
        code, text = out
        seen = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if all(seen[k] == golden[k] for k in ("exit", "sha256") if k in golden):
            return "pass"
    return "known" if golden.get("known_defect") else "fail"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = p.parse_args()
    speed = Speed()
    speed.sample(force=True)
    speed.sample(force=True)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import workloads as W

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")) as fh:
        goldens = json.load(fh)[args.workload]
    workdir = os.path.join(args.root, ".bench_build", "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = W.stream(args.workload, W.pool(args.workload, args.scale, workdir), args.seed)
        # building the session inputs runs ncshift code: the ops start cold
        tables = W.memo_tables()
        for fns in tables.values():
            for f in fns:
                f.cache_clear()
        tracer = None
        if args.trace:
            import tracer as T

            tracer = T.Tracer()
            tracer.install()
        stats = W.SampleStats()
        latencies, failures = [], []
        failed = known = 0
        speed.sample(force=True)
        speed.sample(force=True)
        setup_samples = list(speed.samples)
        ref_wall, ref_cpu = speed.wall, speed.cpu
        first_op_at = time.monotonic()
        t0, c0 = time.perf_counter(), time.process_time()
        for i, op in enumerate(ops):
            speed.sample()
            rng = random.Random(f"{args.seed}/{i}")
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                out, err = op.run(rng, stats), None
            except Exception as e:  # an op that raises is a failed op, not a crash
                out, err = None, f"{type(e).__name__}: {e}"
            latencies.append((time.perf_counter() - start) * 1000.0)
            verdict = judge(goldens.get(op.key), out, err)
            if verdict == "known":
                known += 1
            elif verdict == "fail":
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.key}: {err or 'output differs from golden'}")
        wall = time.perf_counter() - t0 - (speed.wall - ref_wall)
        cpu = time.process_time() - c0 - (speed.cpu - ref_cpu)
        speed.sample(force=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "first_op_at": first_op_at,
        "ref_setup_s": ref_wall,
        "ref_mean_s": statistics.mean(speed.samples),
        "setup_scale": scale(setup_samples),
        "scale": scale(speed.samples),
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_ms": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "known_defects": known,
        "failures": failures,
        "draws": stats.draws,
        "accepted": stats.accepted,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update(T.memo_metrics(tables))
        tracer.write(args.trace)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
