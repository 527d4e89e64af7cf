"""The ncshift benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload symbolic --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

Each repetition of a workload runs in a fresh child process (bench/child.py),
started one at a time, so it starts with empty memo tables and has its own
peak memory.  Timings are scaled to a reference machine speed measured in
the child with a fixed reference loop (see child.Speed).  Repetitions repeat until --seconds have passed (at least
MIN_REPS).  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, as medians over the repetitions; with --trace 1 it alternates
plain and traced repetitions and reports the per-layer metrics.  The last
line of standard output is one JSON object; ``--workload all`` prints every
metric of every workload by name and unit and ends with one JSON object
keyed by workload.

Exit status: 0 after a complete run, 1 if a repetition crashed or timed
out, 2 on a usage error or when the checkout has no ncshift sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("symbolic", "numeric", "session")
MIN_REPS = 3
#: a run starts no repetition that could end after this many seconds
RUN_LIMIT_S = 150.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def run_child(args, spans: Path | None, started: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
    ]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    timeout = max(1.0, RUN_LIMIT_S + 20.0 - (time.monotonic() - started))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} repetition timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} repetition failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.monotonic() - spawned
    # timings at reference speed (child.Speed); the raw wall time is kept
    k = result["scale"]
    result["raw_wall_s"] = result["wall_s"]
    result["setup_s"] = (
        (result["first_op_at"] - spawned - result["ref_setup_s"]) * result["setup_scale"]
    )
    result["wall_s"] *= k
    result["cpu_s"] *= k
    result["latencies_ms"] = [x * k for x in result["latencies_ms"]]
    for name in result.get("layers", {}):
        if name.endswith("self_s"):
            result["layers"][name] *= k
    return result


def repeat(args, traced: bool) -> tuple[list[dict], list[dict]]:
    """Plain repetitions (and traced ones, alternating) until time is up."""
    started = time.monotonic()
    deadline = started + args.seconds
    plain, traced_reps = [], []
    spans_dir = ROOT / ".bench_build" / "trace"
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
    need = 1 if traced else MIN_REPS
    while len(plain) < need or time.monotonic() < deadline:
        last = plain[-1]["duration_s"] * (3 if traced else 1) if plain else 0.0
        if plain and time.monotonic() - started + last > RUN_LIMIT_S:
            break
        rep = len(plain)
        plain.append(run_child(args, None, started))
        if traced:
            spans = spans_dir / f"{args.workload}-seed{args.seed}-rep{rep}.spans"
            traced_reps.append(run_child(args, spans, started))
    return plain, traced_reps


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over the repetitions; op percentiles and pass_ratio pooled."""
    attempted = sum(r["attempted"] for r in reps)
    violations = sum(r["failed"] + r["known_defects"] for r in reps)
    latencies = [x for r in reps for x in r["latencies_ms"]]
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_ratio": 1.0 - violations / attempted,
    }


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "ncshift").glob("*.py")
    )


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = dict(traced[0]["layers"])  # every repetition of a seed runs the same ops
    for name in out:
        if name.endswith("self_s"):
            out[name] = statistics.median(r["layers"][name] for r in traced)
    draws = sum(r["draws"] for r in traced)
    accepted = sum(r["accepted"] for r in traced)
    out["special.sample.accept_ratio"] = accepted / draws if draws else 1.0
    out["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / (
        statistics.median(r["wall_s"] for r in plain)
    )
    out["src.lines"] = src_lines()
    return out


def run_workload(args, spec: dict) -> dict:
    plain, traced = repeat(args, bool(args.trace))
    reps = plain + traced
    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {}
    for m in spec[key]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failures = [f for r in reps for f in r["failures"]]
    for f in dict.fromkeys(failures):
        print(f"FAILED {args.workload}: {f}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    known = sum(r["known_defects"] for r in reps)
    print(
        f"{args.workload}: {len(plain)} plain + {len(traced)} traced repetitions of "
        f"{plain[0]['attempted']} ops (op percentiles over "
        f"{sum(r['attempted'] for r in plain)} latencies); "
        f"fail_ratio {(failed + known) / attempted:.4f} "
        f"({known} known-defect contract violations, {failed} unexpected failures); "
        f"unscaled wall_s median {statistics.median(r['raw_wall_s'] for r in plain):.4f} s, "
        f"reference loop median {statistics.median(r['ref_mean_s'] for r in plain) * 1e3:.4f} ms; "
        f"src/ {src_lines()} lines"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ncshift" / "__init__.py").is_file():
        print(f"error: no ncshift sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    compileall.compile_dir(str(ROOT / "src" / "ncshift"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:9s} {metric:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
