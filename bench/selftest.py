"""Self-test of the benchmark at tiny size (about a minute).

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that:

* every workload, plain and traced, ends with one JSON object that holds
  exactly the metrics BENCHMARK.json names, each with its unit;
* the goldens are complete: no op fails on the tiny pools;
* a corrupted golden lowers pass_ratio and raises the failed count, so the
  correctness check cannot pass without checking anything;
* in a directory without the ncshift sources the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_build" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "3", "--seconds", "0",
           "--scale", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def copy_tree(dest: Path, spec: dict, with_sources: bool) -> None:
    """BENCHMARK.json and the benchmark's files (and src/) under dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    for path in spec["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / path, dest / path, ignore=skip)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def check_metrics(workload: str, trace: int, spec: dict) -> dict:
    out = result(bench("--workload", workload, "--trace", str(trace)))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload} trace={trace}: metrics differ: {set(got) ^ set(want)}"
                             f" or units differ")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")
    if out["failed"] or not out["correct"]:
        raise AssertionError(f"{workload} trace={trace}: {out['failed']} ops failed")
    return out


def corrupt(goldens: dict) -> dict:
    """Flip one verdict or digest that every tiny stream runs."""
    bad = json.loads(json.dumps(goldens))
    bad["symbolic"]["omega-involution/k=1"] = False
    bad["numeric"]["commutative-recovery/n=1,k=1"] = False
    bad["session"]["expand --psi 1"]["sha256"] = "0" * 64
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    baseline = {}
    for workload in ("symbolic", "numeric", "session"):
        for trace in (0, 1):
            out = check_metrics(workload, trace, spec)
            if not trace:
                baseline[workload] = out
        print(f"ok: {workload} emits every metric with its unit, plain and traced")

    corrupted = SCRATCH / "corrupted"
    copy_tree(corrupted, spec, with_sources=True)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    (corrupted / "bench" / "goldens.json").write_text(json.dumps(corrupt(goldens)))
    for workload, good in baseline.items():
        out = result(bench("--workload", workload, "--trace", "0", cwd=corrupted))
        ratio = out["metrics"]["pass_ratio"]["value"]
        if not (out["failed"] > 0 and not out["correct"]
                and ratio < good["metrics"]["pass_ratio"]["value"]):
            raise AssertionError(f"{workload}: a corrupted golden went unnoticed")
        print(f"ok: {workload} counts {out['failed']} failed ops against a corrupted golden")
    shutil.rmtree(corrupted, ignore_errors=True)

    bare = SCRATCH / "bare"
    copy_tree(bare, spec, with_sources=False)
    proc = subprocess.run(
        [sys.executable, str(bare / "bench" / "run.py"), "--workload", "symbolic",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("without sources the benchmark must fail and print no result")
    print("ok: without ncshift sources the run exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
