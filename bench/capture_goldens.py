"""Capture bench/goldens.json from the current ncshift sources.

    python3 bench/capture_goldens.py

Run it only on a commit whose outputs are the reference: the benchmark
counts every later difference as a failed op.  It evaluates every op of the
full pools once (numeric ops at several random points, which must agree) and
records:

* identity ops: the verdict, so the by-design misprint cases are recorded
  red (false);
* session requests: exit code and sha256 of the stdout bytes;
* malformed session requests: the CLI contract (exit 2, no traceback), with
  ``known_defect`` set where this commit breaks the contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402

NUMERIC_POINTS = 4


def capture(workload: str, workdir: str) -> dict:
    out: dict = {}
    stats = W.SampleStats()
    for op in W.pool(workload, "full", workdir):
        if op.key in out:
            continue
        if workload == "session":
            if op.key.startswith("malformed/"):
                try:
                    code, _ = op.run(None, stats)
                except Exception:
                    code = None
                out[op.key] = {"exit": 2, "known_defect": code != 2}
            else:
                code, text = op.run(None, stats)
                out[op.key] = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
            continue
        points = NUMERIC_POINTS if workload == "numeric" else 1
        verdicts = {op.run(random.Random(f"golden/{op.key}/{i}"), stats) for i in range(points)}
        if len(verdicts) != 1 or not isinstance(next(iter(verdicts)), bool):
            raise SystemExit(f"{op.key}: verdicts {verdicts} differ between points")
        out[op.key] = verdicts.pop()
    return out


def main() -> int:
    workdir = str(ROOT / ".bench_build" / "work" / "goldens")
    os.makedirs(workdir, exist_ok=True)
    try:
        goldens = {w: capture(w, workdir) for w in W.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(BENCH / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, table in goldens.items():
        red = sum(1 for v in table.values() if v is False or (isinstance(v, dict) and v.get("known_defect")))
        print(f"{w}: {len(table)} keys, {red} expected red or known defects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
