"""Benchmark of ziminwords: one workload per invocation.

    python3 bench/run.py --workload f_deep|shallow_search|certify \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Every
measurement happens in a fresh single-threaded child process (worker.py):
one process for the workload, so neither its peak memory nor its set-up
leak into another workload, and set-up probes before and after it, whose
median is ``setup_s``.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
cpu_s, peak_rss_mb); with ``--trace 1`` the per-layer ones of README.md.
The line before it stamps the run: git sha when the checkout has one, a
hash of the program's source, the Python version, the CPU count and the
load average at start and end.  Spans of a traced run are written to
.bench_out/.  Exits non-zero, without a result line, when the program
cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Probes run before and again after the workload, so that a busy spell on a
# shared machine sways fewer of them.
SETUP_PROBES = 5
# An untraced run spreads its time over this many fresh workload processes,
# one after the other: the speed of CPython code shifts by several per cent
# with the memory layout a process happens to get.
WORK_PROCESSES = 4
CHILD_TIMEOUT_S = 150


def child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ziminwords").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (SRC / "ziminwords" / "cli.py").is_file():
        print(f"error: no ziminwords sources under {SRC}", file=sys.stderr)
        return 2

    stamp = {
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    child(["setup"], 60)  # compiles the bytecode; not measured
    probes = [child(["setup"], 60) for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    runs = []
    budget = args.seconds
    for left in range(1 if args.trace else WORK_PROCESSES, 0, -1):
        began = time.perf_counter()
        runs.append(
            child(
                ["work", args.workload, str(args.seed), str(budget / left), str(args.trace), str(trace_path)],
                CHILD_TIMEOUT_S,
            )
        )
        budget -= time.perf_counter() - began
    probes += [child(["setup"], 60) for _ in range(SETUP_PROBES)]
    stamp["loadavg_end"] = os.getloadavg()

    # Each task's median over all untraced passes; a pass's time is the sum.
    passes = [p for run in runs for p in run["tasks"]]
    tasks = list(zip(*passes))
    if args.trace:
        values = dict(runs[0]["layers"])
        values["automata.language_dfas.build_ms"] = statistics.median(p["dfa_build_ms"] for p in probes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "wall_s": {"value": sum(statistics.median(w for w, _ in t) for t in tasks), "unit": "s"},
            "cpu_s": {"value": sum(statistics.median(c for _, c in t) for t in tasks), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(run["peak_rss_mb"] for run in runs), "unit": "MB"},
        }
    detail = {
        "stamp": stamp,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s_probes": [p["setup_s"] for p in probes],
        "setup_raw_s_probes": [p["setup_raw_s"] for p in probes],
        "wall_s_passes": [run["walls"] for run in runs],
        "raw_wall_s_passes": [run["raw_walls"] for run in runs],
        "reference_loop_median_s": [run["ref_median_s"] for run in runs],
        "traced_wall_s_passes": runs[0].get("traced_walls"),
    }
    print(json.dumps(detail))
    failed = sum(run["failed"] for run in runs)
    result = {"correct": failed == 0, "attempted": sum(run["attempted"] for run in runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
