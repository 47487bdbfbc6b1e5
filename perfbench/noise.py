"""Noise report: run the benchmark several times per workload, each run with
another seed, and report every end-to-end metric's median and quartiles.

    python3 perfbench/noise.py [--runs 10] [--first-seed 1] [--workloads oneshot table wide]

The spread of a metric is (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  A metric whose spread exceeds its bound
in BENCHMARK.json is flagged UNRESOLVED: a change to it cannot be told from
noise.  The report, with the machine's CPU quota, goes to stdout and to
perfbench/results/noise-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CPU_QUOTA_FILES = ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                   "/sys/fs/cgroup/cpu/cpu.cfs_period_us")


def cpu_quota() -> dict:
    """The cgroup CPU quota, read-only, from whichever cgroup version is mounted."""
    quota = {}
    for name in CPU_QUOTA_FILES:
        try:
            quota[name] = Path(name).read_text().strip()
        except OSError:
            pass
    return quota


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"commit": git_commit(), "cpu_quota": cpu_quota(), "runs": args.runs, "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        incorrect = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            incorrect += not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            median, q1, q3, s = spread(vals)
            status = "steady" if s < bounds[name] / 3 else "ok" if s <= bounds[name] else "UNRESOLVED"
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": s, "bound": bounds[name],
                          "status": status, "values": vals}
            print(f"{workload:8} {name:12} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {s:6.3f}  bound {bounds[name]:.2f}  {status}")
        report["workloads"][workload] = {"incorrect_runs": incorrect, "metrics": rows}
    out = HERE / "results" / f"noise-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
