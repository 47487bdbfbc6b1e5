"""Benchmark of veryample: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload oneshot|table|wide --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/
(PYTHONPATH=src, as the tests run it), never installed.  With --trace 0 the
workload runs in a closed loop with one client for S seconds and the last
line carries the end-to-end metrics; with --trace 1 a fixed, seeded list of
the workload's operations runs in-process plain, then with spans around
every layer, then plain again, and the last line carries the per-layer
metrics.  Every
output is checked (checks.py); `failed` counts operations that failed a
check and `correct` is false if any did or the reference digest moved.

`--record-digests` recomputes digests.json from the current source.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
OP_TIMEOUT_S = 120
# set-up is sampled this many times before the loop and again after it
SETUP_REPEATS = 5
SETUP_CMD = ["-c", "import veryample.cli"]
# The loop's time is cut into windows; cells_per_s and op_p50_ms are medians
# over windows of operation times scaled to a reference host speed
# (hostspeed.py), so a slow phase of a shared machine moves them less.
WINDOWS = 6
CONTEXT_REPEATS = 5
# Whole cycles of the stream in the traced run: enough for stable ratios,
# few enough to keep every span in memory.
TRACED_CYCLES = {"oneshot": 25, "table": 2, "wide": 3}
# Share of operations whose verdict is also checked after a twist.
TWIST_SHARE = {"oneshot": 0.25, "table": 0.004, "wide": 0.05}
TABLE_AGREEMENT_ROWS = 8
# A faster host makes more wide calls in a run.  The engine's caches grow
# with every call, so peak RSS is read after WIDE_RSS_OPS calls (20 cycles);
# and the tail's percentile would rise with the count, so op_tail_ms is taken
# over the first WIDE_TAIL_OPS calls (30 cycles; 11th slowest, p99.4).
WIDE_RSS_OPS = 1200
WIDE_TAIL_OPS = 1800


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("VERYAMPLE_NO_PARALLEL", None)  # the table workload runs the default path
    return env


def run_python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)


def sample_walls(args: list[str], env: dict, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_python(args, env).check_returncode()
        times.append(time.perf_counter() - t0)
    return times


def start_track(env: dict) -> hostspeed.Track:
    """Calibration by the start of a bare interpreter, for timings of processes."""
    return hostspeed.Track(lambda: sample_walls(["-c", "pass"], env, 1)[0], hostspeed.START_REFERENCE_S,
                           hostspeed.START_EVERY_S)


def sample_setup(env: dict, repeats: int) -> list[float]:
    """Times of `repeats` fresh interpreters importing veryample.cli, each
    scaled by calibration points taken just before and after it."""
    track, samples = start_track(env), []
    for _ in range(repeats):
        segment = track.segment
        samples.append((segment, sample_walls(SETUP_CMD, env, 1)[0]))
        track.tick(force=True)
    return [dt * track.factor(segment) for segment, dt in samples]


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


# -- checking ----------------------------------------------------------------------

def check_op(va, op: workloads.Op, code: int, out, rng: random.Random) -> list[str]:
    """Problems with one operation's output; out is the CLI's stdout, or the
    Cell of a library call."""
    if code != op.expect_exit:
        return [f"{op.argv}: exit {code}, expected {op.expect_exit}"]
    if op.expect_exit:
        return []
    problems, reference = [], []
    try:
        if op.command == "library":
            cells = [out]
        elif op.command == "table":
            cells = checks.parse_table(op.fmt, op.bundle, out)
            if [(c.a, c.b) for c in cells] != list(op.cells):
                return [f"{op.argv}: rows do not cover the requested cells"]
            reference = rng.sample(cells, min(TABLE_AGREEMENT_ROWS, len(cells)))
        else:
            (a, b), = op.cells
            cell, invariants = checks.parse_single(op.command, op.fmt, op.bundle, a, b, out)
            cells = reference = [cell]
            if invariants is not None:
                problems += checks.invariants_problems(op.bundle, a, b, *invariants)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.argv}: unparseable output ({exc!r})"]
    for cell in cells:
        problems += checks.closed_form_problems(cell)
        if rng.random() < TWIST_SHARE[op.workload]:
            problems += checks.twist_problems(va, cell, rng.choice((-2, -1, 1, 2)))
    for cell in reference:
        problems += checks.agreement_problems(cell, checks.library_cell(va, cell.bundle, cell.a, cell.b))
    return problems


def reference_cells(workload: str) -> list[tuple[str, int, int]]:
    """A fixed, seed-independent set of cells from the workload's domain."""
    if workload == "table":
        return [(bundle, a, b) for bundle in dict.fromkeys(workloads.TABLE_BUNDLES)
                for a in (1, 2, 3, 5, 8, 13, 21, 34, 40) for b in range(-40, 41, 3)]
    stream = workloads.ops(workload, 0)
    good = (op for op in stream if op.cells)
    count = 100 if workload == "oneshot" else workloads.CYCLE_LENGTH["wide"]
    return [(op.bundle, *op.cells[0]) for op in islice(good, count)]


def reference_digest(va, workload: str) -> str:
    return checks.digest([checks.library_cell(va, *cell) for cell in reference_cells(workload)])


def check_all(va, workload: str, seed: int, results: list) -> tuple[int, list[str]]:
    """Check every (op, exit code, output); returns (failed ops, messages)."""
    rng = random.Random(f"check/{workload}/{seed}")
    failed, messages = 0, []
    for op, code, out in results:
        problems = check_op(va, op, code, out, rng)
        if problems:
            failed += 1
            messages += problems[:3]
    digest = reference_digest(va, workload)
    if digest != checks.recorded_digest(workload):
        messages.append(f"reference digest {digest} differs from digests.json")
    return failed, messages


# -- running operations --------------------------------------------------------------

def clear_caches(va, info: list[int]) -> None:
    """Empty the engine's caches, adding their hits and misses so far to
    info = [twisted hits, twisted misses, subsets hits, subsets misses]."""
    for k, cached in enumerate((va.engine._twisted, va.engine._proper_sub_multisets)):
        stats = cached.cache_info()
        info[2 * k] += stats.hits
        info[2 * k + 1] += stats.misses
        cached.cache_clear()


def run_library_op(va, op: workloads.Op, bundles: dict):
    """One classify_very_ample call; returns (seconds, verdict)."""
    E = bundles.get(op.bundle)
    if E is None:
        bundles.clear()
        E = bundles[op.bundle] = va.bundles.parse_bundle(op.bundle)
    (a, b), = op.cells
    D = va.Divisor(a, b)
    t0 = time.perf_counter()
    verdict = va.engine.classify_very_ample(E, D)
    return time.perf_counter() - t0, verdict


def inprocess_pass(va, op_list: list, tracer=None):
    """Run op_list in this process, each CLI operation starting from empty
    caches as a fresh process would.  Returns (wall seconds, cells,
    [(op, exit code, output)], cache info, exit code counts)."""
    info = [0, 0, 0, 0]
    exits = {2: 0, 3: 0}
    results, bundles, cells = [], {}, 0
    saved = os.environ.get("VERYAMPLE_NO_PARALLEL")
    os.environ["VERYAMPLE_NO_PARALLEL"] = "1"  # spans from pool workers would be lost
    clear_caches(va, [0, 0, 0, 0])
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(op_list):
            if tracer is not None:
                tracer.current_op = i
            if op.command == "library":
                _, verdict = run_library_op(va, op, bundles)
                results.append((op, 0, checks.cell_from_verdict(op.bundle, *op.cells[0], verdict)))
                code = 0
            else:
                clear_caches(va, info)
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = va.cli.main(list(op.argv))
                results.append((op, code, out.getvalue()))
            if code == 0:
                cells += len(op.cells)
            elif code in exits:
                exits[code] += 1
            if tracer is not None:
                tracer.end_op()
        wall = time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ["VERYAMPLE_NO_PARALLEL"]
        else:
            os.environ["VERYAMPLE_NO_PARALLEL"] = saved
    clear_caches(va, info)
    return wall, cells, results, info, exits


def timed_run(va, workload: str, seed: int, seconds: float, env: dict) -> dict:
    run_python(SETUP_CMD, env).check_returncode()  # writes bytecode caches
    setup_times = sample_setup(env, SETUP_REPEATS)
    stream = workloads.ops(workload, seed)
    if workload == "wide":
        # first call of the process: let lazy set-up finish before timing
        run_library_op(va, workloads.Op("wide", "library", "", "1:0,1:1,1:3,2:1", ((2, 1),)), {})
    window_s = seconds / WINDOWS
    log = []  # (window, calibration segment, raw seconds, cells) per operation
    results, bundles = [], {}
    # A library call is set against a kernel in this process, a CLI process
    # against a bare interpreter's start: the in-process kernel does not
    # track the cost of starting processes.
    if workload == "wide":
        track = hostspeed.Track(hostspeed.kernel_seconds, hostspeed.KERNEL_REFERENCE_S,
                                hostspeed.KERNEL_EVERY_S)
    else:
        track = start_track(env)
    peak_rss_mb, rss_ops = None, None
    start = time.perf_counter()
    while (offset := time.perf_counter() - start) < seconds:
        op = next(stream)
        if op.command == "library":
            dt, verdict = run_library_op(va, op, bundles)
            code, out = 0, checks.cell_from_verdict(op.bundle, *op.cells[0], verdict)
        else:
            t0 = time.perf_counter()
            proc = run_python(["-m", "veryample.cli", *op.argv], env)
            dt = time.perf_counter() - t0
            code, out = proc.returncode, proc.stdout
        results.append((op, code, out))
        log.append((min(int(offset / window_s), WINDOWS - 1), track.segment, dt,
                    len(op.cells) if code == 0 else 0))
        if workload == "wide" and len(log) == WIDE_RSS_OPS:
            peak_rss_mb, rss_ops = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, len(log)
        track.tick()
    track.tick(force=True)
    if peak_rss_mb is None:
        who = resource.RUSAGE_SELF if workload == "wide" else resource.RUSAGE_CHILDREN
        peak_rss_mb, rss_ops = resource.getrusage(who).ru_maxrss / 1024, len(log)
    setup_times += sample_setup(env, SETUP_REPEATS)

    failed, messages = check_all(va, workload, seed, results)
    scaled = [dt * track.factor(segment) for _, segment, dt, _ in log]
    windows = [([], 0) for _ in range(WINDOWS)]  # (latencies, cells) per window
    for (w, _, _, cells), dt in zip(log, scaled):
        lat, total = windows[w]
        lat.append(dt)
        windows[w] = (lat, total + cells)
    windows = [(lat, cells) for lat, cells in windows if lat]
    n = len(scaled)
    tail_pool = sorted(scaled[:WIDE_TAIL_OPS] if workload == "wide" else scaled)
    tail_index = max(len(tail_pool) - 11, 0)  # ten samples beyond it
    raw_seconds = sum(dt for _, _, dt, _ in log)
    summary = {
        "ops": n,
        "failed_frac": failed / n,
        "op_tail_percentile": round(100 * (tail_index + 1) / len(tail_pool), 2),
        "setup_samples": len(setup_times),
        "peak_rss_after_ops": rss_ops,
        "window_cells_per_s": [cells / sum(lat) for lat, cells in windows],
        "raw_cells_per_s": sum(cells for *_, cells in log) / raw_seconds,
        "raw_op_p50_ms": 1e3 * statistics.median(dt for _, _, dt, _ in log),
        "host_speed": track.speeds(),
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cells_per_s": (statistics.median(cells / sum(lat) for lat, cells in windows), "cells/s"),
        "op_p50_ms": (1e3 * statistics.median(statistics.median(lat) for lat, _ in windows), "ms"),
        "op_tail_ms": (1e3 * tail_pool[tail_index], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return finish(n, failed, messages, metrics, summary)


def traced_run(va, workload: str, seed: int, env: dict) -> dict:
    interp_s = statistics.median(sample_walls(["-c", "pass"], env, CONTEXT_REPEATS))
    probe = "import time; t = time.perf_counter(); import veryample.cli; print(time.perf_counter() - t)"
    run_python(["-c", probe], env).check_returncode()  # writes bytecode caches
    import_s = statistics.median(float(run_python(["-c", probe], env).stdout) for _ in range(CONTEXT_REPEATS))

    op_list = list(islice(workloads.ops(workload, seed), TRACED_CYCLES[workload] * workloads.CYCLE_LENGTH[workload]))
    # plain passes on both sides of the traced one, so that warm-up and a
    # drifting machine do not land on one side of trace.overhead_frac
    before, cells, _, _, _ = inprocess_pass(va, op_list)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, va):
        traced_wall, _, results, info, exits = inprocess_pass(va, op_list, tracer)
    plain_wall = (before + inprocess_pass(va, op_list)[0]) / 2
    tracer.write(TRACE_DIR / f"{workload}.spans.tsv")

    metrics = {
        "cli.interp_start_ms": 1e3 * interp_s,
        "cli.import_ms": 1e3 * import_s,
        "cli.seq_cells_per_s": cells / plain_wall,
        "cli.exit_2": exits[2],
        "cli.exit_3": exits[3],
        "engine.twisted_hit_ratio": info[0] / max(info[0] + info[1], 1),
        "engine.subsets_hit_ratio": info[2] / max(info[2] + info[3], 1),
        "trace.overhead_frac": traced_wall / plain_wall - 1,
    }
    metrics.update(tracing.layer_metrics(tracer, len(op_list)))
    failed, messages = check_all(va, workload, seed, results)
    summary = {"ops": len(op_list), "failed_frac": failed / len(op_list), "spans": len(tracer.start)}
    return finish(len(op_list), failed, messages,
                  {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}, summary)


def finish(attempted: int, failed: int, messages: list[str], metrics: dict, summary: dict) -> dict:
    for message in messages[:20]:
        print(f"check failed: {message}")
    print("summary: " + json.dumps(summary))
    return {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "veryample" / "cli.py").is_file():
        print(f"error: no veryample source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import veryample as va
    import veryample.cli  # noqa: F401  (binds va.cli)

    if args.record_digests:
        digests = {w: reference_digest(va, w) for w in workloads.WORKLOADS}
        checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print("env: " + json.dumps(environment(args.seed)))
    env = child_env()
    if args.trace:
        result = traced_run(va, args.workload, args.seed, env)
    else:
        result = timed_run(va, args.workload, args.seed, args.seconds, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
