"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 gdibench/run.py --workload oltp-linkbench --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload (see ``gdibench/pipeline.py``)
on the inputs of ``--seed`` until ``--seconds`` of wall time have passed,
and reports each metric as its median over the rounds.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds, prints the per-layer metrics of the traced ones and the
tracing overhead, and writes every span to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's report (seed, host, per-operation counts, sample counts and,
traced, the self time of every layer on both clocks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gdibench.hostspeed import HostSpeed  # noqa: E402
from gdibench.pipeline import WORKLOADS, run_round  # noqa: E402

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    # One CPU for the whole run: the rank threads share one interpreter
    # lock anyway, and spread over two virtual CPUs every hand-off of the
    # lock or of a scheduler grant could wait for a CPU the hypervisor had
    # taken away.  Over six seeds on a 2-vCPU host the measured phases
    # took 13.5-17.9 s unpinned (100-705 ticks stolen) and 9.8-12.2 s
    # pinned (7-90 ticks).  Threads started later inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    units = metric_units("per_layer" if traced_run else "end_to_end")

    # started after the pinning, so the sampler shares the run's CPU
    speed = HostSpeed()
    try:
        start = perf_counter()
        rounds = []
        while True:
            # a traced run alternates untraced and traced rounds, so the
            # tracing overhead is measured inside one run on one host state
            traced = traced_run and len(rounds) % 2 == 1
            rounds.append(run_round(wl, args.seed, traced, speed))
            done = perf_counter() - start >= args.seconds
            if done and (not traced_run or len(rounds) >= 2):
                break
    finally:
        speed.close()

    plain = [r for r in rounds if r.recorder is None]
    measured = [r for r in rounds if r.recorder is not None] if traced_run else plain
    values: dict[str, float] = {}
    if traced_run:
        for name in units:
            if name == "trace.overhead_host_s":
                continue
            values[name] = statistics.median(r.layers[name] for r in measured)
        values["trace.overhead_host_s"] = statistics.median(
            r.metrics["run_host_s"] for r in measured
        ) - statistics.median(r.metrics["run_host_s"] for r in plain)
    else:
        for name in units:
            values[name] = statistics.median(r.metrics[name] for r in measured)
        # the process's high-water mark is clean only in the first round:
        # each later round's reading carries the checks of the rounds
        # before it (the final-state read-back raised it by ~50 MB)
        values["peak_rss_mb"] = rounds[0].metrics["peak_rss_mb"]

    ops: dict[str, list[int]] = {}
    for r in rounds:
        for kind, (a, f) in r.ops.items():
            ops.setdefault(kind, [0, 0])
            ops[kind][0] += a
            ops[kind][1] += f
    problems = sorted({p for r in rounds for p in r.problems})
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(rounds) - len(plain),
        "nproc": os.cpu_count(),
        # the run is pinned: the CPUs its threads could use
        "cpus_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(ops.items())},
        "samples_per_round": rounds[0].samples,
        "phase_host_s": [
            {k: round(v, 3) for k, v in r.phase_host_s.items()} for r in rounds
        ],
        "problems": problems,
    }
    if traced_run:
        report["self_time"] = measured[0].self_times
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        path.unlink(missing_ok=True)
        for i, r in enumerate(measured):
            r.recorder.dump(path, {**report, "round": i})
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
