"""Steadiness of the end-to-end metrics across seeds.

Usage (from the repository root)::

    python3 gdibench/steadiness.py --runs 10 [--workload NAME ...]

Runs each workload ``--runs`` times for ``BENCHMARK.json``'s
``run_seconds``, with seeds 1 to ``--runs``, and prints for every
end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``), and its spread
(the interquartile distance as a share of the median) next to the bound
``BENCHMARK.json`` gives it.  It also prints the share of failed
operations of each run.  It retries nothing and applies no noise floor:
every run counts.  The full table is also written to
``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "gdibench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    table = {}
    for wl in args.workload or names:
        runs = [
            run_once(wl, seed, spec["run_seconds"]) for seed in range(1, args.runs + 1)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{wl}: failed share per run {shares}")
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": values,
            }
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(
                f"  {m['name']:18s} median {med:14.4f} {m['unit']:7s} "
                f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:7.2%} "
                f"bound {m['bound']:.0%}{flag}"
            )
        table[wl] = {"failed_shares": shares, "metrics": rows}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
