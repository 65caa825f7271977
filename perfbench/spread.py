"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

Run from the repository root:

    python3 perfbench/spread.py --workload mc-400 --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median over the runs and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread is flagged when it is not below a third of the
metric's bound. ``--save`` writes every run's metrics to a JSON file;
``--against`` reads such a file and also prints how far this set's median
moved from that set's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workload:
        runs[workload] = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: outputs not correct or ops failed")
            runs[workload].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[workload][-1].items()), flush=True)
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    worst = 0.0
    for workload, rows in runs.items():
        print(f"\n{workload}: {len(rows)} runs")
        for metric, (bound, better) in bounds.items():
            values = [r[metric] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else "  <-- not below bound/3"
            line = f"  {metric:18s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}"
            if workload in before:
                old = statistics.median(r[metric] for r in before[workload])
                worse = (med - old) / old if better == "lower" else (old - med) / old
                line += f"  worse than before by {worse:+.4f}" + ("  <-- over bound" if worse > bound else "")
            print(line)
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
