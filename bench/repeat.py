"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads presets_cli oracle --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --trajectory bench/trajectory.json --label <sha>

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
next to a third of the metric's bound in BENCHMARK.json.  With --trajectory
it appends one point (medians and quartiles per workload) to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trajectory", type=Path, help="append the medians to this JSON list")
    parser.add_argument("--label", default="", help="name of the trajectory point, e.g. a commit")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        correct = True
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            correct &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        print(f"{workload}: correct={correct}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(series)}
            limit = bounds[name] / 3
            worst = max(worst, spread / limit)
            print(f"  {name:18s} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} (bound/3={limit:.4f})")
        point["workloads"][workload] = {"correct": correct, "metrics": summary}
    print(f"worst spread as a share of bound/3: {worst:.2f}")
    if args.trajectory:
        history = json.loads(args.trajectory.read_text()) if args.trajectory.exists() else []
        history.append(point)
        args.trajectory.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
