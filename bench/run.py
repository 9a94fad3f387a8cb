"""spinhall benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload presets_cli --seed 1 --seconds 20 --trace 0

Workloads: presets_cli (the nine presets through `python -m spinhall`),
sweep_inproc (sweeps and resonance searches in one warm process) and oracle
(the angular-spectrum centroid oracle at seeded points).  With --trace 0 the
run measures the end-to-end metrics, each operation paired with the same
operation run by the frozen copy of spinhall under bench/frozen; with
--trace 1 it replays the same
operations in process with spans at each layer boundary and reports the
per-layer metrics.  Every output is checked; the report goes to stdout and
its last line is a JSON object {correct, attempted, failed, metrics}.

The program is imported from the `src` directory beside this one; nothing
is installed and every file the run writes goes to a temporary directory
under `.bench_tmp/` that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("presets_cli", "sweep_inproc", "oracle")


def _command(argv: list[str]) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT,
                              env={**os.environ, "LC_ALL": "C"})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def cpu_info() -> dict:
    """CPU model and cache sizes from lscpu, else /proc/cpuinfo (read only)."""
    info = {}
    for line in (_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    if "Model name" not in info:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "cache size"):
                    info.setdefault(key.strip(), value.strip())
        except OSError:
            pass
    return info


def provenance(seed: int) -> dict:
    import numpy

    top = _command(["git", "rev-parse", "--show-toplevel"])
    sha = dirty = None
    if top is not None and Path(top.strip()).resolve() == ROOT:
        sha = (_command(["git", "rev-parse", "HEAD"]) or "").strip() or None
        status = _command(["git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no"])
        dirty = None if status is None else bool(status.strip())
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinhall").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_info(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinhall" / "__init__.py").is_file():
        print(f"error: no spinhall package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()[0]

    from inputs import GENERATORS, load_reference
    from workloads import (GATED, RUNNERS, SETUP_CODE, end_to_end, frozen_runner, interpreter_s, make_context,
                           measure, traced_run)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workspace = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        ctx = make_context(SRC, workspace, load_reference())
        ops = GENERATORS[args.workload](args.seed, args.seconds)
        interpreter_s(ctx, SETUP_CODE)  # warm-up: byte-code and page caches
        if args.trace:
            outcomes, layer_metrics, spans = traced_run(ctx, args.workload, ops, args.seconds)
            metrics = {name: (value, unit, None, "") for name, (value, unit) in layer_metrics.items()}
        else:
            setup = []
            # the program and its frozen twin take turns on one CPU, so that a
            # ratio never compares two cores of different speed
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            with frozen_runner(ctx, args.workload) as frozen:
                outcomes = measure(ctx, RUNNERS[args.workload], ops, seconds=args.seconds, setup=setup,
                                   frozen=frozen)
            if args.workload == "presets_cli":
                peak_kb = max(o["rss_kb"] for o in outcomes)
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(args.workload, outcomes, setup, peak_kb / 1024.0)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        with contextlib.suppress(OSError):  # only if no other run is using it
            (ROOT / ".bench_tmp").rmdir()

    failed = [o for o in outcomes if o["failures"]]
    prov = {**provenance(args.seed), "load_1min_start": load_start, "load_1min_end": os.getloadavg()[0]}
    print(f"# spinhall benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit, count, note) in metrics.items():
        count_text = f"  n={count}" if count is not None else ""
        print(f"{name:40s} {value:>16.6g} {unit:6s}{count_text}  {note}".rstrip())
    if args.trace:
        for name, span in sorted(spans.items()):
            print(f"span {name:34s} calls={span['calls']:<8d} total_s={span['total_s']:<10.6g} "
                  f"self_s={span['self_s']:.6g}")
    for outcome in failed[:20]:
        print(f"FAILED {outcome['kind']}: " + "; ".join(outcome["failures"][:3]))
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items() if args.trace or name in GATED},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
