"""Serve one workload's operations to the frozen copy of spinhall.

    PYTHONPATH=bench/frozen python3 bench/reference.py <workload> <workspace>

Started by the benchmark, not by hand: it reads one JSON request
{"index", "op"} per line on stdin, runs the operation with the workload's
own runner (timing and checks as in the benchmark process) against the
`spinhall` on its PYTHONPATH, and answers {"seconds", "failures"} on one
line.  It exits when stdin closes.  Running the copy in its own process
keeps its imports and memory out of the benchmark process's figures.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path


def main() -> int:
    workload, workspace = sys.argv[1], Path(sys.argv[2])
    answers, sys.stdout = sys.stdout, sys.stderr  # nothing the program prints can corrupt an answer

    from inputs import load_reference
    from workloads import FROZEN, RUNNERS, make_context

    ctx = make_context(FROZEN, workspace, load_reference())
    runner = RUNNERS[workload]
    for line in sys.stdin:
        request = json.loads(line)
        try:
            outcome = runner(ctx, request["index"], request["op"])
        except Exception as exc:
            traceback.print_exc()
            outcome = {"seconds": float("nan"), "failures": [f"{type(exc).__name__}: {exc}"]}
        answers.write(json.dumps({"seconds": outcome["seconds"], "failures": outcome["failures"]}) + "\n")
        answers.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
