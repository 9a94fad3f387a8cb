"""Regenerate reference/presets.json: sampled CSV rows and the JSON
resonance of all nine presets, as the CLI writes them.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known good: the benchmark fails
any later commit whose rows drift from this table by more than 1e-10
relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import read_csv  # noqa: E402
from inputs import PRESETS, REFERENCE_FILE  # noqa: E402


def sampled_indices(rows: list[list[str]], col: dict) -> list[int]:
    """~40 evenly spaced rows plus the rows around the unflagged ratio peak."""
    n = len(rows)
    picked = set(range(0, n, max(1, n // 40))) | {n - 1}
    usable = [i for i, r in enumerate(rows) if not r[col["flags"]]]
    peak = max(usable, key=lambda i: float(rows[i][col["ratio_em"]]))
    picked |= {i for i in range(peak - 2, peak + 3) if 0 <= i < n}
    return sorted(picked)


def main() -> int:
    from spinhall import cli

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_tmp"))
    table = {}
    try:
        for name in PRESETS:
            csv_path = work / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--preset", name, "--out", str(csv_path)]) != 0:
                    raise SystemExit(f"preset {name} failed")
            header, rows = read_csv(csv_path)
            summary = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
            col = {c: i for i, c in enumerate(header)}
            table[name] = {
                "variable": summary["sweep"]["variable"],
                "samples": summary["rows"],
                "columns": header,
                "rows": {str(i): rows[i] for i in sampled_indices(rows, col)},
                "resonance": summary["resonance"],
            }
    finally:
        shutil.rmtree(work)
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
