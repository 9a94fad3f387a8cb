"""Tests of the benchmark itself: seeded inputs are deterministic, and a
corrupted output or a nonzero exit counts as a failed operation.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import spinhall.cli  # noqa: E402
from checks import check_cli_outputs, read_csv  # noqa: E402
from inputs import GENERATORS, load_reference  # noqa: E402
from workloads import RUNNERS, cli_subprocess_op, frozen_runner, make_context, measure, tail  # noqa: E402


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    generate = GENERATORS[workload]
    assert generate(7, 2) == generate(7, 2)
    assert generate(7, 2) != generate(8, 2)


@pytest.fixture(scope="module")
def fig5a_outputs(tmp_path_factory):
    csv_path = tmp_path_factory.mktemp("fig5a") / "fig5a.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert spinhall.cli.main(["--preset", "fig5a", "--out", str(csv_path)]) == 0
    return csv_path


def _rewrite(src: Path, dst: Path, edit) -> Path:
    header, rows = read_csv(src)
    edit(rows)
    dst.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")
    dst.with_suffix(".json").write_text(src.with_suffix(".json").read_text(encoding="utf-8"), encoding="utf-8")
    return dst


def test_reference_outputs_pass(fig5a_outputs):
    assert check_cli_outputs("fig5a", 0, fig5a_outputs, load_reference()) == []


def test_corrupted_csv_row_fails(fig5a_outputs, tmp_path):
    reference = load_reference()
    index = int(next(iter(reference["fig5a"]["rows"])))

    def corrupt(rows):
        rows[index][1] = repr(float(rows[index][1]) * (1 + 1e-8))

    bad = _rewrite(fig5a_outputs, tmp_path / "fig5a.csv", corrupt)
    assert check_cli_outputs("fig5a", 0, bad, reference)


def test_missing_row_fails(fig5a_outputs, tmp_path):
    bad = _rewrite(fig5a_outputs, tmp_path / "fig5a.csv", lambda rows: rows.pop())
    assert check_cli_outputs("fig5a", 0, bad, load_reference())


def test_nonzero_exit_fails(fig5a_outputs):
    assert check_cli_outputs("fig5a", 3, fig5a_outputs, load_reference())


def test_failing_child_counts_as_failed(tmp_path):
    fake = tmp_path / "fake" / "spinhall"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("raise SystemExit(3)\n")
    ctx = make_context(fake.parent, tmp_path, load_reference())
    outcome = cli_subprocess_op(ctx, 0, {"kind": "param_preset", "preset": "fig5a"})
    assert outcome["failures"] == ["fig5a: exit code 3"] and outcome["rows"] == 0


def test_tail_keeps_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_program_exception_counts_as_failed(tmp_path):
    ctx = make_context(SRC, tmp_path, load_reference())

    def broken(ctx, index, op):
        raise ValueError("broken")

    outcomes = measure(ctx, broken, [{"kind": "resonance"}], limit=2)
    assert [o["failures"] for o in outcomes] == [["ValueError: broken"]] * 2


def test_frozen_copy_times_the_same_operations(tmp_path):
    ctx = make_context(SRC, tmp_path, load_reference())
    ops = GENERATORS["oracle"](3, 0.05)[:2]
    with frozen_runner(ctx, "oracle") as frozen:
        outcomes = measure(ctx, RUNNERS["oracle"], ops, limit=2, frozen=frozen)
    assert [o["failures"] for o in outcomes] == [[], []]
    assert all(o["frozen_s"] > 0 for o in outcomes)


def test_frozen_copy_failure_counts_as_failed(tmp_path):
    ctx = make_context(SRC, tmp_path, load_reference())

    def program(ctx, index, op):
        return {"kind": op["kind"], "seconds": 1.0, "failures": [], "rows": 0, "rss_kb": 0}

    def frozen(ctx, index, op):
        return {"seconds": 1.0, "failures": ["broken"]}

    outcomes = measure(ctx, program, [{"kind": "resonance"}], limit=2, frozen=frozen)
    assert [o["failures"] for o in outcomes] == [["frozen copy: broken"]] * 2
