"""The process entry point `spinhall.__main__.run` and who may touch GC state.

`run` freezes the import-time heap out of the garbage collector; importing
`spinhall` or calling `cli.main` in process must not.  Every check runs in a
child interpreter, so a freeze cannot reach the test process's own heap.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def child(code, cwd, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, capture_output=True, text=True,
    )


def script_target() -> str:
    """The `spinhall` entry of [project.scripts], read as text (Python 3.10 has no tomllib)."""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert section is not None
    target = re.search(r'^spinhall\s*=\s*"([^"]+)"\s*$', section.group(1), re.MULTILINE)
    assert target is not None
    return target.group(1)


def test_importers_keep_their_gc_state(tmp_path):
    code = (
        "import gc, spinhall, spinhall.cli, spinhall.__main__\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
        "assert spinhall.cli.main(['--preset', 'fig5a', '--out', 'a.csv']) == 0\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
    )
    result = child(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 True", "wrote a.csv (601 rows)", "wrote a.json", "0 True"]


def test_importing_the_entry_point_runs_nothing(tmp_path):
    # with no --preset or --config, a CLI run would exit 2 from argparse
    result = child("from spinhall.__main__ import run", tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert list(tmp_path.iterdir()) == []


def test_run_freezes_and_runs_the_cli(tmp_path):
    code = (
        "import gc, sys\n"
        "from spinhall.__main__ import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, gc.get_freeze_count() > 0, gc.isenabled())\n"
    )
    result = child(code, tmp_path, "--preset", "fig5a", "--out", "f.csv", "--format", "csv")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["wrote f.csv (601 rows)", "0 True True"]
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 602


def test_a_bad_argv_still_exits_2(tmp_path):
    code = "import sys\nfrom spinhall.__main__ import run\nsys.exit(run(sys.argv[1:]))\n"
    for argv in (["--preset", "fig99"], ["--preset", "fig5a", "--find-resonance", "1.0,0.9"]):
        result = child(code, tmp_path, *argv)
        assert result.returncode == 2, (argv, result.stderr)
        assert result.stderr  # argparse usage or a config error line
    result = subprocess.run([sys.executable, "-m", "spinhall"], cwd=tmp_path,
                            capture_output=True, text=True)
    assert result.returncode == 2 and "one of the arguments" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_the_installed_script_enters_at_run(tmp_path):
    target = script_target()
    assert target == "spinhall.__main__:run"
    module, attr = target.split(":")
    code = (
        "import gc, importlib, sys\n"
        "entry = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])\n"
        "print(callable(entry), gc.get_freeze_count())\n"
    )
    result = child(code, tmp_path, module, attr)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True 0\n"
