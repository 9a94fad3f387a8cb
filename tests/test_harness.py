"""The test harness itself: child processes import this checkout's package,
and every name the benchmark reaches exists on it."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import spinhall

CHECKOUT = Path(__file__).resolve().parent.parent
CHECKOUT_PACKAGE = CHECKOUT / "src" / "spinhall"
BENCH = CHECKOUT / "bench"


def test_child_process_imports_the_checkout_spinhall(tmp_path):
    # the CLI tests start `python -m spinhall` from a temporary directory with
    # the inherited environment; they must run this checkout's code
    result = subprocess.run(
        [sys.executable, "-c", "import spinhall; print(spinhall.__file__)"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    imported = Path(result.stdout.strip()).resolve()
    assert imported.is_relative_to(CHECKOUT_PACKAGE), f"{imported} is not under {CHECKOUT_PACKAGE}"


# the benchmark is read as source, never imported, so that the test leaves
# bench/ as it found it
def _bench_boundaries():
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no BOUNDARIES")


def test_every_bench_boundary_exists():
    boundaries = _bench_boundaries()
    assert boundaries
    missing = [(m, a) for m, a, _ in boundaries if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_every_name_bench_imports_from_the_package_is_public():
    submodules = {path.stem for path in CHECKOUT_PACKAGE.glob("*.py")}
    imported = {
        alias.name
        for path in BENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "spinhall"
        for alias in node.names
    }
    assert imported - submodules
    assert sorted(imported - submodules - set(spinhall.__all__)) == []


def test_public_surface_is_pinned():
    assert spinhall.__all__ == [
        "BeamSpec", "DegenerateGeometryError", "Kinematics", "Layer", "PRESET_NAMES",
        "QwParams", "ResolutionError", "Scenario", "SingularParameterError", "Stack",
        "SweepRow", "SweepSpec", "build_stack", "centroid_shift_oracle", "find_resonance",
        "permittivity", "preset", "reflection_pair", "run_sweep", "susceptibility",
        "susceptibility_from_steady_state", "transverse_shifts",
    ]
    # names dropped from the top level stay importable from their modules
    for module, name in [
        ("presets", "DEFAULT_LAMBDA_UM"), ("qw_medium", "DecayBundle"),
        ("strata", "ReflectionPair"), ("sweep", "ResonanceResult"), ("shifts", "ShiftResult"),
        ("qw_medium", "Susceptibility"), ("shifts", "circular_centroids"),
        ("qw_medium", "derived_rates"), ("qw_medium", "steady_state_coherences"),
    ]:
        assert hasattr(importlib.import_module(f"spinhall.{module}"), name)
        assert not hasattr(spinhall, name)
