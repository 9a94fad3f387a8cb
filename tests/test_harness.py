"""The test harness itself: child processes import this checkout's package,
and every name the benchmark reaches exists on it."""

import ast
import importlib
import json
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
        "QwParams", "ResolutionError", "Scenario", "SingularParameterError",
        "SweepRow", "SweepSpec", "build_stack", "centroid_shift_oracle", "find_resonance",
        "permittivity", "preset", "reflection_pair", "run_sweep", "susceptibility",
        "susceptibility_from_steady_state", "transverse_shifts",
    ]
    # names dropped from the top level stay importable from their modules
    for module, name in [
        ("presets", "DEFAULT_LAMBDA_UM"), ("qw_medium", "DecayBundle"),
        ("sweep", "ResonanceResult"), ("shifts", "ShiftResult"),
        ("qw_medium", "Susceptibility"), ("qw_medium", "derived_rates"),
        ("qw_medium", "steady_state_coherences"),
    ]:
        assert hasattr(importlib.import_module(f"spinhall.{module}"), name)
        assert not hasattr(spinhall, name)
    # `reflection_pair` returns the tuple (r_e, r_m), with no pair class
    assert not hasattr(importlib.import_module("spinhall.strata"), "ReflectionPair")
    # `_centroids` is the one centroid formula, with no public wrapper
    assert not hasattr(importlib.import_module("spinhall.shifts"), "circular_centroids")


def test_import_builds_only_the_introspected_dataclasses():
    # a frozen dataclass costs several times a NamedTuple to create at import;
    # the unchecked records that nothing reads through `dataclasses` are NamedTuples
    code = (
        "import dataclasses, json\n"
        "seen, process = [], dataclasses._process_class\n"
        "def record(cls, *args, **kwargs):\n"
        "    seen.append(cls.__name__)\n"
        "    return process(cls, *args, **kwargs)\n"
        "dataclasses._process_class = record\n"
        "import spinhall.cli\n"
        "print(json.dumps(sorted(seen)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    dataclasses = ["BeamSpec", "Kinematics", "Layer", "QwParams", "Scenario", "SweepSpec"]
    assert json.loads(result.stdout) == dataclasses
    for module, name, fields in [
        ("shifts", "ShiftResult", ("delta_h_plus", "delta_v_plus", "lambda_um", "h_singular", "v_singular")),
        ("sweep", "ResonanceResult", ("theta_star", "ratio_em_peak", "boundary")),
        ("qw_medium", "Susceptibility", ("chi",)),
        ("qw_medium", "DecayBundle", ("gamma2", "gamma3", "gamma4", "alpha", "p")),
    ]:
        cls = getattr(importlib.import_module(f"spinhall.{module}"), name)
        assert issubclass(cls, tuple) and cls._fields == fields
