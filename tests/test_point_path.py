"""The point path: `_point_sweep` computes every CLI sweep, whatever its
size, in Python and `_refine_resonance` every CLI resonance search, so no CLI
run imports numpy.  The rows agree with `run_sweep`'s to rounding, and failed
rows exactly.

The import checks run in child interpreters, since this process has numpy
loaded for its own references.
"""

import json
import math
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from spinhall.cli import write_csv
from spinhall.config import config_from_scenario, scenario_from_config
from spinhall.presets import PRESET_NAMES, preset
from spinhall.qw_medium import DecayBundle, QwParams, SingularParameterError, susceptibility
from spinhall.shifts import BeamSpec, _principal_phase, centroid_shift_oracle, ratio, transverse_shifts
from spinhall.strata import Kinematics, Layer, reflection_pair
from spinhall.sweep import (
    SweepRow, SweepSpec, _linspace, _point_sweep, _refine_resonance, build_stack, find_resonance, run_sweep,
    sweep_point,
)

THETA_PRESETS = [name for name in PRESET_NAMES if preset(name)[1].variable == "theta"]
DATA = SweepRow._fields[1:9]
# largest relative gap between the two paths on the nine presets' rows, measured
# on a 2-vCPU x86-64 guest with AVX-512 (numpy 2.4): 2.5e-10 on fig6b
# delta_h_plus_lambda and 1.0e-10 on fig5c phi_m, both at the TM extinction.
# It comes from numpy's fused complex multiply-adds and its SIMD arctan2 and tan,
# so it depends on the CPU; the bound leaves 4x
ROW_RTOL = 1e-9
# the sweep sizes above which the CLI once ran run_sweep instead of _point_sweep
FORMER_BATCH_LIMIT = {"theta": 10000, "omega_c": 4500, "delta": 4500}


def numpy_modules(log: str) -> list[str]:
    """Modules of the numpy package in a `python -X importtime` log."""
    names = (line.rpartition("|")[2].strip() for line in log.splitlines() if line.startswith("import time:"))
    return [name for name in names if name.partition(".")[0] == "numpy"]


def gap(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


class TestNoNumpy:
    def test_importing_the_package_and_the_cli(self, tmp_path):
        code = ("import sys, spinhall, spinhall.cli, spinhall.__main__\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n")
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_the_point_api_runs_where_numpy_cannot_be_imported(self, tmp_path):
        # numpy is a test dependency only: with its import blocked the point
        # functions give this process's values, and each array function
        # raises ModuleNotFoundError for numpy
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from dataclasses import replace\n"
            "from spinhall import (BeamSpec, Kinematics, build_stack, centroid_shift_oracle, find_resonance,\n"
            "                      preset, reflection_pair, run_sweep, susceptibility,\n"
            "                      susceptibility_from_steady_state, transverse_shifts)\n"
            "from spinhall.qw_medium import steady_state_coherences, susceptibility_grid\n"
            "from spinhall.strata import reflection_arrays\n"
            "from spinhall.sweep import _layers\n"
            "scenario, spec = preset('fig2')\n"
            "chi = susceptibility(scenario.qw).chi\n"
            "stack = build_stack(scenario, chi)\n"
            "kin = Kinematics(scenario.lambda_um, 0.979)\n"
            "pair = reflection_pair(stack, kin)\n"
            "print(repr((chi, pair, transverse_shifts(pair, scenario.lambda_um, 0.979),\n"
            "            centroid_shift_oracle(stack, kin, BeamSpec(waist_um=925.0)))))\n"
            "calls = {\n"
            "    'run_sweep': lambda: run_sweep(scenario, replace(spec, samples=11)),\n"
            "    'find_resonance': lambda: find_resonance(scenario, (0.9, 1.05)),\n"
            "    'reflection_arrays': lambda: reflection_arrays(_layers(scenario, chi), 1.85, [0.9, 1.0]),\n"
            "    'susceptibility_grid': lambda: susceptibility_grid(scenario.qw, 'omega_c', [0.0, 1.0]),\n"
            "    'steady_state_coherences': lambda: steady_state_coherences(scenario.qw, 1e-3),\n"
            "    'susceptibility_from_steady_state': lambda: susceptibility_from_steady_state(scenario.qw),\n"
            "}\n"
            "for name, call in calls.items():\n"
            "    try:\n"
            "        call()\n"
            "    except ModuleNotFoundError as exc:\n"
            "        print(name, exc.name)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        scenario = preset("fig2")[0]
        chi = susceptibility(scenario.qw).chi
        stack = build_stack(scenario, chi)
        kin = Kinematics(scenario.lambda_um, 0.979)
        pair = reflection_pair(stack, kin)
        want = (chi, pair, transverse_shifts(pair, scenario.lambda_um, 0.979),
                centroid_shift_oracle(stack, kin, BeamSpec(waist_um=925.0)))
        assert result.stdout.splitlines() == [repr(want)] + [
            f"{name} numpy" for name in ("run_sweep", "find_resonance", "reflection_arrays", "susceptibility_grid",
                                         "steady_state_coherences", "susceptibility_from_steady_state")
        ]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_preset_run(self, tmp_path, name):
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinhall", "--preset", name],
                                cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "import time:" in result.stderr and numpy_modules(result.stderr) == []

    @pytest.mark.parametrize("name", ["fig4", "fig5a"])
    def test_a_resonance_window_run(self, tmp_path, name):
        # a --find-resonance window is searched on the point path, as find_resonance searches it
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinhall", "--preset", name,
                                 "--find-resonance", "0.9,1.05", "--format", "json", "--out", "run.json"],
                                cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "import time:" in result.stderr and numpy_modules(result.stderr) == []
        found = json.loads((tmp_path / "run.json").read_text())["resonance"]
        scanned = find_resonance(preset(name)[0], (0.9, 1.05))
        assert (found["theta_star"], found["boundary"]) == (scanned.theta_star, scanned.boundary)
        assert found["ratio_em_peak"] == pytest.approx(scanned.ratio_em_peak, rel=1e-9)

    @pytest.mark.parametrize("name", ["fig2", "fig5a"])
    def test_an_oracle_spot_check_run(self, tmp_path, name):
        # a beam with a waist adds the centroid oracle at the h peak row, which
        # runs on the point kernel as the sweep does
        config = {"preset": name, "beam": {"waist_um": 925.0}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinhall", "--config", "config.json",
                                 "--format", "json", "--out", "run.json"], cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "import time:" in result.stderr and numpy_modules(result.stderr) == []
        found = json.loads((tmp_path / "run.json").read_text())["oracle"]
        scenario, spec = scenario_from_config(config)
        qw, theta = sweep_point(scenario, spec, found["swept"])
        stack = build_stack(scenario, susceptibility(qw).chi)
        want = centroid_shift_oracle(stack, Kinematics(scenario.lambda_um, theta), scenario.beam)
        assert (found["oracle_h"], found["oracle_v"]) == want

    @pytest.mark.parametrize("name", ["fig2", "fig5a", "fig5c"])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_row_count_picks_the_path(self, tmp_path, name, extra):
        # at any row count the CLI writes _point_sweep's rows without numpy,
        # also at and just above the sizes where it once switched to run_sweep,
        # and a theta sweep's rows seed the point-path resonance search over
        # its own range
        scenario, spec = preset(name)
        spec = replace(spec, samples=FORMER_BATCH_LIMIT[spec.variable] + extra)
        (tmp_path / "config.json").write_text(json.dumps({"preset": name, **config_from_scenario(scenario, spec)}))
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinhall", "--config", "config.json",
                                 "--out", "run.csv"], cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "import time:" in result.stderr and numpy_modules(result.stderr) == []
        rows = _point_sweep(scenario, spec)
        write_csv(rows, tmp_path / "want.csv")
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        want = None
        if spec.variable == "theta":
            want = _refine_resonance(scenario, (spec.lo, spec.hi), rows)._asdict()
        assert json.loads((tmp_path / "run.json").read_text())["resonance"] == want


class TestPointRows:
    def test_grid_is_numpys(self):
        rng = random.Random(5)
        cases = [(0.1, 1.5, 2001), (0.0, 6.0, 601), (5e-324, 1.5e-323, 7), (-1e-310, 1e-310, 9)]
        cases += [(lo, lo + rng.expovariate(1.0), rng.randint(2, 5000))
                  for lo in (rng.uniform(-10.0, 10.0) for _ in range(200))]
        for lo, hi, n in cases:
            assert _linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_rows_match_the_batch(self, name):
        point, batch = _point_sweep(*preset(name)), run_sweep(*preset(name))
        assert [row.value for row in point] == [row.value for row in batch]
        assert [row[9:] for row in point] == [row[9:] for row in batch]
        assert all(type(row) is SweepRow and type(row.re_abs) is float for row in point)
        worst = max(gap(a, b) for p, q in zip(point, batch) for a, b in zip(p[1:9], q[1:9]))
        assert worst <= ROW_RTOL

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_gaps_above_1e_10_are_the_batchs_rounding(self, name):
        # where the two paths part by more than 1e-10, the point value is no
        # farther than the batch value from a 50-digit evaluation
        mp = pytest.importorskip("mpmath")
        scenario, spec = preset(name)
        for p, q in zip(_point_sweep(scenario, spec), run_sweep(scenario, spec)):
            fields = [f for f, a, b in zip(DATA, p[1:9], q[1:9]) if gap(a, b) > 1e-10]
            if fields:
                with mp.workdps(50):
                    exact = mp_row(mp, scenario, spec, p.value)
                    for f in fields:
                        point_error, batch_error = abs(getattr(p, f) - exact[f]), abs(getattr(q, f) - exact[f])
                        assert point_error <= batch_error, (name, p.value, f)

    @pytest.mark.parametrize("scenario, spec, failed", [
        (replace(preset("fig2")[0], qw=replace(preset("fig2")[0].qw, beta=1e300)), preset("fig2")[1], 2001),
        (replace(preset("fig5c")[0], qw=replace(preset("fig5c")[0].qw, omega_c=0.0, gamma_dl=0.0, gamma_dd=0.0)),
         preset("fig5c")[1], 601),
        (preset("fig2")[0], SweepSpec("omega_c", -1.0, 1.0, 5, fixed={"theta": 0.979}), 2),
        (replace(preset("fig2")[0], qw=replace(preset("fig2")[0].qw, omega_c=1e200)), preset("fig2")[1], 2001),
        (replace(preset("fig2")[0], qw=replace(preset("fig2")[0].qw, **dict.fromkeys(
            ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd", "delta"), 0.0))),
         SweepSpec("theta", 0.3, 1.2, 7), 7),
        (replace(preset("fig5a")[0], qw=replace(preset("fig5a")[0].qw, f=1e300)), preset("fig5a")[1], 601),
        (replace(preset("fig2")[0], lambda_um=1e-160), preset("fig2")[1], 2001),
    ], ids=["overflow", "singular-delta", "negative-omega_c", "nan-chi", "singular-medium",
            "overflowing-dipole-ratio", "overflowing-k-squared"])
    def test_failed_rows_equal_the_batchs(self, scenario, spec, failed):
        point, batch = _point_sweep(scenario, spec), run_sweep(scenario, spec)
        assert [row[9:] for row in point] == [row[9:] for row in batch]
        failures = [(p, q) for p, q in zip(point, batch) if p.error is not None]
        assert len(failures) == failed
        assert all(repr(p) == repr(q) for p, q in failures)


def mp_row(mp, scenario, spec, value) -> dict:
    """The row's data fields in mpmath at the working precision: the closed-form
    susceptibility, the row vector through the layer matrices, and the shifts."""
    qw, theta = sweep_point(scenario, spec, value)
    f = mp.mpf
    gamma2, gamma3 = f(qw.gamma_bl) + f(qw.gamma_bd), f(qw.gamma_cl) + f(qw.gamma_cd)
    gamma4, alpha = f(qw.gamma_dl) + f(qw.gamma_dd), mp.sqrt(f(qw.gamma_bl) * f(qw.gamma_cl))
    g, fr, delta, oc2, i = f(qw.g), f(qw.f), f(qw.delta), f(qw.omega_c) ** 2, mp.mpc(0, 1)
    a1 = -i * delta + i * g * g * delta + 2 * g * alpha + gamma2 + g * g * gamma3
    a2 = delta * delta - alpha * alpha - i * delta * gamma3 + gamma2 * (i * delta + gamma3)
    a3 = -i * delta + i * fr * fr * delta + 2 * fr * alpha + gamma2 + fr * fr * gamma3
    chi = i * f(qw.beta) * (a1 * gamma4 + (fr - g) ** 2 * oc2) / (a2 * gamma4 + a3 * oc2)
    theta = f(theta)
    k = 2 * mp.pi / f(scenario.lambda_um)
    k_z, q0 = k * mp.sin(theta), mp.cos(theta)
    rows = {"e": [-q0, f(1)], "m": [-q0, f(1)]}
    for epsilon, d in ((mp.mpc(scenario.epsilon1), scenario.d1_um), (1 + chi, scenario.d2_um),
                       (mp.mpc(scenario.epsilon3), scenario.d1_um)):
        kx, d = mp.sqrt(epsilon * k ** 2 - k_z ** 2), f(d)
        c, s = mp.cos(kx * d), mp.sin(kx * d)
        m12, m21 = i * k * (s / kx if kx else d), i * kx * s / k
        for polarization, (w1, w2) in rows.items():
            e12, e21 = (m12, m21) if polarization == "e" else (epsilon * m12, m21 / epsilon)
            rows[polarization] = [w1 * c + w2 * e21, w1 * e12 + w2 * c]
    r_e, r_m = ((w1 + q0 * w2) / (q0 * w2 - w1) for w1, w2 in rows.values())
    phi_e, phi_m = mp.arg(r_e), mp.arg(r_m)
    scale = -mp.cot(theta) / (2 * mp.pi)
    return {
        "re_abs": abs(r_e), "rm_abs": abs(r_m), "ratio_em": abs(r_e) / abs(r_m), "ratio_me": abs(r_m) / abs(r_e),
        "phi_e": phi_e, "phi_m": phi_m,
        "delta_h_plus_lambda": scale * (1 + abs(r_e) / abs(r_m) * mp.cos(phi_e - phi_m)),
        "delta_v_plus_lambda": scale * (1 + abs(r_m) / abs(r_e) * mp.cos(phi_m - phi_e)),
    }


def per_point_rows(scenario, spec) -> list[SweepRow]:
    """`_point_sweep`'s rows through the public per-point calls, rebuilding
    everything at every row: `sweep_point`, `susceptibility`, `build_stack`,
    `reflection_pair` on a `Kinematics` and `transverse_shifts`."""
    rows = []
    for value in _linspace(spec.lo, spec.hi, spec.samples):
        try:
            qw, theta = sweep_point(scenario, spec, value)
            kin = Kinematics(scenario.lambda_um, theta)
            r_e, r_m = pair = reflection_pair(build_stack(scenario, susceptibility(qw).chi), kin)
            shifts = transverse_shifts(pair, scenario.lambda_um, theta)
            re_abs, rm_abs = abs(r_e), abs(r_m)
            rows.append(SweepRow(value, re_abs, rm_abs, ratio(re_abs, rm_abs), ratio(rm_abs, re_abs),
                                 _principal_phase(r_e), _principal_phase(r_m),
                                 shifts.delta_h_plus, shifts.delta_v_plus,
                                 shifts.h_singular, shifts.v_singular))
        except Exception as exc:
            rows.append(SweepRow(value, *(math.nan,) * 8, True, True, f"{type(exc).__name__}: {exc}"))
    return rows


def with_qw(name, **fields):
    scenario, spec = preset(name)
    return replace(scenario, qw=replace(scenario.qw, **fields)), spec


class TestPerSweepWork:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_rows_are_the_per_point_rows(self, name):
        assert repr(_point_sweep(*preset(name))) == repr(per_point_rows(*preset(name)))

    @pytest.mark.parametrize("scenario, spec, error, failed", [
        (*with_qw("fig5c", omega_c=0.0, gamma_dl=0.0, gamma_dd=0.0), "SingularParameterError", 601),
        (preset("fig5a")[0], replace(preset("fig5a")[1], lo=-2.0, hi=3.0), "ValueError", 240),
        (*with_qw("fig5a", beta=1e300), "OverflowError", 601),
        (*with_qw("fig2", beta=1e300), "OverflowError", 2001),
    ], ids=["singular-delta", "negative-omega_c", "overflow-omega_c", "overflow-theta"])
    def test_failed_rows_are_the_per_point_rows(self, scenario, spec, error, failed):
        rows = _point_sweep(scenario, spec)
        assert repr(rows) == repr(per_point_rows(scenario, spec))
        errors = [row.error for row in rows if row.error is not None]
        assert len(errors) == failed and all(e.startswith(error + ": ") for e in errors)
        if error != "OverflowError":  # each row's text names its own value
            assert len(set(errors)) == failed

    @staticmethod
    def count_builds(monkeypatch, cls, log):
        if issubclass(cls, tuple):  # a NamedTuple is built by its __new__
            new = cls.__new__

            def counted_new(cls_, *args, **kwargs):
                log.append(new(cls_, *args, **kwargs))
                return log[-1]

            monkeypatch.setattr(cls, "__new__", staticmethod(counted_new))
        else:
            init = cls.__init__

            def counted(self, *args, **kwargs):
                log.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

    @pytest.mark.parametrize("name", ["fig2", "fig5a", "fig5c"])
    def test_a_row_rebuilds_only_what_its_value_changes(self, monkeypatch, name):
        # the walls and decay rates are built once per sweep, an omega_c or
        # delta row builds only its middle layer and no medium, and a theta
        # row no Kinematics
        scenario, spec = preset(name)
        built = {cls: [] for cls in (QwParams, Layer, Kinematics, DecayBundle)}
        for cls, log in built.items():
            self.count_builds(monkeypatch, cls, log)
        rows = _point_sweep(scenario, spec)
        assert all(row.error is None for row in rows)
        walls = [layer for layer in built[Layer] if layer.thickness_um == scenario.d1_um]
        assert len(walls) == 2 and len(built[Layer]) == 2 + (1 if spec.variable == "theta" else spec.samples)
        assert built[QwParams] == [] and built[Kinematics] == []
        assert len(built[DecayBundle]) == 1


class TestRefineResonance:
    @pytest.mark.parametrize("name", THETA_PRESETS)
    def test_matches_find_resonance_and_the_rows(self, name):
        scenario, spec = preset(name)
        rows = _point_sweep(scenario, spec)
        seeded = _refine_resonance(scenario, (spec.lo, spec.hi), rows)
        scanned = find_resonance(scenario, (spec.lo, spec.hi))
        # measured: <= 8.9e-9 rad and <= 5.8e-8 relative (fig3)
        assert seeded.boundary == scanned.boundary is False
        assert abs(seeded.theta_star - scanned.theta_star) <= 1e-7
        assert seeded.ratio_em_peak == pytest.approx(scanned.ratio_em_peak, rel=1e-6)
        usable = [(row.ratio_em, row.value) for row in rows
                  if not row.h_singular and row.error is None and math.isfinite(row.ratio_em)]
        peak, theta = max(usable)
        step = (spec.hi - spec.lo) / (spec.samples - 1)
        assert abs(seeded.theta_star - theta) <= step and seeded.ratio_em_peak >= peak

    @pytest.mark.parametrize("samples", [2, 20])
    def test_a_coarse_sweep_finds_the_interior_peak(self, tmp_path, samples):
        # fewer rows than find_resonance's coarse scan: the CLI scans the range
        # on the point path instead of missing the narrow fig2 peak
        scenario, spec = preset("fig2")
        spec = replace(spec, samples=samples)
        (tmp_path / "config.json").write_text(json.dumps({"preset": "fig2", **config_from_scenario(scenario, spec)}))
        result = subprocess.run([sys.executable, "-m", "spinhall", "--config", "config.json", "--out", "run.csv"],
                                cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        found = json.loads((tmp_path / "run.json").read_text())["resonance"]
        scanned = find_resonance(scenario, (spec.lo, spec.hi))
        assert found["boundary"] == scanned.boundary is False
        assert abs(found["theta_star"] - scanned.theta_star) <= 1e-7
        assert found["ratio_em_peak"] == pytest.approx(scanned.ratio_em_peak, rel=1e-6)

    def test_any_window_matches_find_resonance(self):
        # without rows the search scans the window itself; measured on the nine
        # presets: theta_star and boundary identical, peaks within 3.5e-13 relative
        rng = random.Random(25)
        for name in PRESET_NAMES:
            scenario = preset(name)[0]
            for _ in range(4):
                lo = rng.uniform(0.05, 1.4)
                window = (lo, rng.uniform(lo + 1e-3, min(lo + 0.4, 1.55)))
                searched, scanned = _refine_resonance(scenario, window, []), find_resonance(scenario, window)
                assert searched.boundary == scanned.boundary, (name, window)
                assert abs(searched.theta_star - scanned.theta_star) <= 1e-7, (name, window)
                assert searched.ratio_em_peak == pytest.approx(scanned.ratio_em_peak, rel=1e-9), (name, window)

    @pytest.mark.parametrize("window", [(0.0, 1.0), (1.0, 0.9), (0.5, math.pi / 2)])
    def test_a_window_outside_the_angles_raises_as_find_resonance_does(self, window):
        scenario = preset("fig2")[0]
        with pytest.raises(ValueError) as searched:
            _refine_resonance(scenario, window, [])
        with pytest.raises(ValueError) as scanned:
            find_resonance(scenario, window)
        assert str(searched.value) == str(scanned.value)

    def test_a_singular_medium_raises_before_the_rows_are_read(self):
        scenario, spec = preset("fig2")
        rates = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd", "delta")
        scenario = replace(scenario, qw=replace(scenario.qw, **dict.fromkeys(rates, 0.0)))
        rows = _point_sweep(scenario, spec)
        assert all(row.error.startswith("SingularParameterError: ") for row in rows)
        with pytest.raises(SingularParameterError) as seeded:
            _refine_resonance(scenario, (spec.lo, spec.hi), rows)
        with pytest.raises(SingularParameterError) as scanned:
            find_resonance(scenario, (spec.lo, spec.hi))
        assert str(seeded.value) == str(scanned.value)

    def test_declines_as_find_resonance_does(self):
        scenario, spec = preset("fig2")
        scenario, spec = replace(scenario, qw=replace(scenario.qw, omega_c=1e200)), replace(spec, samples=11)
        with pytest.raises(ValueError) as seeded:
            _refine_resonance(scenario, (spec.lo, spec.hi), _point_sweep(scenario, spec))
        with pytest.raises(ValueError) as scanned:
            find_resonance(scenario, (spec.lo, spec.hi))
        assert type(seeded.value) is type(scanned.value) is ValueError
        assert str(seeded.value) == str(scanned.value)
