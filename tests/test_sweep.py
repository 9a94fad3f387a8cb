"""Sweep grids, per-point degradation, determinism and resonance search."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from spinhall.presets import preset
from spinhall.qw_medium import QwParams, susceptibility
from spinhall.strata import _point_pair, reflection_arrays
from spinhall.shifts import transverse_shifts
from spinhall.sweep import (
    Scenario,
    SweepRow,
    SweepSpec,
    _TOL_RAD,
    _layers,
    _linspace,
    _refine_resonance,
    build_stack,
    find_resonance,
    run_sweep,
    sweep_point,
)

BREWSTER_222 = 0.97969212158629573  # atan(sqrt(2.22))


def base_qw(**overrides) -> QwParams:
    params = dict(
        gamma_bl=1.36, gamma_bd=0.68, gamma_cl=1.36, gamma_cd=0.8,
        gamma_dl=0.8, gamma_dd=0.5,
        beta=0.0184, g=-1.0, f=1.0, delta=2.0, omega_c=0.0,
    )
    params.update(overrides)
    return QwParams(**params)


def base_scenario(**overrides) -> Scenario:
    kwargs = dict(
        qw=base_qw(),
        epsilon1=2.22 + 0j,
        epsilon3=2.22 + 0j,
        d1_um=0.2,
        d2_um=5.0,
        lambda_um=1.85,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def vacuum_scenario() -> Scenario:
    # beta = 0 empties the middle layer; unit walls remove the interfaces
    return base_scenario(qw=base_qw(beta=0.0), epsilon1=1.0 + 0j, epsilon3=1.0 + 0j)


class TestRunSweep:
    def test_vacuum_rows_are_flagged_zeros(self):
        rows = run_sweep(vacuum_scenario(), SweepSpec("theta", 0.2, 1.2, 11))
        for row in rows:
            assert row.re_abs < 1e-14 and row.rm_abs < 1e-14
            assert row.h_singular and row.v_singular
            assert row.error is None

    def test_rows_in_ascending_order(self):
        rows = run_sweep(base_scenario(), SweepSpec("theta", 0.3, 1.2, 31))
        values = [row.value for row in rows]
        assert values == sorted(values)
        assert values[0] == 0.3 and values[-1] == 1.2

    def test_control_sweep_positive_and_non_increasing(self):
        spec = SweepSpec("omega_c", 0.0, 6.0, 61, fixed={"theta": 0.979})
        shifts = [row.delta_h_plus_lambda for row in run_sweep(base_scenario(), spec)]
        assert all(s > 0 for s in shifts)
        assert all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))

    def test_splitting_sweep_grows_the_shift(self):
        spec = SweepSpec("delta", 0.0, 8.0, 61, fixed={"theta": 0.979})
        rows = run_sweep(base_scenario(qw=base_qw(omega_c=2.0)), spec)
        magnitudes = [abs(row.delta_h_plus_lambda) for row in rows]
        assert all(b >= a - 1e-12 for a, b in zip(magnitudes, magnitudes[1:]))

    def test_ratio_product_is_one_when_regular(self):
        rows = run_sweep(base_scenario(), SweepSpec("theta", 0.3, 1.2, 101))
        for row in rows:
            if not (row.h_singular or row.v_singular):
                assert row.ratio_em * row.ratio_me == pytest.approx(1.0, abs=1e-9)

    def test_rows_reproduce_shift_formulas(self):
        rows = run_sweep(base_scenario(), SweepSpec("theta", 0.5, 1.1, 41))
        for row in rows:
            pair = (row.re_abs * cmath.exp(1j * row.phi_e), row.rm_abs * cmath.exp(1j * row.phi_m))
            again = transverse_shifts(pair, 1.85, row.value)
            assert again.delta_h_plus == pytest.approx(row.delta_h_plus_lambda, rel=1e-9)
            assert again.delta_v_plus == pytest.approx(row.delta_v_plus_lambda, rel=1e-9)

    def test_deterministic(self):
        scenario = base_scenario(qw=base_qw(omega_c=1.3))
        spec = SweepSpec("theta", 0.2, 1.3, 201)
        assert run_sweep(scenario, spec) == run_sweep(scenario, spec)

    def test_threaded_run_matches_serial(self):
        scenario = base_scenario()
        spec = SweepSpec("omega_c", 0.0, 5.0, 101, fixed={"theta": 0.979})
        assert run_sweep(scenario, spec, threads=4) == run_sweep(scenario, spec, threads=1)

    def test_dead_medium_degrades_to_error_rows(self):
        dead = QwParams(
            gamma_bl=0.0, gamma_bd=0.0, gamma_cl=0.0, gamma_cd=0.0,
            gamma_dl=0.0, gamma_dd=0.0,
            beta=0.0184, g=-1.0, f=1.0, delta=0.0, omega_c=0.0,
        )
        rows = run_sweep(base_scenario(qw=dead), SweepSpec("theta", 0.3, 1.2, 7))
        for row in rows:
            assert row.error is not None and "SingularParameterError" in row.error
            assert math.isnan(row.re_abs)
            assert row.h_singular and row.v_singular

    def test_singular_grid_point_fails_alone(self):
        # with every rate zero the susceptibility denominator reduces to
        # i*(f^2 - 1)*delta*omega_c^2, which vanishes only at delta = 0
        qw = QwParams(
            gamma_bl=0.0, gamma_bd=0.0, gamma_cl=0.0, gamma_cd=0.0,
            gamma_dl=0.0, gamma_dd=0.0,
            beta=0.0184, g=-1.0, f=2.0, delta=1.0, omega_c=2.0,
        )
        spec = SweepSpec("delta", 0.0, 2.0, 21, fixed={"theta": 0.979})
        rows = run_sweep(base_scenario(qw=qw), spec)
        assert rows[0].value == 0.0
        assert rows[0].error.startswith("SingularParameterError: ")
        assert math.isnan(rows[0].re_abs) and math.isnan(rows[0].delta_h_plus_lambda)
        assert rows[0].h_singular and rows[0].v_singular
        for row in rows[1:]:
            assert row.error is None
            assert math.isfinite(row.re_abs) and math.isfinite(row.rm_abs)

    def test_overflowing_wall_rows_carry_the_error(self):
        # a thick metal-like wall overflows the evanescent layer matrix
        scenario = base_scenario(epsilon1=-4.0 + 0.1j, d1_um=400.0)
        rows = run_sweep(scenario, SweepSpec("theta", 0.2, 1.4, 4))
        for row in rows:
            assert row.error == "OverflowError: math range error"
            assert math.isnan(row.re_abs) and row.h_singular and row.v_singular

    def test_a_theta_sweep_explains_its_failed_rows_on_its_one_stack(self, monkeypatch):
        # qw.beta 1e300 overflows every row's propagation; the texts come from
        # the point path on one stack, with no susceptibility call per failed
        # row (there were 2002 calls): one for the batch, one for the point path
        import spinhall.sweep

        calls = []

        def counted(qw):
            calls.append(qw)
            return susceptibility(qw)

        monkeypatch.setattr(spinhall.sweep, "susceptibility", counted)
        scenario, spec = preset("fig2")
        qw = replace(scenario.qw, beta=1e300)
        rows = run_sweep(replace(scenario, qw=qw), spec)
        assert calls == [qw, qw]
        assert [row.error for row in rows] == ["OverflowError: math range error"] * 2001

    def test_singular_parameter_rows_carry_their_own_texts(self):
        # fig5c with the control field and the d-level rates off: every delta is singular
        scenario, spec = preset("fig5c")
        rows = run_sweep(replace(scenario, qw=replace(scenario.qw, omega_c=0.0, gamma_dl=0.0, gamma_dd=0.0)), spec)
        errors = [row.error for row in rows]
        assert len(set(errors)) == 601
        assert errors[-1] == (
            "SingularParameterError: susceptibility denominator vanished (|den|=0.000e+00) for delta=8.0, "
            "omega_c=0.0, rates summing to gamma2=2.04, gamma3=2.16, gamma4=0.0"
        )

    def test_negative_control_field_rows_fail_as_before(self):
        # QwParams rejects omega_c < 0; those grid points become error rows
        spec = SweepSpec("omega_c", -1.0, 1.0, 5, fixed={"theta": 0.979})
        rows = run_sweep(base_scenario(), spec)
        for row in rows[:2]:
            assert row.error == (
                f"ValueError: omega_c must be a finite non-negative rate, got {row.value!r}"
            )
        assert all(row.error is None for row in rows[2:])


class TestCavityResonanceStructure:
    def test_ratio_blows_up_near_brewster_angle(self):
        # the calibrated cavity nearly extinguishes TM around theta = 0.98
        from spinhall.qw_medium import susceptibility
        from spinhall.strata import Kinematics, reflection_pair

        scenario = base_scenario()
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)
        r_e, r_m = reflection_pair(stack, Kinematics(1.85, 0.98))
        assert abs(r_e) / abs(r_m) > 1e2

    def test_shift_flips_sign_across_the_resonance(self):
        from spinhall.qw_medium import susceptibility
        from spinhall.strata import Kinematics, reflection_pair

        scenario = base_scenario()
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)

        def shift_at(theta):
            pair = reflection_pair(stack, Kinematics(1.85, theta))
            return transverse_shifts(pair, 1.85, theta).delta_h_plus

        below, above = shift_at(0.979), shift_at(0.98)
        assert below > 10.0   # tens of wavelengths on the low-angle flank
        assert above < -10.0  # and the opposite sign past the peak


class TestSweepSpecValidation:
    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="variable"):
            SweepSpec("waist", 0.0, 1.0, 5)

    def test_reversed_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            SweepSpec("theta", 1.2, 0.3, 5)

    def test_theta_window_domain(self):
        with pytest.raises(ValueError, match=r"theta must lie in \(0, pi/2\)"):
            SweepSpec("theta", 0.0, 1.0, 5)

    @pytest.mark.parametrize("samples", [20.5, 20.0, np.float64(20.0), True, "20"])
    def test_non_integer_samples_rejected(self, samples):
        # 20.5 used to construct and then fail inside np.linspace
        with pytest.raises(ValueError, match="samples must be an integer"):
            SweepSpec("theta", 0.5, 0.7, samples)

    def test_numpy_integer_samples_accepted(self):
        spec = SweepSpec("theta", 0.5, 0.7, np.int64(20))
        assert len(run_sweep(base_scenario(), spec)) == 20

    def test_non_theta_sweep_needs_fixed_theta(self):
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec("omega_c", 0.0, 6.0, 5)

    def test_unknown_fixed_key(self):
        with pytest.raises(ValueError, match="unknown fixed"):
            SweepSpec("omega_c", 0.0, 6.0, 5, fixed={"theta": 0.9, "waist": 1.0})

    @pytest.mark.parametrize("key", ["omega_c", "delta"])
    def test_fixed_holds_no_medium_value(self, key):
        # the medium is Scenario.qw alone
        with pytest.raises(ValueError, match="unknown fixed"):
            SweepSpec("theta", 0.5, 0.7, 5, fixed={key: 1.0})

    def test_sweep_point_replaces_only_the_swept_field(self):
        scenario = base_scenario(qw=base_qw(omega_c=2.0))
        assert sweep_point(scenario, SweepSpec("theta", 0.5, 0.7, 5), 0.6) == (scenario.qw, 0.6)
        spec = SweepSpec("delta", 0.0, 8.0, 5, fixed={"theta": 0.98})
        assert sweep_point(scenario, spec, 3.0) == (base_qw(omega_c=2.0, delta=3.0), 0.98)

    @pytest.mark.parametrize("name", ["epsilon1", "epsilon3"])
    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex(2.22, math.nan)])
    def test_scenario_rejects_a_non_finite_wall(self, name, value):
        # accepted, every row of a sweep would fail on its own in Layer
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base_scenario(**{name: value})


class TestFindResonance:
    def test_thick_slab_peak_at_brewster(self):
        # beta = 0 and a zero-thickness middle layer make the two walls one
        # thick slab; its TM null pins the ratio peak at atan(sqrt(eps))
        slab = base_scenario(qw=base_qw(beta=0.0), d1_um=25.0, d2_um=0.0)
        result = find_resonance(slab, (0.9, 1.05))
        assert not result.boundary
        assert result.theta_star == pytest.approx(BREWSTER_222, abs=1e-3)
        assert result.ratio_em_peak > 1e2

    def test_cavity_resonance_layout(self):
        result = find_resonance(base_scenario(), (0.9, 1.05))
        assert not result.boundary
        assert 0.9 < result.theta_star < 1.05
        assert result.ratio_em_peak > 1e2

    def test_refinement_beats_coarser_scans(self):
        scenario = base_scenario()
        result = find_resonance(scenario, (0.95, 1.0))
        chi_rows = run_sweep(scenario, SweepSpec("theta", 0.95, 1.0, 200))
        coarse_peak = max(
            row.ratio_em for row in chi_rows if not math.isnan(row.ratio_em)
        )
        assert result.ratio_em_peak >= coarse_peak

    def test_boundary_peak_warns(self):
        # thin lossless slab below its Brewster angle: the ratio climbs
        # monotonically, so the window edge holds the maximum
        slab = base_scenario(qw=base_qw(beta=0.0), d2_um=0.0)
        result = find_resonance(slab, (0.3, 0.8))
        assert result.boundary
        assert result.theta_star == 0.8

    def test_a_window_without_a_ratio_is_refused(self):
        # a control field whose square overflows makes chi NaN, so no angle
        # of the window has a ratio and there is no peak to name
        scenario = base_scenario(qw=base_qw(omega_c=1e200))
        with pytest.raises(ValueError, match=r"no \|r_e\|/\|r_m\| ratio .* \(0\.9, 1\.05\)") as info:
            find_resonance(scenario, (0.9, 1.05))
        assert type(info.value) is ValueError  # not a numerical failure of the run

    def test_a_wavelength_whose_k_squared_overflows_has_no_ratio(self):
        # lambda = 1e-160 um: k^2 overflows in both kernels, so every row of
        # the batch fails and no angle of the window has a ratio
        scenario = base_scenario(lambda_um=1e-160)
        rows = run_sweep(scenario, SweepSpec("theta", 0.9, 1.05, 11))
        assert all(row.error is not None and math.isnan(row.ratio_em) for row in rows)
        with pytest.raises(ValueError, match=r"no \|r_e\|/\|r_m\| ratio .* \(0\.9, 1\.05\)"):
            find_resonance(scenario, (0.9, 1.05))

    def test_window_domain_checked(self):
        with pytest.raises(ValueError, match="window"):
            find_resonance(base_scenario(), (0.0, 1.0))

    def test_search_makes_no_per_point_call(self, monkeypatch):
        def per_point(*args):
            raise AssertionError("per-point reflection_pair called")

        monkeypatch.setattr("spinhall.sweep.reflection_pair", per_point)
        result = find_resonance(base_scenario(), (0.9, 1.05))
        assert not result.boundary and result.ratio_em_peak > 1e2

    def test_both_searches_scan_2000_angles_then_65_per_zoom_round(self, monkeypatch):
        # the documented search shape, on the batch and on the point path; the
        # benchmark's resonance hook rebuilds the 2000-angle coarse grid to tell
        # a refined peak from a coarse one
        import spinhall.sweep

        scenario, spec = preset("fig2")
        window = (spec.lo, spec.hi)
        batches, q0s = [], []

        def arrays(layers, lambda_um, theta):
            batches.append(len(theta))
            return reflection_arrays(layers, lambda_um, theta)

        def point(layers, k, k_z, q0):
            q0s.append(q0)
            return _point_pair(layers, k, k_z, q0)

        monkeypatch.setattr(spinhall.sweep, "reflection_arrays", arrays)
        monkeypatch.setattr(spinhall.sweep, "_point_pair", point)
        find_resonance(scenario, window)
        assert len(batches) >= 2 and batches == [2000] + [65] * (len(batches) - 1)
        _refine_resonance(scenario, window, [])
        assert q0s[:2000] == [math.cos(theta) for theta in _linspace(*window, 2000)]
        assert len(q0s) > 2000 and (len(q0s) - 2000) % 65 == 0

    @pytest.mark.parametrize("tol_rad", [_TOL_RAD])
    def test_peak_within_tol_of_a_dense_scan(self, tol_rad):
        scenario = base_scenario()
        result = find_resonance(scenario, (0.9, 1.05))
        chi = susceptibility(scenario.qw).chi
        thetas = np.linspace(result.theta_star - 2 * tol_rad, result.theta_star + 2 * tol_rad, 4001)
        r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, thetas)
        i = int(np.argmax(np.abs(r_e) / np.abs(r_m)))
        assert 0 < i < len(thetas) - 1  # the scan holds the peak
        assert abs(result.theta_star - thetas[i]) <= tol_rad

    def test_peak_is_the_batched_ratio_at_theta_star(self):
        scenario = base_scenario()
        result = find_resonance(scenario, (0.9, 1.05))
        chi = susceptibility(scenario.qw).chi
        r_e, r_m = reflection_arrays(
            _layers(scenario, chi), scenario.lambda_um, np.array([result.theta_star])
        )
        assert result.ratio_em_peak == pytest.approx(abs(r_e[0]) / abs(r_m[0]), rel=1e-12)


class TestSweepRow:
    def test_fields_default_and_immutability(self):
        assert SweepRow._fields == (
            "value", "re_abs", "rm_abs", "ratio_em", "ratio_me", "phi_e", "phi_m",
            "delta_h_plus_lambda", "delta_v_plus_lambda", "h_singular", "v_singular", "error",
        )
        row = SweepRow(0.5, *([1.0] * 8), False, True)
        assert row.error is None and row.v_singular
        with pytest.raises(AttributeError):
            row.value = 0.6
        assert repr(row).startswith("SweepRow(value=0.5, re_abs=1.0,")
        assert row._replace(error="ValueError: x").error == "ValueError: x"

    def test_sweep_rows_are_sweep_rows(self):
        rows = run_sweep(base_scenario(), SweepSpec("theta", 0.3, 1.2, 5))
        assert all(type(row) is SweepRow for row in rows)
        assert all(type(row.value) is float and type(row.h_singular) is bool for row in rows)

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec("theta", 0.1, 1.5, 2001),
            SweepSpec("omega_c", 0.0, 8.0, 601, fixed={"theta": 0.98}),
            SweepSpec("delta", 0.0, 2.0, 601, fixed={"theta": 0.98}),  # row 0 fails
        ],
        ids=["theta", "omega_c", "delta"],
    )
    def test_every_row_has_every_field(self, spec):
        scenario = base_scenario()
        if spec.variable == "delta":  # the lossless medium of test_singular_grid_point_fails_alone
            rates = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd")
            scenario = base_scenario(qw=base_qw(**dict.fromkeys(rates, 0.0), f=2.0, omega_c=2.0))
        rows = run_sweep(scenario, spec)
        assert len(rows) == spec.samples
        assert all(type(row) is SweepRow and len(row) == len(SweepRow._fields) for row in rows)
        assert [row.value for row in rows] == np.linspace(spec.lo, spec.hi, spec.samples).tolist()
        assert (rows[0].error is not None) == (spec.variable == "delta")


class TestScenarioValidation:
    def test_zero_wall_rejected(self):
        with pytest.raises(ValueError, match="epsilon1"):
            base_scenario(epsilon1=0.0)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError, match="d2_um"):
            base_scenario(d2_um=-1.0)

    def test_build_stack_layout(self):
        scenario = base_scenario()
        stack = build_stack(scenario, 0.5j)
        assert [layer.epsilon for layer in stack.layers] == [2.22 + 0j, 1.0 + 0.5j, 2.22 + 0j]
        assert [layer.thickness_um for layer in stack.layers] == [0.2, 5.0, 0.2]
