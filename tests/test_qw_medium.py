"""Tests of the quantum-well susceptibility, closed form vs steady state."""

import dataclasses
import math

import numpy as np
import pytest

from spinhall.qw_medium import (
    _NON_NEGATIVE,
    QwParams,
    SingularParameterError,
    derived_rates,
    permittivity,
    steady_state_coherences,
    susceptibility,
    susceptibility_from_steady_state,
    susceptibility_grid,
)

# the standard medium used throughout the angle-sweep scenarios
BASE = dict(
    gamma_bl=1.36,
    gamma_bd=0.68,
    gamma_cl=1.36,
    gamma_cd=0.8,
    gamma_dl=0.8,
    gamma_dd=0.5,
    beta=0.0184,
    g=-1.0,
    f=1.0,
    delta=2.0,
    omega_c=0.0,
)

# frozen from a 50-digit evaluation of the closed form at BASE
CHI_BASE = complex(-1.5181875659189548e-4, 4.1476884300905846e-3)


def base_params(**overrides) -> QwParams:
    params = dict(BASE)
    params.update(overrides)
    return QwParams(**params)


class TestDerivedRates:
    def test_base_medium_bundle(self):
        d = derived_rates(base_params())
        assert d.gamma2 == pytest.approx(2.04, rel=1e-12)
        assert d.gamma3 == pytest.approx(2.16, rel=1e-12)
        assert d.gamma4 == pytest.approx(1.3, rel=1e-12)
        assert d.alpha == pytest.approx(1.36, rel=1e-12)
        # frozen from the same 50-digit script
        assert d.p == pytest.approx(0.6478835438717001, rel=1e-12)

    def test_perfect_interference_limit(self):
        d = derived_rates(
            QwParams(
                gamma_bl=1.0, gamma_bd=0.0, gamma_cl=1.0, gamma_cd=0.0,
                gamma_dl=0.0, gamma_dd=0.0,
                beta=0.0, g=0.0, f=0.0, delta=0.0, omega_c=0.0,
            )
        )
        assert d.alpha == 1.0
        assert d.p == 1.0

    def test_no_interference_limit(self):
        d = derived_rates(base_params(gamma_bl=0.0))
        assert d.alpha == 0.0
        assert d.p == 0.0

    @pytest.mark.parametrize("name", _NON_NEGATIVE)
    def test_negative_rate_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite non-negative rate, got -0.1$"):
            base_params(**{name: -0.1})

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(QwParams)])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be .*finite.*, got nan$"):
            base_params(**{name: math.nan})

    def test_a_field_a_subclass_adds_is_checked(self):
        # QwParams checks the fields it has, not a list of names
        extended = dataclasses.make_dataclass(
            "Detuned", [("delta_p", float, dataclasses.field(default=0.0))], bases=(QwParams,), frozen=True
        )
        assert extended(**BASE).delta_p == 0.0
        with pytest.raises(ValueError, match="^delta_p must be finite, got nan$"):
            extended(**BASE, delta_p=math.nan)

    def test_interference_parameter_bounded(self):
        # Cauchy-Schwarz: p in [0, 1] for any non-negative rates
        rng = np.random.default_rng(7)
        for _ in range(500):
            rates = rng.uniform(0.0, 5.0, size=6)
            d = derived_rates(
                QwParams(*rates, beta=0.0, g=0.0, f=0.0, delta=0.0, omega_c=0.0)
            )
            assert 0.0 <= d.p <= 1.0


class TestClosedForm:
    def test_zero_prefactor_kills_response(self):
        assert susceptibility(base_params(beta=0.0)).chi == 0.0

    def test_control_off_reduction(self):
        # with the control off the response reduces to i*beta*A1/A2
        params = base_params()
        d = derived_rates(params)
        g, delta = params.g, params.delta
        a1 = -1j * delta + 1j * g * g * delta + 2 * g * d.alpha + d.gamma2 + g * g * d.gamma3
        a2 = (
            delta ** 2 - d.alpha ** 2 - 1j * delta * d.gamma3
            + d.gamma2 * (1j * delta + d.gamma3)
        )
        expected = 1j * params.beta * a1 / a2
        assert susceptibility(params).chi == pytest.approx(expected, rel=1e-14)

    def test_base_medium_value(self):
        chi = susceptibility(base_params()).chi
        assert chi == pytest.approx(CHI_BASE, rel=1e-12)

    def test_linear_in_beta(self):
        params = base_params(omega_c=3.0)
        doubled = base_params(omega_c=3.0, beta=2 * params.beta)
        assert susceptibility(doubled).chi == 2 * susceptibility(params).chi

    def test_control_field_weakens_response_at_equal_dipole_ratios(self):
        # f = g removes the control term from the numerator, so |chi| can
        # only fall as the control field grows
        magnitudes = [
            abs(susceptibility(base_params(g=1.0, f=1.0, omega_c=oc)).chi)
            for oc in np.linspace(0.0, 10.0, 41)
        ]
        assert all(b <= a + 1e-18 for a, b in zip(magnitudes, magnitudes[1:]))

    @pytest.mark.parametrize("field", ["f", "g"])
    def test_an_overflowing_dipole_ratio_gives_a_non_finite_chi(self, field):
        # (f - g)^2 overflows; chi is then non-finite, as for an overflowing
        # omega_c, and neither form raises
        params = base_params(**{field: 1e300})
        assert not np.isfinite(susceptibility(params).chi)
        assert not np.isfinite(susceptibility_grid(params, "omega_c", np.array([0.0, 1.0]))).any()

    def test_singular_parameters_rejected(self):
        dead = QwParams(
            gamma_bl=0.0, gamma_bd=0.0, gamma_cl=0.0, gamma_cd=0.0,
            gamma_dl=0.0, gamma_dd=0.0,
            beta=0.0184, g=-1.0, f=1.0, delta=0.0, omega_c=0.0,
        )
        with pytest.raises(SingularParameterError):
            susceptibility(dead)


    def test_grid_variable_must_be_omega_c_or_delta(self):
        with pytest.raises(ValueError, match="variable must be omega_c or delta"):
            susceptibility_grid(base_params(), "beta", np.array([0.0, 1.0]))


def equations_of_motion(params: QwParams, delta_p: float, delta_c: float) -> np.ndarray:
    """The coherence equations' 3x3 matrix, built here apart from the solver."""
    d = derived_rates(params)
    fc, c = 1j * params.f * params.omega_c, 1j * params.omega_c
    return np.array([
        [1j * (1j * d.gamma2 - delta_p + params.delta), d.alpha, fc],
        [d.alpha, 1j * (1j * d.gamma3 - delta_p - params.delta), c],
        [fc, c, 1j * (1j * d.gamma4 - delta_p + delta_c)],
    ])


class TestSteadyState:
    def test_decoupled_two_level_limit(self):
        # control off, no cross coupling, no b-dipole: only B3 responds,
        # with a single-Lorentzian coherence per unit probe
        params = base_params(g=0.0, gamma_bl=0.0, omega_c=0.0)
        delta_p = 0.3
        b2, b3, b4 = steady_state_coherences(params, delta_p=delta_p)
        assert b2 == 0.0
        assert b4 == 0.0
        d = derived_rates(params)
        expected = -1j / (1j * (1j * d.gamma3 - delta_p - params.delta))
        assert b3 == pytest.approx(expected, rel=1e-12)

    def test_matches_an_lu_solve(self):
        # Cramer's rule against numpy's LU solve of the same equations, half
        # of the media at zero detuning and half detuned
        rng = np.random.default_rng(11)
        for i in range(600):
            params = QwParams(
                *rng.uniform(1e-3, 5.0, size=6),
                beta=rng.uniform(0.0, 0.1),
                g=rng.uniform(-2.0, 2.0),
                f=rng.uniform(-2.0, 2.0),
                delta=rng.uniform(-10.0, 10.0),
                omega_c=rng.uniform(0.0, 10.0),
            )
            delta_p, delta_c = rng.uniform(-10.0, 10.0, size=2) if i % 2 else (0.0, 0.0)
            solved = steady_state_coherences(params, delta_p=delta_p, delta_c=delta_c)
            want = np.linalg.solve(equations_of_motion(params, delta_p, delta_c), [-1j * params.g, -1j, 0.0])
            np.testing.assert_allclose(solved, want, rtol=1e-12, atol=0.0)

    def test_singular_matrix_rejected(self):
        # no decay, no control field and the probe on the B2 subband: the B2 row is zero
        rates = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd")
        params = base_params(**dict.fromkeys(rates, 0.0), omega_c=0.0)
        with pytest.raises(SingularParameterError, match="steady-state coefficient matrix is singular"):
            steady_state_coherences(params, delta_p=params.delta)

    @pytest.mark.parametrize("detuning", ["delta_p", "delta_c"])
    def test_detunings_are_solver_arguments(self, detuning):
        with pytest.raises(TypeError):
            base_params(**{detuning: 0.3})
        with pytest.raises(ValueError, match="detunings must be finite"):
            steady_state_coherences(base_params(), **{detuning: np.nan})

    def test_reconstruction_matches_closed_form_at_base(self):
        chi_closed = susceptibility(base_params()).chi
        chi_solved = susceptibility_from_steady_state(base_params())
        assert abs(chi_solved - chi_closed) / abs(chi_closed) < 1e-10

    def test_reconstruction_matches_closed_form_randomly(self):
        # both routes on random admissible parameters at zero detuning
        rng = np.random.default_rng(42)
        for _ in range(300):
            params = QwParams(
                *rng.uniform(1e-3, 5.0, size=6),
                beta=rng.uniform(0.0, 0.1),
                g=rng.uniform(-2.0, 2.0),
                f=rng.uniform(-2.0, 2.0),
                delta=rng.uniform(-10.0, 10.0),
                omega_c=rng.uniform(0.0, 10.0),
            )
            chi_closed = susceptibility(params).chi
            chi_solved = susceptibility_from_steady_state(params)
            assert abs(chi_solved - chi_closed) <= 1e-10 * abs(chi_closed)


class TestPermittivity:
    def test_vacuum_for_zero_chi(self):
        assert permittivity(0.0) == 1.0

    def test_definition(self):
        assert permittivity(0.01j) == 1.0 + 0.01j

    def test_accepts_wrapper(self):
        value = susceptibility(base_params())
        assert permittivity(value) == 1.0 + value.chi

    def test_base_medium_value(self):
        eps2 = permittivity(susceptibility(base_params()))
        assert eps2 == pytest.approx(complex(0.9998481812434081, 4.1476884300905846e-3), rel=1e-12)
