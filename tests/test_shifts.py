"""Closed-form shift tests plus the angular-spectrum centroid cross-check."""

import cmath
import math
import sys

import numpy as np
import pytest

import spinhall.shifts
from spinhall.presets import preset
from spinhall.qw_medium import permittivity, susceptibility
from spinhall.shifts import (
    SINGULAR_REFLECTION,
    BeamSpec,
    ResolutionError,
    _centroids,
    _principal_phase,
    _row_data,
    centroid_shift_oracle,
    ratio,
    transverse_shifts,
)
from spinhall.strata import Kinematics, Layer, reflection_pair
from spinhall.sweep import build_stack, find_resonance

LAMBDA = 1.85

# chi of the standard medium (frozen in test_qw_medium) and its cavity
CHI_BASE = complex(-1.5181875659189548e-4, 4.1476884300905846e-3)


def base_stack() -> tuple[Layer, ...]:
    return (Layer(2.22, 0.2), Layer(permittivity(CHI_BASE), 5.0), Layer(2.22, 0.2))


def closed_form_h(r_e, r_m, theta):
    return -(1.0 / (2 * math.pi)) * (
        1.0 + abs(r_e) / abs(r_m) * math.cos(cmath.phase(r_e) - cmath.phase(r_m))
    ) / math.tan(theta)


def sigma_plus(pair, kin, beam, polarization):
    """The sigma+ centroid, in lambda, of `_centroids` for "h" or "v" input."""
    return _centroids(pair, kin, beam.waist_um)["hv".index(polarization)]


class TestClosedForms:
    def test_equal_coefficients(self):
        pair = (0.4 + 0.1j, 0.4 + 0.1j)
        result = transverse_shifts(pair, LAMBDA, 0.8)
        expected = -(1.0 / (2 * math.pi)) * 2.0 / math.tan(0.8)
        assert result.delta_h_plus == pytest.approx(expected, rel=1e-14)
        assert result.delta_v_plus == pytest.approx(expected, rel=1e-14)
        assert not result.h_singular and not result.v_singular

    def test_quadrature_phases_drop_ratio_term(self):
        pair = (0.5j, 0.5)  # phase difference pi/2
        result = transverse_shifts(pair, LAMBDA, 0.8)
        expected = -(1.0 / (2 * math.pi)) / math.tan(0.8)
        assert result.delta_h_plus == pytest.approx(expected, rel=1e-12)
        assert result.delta_v_plus == pytest.approx(expected, rel=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            r_e = complex(rng.normal(), rng.normal())
            r_m = complex(rng.normal(), rng.normal())
            if abs(r_e) < 0.05 or abs(r_m) < 0.05:
                continue  # keep the ratio well conditioned at the 1e-12 scale
            psi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(0.05, 1.5)
            a = transverse_shifts((r_e, r_m), LAMBDA, theta)
            rot = cmath.exp(1j * psi)
            b = transverse_shifts((r_e * rot, r_m * rot), LAMBDA, theta)
            assert abs(a.delta_h_plus - b.delta_h_plus) < 1e-12 * max(1.0, abs(a.delta_h_plus))
            assert abs(a.delta_v_plus - b.delta_v_plus) < 1e-12 * max(1.0, abs(a.delta_v_plus))

    def test_common_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            r_e = complex(rng.normal(), rng.normal())
            r_m = complex(rng.normal(), rng.normal())
            if abs(r_e) < 0.05 or abs(r_m) < 0.05:
                continue
            scale = rng.uniform(0.01, 100.0)
            theta = rng.uniform(0.05, 1.5)
            a = transverse_shifts((r_e, r_m), LAMBDA, theta)
            b = transverse_shifts((r_e * scale, r_m * scale), LAMBDA, theta)
            assert abs(a.delta_h_plus - b.delta_h_plus) < 1e-12 * max(1.0, abs(a.delta_h_plus))
            assert abs(a.delta_v_plus - b.delta_v_plus) < 1e-12 * max(1.0, abs(a.delta_v_plus))

    def test_lambda_units_independent_of_lambda(self):
        pair = (0.3 + 0.2j, 0.5 - 0.1j)
        a = transverse_shifts(pair, 0.8, 0.9)
        b = transverse_shifts(pair, 12.0, 0.9)
        assert a.delta_h_plus == b.delta_h_plus

    def test_theta_domain(self):
        pair = (0.3, 0.5)
        for theta in (0.0, -0.2, math.pi / 2, 2.0):
            with pytest.raises(ValueError, match="theta"):
                transverse_shifts(pair, LAMBDA, theta)

    def test_singular_flags(self):
        result = transverse_shifts((0.5, 0.0), LAMBDA, 0.8)
        assert result.h_singular and not result.v_singular
        assert math.isinf(result.delta_h_plus)
        both = transverse_shifts((0.0, 0.0), LAMBDA, 0.8)
        assert both.h_singular and both.v_singular
        assert math.isnan(both.delta_h_plus)


class TestScalarMode:
    """Python numbers are computed by math and cmath, arrays and numpy
    scalars by numpy, with the same expressions."""

    SPECIALS = [0.0, -0.0, 1.0, -2.5, 1e-310, 1e308, math.inf, -math.inf, math.nan]

    def test_ratio_divides_as_numpy_does(self):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for a in self.SPECIALS:
                for b in self.SPECIALS:
                    got = ratio(a, b)
                    assert type(got) is float and repr(got) == repr(float(np.divide(a, b))), (a, b)

    def test_principal_phase_matches_numpys(self):
        def numpys(z):  # the array route, through a 1-element array
            return float(_principal_phase(np.array([z], dtype=complex))[0])
        for z in (-1 + 0j, complex(-1.0, -0.0), complex(-0.0, -0.0), 0j, -2.0, 3.0, complex(math.nan, 1.0)):
            assert repr(_principal_phase(z)) == repr(numpys(z)), z
        rng = np.random.default_rng(8)
        for z in (rng.normal(size=2000) + 1j * rng.normal(size=2000)).tolist():
            got, want = _principal_phase(z), numpys(z)
            assert type(got) is float and abs(got - want) <= 4 * math.ulp(want), z

    def test_shifts_match_the_array_form(self):
        # transverse_shifts at each point against the numpy closed forms that
        # run_sweep evaluates over the arrays; numpy's tan and arctan2 may round
        # differently from libm's, so the two agree to a few ulps of the terms
        # of 1 + R*cos(dphi), R the larger ratio
        rng = np.random.default_rng(9)
        r_e = (rng.normal(size=500) + 1j * rng.normal(size=500)) * 10.0 ** rng.uniform(-8, 0, 500)
        r_m = (rng.normal(size=500) + 1j * rng.normal(size=500)) * 10.0 ** rng.uniform(-8, 0, 500)
        theta = rng.uniform(0.01, 1.56, 500)
        grid_h, grid_v, grid_h_singular, grid_v_singular = _row_data(r_e, r_m, theta, np)[6:]
        for i, (a, b, t) in enumerate(zip(r_e.tolist(), r_m.tolist(), theta.tolist())):
            point = transverse_shifts((a, b), LAMBDA, t)
            assert (point.h_singular, point.v_singular) == (grid_h_singular[i], grid_v_singular[i])
            terms = (1.0 + max(abs(a) / abs(b), abs(b) / abs(a))) / math.tan(t) / (2.0 * math.pi)
            assert type(point.delta_h_plus) is float and type(point.h_singular) is bool
            assert abs(point.delta_h_plus - grid_h[i]) <= 1e-14 * terms
            assert abs(point.delta_v_plus - grid_v[i]) <= 1e-14 * terms


class TestBeamSpec:
    def test_waist_positive(self):
        with pytest.raises(ValueError, match="waist"):
            BeamSpec(waist_um=0.0)

    def test_grid_is_fixed(self):
        # no grid is a constructor argument; the ClassVar is read by the benchmark's oracle trace
        assert BeamSpec.grid_samples == 512 == BeamSpec(waist_um=1000.0).grid_samples
        for key, value in (("grid_samples", 512), ("grid_half_extent", 0.008)):
            with pytest.raises(TypeError, match=key):
                BeamSpec(waist_um=1000.0, **{key: value})


FFT_SAMPLES = 512  # the FFT references' grid: this many points per axis over |k| <= 8/w0


def fft_axis(beam):
    """The FFT references' wavevector axis (1/um) and its spacing."""
    half = 8.0 / beam.waist_um
    dk = 2.0 * half / FFT_SAMPLES
    return -half + dk * np.arange(FFT_SAMPLES), dk


def gaussian_spectrum(beam, kx, ky):
    """Angular spectrum (w0/sqrt(2pi)) * exp(-w0^2 (kx^2+ky^2)/4); its squared
    magnitude integrates to 1 independent of the waist."""
    w0 = beam.waist_um
    return (w0 / math.sqrt(2.0 * math.pi)) * np.exp(-(w0 * w0) * (kx * kx + ky * ky) / 4.0)


class TestAngularSpectrum:
    def test_spectrum_energy_is_waist_independent(self):
        # discrete |spectrum|^2 integrates to 1 for any admitted waist
        for w0 in (200.0, 925.0, 4000.0):
            beam = BeamSpec(waist_um=w0)
            k1, dk = fft_axis(beam)
            kx, ky = np.meshgrid(k1, k1, indexing="ij")
            energy = (np.abs(gaussian_spectrum(beam, kx, ky)) ** 2).sum() * dk * dk
            assert energy == pytest.approx(1.0, abs=1e-6)

    def test_centroid_matches_trivial_closed_form(self):
        pair = (0.5, 0.5)
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        plus = sigma_plus(pair, kin, beam, "h")
        expected = -(1.0 / (2 * math.pi)) * 2.0 / math.tan(0.8)
        assert plus == pytest.approx(expected, rel=1e-2)

    def test_oracle_agrees_with_closed_forms_on_random_pairs(self):
        rng = np.random.default_rng(37)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        checked = 0
        while checked < 5:
            r_e = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            r_m = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            theta = rng.uniform(0.4, 1.2)
            if abs(r_e) < 0.1 or abs(r_m) < 0.1:
                continue
            pair = (r_e, r_m)
            closed = transverse_shifts(pair, LAMBDA, theta)
            if abs(closed.delta_h_plus) < 0.05 or abs(closed.delta_h_plus) > 10.0:
                continue
            kin = Kinematics(LAMBDA, theta)
            plus = sigma_plus(pair, kin, beam, "h")
            assert plus == pytest.approx(closed.delta_h_plus, rel=1e-2)
            checked += 1

    def test_oracle_self_consistency_off_resonance(self):
        # the standard cavity away from its resonance angle
        kin = Kinematics(LAMBDA, 0.6)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        from spinhall.strata import reflection_pair

        pair = reflection_pair(base_stack(), kin)
        closed = transverse_shifts(pair, LAMBDA, 0.6)
        oracle_h, oracle_v = centroid_shift_oracle(base_stack(), kin, beam)
        assert oracle_h == pytest.approx(closed.delta_h_plus, rel=1e-2)
        assert oracle_v == pytest.approx(closed.delta_v_plus, rel=1e-2)

    def test_oracle_agrees_on_gain_assisted_walls(self):
        # loss on one wall, gain on the other; the first-order coupling and
        # sign conventions must survive non-Hermitian coefficients
        stack = (Layer(2.22 + 0.04j, 0.2), Layer(permittivity(CHI_BASE), 5.0), Layer(2.22 - 0.04j, 0.2))
        kin = Kinematics(LAMBDA, 0.7)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        from spinhall.strata import reflection_pair

        pair = reflection_pair(stack, kin)
        closed = transverse_shifts(pair, LAMBDA, 0.7)
        oracle_h, oracle_v = centroid_shift_oracle(stack, kin, beam)
        assert oracle_h == pytest.approx(closed.delta_h_plus, rel=1e-2)
        assert oracle_v == pytest.approx(closed.delta_v_plus, rel=1e-2)

    def test_oracle_declines_singular_points(self):
        vacuum = (Layer(1.0, 1.0),)
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        assert centroid_shift_oracle(vacuum, kin, beam) == (None, None)

    def test_an_empty_stack_is_singular_and_declined(self):
        # no layers is vacuum: r_e = r_m = 0, so both ratios are singular
        kin = Kinematics(LAMBDA, 0.8)
        shifts = transverse_shifts(reflection_pair((), kin), LAMBDA, 0.8)
        assert shifts.h_singular and shifts.v_singular
        assert centroid_shift_oracle((), kin, BeamSpec(waist_um=500 * LAMBDA)) == (None, None)

    def test_a_list_of_layers_gives_the_oracle_values_of_the_tuple(self):
        kin, beam = Kinematics(LAMBDA, 0.7), BeamSpec(waist_um=500 * LAMBDA)
        got = centroid_shift_oracle(list(base_stack()), kin, beam)
        assert got == centroid_shift_oracle(base_stack(), kin, beam)
        assert None not in got

    def test_oracle_requires_wide_waist(self):
        kin = Kinematics(LAMBDA, 0.8)
        with pytest.raises(ResolutionError, match="waist"):
            centroid_shift_oracle(base_stack(), kin, BeamSpec(waist_um=50 * LAMBDA))

def fft2_centroids(pair, kin, beam, polarization):
    """The full 2D reference: the reflected spectrum on the kx-ky meshgrid,
    a forward fft2 to real space, |E|^2 summed over the in-plane axis x."""
    k1, dk = fft_axis(beam)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    envelope = gaussian_spectrum(beam, kx, ky)
    r_e, r_m = pair
    cross = ky * (1.0 / math.tan(kin.theta_rad)) * (r_m + r_e) / (2.0 * math.pi / kin.lambda_um)
    if polarization == "h":
        e_h, e_v = r_m * envelope, -cross * envelope
    else:
        e_h, e_v = cross * envelope, r_e * envelope
    y = np.fft.fftfreq(FFT_SAMPLES, d=dk / (2.0 * math.pi))
    centroids = []
    for spectrum in ((e_h + 1j * e_v) / math.sqrt(2.0), (e_h - 1j * e_v) / math.sqrt(2.0)):
        profile = (np.abs(np.fft.fft2(spectrum)) ** 2).sum(axis=0)
        centroids.append(float((profile * y).sum() / profile.sum()) / kin.lambda_um)
    return tuple(centroids)


def _random_pair_cases():
    rng = np.random.default_rng(41)
    for _ in range(4):
        pair = (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        yield pair, Kinematics(LAMBDA, rng.uniform(0.4, 1.2)), BeamSpec(waist_um=500 * LAMBDA)


def _near_extinction_cases():
    for rm_abs, theta in ((1e-3, 0.95), (1e-4, 0.98), (1e-5, 1.0)):
        pair = (0.6 * cmath.exp(0.4j), rm_abs * cmath.exp(-1.1j))
        yield pair, Kinematics(LAMBDA, theta), BeamSpec(waist_um=500 * LAMBDA)


def _gain_loss_walls_case():
    from spinhall.strata import reflection_pair

    stack = (Layer(2.22 + 0.04j, 0.2), Layer(permittivity(CHI_BASE), 5.0), Layer(2.22 - 0.04j, 0.2))
    kin = Kinematics(LAMBDA, 0.7)
    yield reflection_pair(stack, kin), kin, BeamSpec(waist_um=500 * LAMBDA)


class TestSeparableCentroid:
    """The closed-form Gaussian moments equal the full 2D fft2 computation."""

    @pytest.mark.parametrize(
        "cases",
        [_random_pair_cases, _near_extinction_cases, _gain_loss_walls_case],
        ids=["random", "near-extinction", "gain-loss-walls"],
    )
    @pytest.mark.parametrize("polarization", ["h", "v"])
    def test_matches_fft2_reference(self, cases, polarization):
        for pair, kin, beam in cases():
            got = sigma_plus(pair, kin, beam, polarization)
            want = fft2_centroids(pair, kin, beam, polarization)[0]
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def fft1_centroids(pair, kin, beam, polarization):
    """The per-component reference: one 1D FFT of b(ky)*(alpha + beta*ky)
    per circular component, |E|^2 and its y-moment summed on the grid."""
    ky, dk = fft_axis(beam)
    envelope = gaussian_spectrum(beam, 0.0, ky)
    r_e, r_m = pair
    cross = ky * (1.0 / math.tan(kin.theta_rad)) * (r_m + r_e) / (2.0 * math.pi / kin.lambda_um)
    if polarization == "h":
        e_h, e_v = r_m * envelope, -cross * envelope
    else:
        e_h, e_v = cross * envelope, r_e * envelope
    y = np.fft.fftfreq(FFT_SAMPLES, d=dk / (2.0 * math.pi))
    centroids = []
    for spectrum in ((e_h + 1j * e_v) / math.sqrt(2.0), (e_h - 1j * e_v) / math.sqrt(2.0)):
        profile = np.abs(np.fft.fft(spectrum)) ** 2
        total = profile.sum()
        centroids.append(math.nan if total == 0.0 else float((profile * y).sum() / total) / kin.lambda_um)
    return tuple(centroids)


def fft1_oracle(stack, kin, beam):
    """centroid_shift_oracle on the per-component reference."""
    r_e, r_m = pair = reflection_pair(stack, kin)
    delta_h = None if abs(r_m) < SINGULAR_REFLECTION else fft1_centroids(pair, kin, beam, "h")[0]
    delta_v = None if abs(r_e) < SINGULAR_REFLECTION else fft1_centroids(pair, kin, beam, "v")[0]
    return delta_h, delta_v


RESONANCE_OFFSETS = [sign * 10.0**e for e in range(-6, -1) for sign in (-1.0, 1.0)]


class TestMomentCentroid:
    """The closed-form Gaussian moments equal the per-component FFTs."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_matches_per_component_fft_reference(self, name):
        scenario, spec = preset(name)
        lam = scenario.lambda_um
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)
        theta_star = find_resonance(scenario, (spec.lo, spec.hi)).theta_star
        thetas = [*np.linspace(spec.lo, spec.hi, 41), *(theta_star + d for d in RESONANCE_OFFSETS)]
        for waist in (100, 500, 3000, 30000):
            beam = BeamSpec(waist_um=waist * lam)
            for theta in thetas:
                kin = Kinematics(lam, float(theta))
                got, want = centroid_shift_oracle(stack, kin, beam), fft1_oracle(stack, kin, beam)
                for g, w in zip(got, want):
                    assert (g is None) == (w is None)
                    assert g is None or g == pytest.approx(w, rel=1e-9, abs=0.0)
                pair = reflection_pair(stack, kin)
                for polarization in ("h", "v"):
                    got = sigma_plus(pair, kin, beam, polarization)
                    want = fft1_centroids(pair, kin, beam, polarization)[0]
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_zero_field_centroid_is_nan(self):
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        got = _centroids((0j, 0j), kin, beam.waist_um)
        assert all(math.isnan(c) for c in got)
        assert all(math.isnan(c) for c in fft1_centroids((0j, 0j), kin, beam, "h"))

    def test_warm_beam_costs_one_reflection_pair_and_no_fft(self, monkeypatch):
        pairs = []

        def counted(*args):
            pairs.append(args)
            return reflection_pair(*args)

        def no_fft(*args, **kwargs):
            raise AssertionError("the oracle computes no FFT")

        monkeypatch.setattr(spinhall.shifts, "reflection_pair", counted)
        for name in ("fft", "fft2", "fftn", "ifft", "fftfreq"):
            monkeypatch.setattr(np.fft, name, no_fft)
        beam = BeamSpec(waist_um=800 * LAMBDA)
        thetas = np.linspace(0.3, 1.3, 7)
        for theta in thetas:
            kin = Kinematics(LAMBDA, float(theta))
            assert None not in centroid_shift_oracle(base_stack(), kin, beam)
            _centroids((0.4, 0.5), kin, beam.waist_um)
        assert len(pairs) == len(thetas)


def oracle_from_centroids(stack, kin, beam):
    """The oracle's slots as the sigma+ centroids taken one polarization at a time."""
    r_e, r_m = pair = reflection_pair(stack, kin)
    delta_h = delta_v = None
    if abs(r_m) >= SINGULAR_REFLECTION:
        delta_h = sigma_plus(pair, kin, beam, "h")
    if abs(r_e) >= SINGULAR_REFLECTION:
        delta_v = sigma_plus(pair, kin, beam, "v")
    return delta_h, delta_v


def assert_bit_equal(got, want):
    """Equal under ==, a NaN matching a NaN and None in the same slots."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None), (got, want)
        assert g is None or g == w or (math.isnan(g) and math.isnan(w)), (got, want)


def moment_grid(name, angles=41):
    """TestMomentCentroid's points: (stack, kin, beam) over four waists and
    `angles` angles across the preset's range plus ten around its resonance."""
    scenario, spec = preset(name)
    lam = scenario.lambda_um
    stack = build_stack(scenario, susceptibility(scenario.qw).chi)
    theta_star = find_resonance(scenario, (spec.lo, spec.hi)).theta_star
    thetas = [*np.linspace(spec.lo, spec.hi, angles), *(theta_star + d for d in RESONANCE_OFFSETS)]
    for waist in (100, 500, 3000, 30000):
        beam = BeamSpec(waist_um=waist * lam)
        for theta in thetas:
            yield stack, Kinematics(lam, float(theta)), beam


def sigma_plus_reference(pair, kin):
    """(a, c) of the sigma+ spectrum b(ky)*(a + c*ky), up to a common factor,
    for h input and for v input; sigma- is (a, -c)."""
    r_e, r_m = pair
    g = complex((1.0 / math.tan(kin.theta_rad)) * (r_m + r_e) / (2.0 * math.pi / kin.lambda_um))
    return (complex(r_m), -1j * g), (1j * complex(r_e), g)


def centroid_reference(a, c, waist_um, lambda_um):
    """y-centroid, in lambda, of the beam b(ky)*(a + c*ky) with b a Gaussian
    of waist waist_um: -Im(a*conj(c)) over |a|^2 + |c|^2/w0^2."""
    total = abs(a) ** 2 + abs(c) ** 2 / (waist_um * waist_um)
    return math.nan if total == 0.0 else -(a * c.conjugate()).imag / total / lambda_um


def python_calls(fn, *args):
    """Names of the Python functions entered while fn(*args) runs, fn first."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestOnePassPoint:
    """A point builds the cross-polarization coupling once for h and v, in
    one `_centroids` pass, with the outputs of the per-polarization form."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_outputs_equal_the_per_polarization_form(self, name):
        for stack, kin, beam in moment_grid(name):
            assert_bit_equal(centroid_shift_oracle(stack, kin, beam),
                             oracle_from_centroids(stack, kin, beam))

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_outputs_equal_the_per_component_reference(self, name):
        # the coupling and the sigma+ centroid of each polarization as
        # separate steps
        for stack, kin, beam in moment_grid(name):
            r_e, r_m = pair = reflection_pair(stack, kin)
            h, v = sigma_plus_reference(pair, kin)
            want = [centroid_reference(*h, beam.waist_um, kin.lambda_um),
                    centroid_reference(*v, beam.waist_um, kin.lambda_um)]
            if abs(r_m) < SINGULAR_REFLECTION:
                want[0] = None
            if abs(r_e) < SINGULAR_REFLECTION:
                want[1] = None
            assert_bit_equal(centroid_shift_oracle(stack, kin, beam), want)
            assert_bit_equal(_centroids(pair, kin, beam.waist_um),
                             [centroid_reference(*h, beam.waist_um, kin.lambda_um),
                              centroid_reference(*v, beam.waist_um, kin.lambda_um)])

    @pytest.mark.parametrize("name", ["fig2", "fig6b"])
    def test_a_warm_point_makes_seven_python_calls(self, name):
        # the oracle, reflection_pair, its _point_pair, that one's row loop,
        # _checked for TE and TM and one _centroids: no call per layer
        scenario, _ = preset(name)
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)
        kin, beam = Kinematics(scenario.lambda_um, 0.979), BeamSpec(waist_um=925.0)
        centroid_shift_oracle(stack, kin, beam)
        calls = python_calls(centroid_shift_oracle, stack, kin, beam)
        assert calls == ["centroid_shift_oracle", "reflection_pair", "_point_pair",
                         "_point_fractions", "_checked", "_checked", "_centroids"]

    def test_zero_field_matches_as_nan(self):
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        got = _centroids((0j, 0j), kin, beam.waist_um)
        assert all(math.isnan(c) for c in got)


class TestWaistFactor:
    """The oracle is the closed form times k^2 w0^2 / (k^2 w0^2 + |X|^2), with
    X = (1 + r_e/r_m) cot(theta) for h input and (1 + r_m/r_e) cot(theta) for v."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_oracle_is_the_closed_form_times_the_waist_factor(self, name):
        for stack, kin, beam in moment_grid(name, angles=200):
            r_e, r_m = pair = reflection_pair(stack, kin)
            closed = transverse_shifts(pair, kin.lambda_um, kin.theta_rad)
            kw2 = (2.0 * math.pi / kin.lambda_um * beam.waist_um) ** 2
            cot = 1.0 / math.tan(kin.theta_rad)
            x_h, x_v = (1.0 + r_e / r_m) * cot, (1.0 + r_m / r_e) * cot
            oracle_h, oracle_v = centroid_shift_oracle(stack, kin, beam)
            want_h = closed.delta_h_plus * kw2 / (kw2 + abs(x_h) ** 2)
            want_v = closed.delta_v_plus * kw2 / (kw2 + abs(x_v) ** 2)
            assert oracle_h == pytest.approx(want_h, rel=1e-12, abs=1e-12)
            assert oracle_v == pytest.approx(want_v, rel=1e-12, abs=1e-12)
