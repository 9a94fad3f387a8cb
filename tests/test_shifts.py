"""Closed-form shift tests plus the angular-spectrum centroid cross-check."""

import cmath
import math

import numpy as np
import pytest

import spinhall.shifts
from spinhall.presets import preset
from spinhall.qw_medium import permittivity, susceptibility
from spinhall.shifts import (
    SINGULAR_REFLECTION,
    BeamSpec,
    ResolutionError,
    centroid_shift_oracle,
    circular_centroids,
    transverse_shifts,
)
from spinhall.strata import Kinematics, Layer, ReflectionPair, Stack, reflection_pair
from spinhall.sweep import build_stack, find_resonance

LAMBDA = 1.85

# chi of the standard medium (frozen in test_qw_medium) and its cavity
CHI_BASE = complex(-1.5181875659189548e-4, 4.1476884300905846e-3)


def base_stack() -> Stack:
    return Stack(
        layers=(
            Layer(2.22, 0.2),
            Layer(permittivity(CHI_BASE), 5.0),
            Layer(2.22, 0.2),
        )
    )


def closed_form_h(r_e, r_m, theta):
    return -(1.0 / (2 * math.pi)) * (
        1.0 + abs(r_e) / abs(r_m) * math.cos(cmath.phase(r_e) - cmath.phase(r_m))
    ) / math.tan(theta)


class TestClosedForms:
    def test_equal_coefficients(self):
        pair = ReflectionPair(r_e=0.4 + 0.1j, r_m=0.4 + 0.1j)
        result = transverse_shifts(pair, LAMBDA, 0.8)
        expected = -(1.0 / (2 * math.pi)) * 2.0 / math.tan(0.8)
        assert result.delta_h_plus == pytest.approx(expected, rel=1e-14)
        assert result.delta_v_plus == pytest.approx(expected, rel=1e-14)
        assert not result.h_singular and not result.v_singular

    def test_quadrature_phases_drop_ratio_term(self):
        pair = ReflectionPair(r_e=0.5j, r_m=0.5)  # phase difference pi/2
        result = transverse_shifts(pair, LAMBDA, 0.8)
        expected = -(1.0 / (2 * math.pi)) / math.tan(0.8)
        assert result.delta_h_plus == pytest.approx(expected, rel=1e-12)
        assert result.delta_v_plus == pytest.approx(expected, rel=1e-12)

    def test_millimeter_view(self):
        pair = ReflectionPair(r_e=0.4, r_m=0.2)
        result = transverse_shifts(pair, LAMBDA, 0.7)
        assert result.delta_h_plus_mm == result.delta_h_plus * LAMBDA * 1e-3
        assert result.delta_v_minus_mm == -result.delta_v_plus * LAMBDA * 1e-3

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            pair = ReflectionPair(
                r_e=complex(rng.normal(), rng.normal()),
                r_m=complex(rng.normal(), rng.normal()),
            )
            theta = rng.uniform(0.05, 1.5)
            result = transverse_shifts(pair, LAMBDA, theta)
            assert result.delta_h_minus == -result.delta_h_plus
            assert result.delta_v_minus == -result.delta_v_plus

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            r_e = complex(rng.normal(), rng.normal())
            r_m = complex(rng.normal(), rng.normal())
            if abs(r_e) < 0.05 or abs(r_m) < 0.05:
                continue  # keep the ratio well conditioned at the 1e-12 scale
            psi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(0.05, 1.5)
            a = transverse_shifts(ReflectionPair(r_e, r_m), LAMBDA, theta)
            rot = cmath.exp(1j * psi)
            b = transverse_shifts(ReflectionPair(r_e * rot, r_m * rot), LAMBDA, theta)
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
            a = transverse_shifts(ReflectionPair(r_e, r_m), LAMBDA, theta)
            b = transverse_shifts(ReflectionPair(r_e * scale, r_m * scale), LAMBDA, theta)
            assert abs(a.delta_h_plus - b.delta_h_plus) < 1e-12 * max(1.0, abs(a.delta_h_plus))
            assert abs(a.delta_v_plus - b.delta_v_plus) < 1e-12 * max(1.0, abs(a.delta_v_plus))

    def test_lambda_units_independent_of_lambda(self):
        pair = ReflectionPair(r_e=0.3 + 0.2j, r_m=0.5 - 0.1j)
        a = transverse_shifts(pair, 0.8, 0.9)
        b = transverse_shifts(pair, 12.0, 0.9)
        assert a.delta_h_plus == b.delta_h_plus
        assert b.delta_h_plus_mm == pytest.approx(a.delta_h_plus_mm * 12.0 / 0.8, rel=1e-12)

    def test_theta_domain(self):
        pair = ReflectionPair(r_e=0.3, r_m=0.5)
        for theta in (0.0, -0.2, math.pi / 2, 2.0):
            with pytest.raises(ValueError, match="theta"):
                transverse_shifts(pair, LAMBDA, theta)

    def test_singular_flags(self):
        result = transverse_shifts(ReflectionPair(r_e=0.5, r_m=0.0), LAMBDA, 0.8)
        assert result.h_singular and not result.v_singular
        assert math.isinf(result.delta_h_plus)
        both = transverse_shifts(ReflectionPair(r_e=0.0, r_m=0.0), LAMBDA, 0.8)
        assert both.h_singular and both.v_singular
        assert math.isnan(both.delta_h_plus)


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
        pair = ReflectionPair(r_e=0.5, r_m=0.5)
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        plus, minus = circular_centroids(pair, kin, beam, "h")
        expected = -(1.0 / (2 * math.pi)) * 2.0 / math.tan(0.8)
        assert plus == pytest.approx(expected, rel=1e-2)
        assert minus == pytest.approx(-plus, rel=1e-9)

    def test_sigma_components_mirror(self):
        pair = ReflectionPair(r_e=0.3 * cmath.exp(0.5j), r_m=0.45 * cmath.exp(-0.2j))
        kin = Kinematics(LAMBDA, 0.7)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        for pol in ("h", "v"):
            plus, minus = circular_centroids(pair, kin, beam, pol)
            assert minus == pytest.approx(-plus, rel=1e-9)

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
            pair = ReflectionPair(r_e, r_m)
            closed = transverse_shifts(pair, LAMBDA, theta)
            if abs(closed.delta_h_plus) < 0.05 or abs(closed.delta_h_plus) > 10.0:
                continue
            kin = Kinematics(LAMBDA, theta)
            plus, _ = circular_centroids(pair, kin, beam, "h")
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
        stack = Stack(
            layers=(
                Layer(2.22 + 0.04j, 0.2),
                Layer(permittivity(CHI_BASE), 5.0),
                Layer(2.22 - 0.04j, 0.2),
            )
        )
        kin = Kinematics(LAMBDA, 0.7)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        from spinhall.strata import reflection_pair

        pair = reflection_pair(stack, kin)
        closed = transverse_shifts(pair, LAMBDA, 0.7)
        oracle_h, oracle_v = centroid_shift_oracle(stack, kin, beam)
        assert oracle_h == pytest.approx(closed.delta_h_plus, rel=1e-2)
        assert oracle_v == pytest.approx(closed.delta_v_plus, rel=1e-2)

    def test_oracle_declines_singular_points(self):
        vacuum = Stack(layers=(Layer(1.0, 1.0),))
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        assert centroid_shift_oracle(vacuum, kin, beam) == (None, None)

    def test_oracle_requires_wide_waist(self):
        kin = Kinematics(LAMBDA, 0.8)
        with pytest.raises(ResolutionError, match="waist"):
            centroid_shift_oracle(base_stack(), kin, BeamSpec(waist_um=50 * LAMBDA))

    def test_polarization_argument_checked(self):
        pair = ReflectionPair(0.4, 0.5)
        kin = Kinematics(LAMBDA, 0.8)
        with pytest.raises(ValueError, match="polarization"):
            circular_centroids(pair, kin, BeamSpec(waist_um=500 * LAMBDA), "x")


def fft2_centroids(pair, kin, beam, polarization):
    """The full 2D reference: the reflected spectrum on the kx-ky meshgrid,
    a forward fft2 to real space, |E|^2 summed over the in-plane axis x."""
    k1, dk = fft_axis(beam)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    envelope = gaussian_spectrum(beam, kx, ky)
    cross = ky * (1.0 / math.tan(kin.theta_rad)) * (pair.r_m + pair.r_e) / kin.k
    if polarization == "h":
        e_h, e_v = pair.r_m * envelope, -cross * envelope
    else:
        e_h, e_v = cross * envelope, pair.r_e * envelope
    y = np.fft.fftfreq(FFT_SAMPLES, d=dk / (2.0 * math.pi))
    centroids = []
    for spectrum in ((e_h + 1j * e_v) / math.sqrt(2.0), (e_h - 1j * e_v) / math.sqrt(2.0)):
        profile = (np.abs(np.fft.fft2(spectrum)) ** 2).sum(axis=0)
        centroids.append(float((profile * y).sum() / profile.sum()) / kin.lambda_um)
    return tuple(centroids)


def _random_pair_cases():
    rng = np.random.default_rng(41)
    for _ in range(4):
        pair = ReflectionPair(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        yield pair, Kinematics(LAMBDA, rng.uniform(0.4, 1.2)), BeamSpec(waist_um=500 * LAMBDA)


def _near_extinction_cases():
    for rm_abs, theta in ((1e-3, 0.95), (1e-4, 0.98), (1e-5, 1.0)):
        pair = ReflectionPair(r_e=0.6 * cmath.exp(0.4j), r_m=rm_abs * cmath.exp(-1.1j))
        yield pair, Kinematics(LAMBDA, theta), BeamSpec(waist_um=500 * LAMBDA)


def _gain_loss_walls_case():
    from spinhall.strata import reflection_pair

    stack = Stack(
        layers=(
            Layer(2.22 + 0.04j, 0.2),
            Layer(permittivity(CHI_BASE), 5.0),
            Layer(2.22 - 0.04j, 0.2),
        )
    )
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
            got = circular_centroids(pair, kin, beam, polarization)
            want = fft2_centroids(pair, kin, beam, polarization)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-10, abs=0.0)


def fft1_centroids(pair, kin, beam, polarization):
    """The per-component reference: one 1D FFT of b(ky)*(alpha + beta*ky)
    per circular component, |E|^2 and its y-moment summed on the grid."""
    ky, dk = fft_axis(beam)
    envelope = gaussian_spectrum(beam, 0.0, ky)
    cross = ky * (1.0 / math.tan(kin.theta_rad)) * (pair.r_m + pair.r_e) / kin.k
    if polarization == "h":
        e_h, e_v = pair.r_m * envelope, -cross * envelope
    else:
        e_h, e_v = cross * envelope, pair.r_e * envelope
    y = np.fft.fftfreq(FFT_SAMPLES, d=dk / (2.0 * math.pi))
    centroids = []
    for spectrum in ((e_h + 1j * e_v) / math.sqrt(2.0), (e_h - 1j * e_v) / math.sqrt(2.0)):
        profile = np.abs(np.fft.fft(spectrum)) ** 2
        total = profile.sum()
        centroids.append(math.nan if total == 0.0 else float((profile * y).sum() / total) / kin.lambda_um)
    return tuple(centroids)


def fft1_oracle(stack, kin, beam):
    """centroid_shift_oracle on the per-component reference."""
    pair = reflection_pair(stack, kin)
    delta_h = None if abs(pair.r_m) < SINGULAR_REFLECTION else fft1_centroids(pair, kin, beam, "h")[0]
    delta_v = None if abs(pair.r_e) < SINGULAR_REFLECTION else fft1_centroids(pair, kin, beam, "v")[0]
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
                    got = circular_centroids(pair, kin, beam, polarization)
                    want = fft1_centroids(pair, kin, beam, polarization)
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_zero_field_centroid_is_nan(self):
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        got = circular_centroids(ReflectionPair(0j, 0j), kin, beam, "h")
        assert all(math.isnan(c) for c in got)
        assert all(math.isnan(c) for c in fft1_centroids(ReflectionPair(0j, 0j), kin, beam, "h"))

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
            circular_centroids(ReflectionPair(0.4, 0.5), kin, beam, "h")
        assert len(pairs) == len(thetas)


def oracle_from_circular_centroids(stack, kin, beam):
    """The oracle's slots as the sigma+ centroids of the per-polarization API."""
    pair = reflection_pair(stack, kin)
    delta_h = delta_v = None
    if abs(pair.r_m) >= SINGULAR_REFLECTION:
        delta_h = circular_centroids(pair, kin, beam, "h")[0]
    if abs(pair.r_e) >= SINGULAR_REFLECTION:
        delta_v = circular_centroids(pair, kin, beam, "v")[0]
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


class TestOnePassPoint:
    """A point builds the cross-polarization coupling once for h and v, with
    the outputs of the per-polarization form."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_outputs_equal_the_per_polarization_form(self, name):
        for stack, kin, beam in moment_grid(name):
            assert_bit_equal(centroid_shift_oracle(stack, kin, beam),
                             oracle_from_circular_centroids(stack, kin, beam))

    def test_zero_field_matches_as_nan(self):
        kin = Kinematics(LAMBDA, 0.8)
        beam = BeamSpec(waist_um=500 * LAMBDA)
        for polarization in ("h", "v"):
            got = circular_centroids(ReflectionPair(0j, 0j), kin, beam, polarization)
            assert all(math.isnan(c) for c in got)


class TestWaistFactor:
    """The oracle is the closed form times k^2 w0^2 / (k^2 w0^2 + |X|^2), with
    X = (1 + r_e/r_m) cot(theta) for h input and (1 + r_m/r_e) cot(theta) for v."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_oracle_is_the_closed_form_times_the_waist_factor(self, name):
        for stack, kin, beam in moment_grid(name, angles=200):
            pair = reflection_pair(stack, kin)
            closed = transverse_shifts(pair, kin.lambda_um, kin.theta_rad)
            kw2 = (kin.k * beam.waist_um) ** 2
            cot = 1.0 / math.tan(kin.theta_rad)
            x_h, x_v = (1.0 + pair.r_e / pair.r_m) * cot, (1.0 + pair.r_m / pair.r_e) * cot
            oracle_h, oracle_v = centroid_shift_oracle(stack, kin, beam)
            want_h = closed.delta_h_plus * kw2 / (kw2 + abs(x_h) ** 2)
            want_v = closed.delta_v_plus * kw2 / (kw2 + abs(x_v) ** 2)
            assert oracle_h == pytest.approx(want_h, rel=1e-12, abs=1e-12)
            assert oracle_v == pytest.approx(want_v, rel=1e-12, abs=1e-12)
