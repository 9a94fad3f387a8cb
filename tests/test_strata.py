"""Transfer-matrix solver tests: frozen matrix entries, Airy equivalence,
unimodularity, composition, passivity, polarization degeneracies, the side
the light enters, and the per-point kernel against the grid kernel."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from spinhall import strata
from spinhall.strata import (
    DegenerateGeometryError,
    Kinematics,
    Layer,
    Stack,
    reflection_arrays,
    reflection_pair,
)
from spinhall.presets import PRESET_NAMES, preset
from spinhall.qw_medium import susceptibility
from spinhall.shifts import _principal_phase
from spinhall.sweep import _layers, build_stack, find_resonance, sweep_point

# the reference slab: eps=2.22, d=0.2 um at lambda=1.85 um, theta=0.98 rad
REF_LAYER = Layer(epsilon=2.22, thickness_um=0.2)
REF_KIN = Kinematics(lambda_um=1.85, theta_rad=0.98)

# frozen from a 50-digit evaluation of cos/sin(kx*d) and the admittances
REF_COS = 0.66725613662035852
REF_SIN_OVER_Q = 0.60210408436776767
REF_Q_SIN = 0.92138429641280774
REF_SIN_OVER_P = 1.3366710672964442
REF_P_SIN = 0.41503797135712060

BREWSTER_222 = 0.97969212158629573  # atan(sqrt(2.22))


def airy_reflection(epsilon, d_um, kin, polarization):
    """Two-interface Airy formula for a single slab in vacuum.

    Independent of the transfer-matrix route: interface Fresnel coefficients
    plus the geometric series of internal bounces.
    """
    kx0 = kin.k * math.cos(kin.theta_rad)
    rad = complex(epsilon) * kin.k ** 2 - kin.k_z ** 2
    if rad.imag == 0.0:
        rad = complex(rad.real, 0.0)
    kx1 = cmath.sqrt(rad)
    if polarization == "te":
        a0, a1 = kx0 / kin.k, kx1 / kin.k
    else:
        a0, a1 = kx0 / kin.k, kx1 / (kin.k * complex(epsilon))
    r01 = (a0 - a1) / (a0 + a1)
    r12 = (a1 - a0) / (a1 + a0)
    bounce = cmath.exp(2j * kx1 * d_um)
    return (r01 + r12 * bounce) / (1 + r01 * r12 * bounce)


def recursion_reflection(epsilons, thicknesses, kin, polarization):
    """Multi-layer Airy recursion for vacuum | layers | vacuum, the light
    meeting the layers in the order given.  Independent of the transfer
    matrix: interface Fresnel coefficients folded from the far side in."""
    eps = [1.0 + 0j] + [complex(e) for e in epsilons] + [1.0 + 0j]
    thick = [0.0] + list(thicknesses) + [0.0]
    kx = []
    for e in eps:
        rad = e * kin.k ** 2 - kin.k_z ** 2
        if rad.imag == 0.0:
            rad = complex(rad.real, 0.0)
        kx.append(cmath.sqrt(rad))
    gamma = 0j
    for j in range(len(eps) - 2, -1, -1):
        if polarization == "te":
            a, b = kx[j], kx[j + 1]
        else:
            a, b = kx[j] / eps[j], kx[j + 1] / eps[j + 1]
        r = (a - b) / (a + b)
        bounce = cmath.exp(2j * kx[j + 1] * thick[j + 1])
        gamma = (r + gamma * bounce) / (1.0 + r * gamma * bounce)
    return gamma


def point_normal_k(epsilon: complex, k: float, k_z: float) -> complex:
    """`_normal_k` at one point, with the same signed-zero rule."""
    return cmath.sqrt(epsilon * k ** 2 - k_z ** 2 + 0j)


def point_entries(epsilon: complex, thickness_um: float, k: float, k_z: float):
    """`_layer_entries` at one point, in Python complex arithmetic; cmath
    raises OverflowError where the batch kernel would overflow to inf.  The
    reference for the entries the point kernel computes in its row loop."""
    kx = point_normal_k(epsilon, k, k_z)
    phase = kx * thickness_um
    c, s = cmath.cos(phase), cmath.sin(phase)
    s_over_kx = s * (1 / kx) if kx else thickness_um
    m12, m21 = 1j * k * s_over_kx, 1j / k * kx * s
    return (c, m12, m21, c), (c, epsilon * m12, 1 / epsilon * m21, c)


def layer_matrices(layer, kin):
    """[(TE, TM) 2x2 layer matrices] from the per-point reference and from the
    grid kernel at the same point, in that order."""
    point = point_entries(complex(layer.epsilon), layer.thickness_um, kin.k, kin.k_z)
    with np.errstate(all="ignore"):  # the grid kernel divides by kx = 0 before masking it
        grid = strata._layer_entries(np.array([layer.epsilon]), layer.thickness_um, kin.k, np.array([kin.k_z]))
    return [tuple(np.array(m, dtype=complex).reshape(2, 2) for m in entries) for entries in (point, grid)]


def normal_ks(epsilon, kin):
    """kx from the per-point reference and from the grid kernel."""
    grid = strata._normal_k(np.array([epsilon], dtype=complex), kin.k, np.array([kin.k_z]))
    return point_normal_k(complex(epsilon), kin.k, kin.k_z), complex(grid[0])


def random_layers(rng, n, lossless=False):
    layers = []
    for _ in range(n):
        if lossless:
            eps = complex(rng.uniform(1.0, 6.0), 0.0)
        else:
            eps = complex(rng.uniform(-4.0, 6.0), rng.uniform(-0.5, 0.5))
            if eps == 0:
                eps = 1.5 + 0j
        layers.append(Layer(epsilon=eps, thickness_um=rng.uniform(0.0, 3.0)))
    return tuple(layers)


class TestLayerMatrices:
    def test_reference_entries_te(self):
        for m, _ in layer_matrices(REF_LAYER, REF_KIN):
            np.testing.assert_allclose(m[0, 0], REF_COS, rtol=1e-12)
            np.testing.assert_allclose(m[1, 1], REF_COS, rtol=1e-12)
            np.testing.assert_allclose(m[0, 1], 1j * REF_SIN_OVER_Q, rtol=1e-12)
            np.testing.assert_allclose(m[1, 0], 1j * REF_Q_SIN, rtol=1e-12)

    def test_reference_entries_tm(self):
        for _, m in layer_matrices(REF_LAYER, REF_KIN):
            np.testing.assert_allclose(m[0, 0], REF_COS, rtol=1e-12)
            np.testing.assert_allclose(m[0, 1], 1j * REF_SIN_OVER_P, rtol=1e-12)
            np.testing.assert_allclose(m[1, 0], 1j * REF_P_SIN, rtol=1e-12)

    def test_zero_thickness_is_identity(self):
        layer = Layer(epsilon=3.5 + 0.2j, thickness_um=0.0)
        for matrices in layer_matrices(layer, REF_KIN):
            for m in matrices:
                np.testing.assert_array_equal(m, np.eye(2))

    def test_vacuum_layer_is_free_propagation(self):
        layer = Layer(epsilon=1.0, thickness_um=0.7)
        kin = Kinematics(lambda_um=1.85, theta_rad=0.6)
        kx, grid_kx = normal_ks(1.0, kin)
        assert kx == pytest.approx(kin.k * math.cos(0.6), rel=1e-14)
        assert grid_kx == pytest.approx(kin.k * math.cos(0.6), rel=1e-14)
        q0 = math.cos(0.6)
        phase = kx * 0.7
        for m, _ in layer_matrices(layer, kin):
            np.testing.assert_allclose(m[0, 0], cmath.cos(phase), rtol=1e-14)
            np.testing.assert_allclose(m[0, 1], 1j * cmath.sin(phase) / q0, rtol=1e-14)
            np.testing.assert_allclose(np.linalg.det(m), 1.0, atol=1e-14)

    def test_unimodular_over_random_media(self):
        # includes lossy, gainy, metal-like (negative real eps) and
        # evanescent regimes; draws with |Im(kx)*d| > 4 are rejected since
        # exp(2|Im(phase)|) entry growth would push the double-precision
        # cancellation floor of det - 1 above the tolerance
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 400:
            layer = Layer(
                epsilon=complex(rng.uniform(-4.0, 6.0), rng.uniform(-1.0, 1.0)) or 1.0,
                thickness_um=rng.uniform(0.0, 2.0),
            )
            kin = Kinematics(
                lambda_um=rng.uniform(0.4, 3.0), theta_rad=rng.uniform(0.01, 1.55)
            )
            if abs(normal_ks(layer.epsilon, kin)[0].imag) * layer.thickness_um > 4.0:
                continue
            for matrices in layer_matrices(layer, kin):
                for m in matrices:
                    assert abs(np.linalg.det(m) - 1.0) < 1e-12
            checked += 1

    def test_evanescent_branch_decays(self):
        # real radicand below zero, whatever the sign of its zero imaginary
        # part: kx must land on +i|kx| in both kernels
        kin = Kinematics(lambda_um=1.0, theta_rad=1.2)
        for epsilon in (0.2, complex(0.2, 0.0), complex(0.2, -0.0)):
            for kx in normal_ks(epsilon, kin):
                assert kx.real == 0.0
                assert kx.imag > 0.0


class TestReflection:
    def test_all_vacuum_stack_reflects_nothing(self):
        stack = Stack(layers=(Layer(1.0, 1.0), Layer(1.0, 2.5), Layer(1.0, 0.3)))
        kin = Kinematics(1.85, 0.7)
        r_e, r_m = reflection_pair(stack, kin)
        assert abs(r_e) < 1e-14
        assert abs(r_m) < 1e-14

    def test_zero_thickness_stack_reflects_nothing(self):
        stack = Stack(layers=(Layer(2.22, 0.0), Layer(1.5 + 0.1j, 0.0)))
        kin = Kinematics(1.85, 0.7)
        r_e, r_m = reflection_pair(stack, kin)
        assert r_e == 0.0
        assert r_m == 0.0

    def test_airy_equivalence_reference_slab(self):
        kin = Kinematics(lambda_um=1.85, theta_rad=0.5)
        stack = Stack(layers=(Layer(2.22, 0.2),))
        for got, pol in zip(reflection_pair(stack, kin), ("te", "tm")):
            want = airy_reflection(2.22, 0.2, kin, pol)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_airy_equivalence_random_slabs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            eps = complex(rng.uniform(1.0, 6.0), rng.uniform(0.0, 0.5))
            d = rng.uniform(0.0, 4.0)
            kin = Kinematics(rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.5))
            stack = Stack(layers=(Layer(eps, d),))
            for got, pol in zip(reflection_pair(stack, kin), ("te", "tm")):
                want = airy_reflection(eps, d, kin, pol)
                assert abs(got - want) <= 1e-10 * max(abs(want), 1e-12)

    def test_sublayer_composition(self):
        rng = np.random.default_rng(5)
        kin = Kinematics(1.55, 0.9)
        for _ in range(100):
            eps = complex(rng.uniform(1.0, 5.0), rng.uniform(-0.2, 0.5))
            d = rng.uniform(0.1, 3.0)
            whole = Stack(layers=(Layer(2.0, 0.4), Layer(eps, d), Layer(3.0, 0.2)))
            split = Stack(
                layers=(Layer(2.0, 0.4), Layer(eps, d / 2), Layer(eps, d / 2), Layer(3.0, 0.2))
            )
            (got_e, got_m), (want_e, want_m) = reflection_pair(whole, kin), reflection_pair(split, kin)
            assert abs(got_e - want_e) < 1e-12
            assert abs(got_m - want_m) < 1e-12

    def test_lossless_passivity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            stack = Stack(layers=random_layers(rng, rng.integers(1, 5), lossless=True))
            kin = Kinematics(rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.55))
            r_e, r_m = reflection_pair(stack, kin)
            assert abs(r_e) <= 1.0 + 1e-10
            assert abs(r_m) <= 1.0 + 1e-10

    def test_normal_incidence_degeneracy(self):
        rng = np.random.default_rng(17)
        kin = Kinematics(1.85, 1e-6)
        for _ in range(100):
            stack = Stack(layers=random_layers(rng, rng.integers(1, 5), lossless=True))
            r_e, r_m = reflection_pair(stack, kin)
            assert abs(abs(r_e) - abs(r_m)) < 1e-10

    def test_thick_slab_tm_null_at_brewster(self):
        # a thick lossless slab extinguishes TM right at atan(sqrt(eps))
        stack = Stack(layers=(Layer(2.22, 50.0),))
        thetas = np.linspace(0.9, 1.05, 4001)
        rm = np.array([abs(reflection_pair(stack, Kinematics(1.85, t))[1]) for t in thetas])
        theta_min = thetas[rm.argmin()]
        assert theta_min == pytest.approx(BREWSTER_222, abs=1e-3)
        assert rm.min() < 1e-3
        re_there = abs(reflection_pair(stack, Kinematics(1.85, theta_min))[0])
        assert re_there / rm.min() > 1e2

    def test_complex_wall_permittivities_accepted(self):
        stack = Stack(
            layers=(Layer(2.22 + 0.04j, 0.2), Layer(1.0 + 0.004j, 5.0), Layer(2.22 - 0.04j, 0.2))
        )
        r_e, r_m = reflection_pair(stack, Kinematics(1.85, 0.98))
        assert np.isfinite(r_e.real) and np.isfinite(r_m.imag)

    def test_overflowing_layer_raises_per_point_and_is_nan_in_a_batch(self):
        # |Im(kx) d| ~ 2000 overflows cosh: the point raises, the batch masks it
        stack = Stack(layers=(Layer(-4.0 + 0.1j, 80.0),))
        with pytest.raises(OverflowError):
            reflection_pair(stack, Kinematics(0.5, 0.3))
        r_e, r_m = reflection_arrays([(-4.0 + 0.1j, 80.0)], 0.5, np.array([0.3, 1.0]))
        assert np.all(np.isnan(r_e)) and np.all(np.isnan(r_m))

    def test_degenerate_matrix_rejected(self, monkeypatch):
        # all-zero layer entries take the row vector (-q0, 1) to (0, 0), so
        # numerator and denominator vanish in both polarizations; a cos and
        # sin of 0 make every entry zero
        zero = lambda phase: 0j
        monkeypatch.setattr(strata, "cmath", SimpleNamespace(sqrt=cmath.sqrt, cos=zero, sin=zero,
                                                             isfinite=cmath.isfinite))
        fractions = strata._point_fractions([Layer(2.22, 0.2)], 1.0, 0.5, 0.5)
        for numerator, denominator in fractions:
            with pytest.raises(DegenerateGeometryError, match="denominator vanished"):
                strata._checked(numerator, denominator, 0.5)


class TestEntrySide:
    """The product in stack order describes light entering through the last
    layer: on an asymmetric wall | slab | wall cavity (the fig6b walls, loss
    on one side and gain on the other) it matches the recursion over the
    reversed layers and not over the layers as listed."""

    EPSILONS = (2.22 + 0.04j, 1.0015 + 0.0032j, 2.22 - 0.04j)
    THICKNESSES = (0.2, 5.0, 0.2)

    def test_light_enters_through_the_last_layer(self):
        stack = Stack(layers=tuple(Layer(e, d) for e, d in zip(self.EPSILONS, self.THICKNESSES)))
        thetas = np.array([0.3, 0.7, 0.9, 0.979, 0.98, 1.2])
        batch = reflection_arrays(list(zip(self.EPSILONS, self.THICKNESSES)), 1.85, thetas)
        for i, theta in enumerate(thetas):
            kin = Kinematics(1.85, float(theta))
            scalar = reflection_pair(stack, kin)
            for pol, got_scalar, got_batch in zip(("te", "tm"), scalar, batch):
                entering_last = recursion_reflection(
                    self.EPSILONS[::-1], self.THICKNESSES[::-1], kin, pol
                )
                entering_first = recursion_reflection(self.EPSILONS, self.THICKNESSES, kin, pol)
                assert abs(got_scalar - entering_last) <= 1e-10 * abs(entering_last)
                assert abs(got_batch[i] - entering_last) <= 1e-10 * abs(entering_last)
                # the two sides differ, so the check above pins the side
                assert abs(entering_first - entering_last) > 1e-3 * abs(entering_last)


class TestPresetRows:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_kernel_matches_the_recursion_on_every_row(self, name):
        # every row of the preset, each with its own medium and angle, in one
        # batch; the light enters through the last layer (see TestEntrySide)
        scenario, spec = preset(name)
        points = [sweep_point(scenario, spec, float(v)) for v in np.linspace(spec.lo, spec.hi, spec.samples)]
        eps2 = np.array([1.0 + susceptibility(qw).chi for qw, _ in points])
        thetas = np.array([theta for _, theta in points])
        thicknesses = (scenario.d1_um, scenario.d2_um, scenario.d1_um)
        layers = list(zip((scenario.epsilon1, eps2, scenario.epsilon3), thicknesses))
        batch = reflection_arrays(layers, scenario.lambda_um, thetas)
        for i, theta in enumerate(thetas):
            kin = Kinematics(scenario.lambda_um, float(theta))
            epsilons = (scenario.epsilon3, eps2[i], scenario.epsilon1)
            for pol, got in zip(("te", "tm"), batch):
                want = recursion_reflection(epsilons, thicknesses[::-1], kin, pol)
                assert abs(got[i] - want) <= 1e-10 * abs(want), (name, pol, float(theta))


class TestReflectionArrays:
    def test_batch_matches_per_point_on_random_lossy_stacks(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            stack = Stack(layers=random_layers(rng, rng.integers(1, 5)))
            layers = [(layer.epsilon, layer.thickness_um) for layer in stack.layers]
            lambda_um = rng.uniform(0.5, 3.0)
            thetas = rng.uniform(0.05, 1.5, size=8)
            r_e, r_m = reflection_arrays(layers, lambda_um, thetas)
            assert r_e.shape == r_m.shape == thetas.shape
            for i, theta in enumerate(thetas):
                one_e, one_m = reflection_arrays(layers, lambda_um, theta)
                pair = reflection_pair(stack, Kinematics(lambda_um, float(theta)))
                for got, zero_d, want in zip((r_e[i], r_m[i]), (one_e, one_m), pair):
                    assert abs(got - zero_d) <= 1e-13 * abs(zero_d)
                    assert abs(got - want) <= 1e-13 * abs(want)

    def test_array_middle_permittivity(self):
        # a grid over the middle layer at one angle, as an omega_c sweep runs it
        eps2 = 1.0 + np.linspace(-0.01, 0.01, 7) + 0.003j
        layers = [(2.22 + 0.04j, 0.2), (eps2, 5.0), (2.22 - 0.04j, 0.2)]
        kin = Kinematics(1.85, 0.979)
        r_e, r_m = reflection_arrays(layers, 1.85, 0.979)
        assert r_e.shape == eps2.shape
        for i, eps in enumerate(eps2):
            stack = Stack(layers=(Layer(*layers[0]), Layer(eps, 5.0), Layer(*layers[2])))
            want_e, want_m = reflection_pair(stack, kin)
            assert abs(r_e[i] - want_e) <= 1e-13 * abs(want_e)
            assert abs(r_m[i] - want_m) <= 1e-13 * abs(want_m)

    def test_denominator_floor_masks_only_that_point(self, monkeypatch):
        # zero-thickness layers make M the identity, so the denominator is
        # exactly 2*cos(theta); a floor of 1e-2 then catches only the
        # near-grazing angle
        monkeypatch.setattr(strata, "DENOMINATOR_FLOOR", 1e-2)
        layers = [(2.22, 0.0), (1.5 + 0.1j, 0.0)]
        thetas = np.array([0.5, 1.0, 1.5707, 1.2])
        for r in reflection_arrays(layers, 1.85, thetas):
            assert np.isnan(r[2])
            assert np.all(r[[0, 1, 3]] == 0.0)
        stack = Stack(layers=tuple(Layer(e, d) for e, d in layers))
        with pytest.raises(DegenerateGeometryError):
            reflection_pair(stack, Kinematics(1.85, 1.5707))
        assert reflection_pair(stack, Kinematics(1.85, 1.2))[1] == 0.0


class TestReflectionPair:
    def test_phases_in_half_open_interval(self):
        phi_e, phi_m = _principal_phase(complex(-1.0, -0.0)), _principal_phase(complex(-1.0, 0.0))
        assert phi_e == pytest.approx(math.pi)
        assert phi_m == pytest.approx(math.pi)
        assert -math.pi < phi_e <= math.pi

    def test_pair_is_python_complex_and_matches_the_grid(self):
        layers = ((2.22, 0.2), (1.001 + 0.004j, 5.0), (2.22, 0.2))
        pair = reflection_pair(Stack(layers=tuple(Layer(*l) for l in layers)), Kinematics(1.85, 0.98))
        assert type(pair) is tuple and [type(r) for r in pair] == [complex, complex]
        for got, want in zip(pair, reflection_arrays(layers, 1.85, np.array([0.98]))):
            assert abs(got - want[0]) <= 1e-13 * abs(want[0])


# offsets (rad) from each preset's resonance angle, out to where the TM
# extinction no longer dominates
EXTINCTION_OFFSETS = [0.0, *(sign * 10.0**e for e in (-9, -7, -6, -5, -4, -3) for sign in (-1.0, 1.0))]


class TestPointKernel:
    """The per-point kernel (Python complex) against the grid kernel (numpy)
    where the two differ most: at the TM extinction, on the branch cut and
    at the kx -> 0 limit."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6a", "fig6b"])
    def test_matches_the_grid_around_the_resonance(self, name):
        # relative agreement degrades as |r_m| falls (fig4 reaches ~1e-11 at
        # |r_m| ~ 2e-5), so the bound carries an absolute floor
        scenario, spec = preset(name)
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)
        layers = [(layer.epsilon, layer.thickness_um) for layer in stack.layers]
        theta_star = find_resonance(scenario, (spec.lo, spec.hi)).theta_star
        thetas = np.array([theta_star + d for d in EXTINCTION_OFFSETS])
        grid = reflection_arrays(layers, scenario.lambda_um, thetas)
        for i, theta in enumerate(thetas):
            pair = reflection_pair(stack, Kinematics(scenario.lambda_um, float(theta)))
            for got, want in zip(pair, grid):
                assert type(got) is complex
                assert abs(got - want[i]) <= 1e-12 * abs(want[i]) + 1e-15

    def test_signed_zero_permittivity_gives_equal_results(self):
        kin = Kinematics(1.85, 0.7)
        pairs = [
            reflection_pair(Stack(layers=(Layer(2.22, 0.2), Layer(eps, 0.3), Layer(2.22, 0.2))), kin)
            for eps in (complex(-4.0, -0.0), complex(-4.0, 0.0))
        ]
        assert pairs[0] == pairs[1]
        grid = reflection_arrays([(2.22, 0.2), (complex(-4.0, -0.0), 0.3), (2.22, 0.2)], 1.85, 0.7)
        for got, want in zip(pairs[0], grid):
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_critical_propagation_limit(self):
        # k = 1 and eps = sin^2(theta) make the radicand exactly zero, so both
        # kernels take the kx -> 0 limit m12 = i*k*eps_factor*d
        theta, d = 0.7, 0.4
        kin = Kinematics(2.0 * math.pi, theta)
        eps = math.sin(theta) ** 2
        assert kin.k == 1.0 and normal_ks(eps, kin) == (0j, 0j)
        for te, tm in layer_matrices(Layer(eps, d), kin):
            np.testing.assert_array_equal(te, [[1.0, 1j * d], [0.0, 1.0]])
            np.testing.assert_array_equal(tm, [[1.0, 1j * eps * d], [0.0, 1.0]])
        layers = [(2.22, 0.2), (eps, d), (2.22, 0.2)]
        pair = reflection_pair(Stack(layers=tuple(Layer(*layer) for layer in layers)), kin)
        for got, want in zip(pair, reflection_arrays(layers, kin.lambda_um, theta)):
            assert cmath.isfinite(got)
            assert abs(got - want) <= 1e-13 * abs(want)


class TestValidation:
    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            Layer(epsilon=0.0, thickness_um=1.0)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError, match="thickness"):
            Layer(epsilon=2.0, thickness_um=-0.1)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="layer"):
            Stack(layers=())

    def test_kinematics_domain(self):
        with pytest.raises(ValueError, match="theta"):
            Kinematics(1.85, 0.0)
        with pytest.raises(ValueError, match="theta"):
            Kinematics(1.85, math.pi / 2)
        with pytest.raises(ValueError, match="lambda"):
            Kinematics(0.0, 0.5)


def stack_fractions_reference(layers, k, k_z, q0, entries):
    """`strata._stack_fractions` with the row step as a function of its own:
    the same products and sums in the same order."""

    def step(row, m):
        (w1, w2), (c, m12, m21, _) = row, m
        return w1 * c + w2 * m21, w1 * m12 + w2 * c

    te = tm = (-q0, 1.0)
    for epsilon, thickness_um in layers:
        layer_te, layer_tm = entries(epsilon, thickness_um, k, k_z)
        te, tm = step(te, layer_te), step(tm, layer_tm)
    return [(w1 + q0 * w2, q0 * w2 - w1) for w1, w2 in (te, tm)]


class TestRowLoop:
    """Both kernels' row loop equals the step-by-step reference bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_both_kernels_equal_the_reference(self, name):
        scenario, _ = preset(name)
        chi = susceptibility(scenario.qw).chi
        layers = [(complex(e), d) for e, d in _layers(scenario, chi)]
        k = 2.0 * math.pi / scenario.lambda_um
        thetas = np.linspace(0.05, 1.5, 400)
        with np.errstate(all="ignore"):
            got = strata._stack_fractions(layers, k, k * np.sin(thetas), np.cos(thetas))
            want = stack_fractions_reference(layers, k, k * np.sin(thetas), np.cos(thetas),
                                             strata._layer_entries)
        for g, w in zip(got, want):
            for g_part, w_part in zip(g, w):
                np.testing.assert_array_equal(g_part, w_part)
        stack = build_stack(scenario, chi)
        for theta in thetas[::8]:
            args = (k, k * math.sin(theta), math.cos(theta))
            want = stack_fractions_reference(layers, *args, point_entries)
            assert list(strata._point_fractions(stack.layers, *args)) == want

    def test_point_loop_takes_a_complex_angle(self):
        # r_m's complex zero z is found by evaluating r at k_z = k sin z, q0 = cos z
        scenario, _ = preset("fig2")
        chi = susceptibility(scenario.qw).chi
        layers = [(complex(e), d) for e, d in _layers(scenario, chi)]
        k, z = 2.0 * math.pi / scenario.lambda_um, 0.98 + 1e-3j
        args = (k, k * cmath.sin(z), cmath.cos(z))
        want = stack_fractions_reference(layers, *args, point_entries)
        assert list(strata._point_fractions(build_stack(scenario, chi).layers, *args)) == want

    def test_point_loop_on_random_stacks(self):
        # 1-5 layers drawn among repeats of the first layer, zero-thickness
        # layers and, at k = 1, exactly critical layers (eps = sin^2(theta),
        # so kx = 0 and the entries take the kx -> 0 limit)
        rng = np.random.default_rng(29)
        critical = 0
        for _ in range(400):
            theta = rng.uniform(0.05, 1.5)
            k = 1.0 if rng.random() < 0.5 else rng.uniform(1.0, 10.0)
            layers = []
            for _ in range(rng.integers(1, 6)):
                kind = rng.integers(0, 4)
                if kind == 0 and layers:
                    layers.append(layers[0])
                elif kind == 1 and k == 1.0:
                    layers.append(Layer(math.sin(theta) ** 2, rng.uniform(0.0, 3.0)))
                else:
                    eps = complex(rng.uniform(-4.0, 6.0), rng.uniform(-0.5, 0.5)) or 1.5
                    layers.append(Layer(eps, 0.0 if kind == 2 else rng.uniform(0.0, 3.0)))
            args = (k, k * math.sin(theta), math.cos(theta))
            critical += sum(point_normal_k(complex(layer.epsilon), k, args[1]) == 0 for layer in layers)
            reference = [(complex(layer.epsilon), layer.thickness_um) for layer in layers]
            want = stack_fractions_reference(reference, *args, point_entries)
            assert list(strata._point_fractions(tuple(layers), *args)) == want
        assert critical > 50


class TestWallReuse:
    """The point kernel computes a layer equal to the first (epsilon and
    thickness) once: a symmetric cavity's second wall costs no entries.
    Each layer's entries take one cmath.sqrt, for its kx."""

    @staticmethod
    def entries_per_pair(monkeypatch, stack):
        calls = []

        def counted(z):
            calls.append(z)
            return cmath.sqrt(z)

        monkeypatch.setattr(strata, "cmath", SimpleNamespace(sqrt=counted, cos=cmath.cos, sin=cmath.sin,
                                                             isfinite=cmath.isfinite))
        reflection_pair(stack, Kinematics(1.85, 0.979))
        return len(calls)

    @pytest.mark.parametrize("name, calls", [("fig2", 2), ("fig6b", 3)])
    def test_preset_cavities(self, monkeypatch, name, calls):
        # fig2's walls are equal; fig6b's are loss | gain
        scenario, _ = preset(name)
        stack = build_stack(scenario, susceptibility(scenario.qw).chi)
        assert self.entries_per_pair(monkeypatch, stack) == calls

    def test_equal_epsilon_at_another_thickness_is_computed(self, monkeypatch):
        stack = Stack(layers=(Layer(2.22, 0.2), Layer(1.001 + 0.004j, 5.0), Layer(2.22, 0.3)))
        assert self.entries_per_pair(monkeypatch, stack) == 3
