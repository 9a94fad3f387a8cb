"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) and enforces the criterion tolerance plus its runtime budget.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import cmath
import csv
import json
import math
import subprocess
import sys
import time

import numpy as np

from spinhall.config import config_from_scenario, scenario_from_config
from spinhall.presets import PRESET_NAMES, preset
from spinhall.qw_medium import QwParams, susceptibility, susceptibility_from_steady_state
from spinhall import strata
from spinhall.shifts import BeamSpec, centroid_shift_oracle, transverse_shifts
from spinhall.strata import Kinematics, Layer, reflection_pair
from spinhall.sweep import SweepSpec, build_stack, find_resonance, run_sweep


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def dense_shift_window(scenario, center: float, half_width: float = 0.005, samples: int = 4001):
    """delta_h_plus over a dense theta window around a resonance."""
    lo = max(center - half_width, 1e-6)
    hi = min(center + half_width, math.pi / 2 - 1e-6)
    rows = run_sweep(scenario, SweepSpec("theta", lo, hi, samples))
    thetas = np.array([row.value for row in rows])
    shifts = np.array([row.delta_h_plus_lambda for row in rows])
    keep = np.isfinite(shifts)
    return thetas[keep], shifts[keep]


def test_criterion_1_susceptibility_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = QwParams(
            *rng.uniform(1e-3, 5.0, size=6),
            beta=rng.uniform(1e-4, 0.1),
            g=rng.uniform(-2.0, 2.0),
            f=rng.uniform(-2.0, 2.0),
            delta=rng.uniform(-10.0, 10.0),
            omega_c=rng.uniform(0.0, 10.0),
        )
        closed = susceptibility(params).chi
        solved = susceptibility_from_steady_state(params)
        worst = max(worst, abs(solved - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-form susceptibility matches steady-state solve",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s over 1000 draws",
    )


def test_criterion_2_transfer_matrix_suite():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    notes = []

    # unimodularity, with draws kept clear of the double-precision
    # cancellation floor (deep evanescent layers scale det error by e^{2|Im phi|})
    worst_det = 0.0
    checked = 0
    while checked < 400:
        eps = complex(rng.uniform(-4.0, 6.0), rng.uniform(-1.0, 1.0))
        layer = Layer(epsilon=eps if eps != 0 else 1.5, thickness_um=rng.uniform(0.0, 2.0))
        kin = Kinematics(rng.uniform(0.4, 3.0), rng.uniform(0.01, 1.55))
        k = 2.0 * math.pi / kin.lambda_um
        epsilon, k_z = np.array([layer.epsilon], dtype=complex), np.array([k * math.sin(kin.theta_rad)])
        if abs(strata._normal_k(epsilon, k, k_z)[0].imag) * layer.thickness_um > 4.0:
            continue
        with np.errstate(all="ignore"):  # the grid kernel divides by kx = 0 before masking it
            both = strata._layer_entries(epsilon, layer.thickness_um, k, k_z)
        for entries in both:
            worst_det = max(worst_det, abs(np.linalg.det(np.reshape(entries, (2, 2))) - 1.0))
        checked += 1
    ok &= worst_det < 1e-12
    notes.append(f"det {worst_det:.1e}")

    # sublayer composition
    worst_split = 0.0
    for _ in range(100):
        eps = complex(rng.uniform(1.0, 5.0), rng.uniform(-0.2, 0.5))
        d = rng.uniform(0.1, 3.0)
        kin = Kinematics(rng.uniform(0.8, 2.5), rng.uniform(0.05, 1.5))
        whole = (Layer(2.0, 0.3), Layer(eps, d))
        split = (Layer(2.0, 0.3), Layer(eps, d / 2), Layer(eps, d / 2))
        (got_e, got_m), (want_e, want_m) = reflection_pair(whole, kin), reflection_pair(split, kin)
        worst_split = max(worst_split, abs(got_e - want_e), abs(got_m - want_m))
    ok &= worst_split < 1e-12
    notes.append(f"split {worst_split:.1e}")

    # single-slab Airy equivalence
    def airy(eps, d, kin, pol):
        k = 2.0 * math.pi / kin.lambda_um
        kx0 = k * math.cos(kin.theta_rad)
        rad = complex(eps) * k ** 2 - (k * math.sin(kin.theta_rad)) ** 2
        kx1 = cmath.sqrt(complex(rad.real, rad.imag) if rad.imag != 0.0 else complex(rad.real, 0.0))
        a0 = kx0 / k
        a1 = kx1 / k if pol == "te" else kx1 / (k * complex(eps))
        r01 = (a0 - a1) / (a0 + a1)
        bounce = cmath.exp(2j * kx1 * d)
        return (r01 - r01 * bounce) / (1 - r01 * r01 * bounce)

    worst_airy = 0.0
    for _ in range(100):
        eps = complex(rng.uniform(1.0, 6.0), rng.uniform(0.0, 0.5))
        d = rng.uniform(0.05, 4.0)
        kin = Kinematics(rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.5))
        stack = (Layer(eps, d),)
        for got, pol in zip(reflection_pair(stack, kin), ("te", "tm")):
            want = airy(eps, d, kin, pol)
            worst_airy = max(worst_airy, abs(got - want) / max(abs(want), 1e-12))
    ok &= worst_airy < 1e-10
    notes.append(f"airy {worst_airy:.1e}")

    # passivity of lossless stacks and normal-incidence degeneracy
    worst_passive = 0.0
    worst_degenerate = 0.0
    kin_normal = Kinematics(1.85, 1e-6)
    for _ in range(200):
        layers = tuple(
            Layer(complex(rng.uniform(1.0, 6.0), 0.0), rng.uniform(0.0, 3.0))
            for _ in range(rng.integers(1, 5))
        )
        kin = Kinematics(rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.55))
        (r_e, r_m), (normal_e, normal_m) = reflection_pair(layers, kin), reflection_pair(layers, kin_normal)
        worst_passive = max(worst_passive, abs(r_e) - 1.0, abs(r_m) - 1.0)
        worst_degenerate = max(worst_degenerate, abs(abs(normal_e) - abs(normal_m)))
    ok &= worst_passive <= 1e-10
    ok &= worst_degenerate < 1e-10
    notes.append(f"passivity {worst_passive:.1e}, normal-incidence {worst_degenerate:.1e}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(2, "transfer-matrix correctness suite", bool(ok), ", ".join(notes) + f", {elapsed:.2f} s")


def test_criterion_3_shift_oracle_agreement():
    # sample random cavity-like stacks, keeping points inside the oracle's
    # validity domain: non-singular and shifts small against the 500-lambda
    # waist so first-order spin-orbit coupling dominates
    rng = np.random.default_rng(303)
    lam = 1.85
    beam = BeamSpec(waist_um=500 * lam)
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    while accepted < 20:
        stack = (
            Layer(complex(rng.uniform(1.5, 4.0), rng.uniform(0.0, 0.1)), rng.uniform(0.05, 0.5)),
            Layer(complex(1.0 + rng.uniform(-0.01, 0.01), rng.uniform(0.0, 0.01)), rng.uniform(1.0, 6.0)),
            Layer(complex(rng.uniform(1.5, 4.0), rng.uniform(0.0, 0.1)), rng.uniform(0.05, 0.5)),
        )
        theta = rng.uniform(0.35, 1.25)
        kin = Kinematics(lam, theta)
        pair = reflection_pair(stack, kin)
        closed = transverse_shifts(pair, lam, theta)
        if closed.h_singular or closed.v_singular:
            continue
        if not (0.02 <= abs(closed.delta_h_plus) <= 5.0):
            continue
        if not (0.02 <= abs(closed.delta_v_plus) <= 5.0):
            continue
        oracle_h, oracle_v = centroid_shift_oracle(stack, kin, beam)
        worst = max(
            worst,
            abs(oracle_h - closed.delta_h_plus) / abs(closed.delta_h_plus),
            abs(oracle_v - closed.delta_v_plus) / abs(closed.delta_v_plus),
        )
        accepted += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "closed-form shifts match angular-spectrum centroids",
        worst < 0.01 and elapsed < 30.0,
        f"worst rel err {worst:.2e} over 20 points, {elapsed:.1f} s",
    )


def test_criterion_4_antisymmetry_and_invariances():
    rng = np.random.default_rng(404)
    lam = 1.85
    worst = 0.0
    checked = 0
    while checked < 500:
        r_e = complex(rng.normal(), rng.normal())
        r_m = complex(rng.normal(), rng.normal())
        if abs(r_e) < 0.05 or abs(r_m) < 0.05:
            continue  # keep the ratio conditioned at the 1e-12 scale
        theta = rng.uniform(0.05, 1.5)
        base = transverse_shifts((r_e, r_m), lam, theta)
        rot = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        scale = rng.uniform(0.01, 100.0)
        for factor in (rot, scale, rot * scale):
            other = transverse_shifts((r_e * factor, r_m * factor), lam, theta)
            worst = max(
                worst,
                abs(other.delta_h_plus - base.delta_h_plus) / max(1.0, abs(base.delta_h_plus)),
                abs(other.delta_v_plus - base.delta_v_plus) / max(1.0, abs(base.delta_v_plus)),
            )
        checked += 1
    report(
        4,
        "phase/scale invariance (sigma- is -sigma+ by definition)",
        worst < 1e-12,
        f"invariance residual {worst:.1e}",
    )


def test_criterion_5_fig2_resonance_reproduction():
    start = time.perf_counter()
    scenario, _ = preset("fig2")
    resonance = find_resonance(scenario, (0.90, 1.05))
    thetas, shifts = dense_shift_window(scenario, resonance.theta_star)
    positive_at = thetas[int(np.argmax(shifts))]
    negative_at = thetas[int(np.argmin(shifts))]
    ok = (
        resonance.ratio_em_peak > 1e2
        and 0.90 <= resonance.theta_star <= 1.05
        and not resonance.boundary
        and shifts.max() > 10.0
        and shifts.min() < -10.0
        and positive_at < resonance.theta_star < negative_at
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        5,
        "fig2 resonance: >100x ratio with a sign-flipping giant shift",
        bool(ok),
        f"ratio {resonance.ratio_em_peak:.0f} at theta*={resonance.theta_star:.4f}, "
        f"flanks +{shifts.max():.0f}/-{abs(shifts.min()):.0f} lambda, {elapsed:.1f} s",
    )


def test_criterion_6_control_field_suppression():
    fig2, _ = preset("fig2")
    fig3, _ = preset("fig3")
    resonance = find_resonance(fig2, (0.90, 1.05))
    # the resonance angle at the reported 1e-3 rad granularity, plus the
    # control-sweep angle itself; comparing at the exact refined theta* is
    # meaningless because the control field also moves the resonance
    angles = sorted({round(resonance.theta_star, 3), 0.979})
    suppressed = True
    details = []
    for theta in angles:
        kin = Kinematics(fig2.lambda_um, theta)
        off = transverse_shifts(
            reflection_pair(build_stack(fig2, susceptibility(fig2.qw).chi), kin),
            fig2.lambda_um, theta,
        ).delta_h_plus
        on = transverse_shifts(
            reflection_pair(build_stack(fig3, susceptibility(fig3.qw).chi), kin),
            fig3.lambda_um, theta,
        ).delta_h_plus
        suppressed &= abs(on) < abs(off)
        details.append(f"theta={theta}: {abs(off):.0f} -> {abs(on):.0f}")

    fig5a, spec5a = preset("fig5a")
    rows = run_sweep(fig5a, spec5a)
    values = [row.delta_h_plus_lambda for row in rows]
    monotone_oc = all(v > 0 for v in values) and all(
        b <= a + 1e-9 for a, b in zip(values, values[1:])
    )

    monotone_delta = True
    for name in ("fig5c", "fig5d"):
        scenario, spec = preset(name)
        magnitudes = [abs(r.delta_h_plus_lambda) for r in run_sweep(scenario, spec)]
        monotone_delta &= all(b >= a - 1e-9 for a, b in zip(magnitudes, magnitudes[1:]))

    report(
        6,
        "control field suppresses the shift; splitting grows it",
        suppressed and monotone_oc and monotone_delta,
        "; ".join(details) + f"; fig5a non-increasing={monotone_oc}, fig5c/d non-decreasing={monotone_delta}",
    )


def test_criterion_7_tunneling_enhancement():
    fig2, _ = preset("fig2")
    fig4, _ = preset("fig4")
    res2 = find_resonance(fig2, (0.90, 1.05))
    res4 = find_resonance(fig4, (0.90, 1.05))
    _, shifts2 = dense_shift_window(fig2, res2.theta_star)
    _, shifts4 = dense_shift_window(fig4, res4.theta_star)
    ok = (
        res4.ratio_em_peak > res2.ratio_em_peak
        and shifts4.max() > shifts2.max()
        and abs(shifts4.min()) > abs(shifts2.min())
    )
    report(
        7,
        "raised splitting/dephasing beats the baseline resonance",
        bool(ok),
        f"ratio {res4.ratio_em_peak:.0f} > {res2.ratio_em_peak:.0f}, "
        f"flanks +{shifts4.max():.0f}/-{abs(shifts4.min()):.0f} vs "
        f"+{shifts2.max():.0f}/-{abs(shifts2.min()):.0f} lambda",
    )


def test_criterion_8_gain_loss_amplification():
    lossy, _ = preset("fig6a")
    balanced, _ = preset("fig6b")
    res_lossy = find_resonance(lossy, (0.90, 1.05))
    res_balanced = find_resonance(balanced, (0.90, 1.05))
    _, shifts_lossy = dense_shift_window(lossy, res_lossy.theta_star)
    _, shifts_balanced = dense_shift_window(balanced, res_balanced.theta_star)
    peak_lossy = np.abs(shifts_lossy).max()
    peak_balanced = np.abs(shifts_balanced).max()
    factor = peak_balanced / peak_lossy
    report(
        8,
        "balanced gain/loss walls amplify the shift over matched loss",
        factor >= 1.5,
        f"|shift| peak {peak_balanced:.0f} vs {peak_lossy:.1f} lambda (factor {factor:.1f})",
    )


def test_criterion_9_cli_contract(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    for name in PRESET_NAMES:
        result = subprocess.run(
            [sys.executable, "-m", "spinhall", "--preset", name, "--out", f"{name}.csv"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        if result.returncode == 0:
            with open(tmp_path / f"{name}.csv", newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader)
                rows = [[float(v) for v in line[:9]] for line in reader]
            ok &= header[0] == "swept" and len(rows) >= 2
            summary = json.loads((tmp_path / f"{name}.json").read_text())
            ok &= summary["preset"] == name and summary["rows"] == len(rows)
        else:
            # no CSV was written: report the child's own cause
            ok = False
            tail = result.stderr.strip().splitlines()[-1:] or ["no stderr"]
            details.append(f"{name} exited {result.returncode}: {tail[0]}")

        # config round trip reproduces the preset scenario exactly
        scenario, spec = preset(name)
        doc = json.loads(json.dumps({"preset": name, **config_from_scenario(scenario, spec)}))
        scenario2, spec2 = scenario_from_config(doc)
        ok &= scenario2 == scenario and spec2 == spec
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    details.append(f"{len(PRESET_NAMES)} presets in {elapsed:.1f} s")
    report(9, "every preset runs end to end through the CLI", bool(ok), ", ".join(details))
