"""Config schema, preset round-trips, CSV/JSON emission and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from spinhall.cli import CSV_HEADER, main, write_csv
from spinhall.config import (
    config_from_scenario,
    merged_config,
    scenario_from_config,
    validate_config,
)
from spinhall.presets import PRESET_NAMES, preset


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "spinhall", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def bare(**sections):
    """fig2's full config without a preset name, with sections replaced."""
    doc = config_from_scenario(*preset("fig2"))
    doc.update(sections)
    return doc


def fig2(**sections):
    """A partial config that fig2 fills in."""
    return {"preset": "fig2", **sections}


HUGE = int("9" * 400)  # too large for a float
THETA_SWEEP = {"variable": "theta", "lo": 0.9, "hi": 1.05, "samples": 11}
QW_BOUNDED = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd", "beta", "omega_c")

# every message validate_config emits, each in its place in the list
PINNED_PROBLEMS = [
    ("root-not-object", [1, 2], ["config root must be a JSON object, got list"]),
    ("unknown-top-level", fig2(extra=1, more={}),
     ["unknown top-level key 'extra'", "unknown top-level key 'more'"]),
    ("unknown-preset", {"preset": "fig99"},
     [f"unknown preset 'fig99'; available: {', '.join(PRESET_NAMES)}",
      "missing section 'qw'", "missing section 'stack'", "missing section 'beam'",
      "missing section 'sweep'"]),
    ("no-sections", {},
     ["missing section 'qw'", "missing section 'stack'", "missing section 'beam'",
      "missing section 'sweep'"]),
    ("sections-not-objects", {"qw": 5, "stack": [], "beam": "x", "sweep": None},
     ["section 'qw' must be an object", "section 'stack' must be an object",
      "section 'beam' must be an object", "missing section 'sweep'"]),
    *((f"preset-with-non-object-{section}", fig2(**{section: value}),
       [f"section {section!r} must be an object"])
      for section, value in (("qw", 5), ("stack", []), ("beam", "x"), ("sweep", 1.5))),
    ("preset-fills-null-sections", fig2(qw=None, sweep=None), []),
    ("qw-unknown-and-missing", bare(qw={"bogus": 1.0, "gamma_bl": 1.0}),
     ["unknown key qw.bogus",
      *(f"missing key qw.{k}" for k in ("gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl",
                                         "gamma_dd", "beta", "g", "f", "delta", "omega_c"))]),
    ("qw-kinds-then-bounds",
     fig2(qw={"delta_c": "0", "gamma_bl": -1.0, "g": "x", "omega_c": -2, "beta": True,
              "delta_p": None}),
     ["unknown key qw.delta_c", "unknown key qw.delta_p",
      "qw.beta must be a finite number", "qw.g must be a finite number",
      "qw.gamma_bl must be >= 0", "qw.omega_c must be >= 0"]),
    ("qw-all-bounds", fig2(qw={k: -1.0 for k in (*QW_BOUNDED, "g", "f", "delta")}),
     [f"qw.{k} must be >= 0" for k in QW_BOUNDED]),
    ("qw-non-finite", fig2(qw={"delta": math.inf, "f": math.nan}),
     ["qw.f must be a finite number", "qw.delta must be a finite number"]),
    ("level-energies", fig2(qw={"level_energies": [1.0, 2.0, 3.0, 4.0]}),
     ["unknown key qw.level_energies"]),
    ("qw-huge-integer", fig2(qw={"omega_c": HUGE}), ["qw.omega_c must be a finite number"]),
    ("stack-unknown-missing-kinds", bare(stack={"epsilon3": 2.2, "d2_um": "5", "wall": 1}),
     ["unknown key stack.wall", "missing key stack.epsilon1",
      "stack.epsilon3 must be a two-element [re, im] array", "missing key stack.d1_um",
      "stack.d2_um must be a number >= 0"]),
    ("stack-bounds",
     fig2(stack={"epsilon1": [0, 0], "epsilon3": [1, 2, 3], "d1_um": -0.1, "d2_um": -0.0}),
     ["stack.epsilon1 must be nonzero", "stack.epsilon3 must be a two-element [re, im] array",
      "stack.d1_um must be a number >= 0"]),
    ("stack-pair-kinds", fig2(stack={"epsilon1": [True, 0.0], "epsilon3": [math.nan, 1.0]}),
     ["stack.epsilon1 must be a two-element [re, im] array",
      "stack.epsilon3 must be a two-element [re, im] array"]),
    ("stack-huge-integer", fig2(stack={"epsilon1": [HUGE, 0.0]}),
     ["stack.epsilon1 must be a two-element [re, im] array"]),
    ("beam-missing-and-unknown", bare(beam={"waist": 5.0}),
     ["unknown key beam.waist", "missing key beam.lambda_um"]),
    ("beam-bounds",
     fig2(beam={"lambda_um": 0, "waist_um": -1.0, "grid_half_extent": "x", "grid_samples": 255}),
     ["unknown key beam.grid_half_extent", "unknown key beam.grid_samples",
      "beam.lambda_um must be a number > 0", "beam.waist_um must be a number > 0"]),
    # the grid keys of older configs: the oracle's grid is fixed by the waist
    ("beam-samples-kind", fig2(beam={"waist_um": 1000.0, "grid_samples": 512.0}),
     ["unknown key beam.grid_samples"]),
    ("beam-extent-below-6-over-waist", fig2(beam={"waist_um": 1000.0, "grid_half_extent": 0.005}),
     ["unknown key beam.grid_half_extent"]),
    ("beam-zero-waist-with-extent", fig2(beam={"waist_um": 0, "grid_half_extent": 0.01}),
     ["unknown key beam.grid_half_extent", "beam.waist_um must be a number > 0"]),
    ("beam-grid-without-waist", fig2(beam={"grid_half_extent": 0.01, "grid_samples": True}),
     ["unknown key beam.grid_half_extent", "unknown key beam.grid_samples"]),
    ("sweep-missing-first", bare(sweep={"variable": "bogus", "steps": 3}),
     ["unknown key sweep.steps", "missing key sweep.lo", "missing key sweep.hi",
      "missing key sweep.samples", "sweep.variable must be one of theta, omega_c, delta"]),
    ("sweep-range-before-samples",
     fig2(sweep={"variable": "bogus", "lo": 2.0, "hi": 1.0, "samples": 1}),
     ["sweep.variable must be one of theta, omega_c, delta", "sweep range must satisfy lo < hi",
      "sweep.samples must be an integer >= 2"]),
    ("sweep-null-variable", fig2(sweep={**THETA_SWEEP, "variable": None}),
     ["sweep.variable must be one of theta, omega_c, delta"]),
    ("sweep-null-samples", fig2(sweep={**THETA_SWEEP, "samples": None}),
     ["sweep.samples must be an integer >= 2"]),
    ("sweep-lo-hi-kinds", fig2(sweep={**THETA_SWEEP, "lo": "0.9", "samples": 2.0}),
     ["sweep.lo and sweep.hi must be finite numbers", "sweep.samples must be an integer >= 2"]),
    ("sweep-theta-range", fig2(sweep={**THETA_SWEEP, "lo": 0.0, "hi": 1.6}),
     ["theta must lie in (0, pi/2)"]),
    ("sweep-fixed-not-object", fig2(sweep={**THETA_SWEEP, "fixed": [0.9]}),
     ["sweep.fixed must be an object"]),
    ("sweep-fixed-keys",
     fig2(sweep={**THETA_SWEEP, "fixed": {"omega_c": -1.0, "bogus": 1, "delta": "2", "theta": 0.5}}),
     ["unknown key sweep.fixed.omega_c", "unknown key sweep.fixed.bogus",
      "unknown key sweep.fixed.delta"]),
    ("omega_c-sweep-needs-theta",
     fig2(sweep={"variable": "omega_c", "lo": -1.0, "hi": 6.0, "samples": 11,
                 "fixed": {"omega_c": 1.0}}),
     ["unknown key sweep.fixed.omega_c", "a omega_c sweep needs sweep.fixed.theta",
      "sweep.lo must be >= 0 for an omega_c sweep"]),
    # ends that are numbers but a width hi - lo that overflows, as floats and as ints
    ("delta-sweep-width-overflows",
     fig2(sweep={"variable": "delta", "lo": -1e308, "hi": 1e308, "samples": 3, "fixed": {"theta": 0.9}}),
     ["sweep width hi - lo must be finite"]),
    ("delta-sweep-integer-width-overflows",
     fig2(sweep={"variable": "delta", "lo": -10**308, "hi": 10**308, "samples": 3, "fixed": {"theta": 0.9}}),
     ["sweep width hi - lo must be finite"]),
    ("delta-sweep-theta-range",
     fig2(sweep={"variable": "delta", "lo": 0.0, "hi": 4.0, "samples": 11, "fixed": {"theta": 1.6}}),
     ["theta must lie in (0, pi/2)"]),
    ("omega_c-sweep-fixed-theta-kind",
     fig2(sweep={"variable": "omega_c", "lo": 0.0, "hi": 6.0, "samples": 11,
                 "fixed": {"theta": "1", "omega_c": -3.0}}),
     ["sweep.fixed.theta must be a finite number", "unknown key sweep.fixed.omega_c"]),
    ("sweep-huge-samples", fig2(sweep={**THETA_SWEEP, "samples": HUGE}),
     ["sweep.samples must be <= 1000000"]),
    ("beam-huge-grid-samples", fig2(beam={"waist_um": 1000.0, "grid_samples": HUGE}),
     ["unknown key beam.grid_samples"]),
    ("samples-one-above-the-bounds",
     fig2(beam={"waist_um": 1000.0, "grid_samples": 2**20 + 1},
          sweep={**THETA_SWEEP, "samples": 10**6 + 1}),
     ["unknown key beam.grid_samples", "sweep.samples must be <= 1000000"]),
    ("samples-at-the-bounds",
     fig2(beam={"waist_um": 1000.0, "grid_samples": 2**20}, sweep={**THETA_SWEEP, "samples": 10**6}),
     ["unknown key beam.grid_samples"]),
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_round_trip(self, name):
        scenario, spec = preset(name)
        doc = {"preset": name, **config_from_scenario(scenario, spec)}
        reloaded = json.loads(json.dumps(doc))
        scenario2, spec2 = scenario_from_config(reloaded)
        assert scenario2 == scenario
        assert spec2 == spec

    def test_partial_config_filled_from_preset(self):
        doc = {"preset": "fig2", "qw": {"omega_c": 3.0}}
        scenario, spec = scenario_from_config(doc)
        base, base_spec = preset("fig2")
        assert scenario.qw.omega_c == 3.0
        assert scenario.qw.gamma_bl == base.qw.gamma_bl
        assert scenario.epsilon1 == base.epsilon1
        assert spec == base_spec

    def test_beam_spec_round_trip(self):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["beam"]["waist_um"] = 925.0
        assert validate_config(doc) == []
        scenario, spec = scenario_from_config(doc)
        assert scenario.beam is not None
        assert scenario.beam.waist_um == 925.0
        again = config_from_scenario(scenario, spec)
        assert again["beam"] == doc["beam"]


    QW_KEYS = (
        "gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd",
        "beta", "g", "f", "delta", "omega_c",
    )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_qw_block_keys_order_and_values(self, name):
        scenario, spec = preset(name)
        doc = config_from_scenario(scenario, spec)
        assert list(doc["qw"].items()) == [(k, getattr(scenario.qw, k)) for k in self.QW_KEYS]

    def test_every_key_is_a_field_whose_type_config_converts(self):
        # config converts a JSON value by its field's type, which is the type
        # itself, not the text of its annotation
        from spinhall.config import _FROM_JSON, _SCHEMA
        from spinhall.qw_medium import QwParams
        from spinhall.shifts import BeamSpec
        from spinhall.sweep import Scenario, SweepSpec

        keys = {key for schema in _SCHEMA.values() for key in schema}
        read = [f for cls in (QwParams, Scenario, SweepSpec, BeamSpec) for f in fields(cls) if f.name in keys]
        assert len(read) == sum(map(len, _SCHEMA.values()))
        assert [f.name for f in read if not (f.type is float or f.type in _FROM_JSON)] == []



class TestValidate:
    @pytest.mark.parametrize(
        "doc, expected", [row[1:] for row in PINNED_PROBLEMS], ids=[row[0] for row in PINNED_PROBLEMS]
    )
    def test_problem_list_is_pinned(self, doc, expected):
        assert validate_config(doc) == expected

    def test_presets_validate_clean(self):
        for name in PRESET_NAMES:
            scenario, spec = preset(name)
            doc = {"preset": name, **config_from_scenario(scenario, spec)}
            assert validate_config(doc) == []

    def test_theta_window_containing_zero(self):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["sweep"]["lo"] = 0.0
        assert any("theta must lie in (0, pi/2)" in p for p in validate_config(doc))

    def test_negative_rate_names_the_field(self):
        doc = {"preset": "fig2", "qw": {"gamma_bl": -1.0}}
        assert any("qw.gamma_bl" in p for p in validate_config(doc))

    def test_unknown_keys_rejected(self):
        doc = {"preset": "fig2", "qw": {"bogus": 1.0}, "extra": {}}
        problems = validate_config(doc)
        assert any("qw.bogus" in p for p in problems)
        assert any("unknown top-level key 'extra'" in p for p in problems)

    def test_missing_sections_reported_without_preset(self):
        problems = validate_config({"qw": {}})
        assert any("missing section 'stack'" in p for p in problems)
        assert any("missing key qw.beta" in p for p in problems)

    def test_complex_encoding_enforced(self):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["stack"]["epsilon1"] = 2.22
        assert any("stack.epsilon1" in p and "[re, im]" in p for p in validate_config(doc))

    def test_unknown_preset_reported(self):
        assert any("unknown preset" in p for p in validate_config({"preset": "fig99"}))

    def test_grid_keys_require_waist(self):
        # the old form: the grid keys once needed a waist; now they are unknown
        # keys, with or without one
        for beam, key in (({}, "grid_samples"), ({"waist_um": 925.0}, "grid_half_extent")):
            doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
            doc["beam"].update(beam, **{key: 512})
            assert validate_config(doc) == [f"unknown key beam.{key}"]

    def test_non_theta_sweep_needs_fixed_theta(self):
        # no preset to refill the deleted key, so the gap must be diagnosed
        doc = config_from_scenario(*preset("fig5a"))
        del doc["sweep"]["fixed"]
        assert any("sweep.fixed.theta" in p for p in validate_config(doc))


class TestCliRuns:
    def test_fig2_end_to_end(self, tmp_path):
        result = run_cli(["--preset", "fig2", "--out", "fig2.csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "fig2.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        assert header == CSV_HEADER.split(",")
        assert len(rows) == 2001
        summary = json.loads((tmp_path / "fig2.json").read_text())
        assert summary["preset"] == "fig2"
        assert summary["rows"] == 2001
        assert summary["resonance"]["ratio_em_peak"] > 1e2
        assert 0.90 <= summary["resonance"]["theta_star"] <= 1.05
        assert summary["effective_epsilon2"][1] > 0  # absorbing medium

    def test_csv_reparses_to_the_last_digit(self, tmp_path):
        # the CLI computes every sweep on the point path
        from spinhall.sweep import _point_sweep

        scenario, spec = preset("fig2")
        rows = _point_sweep(scenario, spec)
        result = run_cli(["--preset", "fig2", "--out", "check.csv", "--format", "csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "check.csv", newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            parsed = list(reader)
        assert len(parsed) == len(rows)
        for row, text in zip(rows, parsed):
            assert float(text[0]) == row.value
            assert float(text[1]) == row.re_abs
            assert float(text[3]) == row.ratio_em
            assert float(text[7]) == row.delta_h_plus_lambda

    def test_zero_beta_config_reports_unit_epsilon2(self, tmp_path):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["qw"]["beta"] = 0.0
        doc["sweep"]["samples"] = 21
        config_path = tmp_path / "custom.json"
        config_path.write_text(json.dumps(doc))
        result = run_cli(["--config", "custom.json", "--out", "z.csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "z.json").read_text())
        assert summary["effective_epsilon2"] == [1.0, 0.0]

    def test_all_vacuum_scenario_survives_the_pipeline(self, tmp_path):
        # every row is a flagged 0/0 point; the CSV carries nan and the
        # summary degrades its peak and resonance fields to null
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["qw"]["beta"] = 0.0
        doc["stack"]["epsilon1"] = [1.0, 0.0]
        doc["stack"]["epsilon3"] = [1.0, 0.0]
        doc["sweep"]["samples"] = 11
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        result = run_cli(["--config", "scenario.json", "--out", "vac.csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "vac.csv", newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            rows = list(reader)
        assert len(rows) == 11
        for row in rows:
            # reflection is rounding residue; the flags carry the signal
            assert float(row[1]) < 1e-14 and float(row[2]) < 1e-14
            assert row[9] == "hv"
        summary = json.loads((tmp_path / "vac.json").read_text())
        assert summary["effective_epsilon2"] == [1.0, 0.0]
        assert summary["abs_delta_h_plus_lambda_peak"] is None
        assert summary["abs_delta_v_plus_lambda_peak"] is None

    def test_lambda_override_and_json_only(self, tmp_path):
        # the wavelength is a scenario value: a config's beam.lambda_um replaces the preset's
        (tmp_path / "run.json").write_text(json.dumps(fig2(beam={"lambda_um": 2.0})))
        result = run_cli(["--config", "run.json", "--out", "s.json", "--format", "json"], tmp_path)
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["lambda_um"] == 2.0
        assert summary["csv"] is None
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("args, written", [
        (["--preset", "fig5a"], "fig5a.json"),
        (["--config", "named.json"], "fig5a.json"),
        (["--config", "bare.json"], "sweep.json"),
    ], ids=["preset", "config-naming-a-preset", "config-without-preset"])
    def test_json_only_without_out_writes_a_json_name(self, tmp_path, monkeypatch, args, written):
        # with no --out the JSON document is <preset>.json (sweep.json for a
        # config that names no preset), never a JSON document named .csv
        doc = config_from_scenario(*preset("fig5a"))
        doc["sweep"]["samples"] = 11
        (tmp_path / "bare.json").write_text(json.dumps(doc))
        (tmp_path / "named.json").write_text(json.dumps({"preset": "fig5a", "sweep": {"samples": 11}}))
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--format", "json"]) == 0
        assert json.loads((tmp_path / written).read_text())["csv"] is None
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"bare.json", "named.json", written})

    def test_explicit_resonance_window(self, tmp_path):
        result = run_cli(
            ["--preset", "fig5a", "--out", "r.csv", "--find-resonance", "0.9,1.05"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["resonance"] is not None
        assert 0.9 <= summary["resonance"]["theta_star"] <= 1.05

    def test_threads_flag_and_env(self, tmp_path, monkeypatch):
        a = run_cli(["--preset", "fig5a", "--out", "a.csv", "--threads", "4"], tmp_path)
        assert a.returncode == 0, a.stderr
        monkeypatch.setenv("SPINHALL_THREADS", "2")
        b = subprocess.run(
            [sys.executable, "-m", "spinhall", "--preset", "fig5a", "--out", "b.csv"],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert b.returncode == 0, b.stderr
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def csv_writer_reference(rows, path):
    """The csv.writer implementation write_csv replaced, kept as its
    byte-for-byte reference."""

    def fmt(value):
        return f"{value:.17g}"

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            flags = ("h" if row.h_singular else "") + ("v" if row.v_singular else "")
            flags += "e" if row.error is not None else ""
            writer.writerow(
                [
                    fmt(row.value),
                    fmt(row.re_abs),
                    fmt(row.rm_abs),
                    fmt(row.ratio_em),
                    fmt(row.ratio_me),
                    fmt(row.phi_e),
                    fmt(row.phi_m),
                    fmt(row.delta_h_plus_lambda),
                    fmt(row.delta_v_plus_lambda),
                    flags,
                ]
            )


class TestWriteCsv:
    @pytest.mark.parametrize("name", ["fig2", "fig5a"])
    def test_preset_rows_match_the_csv_writer(self, tmp_path, name):
        from spinhall.sweep import run_sweep

        rows = run_sweep(*preset(name))
        write_csv(rows, tmp_path / "got.csv")
        csv_writer_reference(rows, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_edge_values_and_flags_match_the_csv_writer(self, tmp_path):
        from spinhall.sweep import SweepRow

        specials = [math.nan, math.inf, -math.inf, -0.0, 1e-300, -1e-300, 0.1, 2.0**-1074]
        flag_sets = {"": (False, False, None), "h": (True, False, None), "v": (False, True, None),
                     "hv": (True, True, None), "e": (False, False, "ValueError: x"),
                     "hve": (True, True, "SingularParameterError: y")}
        rows = [
            SweepRow(*(specials[(i + j) % len(specials)] for j in range(9)), h, v, error)
            for i, (h, v, error) in enumerate(flag_sets.values())
        ]
        write_csv(rows, tmp_path / "got.csv")
        csv_writer_reference(rows, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        flags = [line.rsplit(",", 1)[1] for line in got.decode().splitlines()[1:]]
        assert flags == list(flag_sets)


class TestSummaryMedium:
    def test_resonance_uses_the_fixed_medium_of_the_rows(self, tmp_path, monkeypatch):
        # a theta sweep of fig2 with the control field set to 6 meV: the
        # summary's resonance must describe that medium (the fig3 peak), not
        # the control-off medium of the preset
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["qw"]["omega_c"] = 6.0
        doc["sweep"] = {"variable": "theta", "lo": 0.9, "hi": 1.05, "samples": 301}
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv"]) == 0
        resonance = json.loads((tmp_path / "out.json").read_text())["resonance"]
        assert resonance["theta_star"] == pytest.approx(0.98057, abs=1e-5)
        assert resonance["ratio_em_peak"] == pytest.approx(27689, rel=1e-4)
        with open(tmp_path / "out.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        usable = [(float(r[3]), float(r[0])) for r in rows if "h" not in r[9] and "e" not in r[9]]
        _, theta_argmax = max(usable)
        step = (1.05 - 0.9) / 300
        assert abs(resonance["theta_star"] - theta_argmax) <= step


    def test_a_window_without_a_ratio_declines_the_resonance(self, tmp_path, monkeypatch):
        # every row is a NaN error row, so the summary names no resonance angle
        (tmp_path / "run.json").write_text(json.dumps(fig2(qw={"omega_c": 1e200}, sweep={"samples": 11})))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv"]) == 0
        _, spec = preset("fig2")
        assert json.loads((tmp_path / "out.json").read_text())["resonance"] == {
            "declined": f"no |r_e|/|r_m| ratio is defined in the theta window ({spec.lo!r}, {spec.hi!r})"
        }
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 11 and all(row.endswith(",hve") for row in rows)

    def test_a_non_finite_resonance_peak_is_null(self, monkeypatch):
        # JSON has no infinity: the summary writes null in its place
        import spinhall.cli
        from spinhall.sweep import ResonanceResult

        monkeypatch.setattr(spinhall.cli, "_refine_resonance",
                            lambda *args: ResonanceResult(0.98, math.inf, False))
        scenario, spec = preset("fig2")
        rows = spinhall.cli._point_sweep(scenario, spec)
        summary = spinhall.cli._summary(scenario, spec, rows, "fig2", (spec.lo, spec.hi), None)
        assert summary["resonance"] == {"theta_star": 0.98, "ratio_em_peak": None, "boundary": False}
        json.dumps(summary, allow_nan=False)

    def test_a_medium_value_in_sweep_fixed_is_refused(self, tmp_path, monkeypatch, capsys):
        # the old override form: the medium goes in qw, sweep.fixed holds only theta
        doc = fig2(sweep={**THETA_SWEEP, "fixed": {"omega_c": 6.0}})
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == "config error: unknown key sweep.fixed.omega_c\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_a_fig5_preset_switched_to_a_theta_sweep(self, tmp_path, monkeypatch):
        # the sweep section merge keeps fig5a's fixed theta, which a theta sweep
        # ignores, so neither the rows nor the summary may depend on it
        monkeypatch.chdir(tmp_path)
        outputs = []
        for extra in ({}, {"fixed": {}}):
            doc = {"preset": "fig5a", "sweep": {**THETA_SWEEP, **extra}}
            (tmp_path / "run.json").write_text(json.dumps(doc))
            assert main(["--config", "run.json", "--out", "out.csv"]) == 0
            outputs.append(((tmp_path / "out.csv").read_bytes(),
                            (tmp_path / "out.json").read_bytes()))
        assert json.loads(outputs[0][1])["sweep"]["fixed"] == {}
        assert outputs[0] == outputs[1]


    def test_singular_base_medium_of_a_parameter_sweep(self, tmp_path, monkeypatch):
        # fig5a with the d-level rates off: qw's omega_c = 0 is singular, but the
        # omega_c sweep replaces it row by row, so the run succeeds whatever it is
        monkeypatch.chdir(tmp_path)
        outputs = []
        for omega_c in (0.0, 3.0):
            doc = {"preset": "fig5a", "qw": {"gamma_dl": 0, "gamma_dd": 0, "omega_c": omega_c}}
            (tmp_path / "run.json").write_text(json.dumps(doc))
            assert main(["--config", "run.json", "--out", "out.csv"]) == 0
            outputs.append(((tmp_path / "out.csv").read_text(),
                            json.loads((tmp_path / "out.json").read_text())))
        (rows, singular), (rows_3, regular) = outputs
        assert rows == rows_3
        assert rows.splitlines()[1].endswith(",hve") and len(rows.splitlines()) == 602
        # the rows span omega_c 0-6 meV, so no one permittivity is theirs
        assert singular["effective_epsilon2"] is None
        assert regular["effective_epsilon2"] is None
        assert singular == regular


class TestRowFailures:
    """The summary's row_failures: failed rows by exception type, with the
    count and the first failed row's message; the counts sum to row_errors."""

    @staticmethod
    def run_summary(tmp_path, monkeypatch, doc):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.json", "--format", "json"]) == 0
        return json.loads((tmp_path / "out.json").read_text())

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_have_none(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", name, "--out", "p.json", "--format", "json"]) == 0
        summary = json.loads((tmp_path / "p.json").read_text())
        assert summary["row_errors"] == 0 and summary["row_failures"] == {}

    def test_an_overflowing_medium_names_its_error(self, tmp_path, monkeypatch):
        summary = self.run_summary(tmp_path, monkeypatch, fig2(qw={"beta": 1e300}))
        assert summary["row_errors"] == 2001
        assert summary["row_failures"] == {"OverflowError": {"rows": 2001, "first": "math range error"}}

    @pytest.mark.parametrize("name, rows", [("fig2", 2001), ("fig5a", 601)])
    def test_a_wavelength_whose_k_squared_overflows_names_the_range_error(self, tmp_path, monkeypatch,
                                                                           name, rows):
        summary = self.run_summary(tmp_path, monkeypatch, {"preset": name, "beam": {"lambda_um": 1e-160}})
        assert summary["row_failures"] == {"OverflowError": {"rows": rows, "first": "math range error"}}

    def test_an_overflowing_middle_layer_phase_is_one_kind_of_failure(self, tmp_path, monkeypatch):
        # a 1e308 um well overflows kx * d in its real part at some angles and in
        # its imaginary part at others; cmath raises ValueError for the one and
        # OverflowError for the other, and both are the overflow failure
        doc = {"preset": "fig2", "stack": {"d2_um": 1e308}, "sweep": {"samples": 3}}
        summary = self.run_summary(tmp_path, monkeypatch, doc)
        assert summary["row_failures"] == {"OverflowError": {"rows": 3, "first": "math range error"}}

    def test_singular_rows_report_the_first_message(self, tmp_path, monkeypatch):
        # fig5c's delta sweep with the control field and the d-level rates
        # off: every row's medium is singular, each with its own delta
        from spinhall.sweep import run_sweep

        qw = {"omega_c": 0, "gamma_dl": 0, "gamma_dd": 0}
        summary = self.run_summary(tmp_path, monkeypatch, {"preset": "fig5c", "qw": qw})
        scenario, spec = scenario_from_config(merged_config({"preset": "fig5c", "qw": qw}))
        errors = [row.error for row in run_sweep(scenario, spec)]
        assert len(set(errors)) == len(errors) == 601
        kind, _, first = errors[0].partition(": ")
        assert kind == "SingularParameterError" and "delta=0.0" in first
        assert summary["row_errors"] == 601
        assert summary["row_failures"] == {kind: {"rows": 601, "first": first}}


class TestOracleSpotCheck:
    @staticmethod
    def run_config(tmp_path, monkeypatch, doc):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv"]) == 0
        return json.loads((tmp_path / "out.json").read_text())["oracle"]

    def test_valid_domain_matches_the_closed_form(self, tmp_path, monkeypatch):
        # fig2's medium well below its resonance angle, 500-lambda waist
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["sweep"] = {"variable": "theta", "lo": 0.5, "hi": 0.7, "samples": 41, "fixed": {}}
        doc["beam"]["waist_um"] = 500 * doc["beam"]["lambda_um"]
        oracle = self.run_config(tmp_path, monkeypatch, doc)
        with open(tmp_path / "out.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        peak = max((r for r in rows if "h" not in r[9]), key=lambda r: abs(float(r[7])))
        assert oracle["swept"] == float(peak[0])
        assert oracle["closed_h"] == float(peak[7])
        assert oracle["closed_v"] == float(peak[8])
        assert oracle["oracle_h"] == pytest.approx(oracle["closed_h"], rel=1e-2)
        assert oracle["oracle_v"] == pytest.approx(oracle["closed_v"], rel=1e-2)

    def test_parameter_sweep_uses_the_medium_of_the_peak_row(self, tmp_path, monkeypatch):
        from spinhall.qw_medium import susceptibility
        from spinhall.shifts import centroid_shift_oracle
        from spinhall.strata import Kinematics
        from spinhall.sweep import build_stack, sweep_point

        doc = {"preset": "fig5a", **config_from_scenario(*preset("fig5a"))}
        doc["sweep"] = {
            "variable": "omega_c", "lo": 0.0, "hi": 6.0, "samples": 31, "fixed": {"theta": 0.9},
        }
        doc["beam"]["waist_um"] = 500 * doc["beam"]["lambda_um"]
        oracle = self.run_config(tmp_path, monkeypatch, doc)
        assert 0.0 < oracle["swept"] < 6.0  # an interior row, not the control-off medium
        scenario, spec = scenario_from_config(doc)
        qw, theta = sweep_point(scenario, spec, oracle["swept"])
        assert (qw.omega_c, theta) == (oracle["swept"], 0.9)
        stack = build_stack(scenario, susceptibility(qw).chi)
        expected = centroid_shift_oracle(stack, Kinematics(scenario.lambda_um, theta), scenario.beam)
        assert (oracle["oracle_h"], oracle["oracle_v"]) == expected
        assert oracle["oracle_h"] == pytest.approx(oracle["closed_h"], rel=1e-2)

    def test_narrow_waist_is_declined(self, tmp_path, monkeypatch):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["sweep"]["samples"] = 41
        doc["beam"]["waist_um"] = 50 * doc["beam"]["lambda_um"]
        oracle = self.run_config(tmp_path, monkeypatch, doc)
        assert set(oracle) == {"declined"}
        assert "waist_um" in oracle["declined"] and "100*lambda" in oracle["declined"]

    def test_all_singular_rows_are_declined(self, tmp_path, monkeypatch):
        # an all-vacuum scenario flags every row h and v: no row to check
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["qw"]["beta"] = 0.0
        doc["stack"]["epsilon1"] = [1.0, 0.0]
        doc["stack"]["epsilon3"] = [1.0, 0.0]
        doc["sweep"]["samples"] = 11
        doc["beam"]["waist_um"] = 500 * doc["beam"]["lambda_um"]
        assert self.run_config(tmp_path, monkeypatch, doc) == {"declined": "no non-singular row"}

    def test_preset_without_waist_reports_null(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", "fig5a", "--out", "p.json", "--format", "json"]) == 0
        summary = json.loads((tmp_path / "p.json").read_text())
        assert "oracle" in summary and summary["oracle"] is None


class TestOverflowingInputs:
    """Valid configs whose arithmetic overflows run to the end: the rows fail
    as `e` rows and the summary declines what it cannot compute."""

    @staticmethod
    def run_config(tmp_path, monkeypatch, doc, *args):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv", *args]) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        return rows, json.loads((tmp_path / "out.json").read_text())

    @pytest.mark.parametrize("doc, args, searched", [
        (fig2(qw={"f": 1e300}), (), True),
        ({"preset": "fig5a", "qw": {"g": 1e300}}, ("--find-resonance", "0.9,1.0"), True),
        ({"preset": "fig5a", "qw": {"f": 1e300}}, (), False),
    ], ids=["theta-own-range", "omega_c-window", "omega_c-no-window"])
    def test_an_overflowing_dipole_ratio_fails_every_row(self, tmp_path, monkeypatch, doc, args, searched):
        rows, summary = self.run_config(tmp_path, monkeypatch, doc, *args)
        assert all(row.endswith(",hve") for row in rows)
        assert summary["row_errors"] == summary["rows"] == len(rows)
        assert list(summary["row_failures"]) == ["ValueError"]
        assert summary["row_failures"]["ValueError"]["first"].startswith("layer epsilon must be finite")
        assert summary["effective_epsilon2"] is None
        if searched:
            assert set(summary["resonance"]) == {"declined"}
        else:
            assert summary["resonance"] is None

    def test_an_overflowing_k_squared_fails_every_row(self, tmp_path, monkeypatch):
        doc = fig2(beam={"lambda_um": 1e-160})
        rows, summary = self.run_config(tmp_path, monkeypatch, doc)
        assert all(row.endswith(",hve") for row in rows)
        assert summary["row_errors"] == summary["rows"] == len(rows)
        assert set(summary["resonance"]) == {"declined"}

    def test_an_oracle_that_overflows_is_declined(self, tmp_path, monkeypatch):
        # the h peak row sits at theta = 1e-300, where the coupling's square overflows
        doc = fig2(sweep={"lo": 1e-300, "samples": 3}, beam={"waist_um": 1e9})
        rows, summary = self.run_config(tmp_path, monkeypatch, doc)
        assert summary["row_errors"] == 0 and float(rows[0].split(",")[0]) == 1e-300
        assert summary["oracle"] == {"declined": "the oracle overflows at the h peak row (swept value 1e-300)"}


# every decay rate and the splitting off: the medium's susceptibility is singular
SINGULAR = dict.fromkeys(("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd", "delta"), 0)
DEEP = "[" * 100_000 + "]" * 100_000  # nested past the parser's recursion limit
MULTI = fig2(extra=1, qw={"gamma_bl": -1.0, "bogus": 1}, sweep={"samples": 1})

# every kind of pre-run refusal: (files in the run directory, arguments, stderr);
# a file value None makes a directory
REFUSALS = [
    ("malformed-json", {"bad.json": '{"qw": }'}, ["--config", "bad.json"],
     "bad.json: line 1 column 8: Expecting value"),
    ("missing-file", {}, ["--config", "nope.json"],
     "[Errno 2] No such file or directory: 'nope.json'"),
    ("directory-as-config", {"cfg": None}, ["--config", "cfg"], "[Errno 21] Is a directory: 'cfg'"),
    ("validation-list", {"m.json": json.dumps(MULTI)}, ["--config", "m.json"],
     "unknown top-level key 'extra'\nconfig error: unknown key qw.bogus\n"
     "config error: qw.gamma_bl must be >= 0\nconfig error: sweep.samples must be an integer >= 2"),
    ("deep-nesting", {"deep.json": DEEP}, ["--config", "deep.json"],
     "deep.json: nested too deeply to parse"),
    ("sweep-width-overflows",
     {"w.json": '{"preset": "fig5c", "sweep": {"lo": -1e308, "hi": 1e308, "samples": 3}}'},
     ["--config", "w.json"], "sweep width hi - lo must be finite"),
    ("window-unparsable", {}, ["--preset", "fig5a", "--find-resonance", "0.9,x"],
     "--find-resonance: could not convert string to float: 'x'"),
    ("window-out-of-range", {}, ["--preset", "fig5a", "--find-resonance", "1.0,0.9"],
     "--find-resonance: need 0 < LO < HI < pi/2, got '1.0,0.9'"),
    ("window-with-csv", {}, ["--preset", "fig5a", "--format", "csv", "--find-resonance", "0.9,1"],
     "--find-resonance needs the JSON summary (--format json or both)"),
    ("output-onto-config", {"run.json": '{"preset": "fig5a"}'},
     ["--config", "run.json", "--out", "run.json", "--format", "json"],
     "output run.json is the input config"),
    ("csv-and-json-onto-one-file", {}, ["--preset", "fig5a", "--out", "clash.json"],
     "output clash.json would hold both the CSV and the JSON summary"),
    ("out-names-no-file", {}, ["--preset", "fig5a", "--out", "."], "output . names no file"),
    ("out-is-the-root", {}, ["--preset", "fig5a", "--out", "/"], "output / names no file"),
    ("out-names-no-file-csv", {}, ["--preset", "fig5a", "--out", ".", "--format", "csv"],
     "output . names no file"),
    ("out-is-empty", {}, ["--preset", "fig5a", "--out", ""], "output '' names no file"),
    ("out-ends-in-a-separator", {}, ["--preset", "fig5a", "--out", "sub/"], "output sub/ names no file"),
    ("out-is-a-directory", {"d": None}, ["--preset", "fig5a", "--out", "d"], "output d names no file"),
    ("out-is-a-directory-with-separator", {"d": None}, ["--preset", "fig5a", "--out", "d/"],
     "output d/ names no file"),
    ("json-out-is-a-directory", {"x.json": None}, ["--preset", "fig5a", "--out", "x.csv"],
     "output x.json names no file"),
    ("out-in-a-missing-directory", {}, ["--preset", "fig5a", "--out", "nosuch/x.csv"],
     "output nosuch/x.csv is not in an existing directory"),
    ("out-under-a-file", {"afile": ""}, ["--preset", "fig5a", "--out", "afile/x.csv"],
     "output afile/x.csv is not in an existing directory"),
    ("json-out-in-a-missing-directory", {}, ["--preset", "fig5a", "--format", "json", "--out", "nosuch/s.json"],
     "output nosuch/s.json is not in an existing directory"),
]


def snapshot(root):
    return {p.name: p.read_bytes() if p.is_file() else None for p in root.iterdir()}


class TestCliFailures:
    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"qw": }')
        result = run_cli(["--config", "bad.json"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "line 1" in result.stderr

    def test_validation_failure_exits_2(self, tmp_path):
        doc = {"preset": "fig2", "qw": {"gamma_bl": -1.0}}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["--config", "neg.json"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "qw.gamma_bl" in result.stderr

    @pytest.mark.parametrize(
        "section, value, message",
        [("qw", {"omega_c": HUGE}, "qw.omega_c must be a finite number"),
         ("stack", {"epsilon1": [HUGE, 0.0]}, "stack.epsilon1 must be a two-element [re, im] array")],
        ids=["qw", "stack"],
    )
    def test_huge_integer_exits_2(self, tmp_path, section, value, message):
        (tmp_path / "huge.json").write_text(json.dumps(fig2(**{section: value})))
        result = run_cli(["--config", "huge.json", "--out", "h.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "section, value, message",
        [("sweep", {**THETA_SWEEP, "samples": HUGE}, "sweep.samples must be <= 1000000")],
        ids=["sweep-samples"],
    )
    def test_oversized_sample_count_exits_2_before_output(self, tmp_path, section, value, message):
        (tmp_path / "huge.json").write_text(json.dumps(fig2(**{section: value})))
        result = run_cli(["--config", "huge.json", "--out", "h.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"config error: {message}\n"
        assert result.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    @pytest.mark.parametrize("key, value", [("grid_samples", 512), ("grid_half_extent", 0.008)])
    def test_old_grid_key_exits_2(self, tmp_path, monkeypatch, capsys, key, value):
        # the oracle's grid is fixed by the waist: a config naming it is refused
        (tmp_path / "old.json").write_text(json.dumps(fig2(beam={"waist_um": 1000.0, key: value})))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "old.json", "--out", "o.csv"]) == 2
        assert capsys.readouterr() == ("", f"config error: unknown key beam.{key}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_find_resonance_without_json_exits_2(self, tmp_path, monkeypatch, capsys):
        # the search reports into the JSON summary, which --format csv does not write
        monkeypatch.chdir(tmp_path)
        args = ["--preset", "fig2", "--format", "csv", "--find-resonance", "0.9,1.0", "--out", "r.csv"]
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", "config error: --find-resonance needs the JSON summary (--format json or both)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name, text", [("cfg", "Is a directory: 'cfg'"), ("nope.json", "No such file or directory")],
        ids=["directory", "missing"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, monkeypatch, capsys, name, text):
        (tmp_path / "cfg").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["--config", name, "--out", "u.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [Errno ") and text in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]

    def test_unknown_preset_exits_2(self, tmp_path):
        result = run_cli(["--preset", "fig99"], tmp_path)
        assert result.returncode == 2, result.stderr  # argparse choice failure

    def test_numerical_failure_exits_3(self, tmp_path):
        doc = {"preset": "fig2", **config_from_scenario(*preset("fig2"))}
        doc["qw"].update(
            gamma_bl=0.0, gamma_bd=0.0, gamma_cl=0.0, gamma_cd=0.0,
            gamma_dl=0.0, gamma_dd=0.0, delta=0.0, omega_c=0.0,
        )
        doc["sweep"]["samples"] = 5
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(doc))
        result = run_cli(["--config", "dead.json", "--out", "d.csv"], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "numerical failure" in result.stderr

    @pytest.mark.parametrize("doc, args", [
        (fig2(qw=SINGULAR, sweep={"samples": 11}), ["--format", "csv", "--out", "out.csv"]),
        (fig2(qw=SINGULAR, sweep={"samples": 11}), ["--format", "json", "--out", "out.json"]),
        (fig2(qw=SINGULAR, sweep={"samples": 11}), ["--format", "both", "--out", "out.csv"]),
        ({"preset": "fig5a", "qw": {"gamma_dl": 0, "gamma_dd": 0, "omega_c": 0}},
         ["--out", "out.csv", "--find-resonance", "0.9,1.05"]),
    ], ids=["theta-csv", "theta-json", "theta-both", "omega_c-window"])
    def test_a_singular_medium_as_given_exits_3_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                                 doc, args):
        # a theta sweep and a resonance window run on qw as given; when it is
        # singular no row or summary is written, whatever the format
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: susceptibility denominator vanished")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "args",
        [["--out", "run.csv"], ["--out", "run.json", "--format", "json"],
         ["--out", "run.json", "--format", "csv"]],
    )
    def test_output_onto_the_config_exits_2(self, tmp_path, monkeypatch, capsys, args):
        doc = {"preset": "fig5a", **config_from_scenario(*preset("fig5a"))}
        (tmp_path / "run.json").write_text(json.dumps(doc))
        before = (tmp_path / "run.json").read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", *args]) == 2
        assert "config error:" in capsys.readouterr().err
        assert (tmp_path / "run.json").read_bytes() == before
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("out, link", [("clash.json", None), ("run.csv", "run.json")],
                             ids=["json-suffix", "json-linked-to-csv"])
    def test_csv_and_json_onto_one_file_exits_2(self, tmp_path, monkeypatch, capsys, out, link):
        # format both writes the JSON summary next to the CSV, with a .json suffix
        if link is not None:
            (tmp_path / link).symlink_to(out)
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", "fig5a", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: output {out} would hold both the CSV and the JSON summary\n"
        )
        # nothing written: at most the link is there, still dangling
        assert [(p.name, p.exists()) for p in tmp_path.iterdir()] == ([(link, False)] if link else [])

    @pytest.mark.parametrize("window", ["1.0,0.9", "0,1", "nan,1", "0.9,2", "0.5"])
    def test_bad_resonance_window_exits_2_before_the_sweep(self, tmp_path, monkeypatch, capsys, window):
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", "fig5a", "--out", "w.csv", "--find-resonance", window]) == 2
        reason = "need 0 < LO < HI < pi/2" if "," in window else "expected LO,HI"
        assert capsys.readouterr().err == f"config error: --find-resonance: {reason}, got {window!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("literal", ["-1", "0", "Infinity", "NaN"], ids=["-1", "0", "inf", "nan"])
    def test_bad_lambda_exits_2_before_the_sweep(self, tmp_path, monkeypatch, capsys, literal):
        # the wavelength comes only from the document, whose rule refuses these values
        (tmp_path / "run.json").write_text('{"preset": "fig5a", "beam": {"lambda_um": %s}}' % literal)
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "l.csv"]) == 2
        assert capsys.readouterr() == ("", "config error: beam.lambda_um must be a number > 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("files, args, message", [row[1:] for row in REFUSALS],
                             ids=[row[0] for row in REFUSALS])
    def test_refusal_table(self, tmp_path, monkeypatch, capsys, files, args, message):
        # each refusal is made before the sweep: config error lines only, nothing written
        import spinhall.cli

        for name, text in files.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        before = snapshot(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(spinhall.cli, "_point_sweep", lambda *args: pytest.fail("the sweep ran"))
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("doc", [fig2(qw={"omega_c": 1e200}, sweep={"samples": 11}),
                                     {"preset": "fig5a", "qw": {"beta": 1e308}}],
                             ids=["nan", "-inf"])
    def test_non_finite_permittivity_is_null(self, tmp_path, monkeypatch, doc):
        # a valid medium whose 1 + chi overflows: the summary still parses whole
        (tmp_path / "run.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "run.json", "--out", "out.csv"]) == 0
        assert json.loads((tmp_path / "out.json").read_text())["effective_epsilon2"] is None

    def test_a_summary_that_cannot_be_encoded_leaves_no_file(self, tmp_path, monkeypatch):
        import spinhall.cli

        monkeypatch.setattr(spinhall.cli, "_summary", lambda *args: {"value": math.nan})
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["--preset", "fig5a", "--out", "out.csv"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_output_on_a_symlink_loop_exits_2(self, tmp_path, monkeypatch, capsys):
        # a symlink loop passes the path checks; opening it then fails the write
        (tmp_path / "loop.csv").symlink_to("loop.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", "fig5a", "--out", "loop.csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: cannot write output: [Errno ")
        assert err.endswith(": 'loop.csv'\n") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["loop.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_write_exits_2(self, tmp_path, monkeypatch, capsys):
        # /dev/full opens, and every write to it fails
        monkeypatch.chdir(tmp_path)
        assert main(["--preset", "fig5a", "--format", "csv", "--out", "/dev/full"]) == 2
        assert capsys.readouterr() == ("", "config error: cannot write output: [Errno 28] No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    def test_in_process_main_matches_subprocess_contract(self, tmp_path):
        code = main(["--preset", "fig5b", "--out", str(tmp_path / "m.csv")])
        assert code == 0
        assert (tmp_path / "m.csv").exists() and (tmp_path / "m.json").exists()
