"""The nine figure presets: pinned values, fresh objects, one build per run."""

import json
from dataclasses import fields

import pytest

import spinhall.cli
import spinhall.config
import spinhall.presets
from spinhall.cli import main
from spinhall.presets import PRESET_NAMES, preset
from spinhall.qw_medium import QwParams

BASE_QW = dict(
    gamma_bl=1.36, gamma_bd=0.68, gamma_cl=1.36, gamma_cd=0.8, gamma_dl=0.8, gamma_dd=0.5,
    beta=0.0184, g=-1.0, f=1.0, delta=2.0, omega_c=0.0,
)
RAISED_QW = {**BASE_QW, "delta": 8.0, "gamma_bd": 1.36, "gamma_cd": 1.6}
LOSSLESS = (2.22 + 0j, 2.22 + 0j)
ANGLES = ("theta", 0.1, 1.5, 2001, {})

# name: (qw values, (epsilon1, epsilon3), (variable, lo, hi, samples, fixed))
PRESET_TABLE = {
    "fig2": (BASE_QW, LOSSLESS, ANGLES),
    "fig3": ({**BASE_QW, "omega_c": 6.0}, LOSSLESS, ANGLES),
    "fig4": (RAISED_QW, LOSSLESS, ANGLES),
    "fig5a": (BASE_QW, LOSSLESS, ("omega_c", 0.0, 6.0, 601, {"theta": 0.979})),
    "fig5b": (BASE_QW, LOSSLESS, ("omega_c", 0.0, 6.0, 601, {"theta": 0.98})),
    "fig5c": ({**BASE_QW, "omega_c": 2.0}, LOSSLESS, ("delta", 0.0, 8.0, 601, {"theta": 0.979})),
    "fig5d": ({**BASE_QW, "omega_c": 2.0}, LOSSLESS, ("delta", 0.0, 3.5, 601, {"theta": 0.98})),
    "fig6a": (RAISED_QW, (2.22 + 0.04j, 2.22 + 0.04j), ANGLES),
    "fig6b": (RAISED_QW, (2.22 + 0.04j, 2.22 - 0.04j), ANGLES),
}


def test_preset_names_follow_the_table():
    assert PRESET_NAMES == tuple(PRESET_TABLE)


@pytest.mark.parametrize("name, qw, epsilons, sweep", [(k, *v) for k, v in PRESET_TABLE.items()])
def test_preset_values_are_pinned(name, qw, epsilons, sweep):
    scenario, spec = preset(name)
    assert (spec.variable, spec.lo, spec.hi, spec.samples, spec.fixed) == sweep
    assert (scenario.epsilon1, scenario.epsilon3) == epsilons
    assert all(type(e) is complex for e in (scenario.epsilon1, scenario.epsilon3))
    assert {f.name: getattr(scenario.qw, f.name) for f in fields(QwParams)} == qw
    assert (scenario.d1_um, scenario.d2_um, scenario.lambda_um, scenario.beam) == (0.2, 5.0, 1.85, None)


@pytest.mark.parametrize("name", ["fig2", "fig5a"])
def test_each_call_returns_a_fresh_fixed_dict(name):
    first, second = preset(name)[1], preset(name)[1]
    assert first.fixed == second.fixed
    assert first.fixed is not second.fixed
    expected = dict(first.fixed)
    first.fixed["theta"] = 0.5
    assert preset(name)[1].fixed == expected


def test_unknown_preset_names_the_available_ones():
    with pytest.raises(ValueError) as info:
        preset("fig99")
    assert str(info.value) == f"unknown preset 'fig99'; available: {', '.join(PRESET_NAMES)}"


def test_a_preset_run_builds_the_preset_once(tmp_path, monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return preset(name)

    # every module that holds its own binding of the name
    for module in (spinhall.presets, spinhall.config, spinhall.cli):
        monkeypatch.setattr(module, "preset", counting)
    monkeypatch.chdir(tmp_path)
    assert main(["--preset", "fig5a", "--out", "p.csv"]) == 0
    assert calls == ["fig5a"]
    # a config that names a preset is merged once, then validated and built
    calls.clear()
    (tmp_path / "run.json").write_text(json.dumps({"preset": "fig5a", "qw": {"omega_c": 1.0}}))
    assert main(["--config", "run.json", "--out", "c.csv"]) == 0
    assert calls == ["fig5a"]
