"""Command-line interface: config handling, CSV contracts, exit codes."""

import argparse
import ast
import contextlib
import dataclasses
import errno
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavloss
from cavloss import (cavity, cli, constants, dynamics, in_default_window,
                     kinematics, potential, traploss, validate)
from cavloss.cli import TWO_PI_MHZ, RunConfig, main
import oracles
from oracles import percent_csv_oracle
from test_csvtext import exp_dispatch

SCI_NUMBER = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")

def moved_component(row, integrate=dynamics.integrate_grid):
    """A fake integrate_grid: the integrator's states, component ``row`` + 1."""
    def fake(*args, **kwargs):
        times, states = integrate(*args, **kwargs)
        return times, states + np.eye(4)[row]
    return fake


def write_config(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    return {line.split("=", 1)[0]: line.split("=", 1)[1]
            for line in text.strip().splitlines()}


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestConstantsCommand:
    def test_reports_published_values(self, capsys):
        code, out, err = run(capsys, ["constants"])
        assert code == 0 and err == ""
        report = parse_kv(out)
        assert float(report["omega_single_mhz"]) == pytest.approx(0.42, rel=5.0e-2)
        assert float(report["waist_um"]) == pytest.approx(36.0, rel=3.0e-2)
        assert float(report["mode_volume_cm3"]) == pytest.approx(4.0e-5, rel=6.0e-2)
        assert float(report["gamma_mol_rad_s"]) \
            == pytest.approx(2.0 * float(report["gamma_a_rad_s"]), rel=0.0)

    def test_microscopic_mode_reports_pair_count(self, capsys, tmp_path):
        config = write_config(tmp_path, {"coupling": {"mode": "microscopic"}})
        code, out, _ = run(capsys, ["--config", config, "constants"])
        assert code == 0
        report = parse_kv(out)
        assert float(report["n_pairs_at_delta_ref"]) > 1.0e5
        assert float(report["omega_tilde_at_delta_ref_mhz"]) \
            == pytest.approx(200.0, rel=0.3)

    def test_blue_reference_detuning_refused_by_its_key(self, capsys,
                                                        tmp_path):
        # the microscopic report counts pairs at delta_ref, which needs red
        # light; the refusal names the key and its value in MHz
        micro = write_config(tmp_path, {"coupling": {
            "mode": "microscopic", "delta_ref_mhz": 100}})
        assert run(capsys, ["--config", micro, "constants"]) == (
            2, "", "error: coupling.delta_ref_mhz must be negative, "
                   "got 100.0\n")
        # every command refuses it, the microscopic scan too
        assert run(capsys, ["--config", micro, "scan", "--points", "3"])[0] == 2

    def test_missing_field_exits_2_naming_it(self, capsys, tmp_path):
        config = write_config(tmp_path, {"species": {"lambda_nm": None}})
        code, out, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert out == ""
        assert "species.lambda_nm" in err


class TestTimesCommand:
    def test_reference_row(self, capsys):
        code, out, err = run(capsys, ["times", "--delta-mhz", "-350"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["delta_mhz", "r_condon_ang", "r_escape_ang", "t0_s",
                          "f", "tc_s", "te_s", "phase_over_pi"]
        row = rows[0]
        assert float(row["r_condon_ang"]) == pytest.approx(366.0, rel=2.0e-2)
        assert float(row["t0_s"]) == pytest.approx(1.07e-8, rel=2.0e-2)
        assert float(row["f"]) == pytest.approx(0.55, abs=1.0e-2)
        assert float(row["phase_over_pi"]) == pytest.approx(2.35, rel=2.0e-2)

    def test_rows_are_scientific_12_digits(self, capsys):
        _, out, _ = run(capsys, ["times", "--delta-mhz", "-350"])
        _, rows = parse_csv(out)
        for value in rows[0].values():
            assert SCI_NUMBER.match(value), value

    @pytest.mark.parametrize("command", ["times", "dynamics"])
    def test_positive_detuning_exits_2(self, capsys, command):
        code, out, err = run(capsys, [command, "--delta-mhz", "350"])
        assert code == 2 and out == ""
        assert "delta" in err

    @pytest.mark.parametrize("command", ["times", "dynamics"])
    def test_overflow_exits_2_naming_the_range(self, capsys, command):
        # omega_tilde ~ 1/|delta| overflows before any radius is formed
        code, out, err = run(capsys, [command, "--delta-mhz=-1e-300"])
        assert code == 2 and out == ""
        assert "left the floating-point range" in err
        assert "r_escape" not in err


@pytest.mark.parametrize("argv", [
    ["times", "--delta-mhz=-1e300"],
    ["dynamics", "--delta-mhz=-1e300"],
    ["scan", "--from-mhz=-1e300", "--allow-out-of-window"],
])
def test_detuning_past_the_transition_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "detuning" in err and "omega_a + delta must be positive" in err
    assert "cavity length" not in err


#: the header of each command's CSV, as the output contract states it
TIMES_HEADER = ["delta_mhz", "r_condon_ang", "r_escape_ang", "t0_s", "f",
                "tc_s", "te_s", "phase_over_pi"]
DYNAMICS_HEADER = ["t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                   "abs_err", "trace"]
SCAN_HEADER = ["delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang", "re_ang",
               "t0_s", "f", "tc_s", "te_s", "phase_over_pi", "loss_cavity",
               "loss_free"]


@pytest.mark.parametrize("command, header", [
    ("times", TIMES_HEADER), ("dynamics", DYNAMICS_HEADER)])
@pytest.mark.parametrize("delta_mhz, noted", [
    ("-5000", True), ("-1e-30", True),
    ("-350", False), ("-600", False), ("-1000", False),
])
def test_detuning_outside_the_window_is_noted(capsys, command, header,
                                               delta_mhz, noted):
    argv = [command, f"--delta-mhz={delta_mhz}"]
    if command == "dynamics" and delta_mhz == "-1e-30":
        # the default run would pass the step cap
        argv.append("--t-max-ns=1e-31")
    code, out, err = run(capsys, argv)
    assert code == 0 and out.startswith(",".join(header) + "\n")
    if noted:
        assert err.startswith("note: ") and err.count("\n") == 1
        assert "outside the validity window" in err
    else:
        assert err == ""


@pytest.mark.parametrize("document, argv, appended", [
    ({}, [], []),
    ({"scan": {"include_p_excite": True}}, [], ["p_excite"]),
    ({}, ["--allow-out-of-window"], ["in_window"]),
    ({"scan": {"include_p_excite": True}}, ["--allow-out-of-window"],
     ["p_excite", "in_window"]),
])
def test_scan_header_line(capsys, tmp_path, document, argv, appended):
    config = write_config(tmp_path, document)
    code, out, err = run(capsys, ["--config", config, "scan", "--points", "3"]
                         + argv)
    assert code == 0 and err == ""
    assert out.startswith(",".join(SCAN_HEADER + appended) + "\n")


def test_float_flags_take_negative_exponents_after_equals():
    # argparse reads "--flag -1e6" as two flags; "--flag=-1e6" is the form
    # the README gives
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    seen = 0
    for command, sub in commands.choices.items():
        flags = {action.option_strings[0]: action.dest
                 for action in sub._actions if action.type is cli._finite_float}
        if not flags:
            continue
        args = parser.parse_args(
            [command] + [f"{flag}=-1e6" for flag in flags])
        assert {dest: getattr(args, dest) for dest in flags.values()} \
            == dict.fromkeys(flags.values(), -1.0e6)
        seen += len(flags)
    assert seen >= 6


def test_float_flags_are_the_joined_flags():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {flag for sub in commands.choices.values()
             for action in sub._actions if action.type is cli._finite_float
             for flag in action.option_strings}
    assert flags == set(cli.FLOAT_FLAGS)


@pytest.mark.parametrize("argv", [
    ["times", "--delta-mhz", "-1e6"],
    ["times", "--delta-mhz", "-3.5e2", "--coupling", "microscopic"],
    ["dynamics", "--delta-mhz", "-3.5e2", "--t-max-ns", "0.05"],
    ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "-1e-3"],
    ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "0.05",
     "--dt-ps", "-2.5e0"],
    ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "0.05",
     "--dt-ps", "2.5e0"],
    ["scan", "--from-mhz", "-1e3", "--to-mhz", "-3.5e2", "--points", "3"],
    ["scan", "--points", "3", "--to-mhz", "-4e2", "--from-mhz", "-2e3",
     "--allow-out-of-window"],
    ["scan", "--from-mhz", "-9e2", "--to-mhz", "-1e3", "--points", "3"],
    ["times", "--delta-mhz", "-inf"],
])
def test_float_flags_take_a_spaced_negative_number(capsys, argv):
    # "--flag -1e6" reads as "--flag=-1e6", which argparse takes as meant
    joined = list(argv)
    for at in range(len(joined) - 1, 0, -1):
        if joined[at - 1] in cli.FLOAT_FLAGS and joined[at].startswith("-"):
            joined[at - 1:at + 1] = [f"{joined[at - 1]}={joined[at]}"]
    assert joined != argv

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:   # refused by argparse
            code = exc.code
        return (code, *capsys.readouterr())

    spaced = outcome(argv)
    assert spaced == outcome(joined)
    assert "expected one argument" not in spaced[2]
    assert spaced[0] == 0 or spaced[1] == ""


def test_float_flag_before_a_flag_still_wants_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["times", "--delta-mhz", "--coupling", "microscopic"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


class TestDynamicsCommand:
    def test_default_run_error_columns(self, capsys):
        code, out, err = run(capsys, ["dynamics", "--delta-mhz", "-350"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["t_s", "p_e_numeric", "p_e_analytic", "p_g", "p_v",
                          "abs_err", "trace"]
        assert max(float(r["abs_err"]) for r in rows) <= 1.0e-8
        assert max(abs(float(r["trace"]) - 1.0) for r in rows) <= 1.0e-10

    def test_zero_gamma_pure_rabi(self, capsys, tmp_path):
        config = write_config(tmp_path, {"species": {"gamma_a_mhz": 0.0}})
        code, out, _ = run(capsys, ["--config", config, "dynamics",
                                    "--delta-mhz", "-350", "--t-max-ns", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        omega = 2.0 * math.pi * 200.0e6
        for row in rows[:: len(rows) // 20]:
            expected = math.cos(omega * float(row["t_s"])) ** 2
            assert float(row["p_e_numeric"]) == pytest.approx(expected,
                                                              abs=1.0e-8)

    def test_coarse_step_exits_2(self, capsys):
        code, out, err = run(capsys, ["dynamics", "--delta-mhz", "-350",
                                      "--dt-ps", "1000"])
        assert code == 2 and out == ""
        assert "ceiling" in err

    def test_coarse_step_offers_no_override(self, capsys):
        # the step ceiling is always enforced; no flag lifts it
        _, _, err = run(capsys, ["dynamics", "--delta-mhz", "-350",
                                 "--dt-ps", "1000"])
        assert err.endswith(" ps (200 steps per fastest cycle)\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--dt-ps", "0", "--dt-ps must be positive, got 0.0"),
        ("--t-max-ns", "-1", "--t-max-ns must be >= 0, got -1.0"),
        # 1e-320 ps is positive but underflows to 0 s
        ("--dt-ps", "1e-320", "--dt-ps must be positive, got 1e-320"),
        ("--dt-ps", "1000", "--dt-ps 1000.0 exceeds the ceiling of about "
                            "25.0028 ps (200 steps per fastest cycle)"),
        # the default step is set by the coupling at the detuning
        ("--t-max-ns", "1e6", "--t-max-ns 1000000.0 with the default step "
                              "set by the coupling at --delta-mhz -350.0 "
                              "gives a run of 3.99955e+08 steps, over the "
                              "cap of 1000000"),
        # the default length 5/Gamma_mol is set by the species
        ("--dt-ps", "1e-6", "the default length set by species.gamma_a_mhz "
                            "6.0 with --dt-ps 1e-06 gives a run of "
                            "6.63146e+10 steps, over the cap of 1000000"),
    ])
    def test_refused_flag_is_named_in_its_unit(self, capsys, flag, value,
                                               message):
        code, out, err = run(capsys, ["dynamics", "--delta-mhz", "-350",
                                      flag, value])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_step_count_cap_exits_2(self, capsys):
        code, out, err = run(capsys, ["dynamics", "--delta-mhz", "-350",
                                      "--t-max-ns", "1e6"])
        assert code == 2 and out == ""
        assert "cap" in err

    @pytest.mark.parametrize("document, argv, message", [
        # a strong coupling sets the default step, not the decay rate that
        # sets the default length
        *((document, [], "the default length set by species.gamma_a_mhz 6.0 "
                         "with the default step set by the coupling at "
                         f"--delta-mhz -350.0 gives a run of {steps} steps")
          for document, steps in (
              ({"coupling": {"omega_tilde_ref_mhz": 1e30}}, "1.32629e+32"),
              ({"coupling": {"mode": "microscopic"},
                "cavity": {"n_atoms": 1e30}}, "6.58815e+14"),
              ({"coupling": {"mode": "microscopic"},
                "cavity": {"density_cm3": 1e30}}, "4.65852e+12"),
              ({"coupling": {"mode": "microscopic"},
                "cavity": {"length_cm": 1e-30}}, "2.94631e+34"),
              ({"coupling": {"mode": "microscopic"},
                "species": {"c3_erg_ang3": 1e30}}, "2.8092e+24"))),
        # without decay the default length is five Rabi cycles
        ({"species": {"gamma_a_mhz": 0.0}}, ["--dt-ps", "1e-6"],
         "the default length set by the coupling at --delta-mhz -350.0 with "
         "--dt-ps 1e-06 gives a run of 2.5e+10 steps"),
        # a decay faster than the coupling sets the default step
        ({"species": {"gamma_a_mhz": 1e6}}, ["--t-max-ns", "1e6"],
         "--t-max-ns 1000000.0 with the default step set by "
         "species.gamma_a_mhz 1000000.0 gives a run of 4e+12 steps"),
    ], ids=["omega-ref", "n-atoms", "density", "length", "c3",
            "decay-free-length", "decay-step"])
    def test_step_cap_names_what_set_length_and_step(self, capsys, tmp_path,
                                                     document, argv, message):
        config = write_config(tmp_path, document)
        code, out, err = run(capsys, ["--config", config, "dynamics",
                                      "--delta-mhz", "-350", *argv])
        assert (code, out, err) == (
            2, "", f"error: {message}, over the cap of 1000000\n")

    def test_decay_free_microscopic_exits_2(self, capsys, tmp_path):
        # the microscopic pair count scales as 1/Gamma_mol
        config = write_config(tmp_path, {"species": {"gamma_a_mhz": 0.0},
                                         "coupling": {"mode": "microscopic"}})
        code, out, err = run(capsys, ["--config", config, "dynamics",
                                      "--delta-mhz", "-350"])
        assert code == 2 and out == ""
        assert "species.gamma_a_mhz" in err and "coupling.mode" in err


class TestScanCommand:
    def test_contract(self, capsys):
        code, out, err = run(capsys, ["scan", "--points", "50"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["delta_mhz", "omega_tilde_mhz", "n_pairs", "rc_ang",
                          "re_ang", "t0_s", "f", "tc_s", "te_s",
                          "phase_over_pi", "loss_cavity", "loss_free"]
        assert len(rows) == 50
        deltas = [float(r["delta_mhz"]) for r in rows]
        assert deltas == sorted(deltas)
        assert deltas[0] == pytest.approx(-1000.0)
        assert deltas[-1] == pytest.approx(-350.0)

    def test_contract_prints_the_requested_grid_at_17_digits(self, capsys,
                                                             tmp_path):
        # the MHz grid itself, not a round trip of it through rad/s
        config = write_config(tmp_path, {"output": {"precision": 17}})
        code, out, err = run(capsys, ["--config", config, "scan"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0]["delta_mhz"] == "-1.0000000000000000e+03"
        printed = [float(r["delta_mhz"]) for r in rows]
        assert printed == np.linspace(-1000.0, -350.0, 200).tolist()

    def test_byte_identical_runs(self, capsys, tmp_path):
        argv = ["scan", "--points", "40"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, ["scan", "--points", "10",
                                    "--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("delta_mhz,")

    def test_out_of_window_needs_flag(self, capsys):
        code, out, err = run(capsys, ["scan", "--points", "10",
                                      "--from-mhz", "-1500"])
        assert code == 2 and out == ""
        assert "window" in err

    def test_window_refusal_names_the_detuning(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        for sink in ([], ["--output", str(target)]):
            code, out, err = run(capsys, ["scan", "--from-mhz", "-1200",
                                          *sink])
            assert (code, out) == (2, "")
            assert err == (
                "error: detuning -1200.0 MHz is outside the validity window "
                "(-1000.0, -350.0) MHz; set scan.allow_out_of_window "
                "(--allow-out-of-window) to override\n")
        assert not target.exists()

    def test_window_refusal_names_the_first_offender(self, capsys):
        # the first point above -350 MHz is interior, not the grid's end
        code, out, err = run(capsys, ["scan", "--to-mhz", "-300"])
        assert (code, out) == (2, "")
        assert err == (
            "error: detuning -349.2462311557789 MHz is outside the validity "
            "window (-1000.0, -350.0) MHz; set scan.allow_out_of_window "
            "(--allow-out-of-window) to override\n")

    def test_window_holds_its_edges_and_nothing_past_them(self, capsys):
        # one ulp past -1000 MHz is outside: the window has no slack
        assert in_default_window(np.array(traploss.DEFAULT_WINDOW_MHZ)).all()
        past = np.nextafter(traploss.DEFAULT_WINDOW_MHZ, (-np.inf, np.inf))
        assert not in_default_window(past).any()
        code, out, err = run(capsys, ["scan", "--from-mhz",
                                      "-1000.0000000000001"])
        assert (code, out) == (2, "")
        assert err.startswith("error: detuning -1000.0000000000001 MHz is "
                              "outside the validity window")

    def test_out_of_window_tagging(self, capsys):
        code, out, _ = run(capsys, ["scan", "--points", "10",
                                    "--from-mhz", "-1500",
                                    "--allow-out-of-window"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "in_window"
        tags = [r["in_window"] for r in rows]
        assert "0" in tags and "1" in tags

    def test_in_window_column_matches_library(self, capsys):
        # the grid steps by 65 MHz and so holds both window edges exactly
        code, out, _ = run(capsys, ["scan", "--from-mhz", "-1650",
                                    "--to-mhz", "-25", "--points", "26",
                                    "--allow-out-of-window"])
        assert code == 0
        _, rows = parse_csv(out)
        deltas = np.linspace(-1650.0, -25.0, 26)
        assert [r["in_window"] for r in rows] \
            == ["1" if in_default_window(d) else "0" for d in deltas]
        assert [r["in_window"] for r in rows].count("1") == 11

    def test_out_of_window_from_config_without_flag(self, capsys, tmp_path):
        # an absent flag must not reset the file's allow_out_of_window
        config = write_config(tmp_path, {"scan": {
            "from_mhz": -1500.0, "points": 10, "allow_out_of_window": True}})
        code, out, _ = run(capsys, ["--config", config, "scan"])
        assert code == 0
        header, _ = parse_csv(out)
        assert header[-1] == "in_window"

    def test_p_excite_column(self, capsys, tmp_path):
        config = write_config(tmp_path, {"scan": {"include_p_excite": True,
                                                  "points": 10}})
        code, out, _ = run(capsys, ["--config", config, "scan"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "p_excite"
        assert all(0.0 <= float(r["p_excite"]) <= 1.0 for r in rows)

    def test_flags_override_config(self, capsys, tmp_path):
        config = write_config(tmp_path, {"scan": {"points": 25}})
        _, out, _ = run(capsys, ["--config", config, "scan", "--points", "5"])
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_microscopic_coupling_flag(self, capsys):
        code, out, _ = run(capsys, ["scan", "--points", "10",
                                    "--coupling", "microscopic"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1]["omega_tilde_mhz"]) == pytest.approx(222.0, rel=0.1)

    def test_p_model_flag_changes_the_curve(self, capsys):
        _, approx, _ = run(capsys, ["scan", "--points", "10"])
        _, analytic, _ = run(capsys, ["scan", "--points", "10",
                                      "--p-model", "analytic"])
        _, approx_rows = parse_csv(approx)
        _, analytic_rows = parse_csv(analytic)
        assert any(a["loss_cavity"] != b["loss_cavity"]
                   for a, b in zip(approx_rows, analytic_rows))
        assert all(a["loss_free"] == b["loss_free"]
                   for a, b in zip(approx_rows, analytic_rows))

    def test_coupling_flag_on_constants(self, capsys):
        code, out, _ = run(capsys, ["constants", "--coupling", "microscopic"])
        assert code == 0
        assert "n_pairs_at_delta_ref=" in out

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run(capsys, ["scan", "--from-mhz", "-400",
                                    "--to-mhz", "-900"])
        assert code == 2
        assert "scan.from_mhz" in err


class TestConfigHandling:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = write_config(tmp_path, {"species": {"mystery_knob": 1.0}})
        code, _, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert "species.mystery_knob" in err

    def test_unknown_section_rejected(self, capsys, tmp_path):
        config = write_config(tmp_path, {"laser": {}})
        code, _, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert "laser" in err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON"),
        (None, "cannot read config file"),   # no such file
    ])
    def test_bad_json_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "broken.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, ["--config", str(path), "constants"])
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("command", [["constants"], ["scan"]])
    def test_config_not_utf8_exits_2_naming_the_file(self, capsys, tmp_path,
                                                    command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"species": {"gamma_a_mhz": 6.0}}\xff\n')
        code, out, err = run(capsys, ["--config", str(path), *command])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {str(path)!r} is not UTF-8")
        assert len(err.splitlines()) == 1

    def test_config_read_as_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf8.json"
        path.write_text('{"output": {"path": "spectre-é.csv"}}\r\n',
                        encoding="utf-8")
        assert cli.load_config(str(path)).output.path == "spectre-é.csv"

    def test_non_numeric_value_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path, {"species": {"lambda_nm": "red"}})
        code, _, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert "species.lambda_nm" in err
        config = write_config(tmp_path, {"cavity": {"length_cm": "long"}})
        code, _, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert "cavity.length_cm" in err

    def test_low_precision_rejected(self, capsys, tmp_path):
        config = write_config(tmp_path, {"output": {"precision": 3}})
        code, _, err = run(capsys, ["--config", config, "constants"])
        assert code == 2
        assert "precision" in err

    def test_trap_depth_frequency_variant(self, capsys, tmp_path):
        config = write_config(tmp_path,
                              {"species": {"trap_depth_mhz": 200.0}})
        code, out, _ = run(capsys, ["--config", config, "constants"])
        assert code == 0
        report = parse_kv(out)
        assert float(report["trap_resonant_omega_tilde_mhz"]) \
            == pytest.approx(200.0, rel=1.0e-9)

    def test_readme_schema_matches_defaults(self):
        # the README block is the one user-facing copy of the defaults;
        # species.trap_depth_mhz is documented in prose beside it
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("Configuration schema with defaults:", 1)[1]
        block = block.split("```json", 1)[1].split("```", 1)[0]
        defaults = {name: (dataclasses.asdict(section) if name == "species"
                           else section._asdict())
                    for name, section in RunConfig()._asdict().items()}
        del defaults["species"]["trap_depth_mhz"]
        assert json.loads(block) == defaults

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("document, argv, name", [
        ({"cavity": {"length_cm": math.nan}}, ["scan"], "cavity.length_cm"),
        ({"coupling": {"v_inf_cm_s": math.inf}}, ["scan"],
         "coupling.v_inf_cm_s"),
        ({"scan": {"points": 2.7}}, ["scan"], "scan.points"),
        ({"output": {"precision": 40}}, ["scan"], "output.precision"),
        ({}, ["times", "--delta-mhz", "nan"], "--delta-mhz"),
        ({}, ["dynamics", "--delta-mhz", "nan"], "--delta-mhz"),
        ({}, ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "nan"],
         "--t-max-ns"),
        ({}, ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "inf"],
         "--t-max-ns"),
        ({}, ["dynamics", "--delta-mhz", "-350", "--dt-ps", "nan"],
         "--dt-ps"),
        ({}, ["scan", "--from-mhz", "nan"], "--from-mhz"),
        ({}, ["scan", "--to-mhz", "inf"], "--to-mhz"),
        ({"scan": {"include_p_excite": "false"}}, ["scan"],
         "scan.include_p_excite"),
        ({"scan": {"allow_out_of_window": "no", "from_mhz": -3000}}, ["scan"],
         "scan.allow_out_of_window"),
        ({"scan": {"points": 1_000_001}}, ["scan"], "scan.points"),
        ({}, ["scan", "--points", "1000001"], "scan.points"),
        ({"cavity": {"length_cm": 0.0}}, ["constants"],
         "error: cavity.length_cm must be positive, got 0.0\n"),
        ({"cavity": {"n_atoms": -2.0e9}}, ["times", "--delta-mhz", "-350"],
         "error: cavity.n_atoms must be positive, got -2000000000.0\n"),
        ({"cavity": {"density_cm3": 0}}, ["dynamics", "--delta-mhz", "-350"],
         "error: cavity.density_cm3 must be positive, got 0.0\n"),
        ({"coupling": {"v_inf_cm_s": -3}}, ["scan"],
         "error: coupling.v_inf_cm_s must be positive, got -3.0\n"),
        ({"coupling": {"v_inf_cm_s": 0.0},
          "scan": {"include_p_excite": True}}, ["scan"],
         "error: coupling.v_inf_cm_s must be positive, got 0.0\n"),
        ({"coupling": {"delta_ref_mhz": 100}}, ["constants"],
         "error: coupling.delta_ref_mhz must be negative, got 100.0\n"),
        ({"coupling": {"omega_tilde_ref_mhz": 0}},
         ["times", "--delta-mhz", "-350"],
         "error: coupling.omega_tilde_ref_mhz must be positive in anchored "
         "mode, got 0.0\n"),
        ([], ["constants"], "error: config document must be a JSON object\n"),
        ({"scan": 3}, ["scan"],
         "error: config section 'scan' must be an object\n"),
        ({}, ["times", "--delta-mhz", "abc"],
         "argument --delta-mhz: expected a finite number, got 'abc'"),
        ({"scan": {"points": 1}}, ["scan"],
         "error: scan.points must be in 2..1000000, got 1\n"),
    ])
    def test_non_finite_or_non_integral_exits_2(self, capsys, tmp_path,
                                                document, argv, name):
        config = write_config(tmp_path, document)
        try:
            code = main(["--config", config] + argv)
        except SystemExit as exc:   # argparse rejects flag values itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert name in captured.err


@pytest.mark.parametrize("key", sorted(cli._FIELDS))
def test_every_field_names_itself_when_refused(key):
    # null passes only the nullable fields; a value of the wrong kind gets
    # the message of its field's type
    section, name = key
    kind, nullable, choices = cli._FIELDS[key]
    if kind is str:
        wrong, wanted = 7, (f"one of {sorted(choices)}" if choices
                            else "a string or null")
    elif kind is bool:
        wrong, wanted = "yes", "a JSON boolean"
    else:
        wrong, wanted = "x", "an integer" if kind is int else "a finite number"
    refused = [wrong] if nullable else [wrong, None]
    for value in refused:
        with pytest.raises(cli.ConfigError) as info:
            cli.build_run_config({section: {name: value}})
        assert str(info.value) == f"{section}.{name} must be {wanted}, " \
            f"got {value!r}"
    if nullable:
        config = cli.build_run_config({section: {name: None}})
        assert getattr(getattr(config, section), name) is None


def test_nullable_fields_are_the_optional_ones():
    assert {key for key, (_, nullable, _) in cli._FIELDS.items()
            if nullable} == {("species", "trap_depth_mk"),
                             ("species", "trap_depth_mhz"),
                             ("output", "path")}


#: calls whose results must not depend on the calls made before them
REUSE_ARGVS = [
    ["scan", "--points", "4", "--from-mhz", "-1500", "--allow-out-of-window",
     "--p-model", "analytic"],
    ["scan", "--points", "3"],
    ["times", "--delta-mhz", "-500", "--coupling", "microscopic"],
    ["times", "--delta-mhz", "5"],
    ["constants"],
    [],
    ["scan", "--p-model", "nope"],
    ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "0.05"],
    ["--help"],
    ["scan", "--points", "3"],
]


def test_one_parser_serves_every_call(capsys):
    def call(argv):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    alone = []
    for argv in REUSE_ARGVS:
        cli._main_parser.cache_clear()
        alone.append(call(argv))
    cli._main_parser.cache_clear()
    together = [call(argv) for argv in REUSE_ARGVS]
    assert together == alone
    assert cli._main_parser.cache_info().misses == 1
    assert [status for status, _, _ in together] == [0, 0, 0, 2, 0, 2, 2, 0,
                                                     0, 0]


class TestValidateCommand:
    @pytest.mark.parametrize("document", [
        {}, {"coupling": {"mode": "microscopic"}}])
    def test_default_config_passes(self, capsys, tmp_path, document):
        code, out, err = run(capsys, ["--config",
                                      write_config(tmp_path, document),
                                      "validate"])
        assert code == 0 and err == ""
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

    @pytest.mark.parametrize("section, key, value", [
        ("cavity", "length_cm", 0),
        ("species", "lambda_nm", -1),
        ("coupling", "omega_tilde_ref_mhz", 0),
    ])
    def test_refused_config_exits_2(self, capsys, tmp_path, section, key,
                                    value):
        # as in every command: no report, and the field named on stderr
        config = write_config(tmp_path, {section: {key: value}})
        code, out, err = run(capsys, ["--config", config, "validate"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"{section}.{key}" in err

    def test_zero_gamma_refused_before_any_check(self, capsys, tmp_path):
        # every loss needs a decay: validate refuses the config as scan does
        config = write_config(tmp_path, {"species": {"gamma_a_mhz": 0.0}})
        code, out, err = run(capsys, ["--config", config, "validate"])
        assert (code, out) == (2, "")
        assert err == "error: species.gamma_a_mhz must be positive, got 0.0\n"

    def test_tampered_g0_caught(self, capsys, monkeypatch):
        monkeypatch.setattr(kinematics, "g0_constant", lambda: 0.70)
        code, out, _ = run(capsys, ["validate"])
        assert code == 1
        assert "FAIL kinematics.g0_normalization" in out

    def test_decay_free_microscopic_refused_naming_gamma(self, capsys,
                                                         tmp_path):
        config = write_config(tmp_path, {"species": {"gamma_a_mhz": 0.0},
                                         "coupling": {"mode": "microscopic"}})
        code, out, err = run(capsys, ["--config", config, "validate"])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: species.gamma_a_mhz ")

    @pytest.mark.parametrize("module, name, fake, check", [
        (validate, "to_human_units",
         lambda params: dataclasses.replace(constants.to_human_units(params),
                                            lambda_nm=1.0),
         "constants.resolve_round_trip"),
        (validate, "resolve_params",   # a new mass at every call
         lambda species, counter=itertools.count(1), **kw:
         constants.resolve_params(species, **kw)._replace(
             mu=next(counter) * 1e-22),
         "constants.deterministic"),
        (kinematics, "g0_constant", lambda: 0.70,
         "kinematics.g0_normalization"),
        (kinematics, "fraction_f",
         lambda delta, omega: np.zeros(np.shape(omega)),
         "kinematics.phase_single_cycle"),
        (dynamics, "p_omega_analytic",
         lambda t, omega, gamma: np.zeros(np.shape(t)),
         "dynamics.fidelity: p_e = analytic"),
        (dynamics, "integrate_grid", moved_component(2),   # p_v, not p_e
         "dynamics.fidelity: trace = 1"),
        (dynamics, "p_omega_analytic",   # a step at W = gamma/4
         lambda t, omega, gamma: (np.asarray(omega) > gamma / 4.0)
         + 0.0 * np.asarray(t),
         "dynamics.regime_continuity"),
        (kinematics, "fraction_f",
         lambda delta, omega: np.zeros(np.shape(omega)),
         "kinematics.f_monotonic_in_coupling"),
        (potential, "condon_radius",
         lambda delta, params: np.ones(np.shape(delta)),
         "potential.condon_condition"),
        (potential, "condon_radius",
         lambda delta, params: np.ones(np.shape(delta)),
         "potential.condon_monotonic"),
        (potential, "resonance_geometry",
         lambda delta, omega, params: potential.ResonanceGeometry(
             potential.condon_radius(delta, params),
             np.ones(np.shape(delta)), None),
         "potential.escape_offset"),
        (kinematics, "total_time",
         lambda delta, params: np.ones(np.shape(delta)),
         "kinematics.t0_monotonic"),
        (cavity, "coupling",
         lambda delta, cav, params: cavity.CouplingPoint(
             *(np.ones(np.shape(delta)),) * 3),
         "cavity.coupling_identity"),
        (cavity, "landau_zener",
         lambda delta, omega, v_inf, params: np.ones(np.shape(omega)),
         "cavity.landau_zener_monotonic"),
        (traploss, "loss_no_cavity",
         lambda times, gamma: np.zeros(np.shape(times.t_resonant)),
         "traploss.scan_identities"),
    ])
    def test_failing_check_names_first_sample(self, capsys, monkeypatch,
                                              module, name, fake, check):
        monkeypatch.setattr(module, name, fake)
        code, out, _ = run(capsys, ["validate"])
        assert code == 1
        line = next(line for line in out.splitlines()   # check, then claim
                    if line.startswith(f"FAIL {check}"))
        reason = line.split(":", 1)[1]
        assert re.search(r"fails at sample \d+: \w+ = \S", reason), reason

    def test_replaced_pair_count_caught(self, capsys, monkeypatch, tmp_path):
        # omega_tilde^2 = N*Omega^2 holds for any N; N ~ delta^-2 does not
        monkeypatch.setattr(cavity, "pair_count",
                            lambda delta, cav, params: np.ones(np.shape(delta)))
        config = write_config(tmp_path, {"coupling": {"mode": "microscopic"}})
        code, out, _ = run(capsys, ["--config", config, "validate"])
        assert code == 1
        assert re.search(r"^FAIL cavity\.coupling_identity: N\*delta\^2 "
                         r"constant fails at sample 1: delta_mhz = \S+, "
                         r"product = \S", out, re.MULTILINE)

    def test_vanishing_phase_caught(self, capsys, monkeypatch):
        # no resonant fraction, so no Rabi phase is accumulated
        monkeypatch.setattr(kinematics, "fraction_f",
                            lambda delta, omega: np.zeros(np.shape(omega)))
        code, out, _ = run(capsys, ["validate"])
        assert code == 1
        assert "FAIL kinematics.phase_single_cycle: finite phase " \
            "omega_tilde*t_c > 0 fails at sample 0: phase = 0.0, " in out

    def test_failures_survive_python_optimize(self):
        # a check fails by raising, not by an assert that -O strips
        probe = ("import sys; from cavloss import cli, kinematics; "
                 "kinematics.g0_constant = lambda: 0.70; "
                 "sys.exit(cli.main(['validate']))")
        env = dict(os.environ, PYTHONPATH=str(
            Path(cavloss.__file__).resolve().parent.parent))
        result = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert "FAIL kinematics.g0_normalization: f(r->0) = 1 fails at " \
            "sample 0: f = " in result.stdout


def test_no_assert_in_the_package():
    # python -O strips asserts, so the package fails only by raising
    package = Path(cavloss.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


#: (config document, argv) of every command that writes CSV
CSV_COMMANDS = [
    ({}, ["times", "--delta-mhz", "-350"]),
    ({}, ["scan"]),
    ({"scan": {"include_p_excite": True}},
     ["scan", "--allow-out-of-window", "--from-mhz", "-1500",
      "--to-mhz", "-100", "--points", "300"]),
    ({}, ["dynamics", "--delta-mhz", "-350"]),
    ({"species": {"gamma_a_mhz": 0.0}}, ["dynamics", "--delta-mhz", "-350"]),
]


@pytest.mark.parametrize("precision", [6, 12, 17])
@pytest.mark.parametrize("document, argv", CSV_COMMANDS)
def test_csv_matches_percent_oracle(capsys, monkeypatch, tmp_path, document,
                                    argv, precision):
    config = write_config(tmp_path, {**document,
                                     "output": {"precision": precision}})
    fast = run(capsys, ["--config", config] + argv)
    tables = []

    def oracle(columns, precision):
        tables.append(list(columns))
        return percent_csv_oracle(
            list(columns),
            [np.atleast_1d(column) for column in columns.values()], precision)

    # the commands write CSV through this one name; patching it makes the
    # second run write every row by `%`
    monkeypatch.setattr(cli, "csv_pieces",
                        lambda *table: [oracle(*table)])
    assert run(capsys, ["--config", config] + argv) == fast
    assert len(tables) == 1
    assert fast[0] == 0 and fast[1].count("\n") > 1


#: (config document, argv) of runs whose CSV spans several chunks
SINK_RUNS = [
    ({}, ["scan", "--points", "5000"]),
    ({}, ["dynamics", "--delta-mhz", "-700"]),
    ({"species": {"gamma_a_mhz": 0.0}}, ["dynamics", "--delta-mhz", "-350"]),
]


@pytest.mark.parametrize("document, argv", SINK_RUNS)
def test_every_sink_gets_the_same_bytes(capsys, tmp_path, document, argv):
    argv = ["--config", write_config(tmp_path, document)] + argv
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.count("\n") > 2 * 2048
    target = tmp_path / "out.csv"
    assert run(capsys, argv + ["--output", str(target)])[:2] == (0, "")
    assert target.read_bytes() == out.encode()
    text = io.StringIO()   # as a calling program may redirect stdout
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue() == out


@pytest.mark.parametrize("argv", [["scan", "--points", "3000"],
                                  ["constants"]])
def test_text_written_to_stdout_before_stays_first(monkeypatch, argv):
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("before\n")   # held in the wrapper until it is flushed
    assert main(argv) == 0
    stdout.write("after\n")
    stdout.flush()
    lines = raw.getvalue().decode().splitlines()
    assert lines[0] == "before" and lines[-1] == "after"
    assert lines[1].startswith(("delta_mhz,", "omega_a_rad_s="))


@pytest.mark.parametrize("argv", [
    ["scan", "--from-mhz", "-1500"],
    ["scan", "--from-mhz=-1e300", "--allow-out-of-window"],
    ["dynamics", "--delta-mhz", "-350", "--dt-ps", "1000"],
    ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "1e9"],
    ["dynamics", "--delta-mhz=-1e-300"],
])
def test_refused_run_writes_nothing(capsys, tmp_path, argv):
    target = tmp_path / "out.csv"
    for output in ([], ["--output", str(target)]):
        code, out, err = run(capsys, argv + output)
        assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("target, reason", [
    ("missing/out.csv", errno.ENOENT), (".", errno.EISDIR), ("", errno.ENOENT),
], ids=["missing-dir", "a-dir", "empty"])
@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("argv", [["constants"], ["scan"]],
                         ids=lambda argv: argv[0])
def test_unwritable_output_path_exits_2_naming_it(capsys, tmp_path,
                                                  monkeypatch, argv, target,
                                                  reason, spelling):
    # a missing directory, a directory itself or an empty path, which is a
    # path like any other and not stdout: no file is created
    monkeypatch.chdir(tmp_path)
    if spelling == "flag":
        argv = argv + ["--output", target]
    else:
        argv = ["--config", write_config(
            tmp_path, {"output": {"path": target}})] + argv
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: ") and "output.path (--output)" in err
    assert repr(target) in err and os.strerror(reason) in err
    assert sorted(tmp_path.iterdir()) == before


def cli_child(argv, stdout):
    """A child running the CLI from this source tree, its stderr piped."""
    src = str(Path(cavloss.__file__).resolve().parent.parent)
    return subprocess.Popen([sys.executable, "-m", "cavloss.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))


def test_closed_stdout_exits_2_naming_it():
    # the reader closes the pipe after the first line, or before any write
    child = cli_child(["scan", "--points", "200000"], subprocess.PIPE)
    assert child.stdout.readline().startswith("delta_mhz,")
    child.stdout.close()
    outcomes = [(child.wait(), child.stderr.read())]
    child.stderr.close()
    for command in ("constants", "validate"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        child = cli_child([command], write_end)
        os.close(write_end)
        outcomes.append((child.wait(), child.stderr.read()))
        child.stderr.close()
    for code, err in outcomes:
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith("error: ") and "stdout" in err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_export_list_is_the_public_names():
    # a stage deleted from its module must leave the export list too
    public = {name for name, value in vars(cavloss).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(cavloss.__all__) == sorted(public)


def test_cli_import_leaves_out_scipy():
    # numpy is the only runtime dependency: scipy, or any other third-party
    # package, must not be loaded by the import
    src = str(Path(cavloss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys; before = set(sys.modules); import cavloss.cli; "
             "print(*sorted({name.partition('.')[0] for name in sys.modules}"
             " - {name.partition('.')[0] for name in before}"
             " - sys.stdlib_module_names))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["cavloss", "numpy"]


def test_cli_import_builds_only_what_every_command_needs(tmp_path):
    # start-up cost: numpy.polynomial and the validate suite stay
    # unloaded, and the only dataclasses are the two config classes that
    # callers read with dataclasses.fields
    src = str(Path(cavloss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys; import cavloss.cli; "
             "print(*[name for name in ('numpy.polynomial', "
             "'cavloss.validate') if name in sys.modules], sep=','); "
             "print(*sorted({value.__name__ for name, module in "
             "list(sys.modules.items()) if name.partition('.')[0] == "
             "'cavloss' for value in vars(module).values() if "
             "isinstance(value, type) and value.__module__.startswith("
             "'cavloss') and hasattr(value, '__dataclass_fields__')}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["", "CavityConfig HumanUnitsConfig"]
    # the suite does not import cli back, so `python -m cavloss.cli validate`
    # runs cli.py once, as __main__
    probe = "import sys, cavloss.validate; print('cavloss.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
    # validate still runs from a fresh process, with a config file
    config = write_config(tmp_path, {"scan": {"p_model": "analytic"}})
    result = subprocess.run([sys.executable, "-m", "cavloss.cli", "--config",
                             config, "validate"], env=env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("\n14/14 checks passed\n")


@pytest.mark.parametrize("document, argv, code, name", [
    *(({"species": {"lambda_nm": 1e-320}}, argv, 2, "species.lambda_nm")
      for argv in (["constants"], ["times", "--delta-mhz", "-350"],
                   ["dynamics", "--delta-mhz", "-350"], ["scan"],
                   ["validate"])),
    ({"species": {"lambda_nm": 1e-300}}, ["scan"], 2, "species.lambda_nm"),
    ({"species": {"mass_amu": 1e-320}}, ["constants"], 2, "species.mass_amu"),
    ({"species": {"mass_amu": 1e-320}}, ["times", "--delta-mhz", "-350"], 2,
     "species.mass_amu"),
    ({"species": {"c3_erg_ang3": 1e-320}}, ["constants"], 2,
     "species.c3_erg_ang3"),
    ({"species": {"trap_depth_mk": 1e-320}}, ["constants"], 2,
     "species.trap_depth_mk"),
    ({"species": {"gamma_a_mhz": 1e-320}}, ["scan"], 2, "species.gamma_a_mhz"),
    ({}, ["scan", "--from-mhz=-1e308", "--to-mhz", "-350",
          "--allow-out-of-window"], 2, "scan.from_mhz"),
    ({"species": {"c3_erg_ang3": 1e300}}, ["validate"], 1,
     "FAIL cavity.landau_zener_monotonic: cavity.landau_zener_monotonic left "
     "the floating-point range: overflow encountered in power"),
    # anchored references beyond the float range once in rad/s
    *(({"coupling": {key: value}}, argv, 2,
       f"error: coupling.{key} leaves the floating-point range in rad/s, "
       f"got {value!r}\n")
      for key, value in (("delta_ref_mhz", -1e308),
                         ("omega_tilde_ref_mhz", 1e308))
      for argv in (["constants"], ["times", "--delta-mhz", "-350"],
                   ["dynamics", "--delta-mhz", "-350"], ["scan"],
                   ["validate"])),
    ({"coupling": {"mode": "microscopic", "delta_ref_mhz": -1e308}},
     ["constants"], 2, "error: coupling.delta_ref_mhz leaves the "
     "floating-point range in rad/s, got -1e+308\n"),
    # the dynamics step cap names what set the run length
    ({"species": {"gamma_a_mhz": 1e-320}}, ["dynamics", "--delta-mhz", "-350"],
     2, "error: the default length set by species.gamma_a_mhz 1e-320 with "
        "the default step set by the coupling at --delta-mhz -350.0 gives a "
        "run of inf steps, over the cap of 1000000\n"),
    ({}, ["dynamics", "--delta-mhz", "-350", "--t-max-ns", "1e6"], 2,
     "--t-max-ns 1000000.0"),
    ({"scan": {"include_p_excite": True}, "coupling": {"v_inf_cm_s": 1e-320}},
     ["scan"], 2, "error: p_excite at coupling.v_inf_cm_s 1e-320 left the "
                  "floating-point range"),
    # an in-fall time beyond the float range: times refuses it as scan does
    *(({"species": {"mass_amu": 1e300}}, argv, 2,
       "left the floating-point range: overflow encountered")
      for argv in (["times", "--delta-mhz", "-350"], ["scan"])),
    # cavity values whose products leave the float range
    *((document, argv, 2, name)
      for document, name in (
          ({"cavity": {"length_cm": 1e308}},
           "error: cavity.length_cm squared leaves the floating-point range, "
           "got 1e+308\n"),
          ({"cavity": {"length_cm": 1e-300}},
           "error: cavity.length_cm squared leaves the floating-point range, "
           "got 1e-300\n"),
          ({"coupling": {"mode": "microscopic"},
            "cavity": {"n_atoms": 1e308, "density_cm3": 1e308}},
           "error: cavity.n_atoms * cavity.density_cm3 leaves the "
           "floating-point range, got 1e+308 * 1e+308\n"))
      for argv in (["constants"], ["scan"])),
])
def test_values_out_of_float_range_are_refused(capsys, tmp_path, document,
                                               argv, code, name):
    # exit 2 names the key on stderr; validate reports the check it fails
    config = write_config(tmp_path, document)
    assert main(["--config", config] + argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert name in captured.err and captured.err.count("\n") == 1
    else:
        assert captured.err == "" and name in captured.out
        assert "nan" not in captured.out
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("argv", [
    ["constants"], ["times", "--delta-mhz", "-350"],
    ["dynamics", "--delta-mhz", "-350"], ["scan"], ["validate"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("document, key", [
    ({"coupling": {"mode": "microscopic", "delta_ref_mhz": 100}},
     "coupling.delta_ref_mhz"),
    ({"coupling": {"mode": "microscopic", "delta_ref_mhz": -1e308}},
     "coupling.delta_ref_mhz"),
    ({"scan": {"from_mhz": -1e308}}, "scan.from_mhz"),
    ({"species": {"gamma_a_mhz": 0.0}, "coupling": {"mode": "microscopic"}},
     "species.gamma_a_mhz"),
], ids=["micro-blue-ref", "micro-huge-ref", "huge-from", "micro-zero-gamma"])
def test_every_command_refuses_the_same_config(capsys, tmp_path, document,
                                               key, argv):
    # a config is valid or not whatever the command that reads it
    config = write_config(tmp_path, document)
    assert main(["--config", config] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {key} ")


def test_tiny_decay_rate_keeps_the_times_output(capsys, tmp_path):
    # the pair dipole underflows to 0, which only the scan's n_pairs shows
    config = write_config(tmp_path, {"species": {"gamma_a_mhz": 1e-320}})
    argv = ["times", "--delta-mhz", "-350"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(["--config", config] + argv) == 0
    assert capsys.readouterr() == (default, "")


#: the edge values the probe below draws for a float key of the schema
EDGE_VALUES = [1e-320, 1e-300, 1e-30, 1e30, 1e300, 1e308, -1.0, 0.0]

#: the float keys of the schema, as (section, key)
FLOAT_KEYS = [key for key, (kind, _, _) in cli._FIELDS.items() if kind is float]

#: the commands the probe runs
PROBE_COMMANDS = [["constants"], ["times", "--delta-mhz", "-350"],
                  ["dynamics", "--delta-mhz", "-350"],
                  ["scan", "--points", "50"], ["validate"]]

#: an edge value, or a magnitude log-uniform in 1e-300..1e300 of either sign
PROBE_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
              st.floats(-300.0, 300.0), st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.dictionaries(st.sampled_from(FLOAT_KEYS), PROBE_VALUES,
                              min_size=1, max_size=3),
       mode=st.sampled_from(cavity.COUPLING_MODES),
       argv=st.sampled_from(PROBE_COMMANDS))
# a builtin float division by zero: the pair count at a vanishing Gamma,
# the step count at a vanishing step
@example({("species", "gamma_a_mhz"): 1e-320}, "microscopic", ["constants"])
@example({("species", "gamma_a_mhz"): 1e-320}, "microscopic", ["scan"])
@example({("species", "c3_erg_ang3"): 1e300}, "microscopic",
         ["dynamics", "--delta-mhz", "-350"])
# a builtin float power that overflows: the step ceiling at a huge Gamma
@example({("species", "gamma_a_mhz"): 1e300}, "anchored",
         ["dynamics", "--delta-mhz", "-350"])
# a numpy overflow or invalid operation outside any guard
@example({("species", "gamma_a_mhz"): 1e300}, "microscopic", ["constants"])
@example({("species", "gamma_a_mhz"): 1e-300}, "microscopic", ["constants"])
# a builtin float product that overflows to inf without raising
@example({("species", "trap_depth_mk"): 1e300}, "anchored", ["constants"])
@example({("species", "trap_depth_mhz"): 1e308}, "microscopic", ["constants"])
@example({("species", "gamma_a_mhz"): 1e300}, "anchored", ["constants"])
@example({("species", "c3_erg_ang3"): 1e300}, "microscopic", ["constants"])
def test_edge_values_run_clean_or_exit_2(tmp_path_factory, values, mode, argv):
    # every config runs clean, fails validate by its report, or exits 2
    # with one error line: never a traceback, and never inf or NaN printed
    document = {"coupling": {"mode": mode}}
    for (section, name), value in values.items():
        document.setdefault(section, {})[name] = value
    config = write_config(tmp_path_factory.mktemp("probe"), document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", config] + argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") \
            and err.count("\n") == 1, err
    elif code == 1:
        assert argv == ["validate"] and "FAIL" in out
    else:
        assert code == 0
        cells = {cell.strip() for cell in re.split(r"[,=\n]", out)}
        assert not cells & {"inf", "-inf", "nan"}, out


@pytest.mark.parametrize("argv", PROBE_COMMANDS, ids=lambda argv: argv[0])
def test_every_command_resolves_the_species_once(capsys, monkeypatch, argv):
    # main sets up the run; only dynamics admits gamma_a_mhz = 0
    calls = []

    def counted(species, **kwargs):
        calls.append(kwargs)
        return constants.resolve_params(species, **kwargs)

    monkeypatch.setattr(cli, "resolve_params", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [{"allow_zero_gamma": argv[0] == "dynamics"}]


@pytest.mark.parametrize("argv", PROBE_COMMANDS, ids=lambda argv: argv[0])
def test_only_dynamics_admits_zero_gamma(capsys, tmp_path, argv):
    # a decay-free pair still makes the collective Rabi oscillation, but
    # no loss: every other command refuses it before it computes
    config = write_config(tmp_path, {"species": {"gamma_a_mhz": 0.0}})
    code = main(["--config", config] + argv)
    out, err = capsys.readouterr()
    if argv[0] == "dynamics":
        assert (code, err) == (0, "") and out.startswith("t_s,")
    else:
        assert (code, out) == (2, "")
        assert err == "error: species.gamma_a_mhz must be positive, got 0.0\n"


def test_validate_writes_its_report_where_output_path_points(
        capsys, monkeypatch, tmp_path):
    code, report, _ = run(capsys, ["validate"])
    assert code == 0
    target = tmp_path / "report.txt"
    config = write_config(tmp_path, {"output": {"path": str(target)}})
    sinks = (["validate", "--output", str(target)],
             ["--config", config, "validate"])
    for argv in sinks:
        assert run(capsys, argv) == (0, "", "")
        assert target.read_bytes() == report.encode()
        target.unlink()
    monkeypatch.setattr(kinematics, "g0_constant", lambda: 0.70)
    for argv in sinks:   # a failed check still exits 1, its report written
        assert run(capsys, argv) == (1, "", "")
        assert "FAIL kinematics.g0_normalization: " in target.read_text()
        target.unlink()


def test_validate_coupling_flag_is_the_config_key(capsys, monkeypatch,
                                                  tmp_path):
    config = write_config(tmp_path, {"coupling": {"mode": "microscopic"}})
    flag = ["validate", "--coupling", "microscopic"]
    key = ["--config", config, "validate"]
    assert run(capsys, flag) == run(capsys, key)
    # only the microscopic coupling reads the pair count
    monkeypatch.setattr(cavity, "pair_count",
                        lambda delta, cav, params: np.ones(np.shape(delta)))
    failed = run(capsys, flag)
    assert failed == run(capsys, key) and failed[0] == 1
    assert "FAIL cavity.coupling_identity: " in failed[1]


#: prints numpy's float64 exp kernel to stderr, then runs the CLI
DISPATCH_CHILD = (
    "import sys\n"
    "import numpy as np\n"
    "from cavloss.cli import main\n"
    "info = np.lib.introspect.opt_func_info(func_name='^exp$', "
    "signature='float64')\n"
    "print(*(kernel['current'] for signatures in info.values() "
    "for kernel in signatures.values()), file=sys.stderr)\n"
    "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [["scan"], ["scan", "--points", "20000"]])
def test_scan_holds_under_another_numpy_dispatch(capsys, tmp_path, argv):
    # numpy's exp, pow, sinh and cosh kernels differ in the last bits from
    # one CPU dispatch to another; the scan may move only that far
    config = write_config(tmp_path, {"output": {"precision": 17}})
    argv = ["--config", config] + argv
    assert main(argv) == 0
    default = capsys.readouterr().out
    src = str(Path(cavloss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    child = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, *argv],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    dispatch = child.stderr.strip()
    if dispatch == exp_dispatch():
        pytest.skip(f"numpy dispatches float64 exp to {dispatch} with the "
                    f"AVX-512 kernels off too, so nothing can move")
    header, *rows = default.splitlines()
    other_header, *other_rows = child.stdout.splitlines()
    assert other_header == header and len(other_rows) == len(rows)
    want = np.array([row.split(",") for row in rows], dtype=float)
    got = np.array([row.split(",") for row in other_rows], dtype=float)
    columns = header.split(",")
    for name in ("loss_cavity", "loss_free"):
        column = got[:, columns.index(name)]
        assert np.all((0.0 <= column) & (column <= 1.0)), name
    close = np.abs(got - want) <= 1.0e-12 * np.abs(want)
    # loss_cavity runs through zeros of cos^2, where relative moves grow
    lc = columns.index("loss_cavity")
    close[:, lc] |= np.abs(got[:, lc] - want[:, lc]) <= 1.0e-15
    for i, name in enumerate(columns):
        assert close[:, i].all(), name


def test_byte_gate_runs_are_named_once_and_use_every_config():
    path = Path(__file__).resolve().parent.parent / "scripts" / "same_bytes.py"
    spec = importlib.util.spec_from_file_location("same_bytes", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    runs = gate.RUNS + gate.MORE_RUNS
    names = [name for name, _ in runs]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    used = {argv[argv.index("--config") + 1] for _, argv in runs
            if "--config" in argv}
    assert sorted(set(gate.CONFIGS) - used) == []
    # every run that writes the output file has a twin without the flag
    writers = [name for name, argv in runs if gate.OUTPUT in argv]
    assert sorted(gate.output_twins(runs)) == sorted(writers) != []
    readme = (path.parent.parent / "README.md").read_text()
    stated = re.search(r"`scripts/same_bytes\.py` runs (\d+) CLI", readme)
    assert int(stated.group(1)) == len(gate.RUNS)


def test_benchmark_gate_passes_the_cli_output(capsys):
    # the benchmark gate recomputes sampled rows through loss_point,
    # loss_series (two values) and loss_closed_form (a callable kernel): a
    # changed signature fails every sampled row, a renamed function is
    # skipped
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "gate.py"
    spec = importlib.util.spec_from_file_location("gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    gate = module.Gate(cavloss, oracles, seed=0, sample_rows=4)
    for document, flags in [
            ({}, []),
            ({"scan": {"p_model": "analytic"}}, ["--p-model", "analytic"]),
            ({"coupling": {"mode": "microscopic"}},
             ["--coupling", "microscopic"])]:
        code, out, err = run(capsys, ["scan", *flags])
        assert (code, err) == (0, "")
        assert gate.check_scan(document, out) == [], flags
    code, out, err = run(capsys, ["dynamics", "--delta-mhz", "-600"])
    assert (code, err) == (0, "")
    call = SimpleNamespace(config={}, args=["--delta-mhz", "-600"],
                           delta_mhz=-600.0)
    assert gate.check_dynamics(call, out) == []
    assert gate.skipped == set()
