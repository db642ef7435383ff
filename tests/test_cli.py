"""Tests for the command-line front end: unit conversions, sweeps, the
validation report, config handling and exit codes."""

import ast
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relayqos
from relayqos import cli
from relayqos.allocator import allocate
from relayqos.cli import (
    ConfigError,
    RadioProfile,
    bits_per_second_to_nats_per_frame,
    ccdf_table,
    main,
    sweep,
    to_scenario,
    transmission_time,
    validate,
)
from relayqos.qsim import _SIM_CHUNK, SimConfig, StabilityError


class TestUnitConversions:
    def test_100_kbps_at_2ms(self):
        # 1e5 bits/s * ln 2 * 0.002 s = 138.629... nats/frame
        nats = bits_per_second_to_nats_per_frame(1e5, 2e-3)
        assert nats == pytest.approx(138.62943611198906, rel=1e-14, abs=0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rate = float(10.0 ** rng.uniform(2.0, 8.0))
            t_f = float(10.0 ** rng.uniform(-4.0, -1.0))
            back = bits_per_second_to_nats_per_frame(rate, t_f) / (math.log(2.0) * t_f)
            assert back == pytest.approx(rate, rel=1e-12, abs=0.0)


class TestToScenario:
    def test_defaults_follow_reference_setup(self):
        scenario = to_scenario(RadioProfile())
        assert scenario.traffic_load == pytest.approx(138.62943611198906, rel=1e-6, abs=0.0)
        assert scenario.delay_bound == 125.0  # 250 ms at 2 ms frames
        assert scenario.hop1_mean_gain == 1.0
        assert scenario.hop2_mean_gain == 1.0
        # the per-link transmission time defaults to half a frame
        assert scenario.bt_product == pytest.approx(100.0, rel=1e-6, abs=0.0)

    def test_mean_gain_power_law(self):
        profile = RadioProfile(d1=25.0, d2=75.0)
        scenario = to_scenario(profile)
        assert scenario.hop1_mean_gain == pytest.approx(8.0, rel=1e-6, abs=0.0)  # (0.5)^-3
        assert scenario.hop2_mean_gain == pytest.approx(1.5 ** -3, rel=1e-6, abs=0.0)

    def test_transmission_time_default_and_override(self):
        # unset, T is half a frame; a whole frame is the half-duplex setting
        assert transmission_time(RadioProfile()) == 1e-3
        assert transmission_time(RadioProfile(frame_duration=5e-3)) == 2.5e-3
        assert to_scenario(RadioProfile()).bt_product == pytest.approx(
            100.0, rel=1e-6, abs=0.0)
        forced = RadioProfile(transmission_time=2e-3)
        assert to_scenario(forced).bt_product == pytest.approx(200.0, rel=1e-6, abs=0.0)
        assert transmission_time(forced) == 2e-3

    def test_duplex_is_not_a_field(self):
        # transmission_time is the one way to set T
        with pytest.raises(TypeError, match="duplex"):
            RadioProfile(duplex="half")

    def test_delay_bound_rounding(self):
        assert to_scenario(RadioProfile(delay_bound=0.1)).delay_bound == 50.0
        assert to_scenario(RadioProfile(delay_bound=0.0031)).delay_bound == 2.0
        with pytest.raises(ConfigError):
            to_scenario(RadioProfile(delay_bound=0.0005))

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            RadioProfile(path_loss_exponent=1.5)
        with pytest.raises(ConfigError):
            RadioProfile(violation_prob=0.0)
        with pytest.raises(ConfigError):
            RadioProfile(d1=-10.0)
        for name in ("bandwidth", "transmission_time"):
            with pytest.raises(ConfigError, match=f"^{name} must be finite"):
                RadioProfile(**{name: math.inf})

    def test_gain_past_the_float_range_names_the_distance(self):
        with pytest.raises(ConfigError, match="path-loss gain at d1 .* got inf"):
            to_scenario(RadioProfile(d1=1e-320))
        with pytest.raises(ConfigError, match="path-loss gain at d2 .* got 0.0"):
            to_scenario(RadioProfile(d2=1e200))


FAST = RadioProfile(delay_bound=0.1, violation_prob=1e-2,
                    transmission_time=2e-3)
FAST_FLAGS = ["--delay_bound", "0.1", "--violation_prob", "1e-2",
              "--transmission_time", "2e-3"]


def fast_output(capsys, *args):
    """What ``main`` writes to stdout for a command at the FAST profile."""
    assert main([*args, *FAST_FLAGS]) == 0
    return capsys.readouterr().out


class TestSweep:
    def test_rows_ordered_and_feasible(self):
        rows = sweep(FAST, "delay_bound", [0.2, 0.05, 0.1])
        assert [r.axis_value for r in rows] == [0.05, 0.1, 0.2]
        assert all(r.feasible for r in rows)
        totals = [r.total_power for r in rows]
        assert totals[0] > totals[1] > totals[2]

    def test_rows_copy_allocation_values(self):
        rows = sweep(FAST, "traffic_load", [5e4, 1e5])
        for row in rows:
            profile = dataclasses.replace(FAST, traffic_load=row.axis_value)
            allocation = allocate(to_scenario(profile))
            assert row.kappa1 == allocation.kappa1
            assert row.kappa2 == allocation.kappa2
            assert row.theta1 == allocation.theta1
            assert row.kappa1_db == pytest.approx(10 * math.log10(allocation.kappa1),
                                                  rel=1e-6, abs=0.0)

    def test_d1_sweep_moves_relay_along_line(self):
        rows = sweep(FAST, "d1", [30.0, 50.0, 70.0])
        assert all(r.feasible for r in rows)
        # asymmetric gains change both hops' powers
        assert rows[0].kappa1 < rows[-1].kappa1
        assert rows[0].kappa2 > rows[-1].kappa2

    def test_infeasible_points_reported_not_raised(self):
        rows = sweep(FAST, "traffic_load", [1e5, 1e9])
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].error != ""
        assert math.isnan(rows[1].kappa1)

    def test_range_errors_reported_in_their_rows(self, capsys):
        # a load of 1e-305 carries theta = u/A past the float range
        code = main(["sweep", "--axis", "traffic_load", "--grid", "1e-305:1e5:3:log"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["feasible"] for r in rows] == ["False", "True", "True"]
        assert "range" in rows[0]["error"]

    def test_deterministic(self, capsys):
        args = ["sweep", "--axis", "violation_prob", "--grid", "1e-4:1e-1:5:log"]
        first = fast_output(capsys, *args)
        second = fast_output(capsys, *args)
        assert first == second

    def test_rejects_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(FAST, "bandwidth", [1e5])

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError, match="^sweep grid is empty$"):
            sweep(RadioProfile(), "d1", [])


class TestValidate:
    def test_report_contents_and_determinism(self, capsys):
        args = ["validate", "--frames", "200000", "--warmup", "5000", "--seed", "21"]
        text = fast_output(capsys, *args)
        assert text == fast_output(capsys, *args)
        rows = dict(csv.reader(io.StringIO(text)))
        assert float(rows["analytic_violation"]) == pytest.approx(1e-2, rel=1e-6, abs=0.0)
        assert 0.0 <= float(rows["empirical_violation"]) <= 1.0
        assert "empirical_violation" in text
        assert "residual_load" in text

    def test_different_seed_changes_report(self, capsys):
        args = ["validate", "--frames", "100000", "--warmup", "0"]
        report_a = fast_output(capsys, *args, "--seed", "1")
        report_b = fast_output(capsys, *args, "--seed", "2")
        assert report_a != report_b

    def test_violation_ratio_is_nan_without_an_analytic_violation(self):
        report = validate(FAST, SimConfig(n_frames=20_000, seed=1))
        assert report.violation_ratio == (report.empirical_violation
                                          / report.analytic_violation)
        undefined = dataclasses.replace(report, analytic_violation=0.0)
        assert math.isnan(undefined.violation_ratio)
        assert math.isnan(dict(undefined.rows())["violation_ratio"])

    def test_peak_memory_is_the_e2e_array(self, monkeypatch):
        # validate keeps one frame-length array, the e2e delays (1 B per
        # frame at this load): the tail fits read the hop histograms the
        # scan counts, and the rest is chunk-sized scratch, bounded as in
        # test_qsim's test_peak_memory_per_frame
        runs = []
        simulate = cli.simulate_tandem

        def recording(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "simulate_tandem", recording)
        validate(FAST, SimConfig(n_frames=20_000, seed=1))  # first-call set-up
        tracemalloc.start()
        try:
            validate(FAST, SimConfig(n_frames=1_000_000, warmup_frames=10_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        e2e = runs[-1].e2e_delays
        assert e2e.nbytes == 990_000
        assert peak - e2e.nbytes <= 8 * 12 * _SIM_CHUNK


class TestLinspace:
    def test_matches_numpy_bit_for_bit(self):
        # linear grids skip numpy but keep its points, signed zeros, the
        # underflowing step of a subnormal span and the NaN of an
        # overflowing one included
        rng = np.random.default_rng(21)
        grids = [(float(lo), float(hi), int(n)) for lo, hi, n in zip(
            rng.uniform(-1e3, 1e3, 2000), rng.uniform(-1e3, 1e3, 2000),
            rng.integers(1, 300, 2000))]
        grids += [(-0.0, 1.0, 1), (0.0, -0.0, 3), (0.0, 1.5e-323, 8),
                  (-1e308, 1e308, 3), (2.0, 2.0, 5), (10.0, 90.0, 17)]
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi, n in grids:
                got = np.array(cli._linspace(lo, hi, n))
                assert got.tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)


class TestCcdfTable:
    def test_monotone_and_anchored(self):
        rows = ccdf_table(FAST, [0.0, 10.0, 25.0, 50.0])
        assert rows[0][1] == 1.0 and rows[0][2] == 1.0
        e2e = [r[2] for r in rows]
        assert all(a > b for a, b in zip(e2e, e2e[1:]))
        # the curve hits the target at the bound (50 frames)
        assert e2e[-1] == pytest.approx(1e-2, rel=1e-6, abs=0.0)
        # two-hop tail dominates the single hop
        assert all(r[2] >= r[1] for r in rows)


class TestMain:
    def test_allocate_command(self, tmp_path):
        out = tmp_path / "alloc.csv"
        code = main(["allocate", "--delay_bound", "0.1",
                     "--violation_prob", "1e-2", "--transmission_time", "2e-3",
                     "--out", str(out)])
        assert code == 0
        rows = dict(csv.reader(out.read_text().splitlines()[1:]))
        allocation = allocate(to_scenario(FAST))
        assert float(rows["kappa1"]) == allocation.kappa1
        assert float(rows["kappa2"]) == allocation.kappa2
        assert float(rows["residual_load"]) <= 1e-9

    def test_sweep_command_with_config(self, tmp_path):
        config = tmp_path / "profile.json"
        config.write_text(json.dumps({
            "delay_bound": 0.1, "violation_prob": 1e-2,
            "transmission_time": 2e-3}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config), "--axis", "d1",
                     "--grid", "30:70:3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("axis,axis_value,feasible")
        assert len(lines) == 4

    def test_sweep_log_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--delay_bound", "0.1", "--transmission_time",
                     "2e-3", "--axis", "violation_prob",
                     "--grid", "1e-6:1e-1:6:log", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["axis_value"]) for r in rows]
        assert values[0] == pytest.approx(1e-6, rel=1e-6, abs=0.0)
        assert values[-1] == pytest.approx(1e-1, rel=1e-6, abs=0.0)

    def test_validate_command_byte_identical(self, tmp_path):
        args = ["validate", "--delay_bound", "0.1", "--violation_prob", "1e-2",
                "--transmission_time", "2e-3", "--frames", "100000",
                "--warmup", "2000", "--seed", "13"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # every numeric row parses as a plain float (no numpy reprs)
        rows = dict(csv.reader(out1.read_text().splitlines()[1:]))
        for key, value in rows.items():
            if key in ("forwarding", "notes") or key.endswith("_window"):
                continue
            float(value)

    def test_validate_rows_are_two_fields(self, capsys):
        # the fit windows hold commas, so the writer must quote them
        assert main(["validate", "--delay_bound", "0.1", "--violation_prob", "1e-2",
                     "--transmission_time", "2e-3", "--frames", "100000",
                     "--warmup", "2000", "--seed", "13"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["metric", "value"]
        assert all(len(row) == 2 for row in rows)
        assert dict(rows)["hop1_fit_window"].startswith("(")

    def test_validate_notes_name_the_shortfall(self, capsys):
        # too short a run for a five-point fit window on either hop: each
        # note gives the count at the shallowest window end, x_lo + 4, which
        # is short of the floor; no bit exceeds D either, and that note leads
        assert main(["validate", "--violation_prob", "1e-2", "--delay_bound", "0.1",
                     "--frames", "1500", "--warmup", "0", "--seed", "1"]) == 0
        rows = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows["hop1_fit_window"] == rows["hop2_fit_window"] == "None"
        ccdf_note, *notes = rows["notes"].split("; ")
        assert ccdf_note.startswith("no tagged bit exceeded D = 50 frames in 1500 samples")
        assert [note.split(" (")[0] for note in notes] == [
            "only 2 exceedances beyond x=10", "only 84 exceedances beyond x=11"]
        assert all("(need >= 100)" in note for note in notes)
        # no x_hi is given to validate's fits, so none is advised lowered
        assert all(note.endswith("— simulate more frames") for note in notes)
        assert "lower x_hi" not in rows["notes"]

    def test_validate_names_an_undefined_halfwidth(self, capsys):
        # at the default profile (D = 125 frames, target 1e-6) no tagged bit
        # of a 1e6-frame run exceeds D: the report gives no half-width, not
        # 0 +/- 0, and says why
        assert main(["validate", "--frames", "1000000"]) == 0
        rows = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows["empirical_violation"] == "0.0"
        assert rows["empirical_halfwidth"] == "nan"
        assert rows["notes"] == ("no tagged bit exceeded D = 125 frames in 990000 "
                                 "samples, so the batch-means half-width is undefined")

    def test_validate_names_too_few_samples(self, capsys):
        # 20 samples, 2 above D = 2 frames: the fraction is counted, but 20
        # samples cannot fill the batches, and the note says that rather
        # than that every (or no) bit exceeded D
        assert main(["validate", "--traffic_load", "1e5", "--delay_bound", "0.004",
                     "--violation_prob", "0.3", "--transmission_time", "2e-3",
                     "--frames", "20", "--warmup", "0", "--seed", "1"]) == 0
        rows = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows["empirical_violation"] == "0.1"
        assert rows["empirical_halfwidth"] == "nan"
        ccdf_note = rows["notes"].split("; ")[0]
        assert ccdf_note == ("only 20 samples, too few for batch means, "
                             "so the batch-means half-width is undefined")
        assert "every tagged bit exceeded" not in rows["notes"]

    def test_validate_one_frame_has_no_halfwidth(self, capsys):
        assert main(["validate", "--frames", "1", "--warmup", "0"]) == 0
        rows = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows["empirical_violation"] == "0.0"
        assert rows["empirical_halfwidth"] == "nan"
        assert rows["notes"].startswith("no tagged bit exceeded D = 125 frames in 1 sample,")

    def test_validate_repeats_allocate_rows(self, capsys):
        args = ["--delay_bound", "0.1", "--violation_prob", "1e-2",
                "--transmission_time", "2e-3"]
        assert main(["allocate", *args]) == 0
        allocate_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert main(["validate", *args, "--frames", "20000", "--warmup", "0"]) == 0
        validate_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        start = validate_rows.index(allocate_rows[1])
        assert validate_rows[start:start + len(allocate_rows) - 1] == allocate_rows[1:]

    @pytest.mark.parametrize("command", [["ccdf"], ["sweep", "--axis", "d1"],
                                         ["sweep", "--axis", "violation_prob"]])
    @pytest.mark.parametrize("grid,reason", [
        ("nan:1:3", "grid endpoints must be finite"),
        ("0:inf:3", "grid endpoints must be finite"),
        ("1:inf:3:log", "grid endpoints must be finite"),
        # 7.3 TiB: the allocation is refused at once
        ("0:1:1000000000000", "grid of 1000000000000 points does not fit in memory"),
        ("a:90:3", "bad grid 'a:90:3'"),
        ("10:90:0", "grid needs at least one point, got 0"),
        ("0:10:-1", "grid needs at least one point, got -1"),
        ("0:0.1:3:log", "log grid endpoints must be positive"),
    ])
    def test_unusable_grid_is_invalid_config(self, capsys, command, grid, reason):
        assert main([*command, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"invalid configuration: {reason}")
        assert captured.out == ""

    def test_ccdf_command(self, tmp_path):
        out = tmp_path / "ccdf.csv"
        code = main(["ccdf", "--delay_bound", "0.1", "--violation_prob", "1e-2",
                     "--grid", "0:100:11", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert float(rows[0]["two_hop_ccdf"]) == 1.0

    def test_exit_code_infeasible(self, tmp_path, capsys):
        args = ["allocate", "--traffic_load", "1e9",
                "--delay_bound", "0.1", "--violation_prob", "1e-6"]
        assert main(args) == 1
        assert "infeasible" in capsys.readouterr().err
        # a failed solve neither creates nor truncates --out
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("previous\n")
        assert main(args + ["--out", str(fresh)]) == 1
        assert main(args + ["--out", str(kept)]) == 1
        assert not fresh.exists()
        assert kept.read_text() == "previous\n"

    def test_exit_code_invalid_config(self, tmp_path, capsys):
        assert main(["allocate", "--duplex", "simplex"]) == 2
        assert main(["sweep", "--axis", "d1", "--grid", "oops"]) == 2
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_field": 1.0}))
        assert main(["allocate", "--config", str(config)]) == 2
        assert main(["allocate", "--delay_bound", "0.0001"]) == 2
        capsys.readouterr()
        assert main(["allocate", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err
        config.write_text(json.dumps([1, 2]))
        assert main(["allocate", "--config", str(config)]) == 2
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert main(["allocate", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_exit_code_subnormal_power(self, capsys):
        # the relay so close that hop 1's gain is ~1e302: its power would be
        # subnormal, which cannot close the load, so the scenario is infeasible
        assert main(["allocate", "--path_loss_exponent", "6", "--d1", "5e-50",
                     "--traffic_load", "7.2e-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solve_kappa1: required power" in captured.err
        assert "below the normal float range" in captured.err

    def test_exit_code_gain_whose_ceiling_overflows(self, capsys):
        # hop 1's gain ~9.3e302 makes its SNR ceiling 1e6 * gain overflow:
        # the solve runs up to the largest float SNR instead of probing
        # snr = inf, and finds the subnormal power the gain implies
        assert main(["allocate", "--path_loss_exponent", "6", "--d1", "1.6e-49",
                     "--traffic_load", "7.2e-10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solve_kappa1: required power" in captured.err
        assert "below the normal float range" in captured.err

    def test_exit_code_range_error(self, capsys):
        # an overflow deep in the power solve is a bad input, not a crash
        # (exit 1 would claim the scenario infeasible)
        assert main(["allocate", "--traffic_load", "1e-305"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        assert "Traceback" not in err

    def test_exit_code_underflowing_violation_prob(self, capsys):
        # -xi/e underflows to zero, which Lambert W's minus-one branch rejects
        assert main(["allocate", "--violation_prob", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: xi=5e-324 is too small")
        assert "-xi/e underflows" in err

    @pytest.mark.parametrize("flags,name", [
        (["--reference_distance", "inf"], "reference_distance"),
        (["--traffic_load", "inf"], "traffic_load"),
        (["--delay_bound", "inf"], "delay_bound"),
        (["--d2", "nan"], "d2"),
        (["--transmission_time", "inf"], "transmission_time"),
    ])
    def test_non_finite_input_names_its_field(self, capsys, flags, name):
        assert main(["allocate", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {name} must be finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize("values,name", [
        ({"traffic_load": True, "d1": True}, "d1"),
        ({"traffic_load": False}, "traffic_load"),
        ({"traffic_load": "1e5"}, "traffic_load"),
        ({"violation_prob": [0.01]}, "violation_prob"),
        ({"path_loss_exponent": None}, "path_loss_exponent"),
        ({"transmission_time": "2e-3"}, "transmission_time"),
    ])
    def test_non_real_config_value_names_its_field(self, tmp_path, capsys, values, name):
        # a JSON true solved at 1 bit/s with the relay at 1 m, and a string
        # failed a comparison with a message that named no field
        config = tmp_path / "profile.json"
        config.write_text(json.dumps(values))
        assert main(["allocate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {name} must be a real number")
        # an unset transmission time is half a frame, not an error
        config.write_text(json.dumps({"transmission_time": None}))
        assert main(["allocate", "--config", str(config)]) == 0

    @pytest.mark.parametrize("flags,what", [
        (["--d1", "1e-320"], "path-loss gain at d1"),
        (["--d2", "1e200"], "path-loss gain at d2"),
        (["--reference_distance", "1e-310"], "path-loss gain at d1"),
        (["--frame_duration", "2", "--delay_bound", "2", "--transmission_time", "2",
          "--bandwidth", "1e308"], "bandwidth-time product"),
        (["--bandwidth", "1e-320", "--transmission_time", "1e-10"], "bandwidth-time product"),
        (["--traffic_load", "1e308", "--frame_duration", "10", "--delay_bound", "100"],
         "traffic_load per frame"),
        (["--delay_bound", "1e300", "--frame_duration", "1e-10"],
         "frame count delay_bound / frame_duration"),
    ])
    def test_derived_quantity_out_of_range_names_its_source(self, capsys, flags, what):
        assert main(["allocate", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: the {what} is outside the "
                              "floating-point range")

    def test_removed_aliases_are_rejected(self, tmp_path, capsys):
        # the relay has one forwarding model, and T one setting
        assert main(["validate", "--forwarding", "cut-through"]) == 2
        config = tmp_path / "half.json"
        config.write_text(json.dumps({"duplex": "half"}))
        capsys.readouterr()
        assert main(["allocate", "--config", str(config)]) == 2
        assert "unknown config keys: ['duplex']" in capsys.readouterr().err

    def test_horizon_past_memory_is_invalid_config(self, capsys):
        # any whole horizon is a valid config; one whose 909 TiB delay array
        # numpy refuses at once exits 2 with numpy's message, not a traceback
        SimConfig(n_frames=2**31)
        assert main(["validate", "--frames", "1000000000000000", "--warmup", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_transmission_time_past_the_frame_is_invalid_config(self, capsys):
        # T = 1 s in a 2 ms frame solved at B*T = 1e5 per frame
        assert main(["allocate", "--transmission_time", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "invalid configuration: transmission_time 1.0 s exceeds the frame")
        assert main(["allocate", "--transmission_time", "2e-3"]) == 0

    def test_exit_code_invalid_seed(self, capsys):
        assert main(["validate", "--frames", "1000", "--warmup", "0", "--seed", "-1"]) == 2
        assert "seed must lie in [0, 2**128)" in capsys.readouterr().err

    def test_exit_code_instability(self, monkeypatch, capsys):
        def boom(profile, cfg):
            raise StabilityError("forced")
        monkeypatch.setattr(cli, "validate", boom)
        code = main(["validate", "--frames", "1000", "--warmup", "0"])
        assert code == 3
        assert "unstable" in capsys.readouterr().err


class TestRuntimeImports:
    def test_no_scipy_on_import(self):
        # scipy is a test-only dependency: the library and CLI must not load it
        src = str(Path(relayqos.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import relayqos, relayqos.cli, sys; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_no_module_imports_scipy(self):
        # a function-local import escapes test_no_scipy_on_import; read every
        # import statement in the package instead
        package = Path(relayqos.__file__).resolve().parent
        found = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [(path.name, node.lineno) for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_exports_no_test_only_names(self):
        # the quadrature oracles and the inverse unit conversion live in tests/
        assert not [name for name in relayqos.__all__ if name.endswith("_oracle")]
        test_only = ("effective_capacity_oracle", "effective_bandwidth_oracle",
                     "ergodic_rate_oracle", "THETA_ERGODIC_LIMIT",
                     "nats_per_frame_to_bits_per_second")
        for module in (relayqos, relayqos.effcap, cli):
            assert [name for name in test_only if hasattr(module, name)] == [], module

    def test_every_export_resolves(self):
        # a name deleted from a module must leave no dangling entry in its
        # __all__ or in the package's
        modules = [relayqos, *(importlib.import_module(info.name) for info in
                               pkgutil.iter_modules(relayqos.__path__, "relayqos."))]
        assert {m.__name__ for m in modules} >= {"relayqos.cli", "relayqos.qsim"}
        for module in modules:
            missing = [name for name in getattr(module, "__all__", ())
                       if not hasattr(module, name)]
            assert missing == [], module.__name__

    def test_allocator_path_leaves_numpy_unloaded(self):
        # numpy loads on first use: sweep and the allocate, ccdf and linear
        # sweep commands run without it
        src = str(Path(relayqos.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import contextlib, io, relayqos, relayqos.cli as cli, sys\n"
                "cli.sweep(cli.RadioProfile(), 'd1', [30.0, 60.0])\n"
                "for argv in (['allocate'], ['ccdf'], ['ccdf', '--grid', '0:10:3'],\n"
                "             ['sweep', '--axis', 'd1', '--grid', '30:60:3']):\n"
                "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "        rc = cli.main(argv)\n"
                "    print(rc, bool(out.getvalue()), end=' ')\n"
                "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "0 True 0 True 0 True 0 True False"
