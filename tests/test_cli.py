"""CLI: config parsing, unit conversion, scenario dispatch, file outputs."""

import csv
import json

import numpy as np
import pytest

import spinlift
from spinlift import experiments
from spinlift.cli import ConfigError, list_scenarios, main, parse_config, run

TWO_PI = 2 * np.pi


class TestParseConfig:
    def test_nominal_defaults(self):
        cfg = parse_config("fig2e", {})
        assert cfg.params["omega0"] == pytest.approx(TWO_PI * 40e3)
        assert cfg.params["delta0"] == pytest.approx(TWO_PI * 60e3)
        assert cfg.params["t_omega"] == pytest.approx(200e-6)
        assert cfg.params["t_delta"] == pytest.approx(300e-6)
        assert cfg.params["t_hold"] == pytest.approx(400e-6)

    def test_override_t_hold_zero(self):
        cfg = parse_config("fig2e", {"t_hold_us": 0})
        assert cfg.params["t_hold"] == 0.0

    def test_negative_omega0_rejected_by_name(self):
        with pytest.raises(ConfigError, match="omega0_hz"):
            parse_config("fig2e", {"omega0_hz": -1})

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="waveform_zoom"):
            parse_config("fig2e", {"waveform_zoom": 3})

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="t_delta_us"):
            parse_config("fig2e", {"t_delta_us": "fast"})

    def test_unit_conversion(self):
        cfg = parse_config("fig3c", {"delta_omega_hz": -10e3})
        assert cfg.params["delta_omega"] == pytest.approx(-TWO_PI * 10e3)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="fig7"):
            parse_config("fig7", {})

    def test_intlist(self):
        cfg = parse_config("fig4c", {"ns": [2, 4]})
        assert cfg.params["ns"] == [2, 4]
        with pytest.raises(ConfigError, match="ns"):
            parse_config("fig4c", {"ns": "many"})


class TestCliCommands:
    def test_list_contains_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2e", "fig3d", "fig4c", "ramsey", "verify-reversal"):
            assert name in out

    def test_run_verify_reversal(self, tmp_path, capsys):
        code = main(["run", "--scenario", "verify-reversal", "--set", "d=5",
                     "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "verify-reversal_2.json").read_text())
        assert doc["outputs"]["pass"] is True
        assert doc["outputs"]["max_dev"] < 1e-10

    def test_run_unknown_key_fails_with_error_json(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig2e", "--set", "bogus=1",
                     "--out", str(tmp_path)])
        assert code == 2
        err = json.loads((tmp_path / "error.json").read_text())
        assert "bogus" in err["message"]

    def test_config_file_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        code = main(["run", "--scenario", "fig3c", "--set", "tolerance=1e-8",
                     "--seed", "4", "--out", str(out1)])
        assert code == 0
        effective = out1 / "fig3c_4_config.json"
        assert effective.exists()
        out2 = tmp_path / "b"
        code = main(["run", "--config", str(effective), "--out", str(out2)])
        assert code == 0
        rep1 = (out1 / "fig3c_4.json").read_text()
        rep2 = (out2 / "fig3c_4.json").read_text()
        assert rep1 == rep2

    def test_fig3d_emits_per_method_csv(self, tmp_path):
        code = main(["run", "--scenario", "fig3d", "--seed", "1",
                     "--set", "tolerance=1e-8", "--out", str(tmp_path)])
        assert code == 0
        for method in ("single", "tbb1"):
            path = tmp_path / f"fig3d_1_{method}.csv"
            rows = list(csv.reader(path.read_text().splitlines()))
            assert rows[0] == ["area", "p_f1"]
            assert len(rows) > 10

    def test_csv_matches_report_values(self, tmp_path):
        code = main(["run", "--scenario", "fig4c", "--seed", "3",
                     "--set", "ns=[2,4]", "--set", "shots=500",
                     "--set", "method=tbb1", "--set", "tolerance=1e-8",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "fig4c_3.json").read_text())
        rows = list(csv.DictReader((tmp_path / "fig4c_3.csv").read_text().splitlines()))
        for row, f_json in zip(rows, doc["outputs"]["fidelity_raw"]):
            assert float(row["fidelity"]) == pytest.approx(f_json, rel=1e-11)

    def test_missing_scenario(self, capsys):
        assert main(["run", "--set", "d=3"]) == 2


class TestListScenarios:
    def test_one_line_per_scenario(self):
        text = list_scenarios()
        assert len(text.splitlines()) == 9


class TestIntegratorOverrides:
    def test_earlier_config_with_max_step_refused_by_name(self, tmp_path, capsys):
        # earlier versions wrote "max_step_us": null into every config file
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig3c", "seed": 4, "max_step_us": None}))
        err = TestErrorContract.failing_run(tmp_path, "--config", str(path))
        assert err["error"] == "ConfigError"
        assert "'max_step_us'" in err["message"]
        assert not list(tmp_path.glob("fig3c_*"))

    def test_invalid_max_step(self):
        # every scenario that took a step override refuses the key, whatever its value
        for scenario in ("fig2e", "fig3c", "fig3d", "fig4b", "fig4c", "ramsey",
                         "verify-reversal", "static-error"):
            for value in (-2, 0.5, None):
                with pytest.raises(ConfigError, match="'max_step_us'"):
                    parse_config(scenario, {"max_step_us": value})


class TestErrorContract:
    """Every spinlift error leaves the CLI as exit 2 plus error.json."""

    @staticmethod
    def failing_run(tmp_path, *args):
        assert main(["run", *args, "--out", str(tmp_path)]) == 2
        return json.loads((tmp_path / "error.json").read_text())

    def test_schedule_error(self, tmp_path, capsys):
        err = self.failing_run(tmp_path, "--scenario", "fig2e", "--set", "t_omega_us=400")
        assert err["error"] == "ScheduleError"
        assert "t_omega" in err["message"]

    def test_scenario_error(self, tmp_path, capsys):
        err = self.failing_run(tmp_path, "--scenario", "verify-reversal", "--set", "d=9")
        assert err["error"] == "ScenarioError"

    def test_fit_singular_error(self, tmp_path, capsys):
        err = self.failing_run(tmp_path, "--scenario", "fig4c", "--set", "method=tbb1",
                               "--set", "ns=[8]", "--set", "shots=100")
        assert err["error"] == "FitSingularError"

    def test_integrator_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(drive, cfg):
            raise spinlift.IntegratorError("no convergence after 14 halvings", 1e-3)

        monkeypatch.setattr(experiments, "propagator", no_convergence)
        err = self.failing_run(tmp_path, "--scenario", "verify-reversal", "--set", "d=3")
        assert err["error"] == "IntegratorError"
        assert "no convergence" in err["message"]

    def test_step_grid_too_fine(self, tmp_path, capsys):
        err = self.failing_run(tmp_path, "--scenario", "fig2e", "--set", "delta0_hz=1e9",
                               "--set", "t_hold_us=0")
        assert err["error"] == "IntegratorError"
        assert "steps per build" in err["message"]

    @pytest.mark.parametrize("scenario", ["fig3d", "verify-reversal"])
    def test_frequency_infinite_in_rad_per_s(self, tmp_path, capsys, scenario):
        # 1e308 Hz is finite, but 2 pi 1e308 rad/s is not
        err = self.failing_run(tmp_path, "--scenario", scenario, "--set", "omega0_hz=1e308")
        assert err["error"] == "ConfigError"
        assert "omega0_hz" in err["message"]

    @pytest.mark.parametrize("args", [
        ["--scenario", "fig2e", "--set", "t_hold_us=1e308"],
        ["--scenario", "fig2e", "--set", "t_hold_us=1e8"],
        ["--scenario", "fig3c", "--set", "omega0_hz=1", "--set", "delta_omega_hz=0"]])
    def test_sample_grid_too_large(self, tmp_path, capsys, args):
        err = self.failing_run(tmp_path, *args)
        assert err["error"] == "IntegratorError"
        assert "steps per build" in err["message"]

    @pytest.mark.parametrize("scenario,setting", [
        ("verify-reversal", "d=4.7"), ("verify-reversal", "d=true"),
        ("fig4b", "shots=200.9"), ("ramsey", "shots=false"), ("ramsey", "n_transfers=1e999"),
        ("fig4c", "ns=[8.5,16]"), ("fig4c", "ns=[8,true]"),
        ("fig3c", "omega0_hz=true"), ("fig3d", "tolerance=true")])
    def test_non_integral_or_boolean_value(self, tmp_path, capsys, scenario, setting):
        # such values used to be truncated (d=4.7 ran d=4) or read as 0 / 1
        err = self.failing_run(tmp_path, "--scenario", scenario, "--set", setting)
        assert err["error"] == "ConfigError"
        assert repr(setting.partition("=")[0]) in err["message"]
        assert not (tmp_path / f"{scenario}_0_config.json").exists()

    @pytest.mark.parametrize("scenario,setting", [
        ("fig4b", "shots=1e20"), ("fig4c", "shots=1e20"), ("ramsey", "shots=1e20"),
        ("verify-reversal", "d=9223372036854775808"), ("fig4c", "ns=[8,1e19]")])
    def test_integer_above_int64_refused(self, tmp_path, capsys, scenario, setting):
        # shots=1e20 used to reach Generator.binomial and fail with an OverflowError
        err = self.failing_run(tmp_path, "--scenario", scenario, "--set", setting)
        assert err["error"] == "ConfigError"
        assert repr(setting.partition("=")[0]) in err["message"]
        assert "2**63 - 1" in err["message"]

    @pytest.mark.parametrize("scenario,setting", [
        ("ramsey", "n_transfers=4000000"), ("fig4c", "ns=[0,4000000]"),
        ("ramsey", f"n_transfers={experiments._MAX_TRANSFERS + 4}"),
        ("fig4c", f"ns=[0,{experiments._MAX_TRANSFERS}]")])
    def test_transfer_count_over_the_limit(self, tmp_path, capsys, monkeypatch,
                                           scenario, setting):
        # ramsey n_transfers=4000000 used to run for minutes
        def refuse(*args):
            raise AssertionError("propagated before refusing the transfer count")

        monkeypatch.setattr(experiments, "_transfer_channel", refuse)
        err = self.failing_run(tmp_path, "--scenario", scenario, "--set", setting)
        assert err["error"] == "ScenarioError"
        assert f"limit of {experiments._MAX_TRANSFERS}" in err["message"]

    def test_largest_int64_is_an_integer(self):
        assert parse_config("fig4b", {"shots": 2**63 - 1}).params["shots"] == 2**63 - 1

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--seed", "abc"]])
    def test_bad_command_line_seed(self, tmp_path, capsys, args):
        # --seed -1 used to fail with a raw ValueError from default_rng
        err = self.failing_run(tmp_path, "--scenario", "fig4b", *args)
        assert err["error"] == "ConfigError"
        assert "seed" in err["message"]

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, -1])
    def test_bad_config_file_seed(self, tmp_path, capsys, seed):
        # "abc" used to fail with a raw traceback; 1.5 and true ran as seed 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig3c", "seed": seed}))
        err = self.failing_run(tmp_path, "--config", str(path))
        assert err["error"] == "ConfigError"
        assert "seed" in err["message"]
        assert not list(tmp_path.glob("fig3c_*"))

    def test_config_file_scenario_disagreeing_with_flag(self, tmp_path, capsys):
        # the file's scenario used to win silently: this ran fig3d
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig3d", "seed": 7}))
        out = tmp_path / "out"
        args = ["--config", str(path), "--out", str(out)]
        assert main(["run", "--scenario", "verify-reversal", *args]) == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "'fig3d'" in err["message"] and "'verify-reversal'" in err["message"]
        # the same name given twice is one scenario
        assert main(["run", "--scenario", "fig3d", *args]) == 0
        assert (out / "fig3d_7.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        # used to exit 1 with a raw FileNotFoundError and no error.json
        err = self.failing_run(tmp_path, "--config", str(tmp_path / "absent.json"))
        assert err["error"] == "ConfigError"
        assert "absent.json" in err["message"]

    def test_truncated_config_file(self, tmp_path, capsys):
        # used to exit 1 with a raw json.JSONDecodeError and no error.json
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig3d", "seed": 7})[:-6])
        err = self.failing_run(tmp_path, "--config", str(path))
        assert err["error"] == "ConfigError"
        assert "not JSON" in err["message"]
        assert not list(tmp_path.glob("fig3d_*"))

    def test_config_file_scenario_not_a_name(self, tmp_path, capsys):
        # used to exit 1 with a TypeError (unhashable type: 'list')
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": ["fig3d"]}))
        err = self.failing_run(tmp_path, "--config", str(path))
        assert err["error"] == "ConfigError"
        assert "['fig3d']" in err["message"]
        assert not list(tmp_path.glob("fig3d_*"))

    def test_integral_float_is_an_integer(self):
        cfg = parse_config("fig4c", {"shots": 300.0, "ns": [8.0, 16]})
        assert cfg.params["shots"] == 300 and isinstance(cfg.params["shots"], int)
        assert cfg.params["ns"] == [8, 16]

    @pytest.mark.parametrize("error", [
        ConfigError, spinlift.ScheduleError, spinlift.IntegratorError,
        spinlift.FitSingularError, experiments.ScenarioError, spinlift.DimensionError,
        spinlift.NormalizationError, spinlift.UnknownStateError])
    def test_every_error_shares_the_base(self, error):
        assert issubclass(error, spinlift.SpinliftError)


class TestTbb1AmplitudeErrorSweep:
    def test_final_state_normalized_for_every_error(self):
        # the accepted states are projected to unit norm, so Trajectory.state
        # never trips StateVector's 1e-12 norm^2 check on rounding
        for delta_hz in np.linspace(-10e3, 0.0, 41):
            report = run(parse_config("fig3c", {"delta_omega_hz": float(delta_hz)}))
            assert report.outputs["final_fidelity_to_dark"] > 0.99


class TestFieldErrorValidation:
    """Field errors that would switch a field off or reverse it are scenario
    errors, reported through the CLI's error contract."""

    @pytest.mark.parametrize("common_rabi_hz", ["-80000", "-40000"])
    def test_fig4b_common_rabi_error_must_keep_the_gain_positive(self, tmp_path, capsys,
                                                                 common_rabi_hz):
        err = TestErrorContract.failing_run(tmp_path, "--scenario", "fig4b", "--set",
                                            f"common_rabi_hz={common_rabi_hz}")
        assert err["error"] == "ScenarioError"
        assert "gain" in err["message"]
        assert not (tmp_path / "fig4b_0.json").exists()

    def test_fig2e_rabi_mismatch_above_one(self, tmp_path, capsys):
        err = TestErrorContract.failing_run(tmp_path, "--scenario", "fig2e", "--set",
                                            "rabi_mismatch=2")
        assert err["error"] == "ScenarioError"
        assert "rabi_mismatch" in err["message"]

    def test_fig4c_negative_operation_count(self, tmp_path, capsys):
        err = TestErrorContract.failing_run(tmp_path, "--scenario", "fig4c", "--set",
                                            "ns=[-2,2]")
        assert err["error"] == "ScenarioError"


class TestFloatRange:
    """Frequencies far from unit scale in rad/s still give the SU(2) step:
    its norm no longer overflows to nan or underflows to the identity."""

    @staticmethod
    def outputs(tmp_path, *args):
        assert main(["run", *args, "--out", str(tmp_path)]) == 0
        [report] = tmp_path.glob("*_0.json")
        outputs = json.loads(report.read_text())["outputs"]
        for key, value in outputs.items():
            assert not isinstance(value, float) or np.isfinite(value), key
        return outputs

    @pytest.mark.parametrize("omega0_hz", ["1e300", "1e-300"])
    def test_fig3d(self, tmp_path, capsys, omega0_hz):
        # 1e300 used to fail with a raw LinAlgError, 1e-300 to read flatness 1.0
        out = self.outputs(tmp_path, "--scenario", "fig3d", "--set", f"omega0_hz={omega0_hz}")
        assert out["flatness_ratio"] < 1e-3

    @pytest.mark.parametrize("omega0_hz", ["1e300", "1e-300"])
    def test_verify_reversal(self, tmp_path, capsys, omega0_hz):
        out = self.outputs(tmp_path, "--scenario", "verify-reversal",
                           "--set", f"omega0_hz={omega0_hz}")
        assert out["pass"] is True

    def test_fig3c(self, tmp_path, capsys):
        # used to report final_p_f1 nan beside a fidelity of 1.0
        out = self.outputs(tmp_path, "--scenario", "fig3c", "--set", "omega0_hz=1e300")
        assert out["final_fidelity_to_dark"] > 0.99
