import logging
import os
from unittest import mock

import pytest
import yaml

from psdalign import simkit
from psdalign.cli import main
from psdalign.config import ConfigError, config_from_mapping, config_to_mapping, dump_config, load_config
from psdalign.simkit import ExperimentConfig


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_mapping(config_to_mapping(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = ExperimentConfig(
            users=4,
            shifts=(0.1, 0.3, 0.5, 0.7),
            contamination_band=(-0.25, 0.25),
            contamination_inr_db=3.0,
            sweep_lengths=(64, 128),
            trials=7,
            channel_model="exact",
        )
        assert config_from_mapping(config_to_mapping(cfg)) == cfg

    def test_yaml_text_round_trip(self, tmp_path):
        cfg = ExperimentConfig(trials=5, antennas=3)
        path = tmp_path / "c.yaml"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_empty_document_gives_defaults(self):
        assert config_from_mapping({}) == ExperimentConfig()
        assert config_from_mapping(None) == ExperimentConfig()

    def test_shipped_default_config_matches_builtin(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(here, "configs", "default.yaml")
        assert load_config(path) == ExperimentConfig()


class TestConfigErrors:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            config_from_mapping({"sistem": {}})

    def test_unknown_key_names_section(self):
        with pytest.raises(ConfigError, match="users.dopler_hz"):
            config_from_mapping({"users": {"dopler_hz": 10}})

    def test_invalid_value_diagnosed(self):
        with pytest.raises(ConfigError, match="Doppler"):
            config_from_mapping({"users": {"doppler_hz": 1e6}})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/x.yaml")

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("users: [unclosed\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(p)


def write_config(tmp_path, doc, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


TINY = {
    "users": {"count": 4},
    "pilots": {"shifts": "auto"},
    "run": {
        "observation_length": 128,
        "sweep_lengths": [64, 128],
        "antennas": 2,
        "trials": 3,
        "seed": 7,
    },
}


class TestCli:
    def test_plan_writes_table_and_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["plan", "--config", write_config(tmp_path, TINY), "--out", str(out)])
        assert code == 0
        assert "alignment plan" in capsys.readouterr().out
        doc = yaml.safe_load((out / "plan.yaml").read_text())
        assert len(doc["shifts"]) == 4

    def test_plan_file_feeds_sweep(self, tmp_path):
        out = tmp_path / "o"
        assert main(["plan", "--config", write_config(tmp_path, TINY), "--out", str(out)]) == 0
        cycles = yaml.safe_load((out / "plan.yaml").read_text())["shift_cycles"]
        doc = dict(TINY)
        doc["pilots"] = {"shifts": cycles}
        code = main(
            ["sweep-mse", "--config", write_config(tmp_path, doc, "planned.yaml"), "--out", str(out / "s")]
        )
        assert code == 0

    def test_plan_infeasible_exit_one(self, tmp_path, capsys):
        doc = {
            "users": {"count": 300},
            "pilots": {"shifts": "auto"},
            "contamination": {"band": None, "inr_db": None},
            "run": {"observation_length": 4096, "trials": 1},
        }
        code = main(["plan", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "deficit" in capsys.readouterr().err

    def test_sweep_mse_row_contract(self, tmp_path):
        out = tmp_path / "o"
        code = main(["sweep-mse", "--config", write_config(tmp_path, TINY), "--out", str(out)])
        assert code == 0
        lines = (out / "mse.csv").read_text().splitlines()
        # 2 schemes x 2 sweep lengths x 4 users data rows after 2 header lines
        assert len(lines) - 2 == 2 * 2 * 4
        assert (out / "gain.csv").exists() and (out / "manifest.json").exists()

    def test_sweep_logs_no_warning(self, tmp_path, caplog):
        # nothing in an ordinary sweep needs the user's action
        with caplog.at_level(logging.WARNING):
            code = main(["sweep-mse", "--config", write_config(tmp_path, TINY), "--out", str(tmp_path / "o")])
        assert code == 0
        assert [rec.getMessage() for rec in caplog.records if rec.levelno >= logging.WARNING] == []

    def test_sweep_runs_the_baseline_once(self, tmp_path):
        # the Hadamard window is one slot per user at every sweep length
        with mock.patch.object(simkit, "run_experiment", wraps=simkit.run_experiment) as run:
            code = main(["sweep-mse", "--config", write_config(tmp_path, TINY), "--out", str(tmp_path / "o")])
        assert code == 0
        schemes = [call.args[0].scheme for call in run.call_args_list]
        assert schemes == ["psd_align", "hadamard", "psd_align"]

    def test_sweep_dl_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main(["sweep-dl", "--config", write_config(tmp_path, TINY), "--out", str(out)])
        assert code == 0
        assert (out / "dlse.csv").exists()

    def test_sweep_replay_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep-mse", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("mse.csv", "gain.csv", "manifest.json", "aggregate.dat"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_empty_sweep_axis_usage_error(self, tmp_path, capsys):
        doc = {"run": {"sweep_lengths": [], "trials": 1}}
        code = main(["sweep-mse", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        # every bad value is rejected before the first trial; the cases loop
        # inside one test so its id stays stable
        cases = {
            "doppler_above_nyquist": {"users": {"doppler_hz": 99999}},
            "zero_sampling_divisor": {"system": {"sampling_divisor": 0}},
            "negative_symbol_duration": {"system": {"symbol_duration_s": -1.0e-4}},
            "zero_doppler": {"users": {"doppler_hz": 0}},
            "negative_dl_lag": {"run": {"dl_lag": -3}},
            "hadamard_user_count_not_power_of_two": {"users": {"count": 3}},
            # the Hadamard baseline of one user would have a one-slot window
            "hadamard_single_user": {"users": {"count": 1}},
            "negative_tolerance_scale": {"run": {"tolerance_scale": -2}},
            "nan_tolerance_scale": {"run": {"tolerance_scale": float("nan")}},
        }
        for name, bad in cases.items():
            doc = dict(TINY)
            for section, body in bad.items():
                doc[section] = {**TINY.get(section, {}), **body}
            out = tmp_path / name
            code = main(["sweep-mse", "--config", write_config(tmp_path, doc, f"{name}.yaml"), "--out", str(out)])
            assert code == 2, name
            assert "config error" in capsys.readouterr().err, name
            assert not (out / "mse.csv").exists(), name

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "jobs", 0),
            ("run", "jobs", 2.5),
            ("run", "jobs", "two"),
            ("run", "trials", 2.5),
            ("run", "trials", True),
            ("run", "seed", -1),
            ("run", "sweep_lengths", [63.5]),
            ("run", "sweep_lengths", [64, 1]),
            ("run", "dl_lag", 1.5),
            ("run", "dl_snr_db", "x"),
            ("run", "perfect_csi", "maybe"),
            ("noise", "pilot_snr_db", float("nan")),
            ("contamination", "inr_db", float("inf")),
            ("pilots", "shifts", [0.0, 0.25, "half", 0.75]),
            ("pilots", "shifts", [0.0, 0.25, float("nan"), 0.75]),
        ],
        ids=lambda v: str(v).replace(" ", ""),
    )
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, section, key, value):
        doc = {**TINY, section: {**TINY.get(section, {}), key: value}}
        out = tmp_path / "o"
        code = main(["sweep-mse", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "mse.csv").exists()

    def test_bad_tolerance_scale_flag_exit_two(self, tmp_path, capsys):
        for value in ("nan", "inf", "0", "-2"):
            out = tmp_path / value
            assert main(["validate", "--tolerance-scale", value, "--out", str(out)]) == 2, value
            assert "config error" in capsys.readouterr().err, value
            assert not (out / "report.txt").exists(), value

    def test_validate_passes_at_default_tolerances(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["validate", "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "FAIL" not in report
        assert "checks passed" in report

    def test_validate_fails_with_tight_tolerances(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["validate", "--tolerance-scale", "0.01", "--out", str(out)])
        assert code == 1
        report = (out / "report.txt").read_text()
        # at minimum the Monte-Carlo checks cannot satisfy a 100x tightening
        assert "FAIL  synthesis_autocorrelation_3se" in report
        assert "FAIL  mmse_orthogonality_principle_4se" in report

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep-mse", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep-mse", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert (a / "mse.csv").read_bytes() != (b / "mse.csv").read_bytes()

    def test_config_echo_written(self, tmp_path):
        out = tmp_path / "o"
        main(["plan", "--config", write_config(tmp_path, TINY), "--out", str(out)])
        echoed = load_config(out / "config-used.yaml")
        assert echoed.users == 4
