"""Config parsing, command dispatch, exit codes, and bit-stable output."""

import json
import math
import os

import numpy as np
import pytest

from radns.cli import command_dispatch
from radns.config import parse_config


GOOD_CONFIG = """\
N = 16384
R = 500
dt = 0.05
T = 200
gamma = 1.4
c = 0.01
"""


class TestParseConfig:
    def test_well_formed(self):
        config = parse_config(GOOD_CONFIG)
        assert config.ok
        assert config.get("N") == 16384
        assert config.get("R") == 500.0
        assert config.get("dt") == 0.05
        assert config.get("T") == 200.0
        assert config.get("gamma") == 1.4
        assert config.get("c") == 0.01

    def test_range_violation_with_line_number(self):
        config = parse_config("N = 3")
        assert not config.ok
        assert config.errors == ["N below minimum 8 (line 1)"]

    def test_unparsable_value(self):
        config = parse_config("gamma = banana")
        assert not config.ok
        assert "line 1" in config.errors[0]
        assert "banana" in config.errors[0]

    def test_unknown_key(self):
        config = parse_config("N = 64\nwidgets = 7")
        assert config.errors == ["unknown key 'widgets' (line 2)"]

    def test_all_errors_collected(self):
        config = parse_config("N = 3\ngamma = banana\nmystery = 1")
        assert len(config.errors) == 3

    def test_comments_and_blanks(self):
        config = parse_config("# header\n\nN = 64  # trailing\n")
        assert config.ok
        assert config.get("N") == 64

    def test_duplicate_key(self):
        config = parse_config("N = 64\nN = 128")
        assert not config.ok

    def test_inf_and_lists(self):
        config = parse_config("p_list = 2 inf\nt_list = 16, 64, 256")
        assert config.ok
        assert config.get("p_list") == [2.0, math.inf]
        assert config.get("t_list") == [16.0, 64.0, 256.0]

    def test_defaults_applied(self):
        config = parse_config("")
        solver = config.solver_config()
        assert solver.n_modes == 16384
        assert solver.gamma == 1.4


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_RUN = """\
N = 2047
R = 60
dt = 0.05
T = 20
gamma = 1.4
c = 0.01
fit_t_lo = 5
fit_t_hi = 20
"""


class TestDispatch:
    def test_unknown_command_exits_2(self, capsys):
        assert command_dispatch(["definitely-not-a-command"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_command_exits_2(self, capsys):
        assert command_dispatch([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "N = 3\n")
        code = command_dispatch(["grid-check", "--config", cfg,
                                 "--out", str(tmp_path)])
        assert code == 2
        assert "below minimum" in capsys.readouterr().err

    def test_grid_check_passes(self, tmp_path):
        cfg = write_config(tmp_path, "N = 256\nR = 30\n")
        code = command_dispatch(["grid-check", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 0
        payload = json.loads((tmp_path / "grid_check.json").read_text())
        assert payload["passed"] is True
        assert payload["involution_rel_err"] <= 1e-12

    def test_simulate_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        code = command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 0
        text = (tmp_path / "diagnostics.csv").read_text()
        header = text.splitlines()[0]
        assert header == "t,l2_av,linf_av,besov0_21,besov0_inf1,nl_l2,nl_besov_inf1,weighted_sup"
        assert len(text.splitlines()) == 22  # t = 0..20 inclusive

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert command_dispatch(["simulate", "--config", cfg,
                                     "--out", str(out), "--quiet"]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() == \
            (out_b / "diagnostics.csv").read_bytes()

    def test_solver_abort_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN + "guard = 0.9999\n")
        code = command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "t =" in capsys.readouterr().err

    def test_linear_decay_report(self, tmp_path):
        cfg = write_config(tmp_path, """\
N = 4095
R = 140
dt = 0.05
T = 60
c = 0.01
fit_t_lo = 10
fit_t_hi = 60
p_list = 2
""")
        code = command_dispatch(["linear-decay", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 0
        payload = json.loads((tmp_path / "linear_decay.json").read_text())
        entry = payload["entries"][0]
        assert entry["verdict"] == "PASS"
        assert abs(entry["fitted_exponent"] - entry["target_exponent"]) < 0.1
        assert (tmp_path / "linear-decay.csv").exists()

    def test_besov_norm_command(self, tmp_path):
        cfg = write_config(tmp_path, "N = 1023\nR = 50\nc = 0.01\ns = 0\np = 2\nq = 1\n")
        code = command_dispatch(["besov-norm", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 0
        payload = json.loads((tmp_path / "besov_norm.json").read_text())
        assert payload["value"] > 0.0

    def test_fit_command_round_trip(self, tmp_path):
        run_cfg = write_config(tmp_path, SMALL_RUN)
        assert command_dispatch(["simulate", "--config", run_cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 0
        fit_cfg = write_config(tmp_path, f"""\
csv = {tmp_path / 'diagnostics.csv'}
column = l2_av
fit_t_lo = 5
fit_t_hi = 20
""", name="fit.cfg")
        assert command_dispatch(["fit", "--config", fit_cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["verdict"] == "REPORT"
        assert payload["fitted_exponent"] > 0.0

    def test_fit_with_failing_target_exits_1(self, tmp_path):
        run_cfg = write_config(tmp_path, SMALL_RUN)
        command_dispatch(["simulate", "--config", run_cfg,
                          "--out", str(tmp_path), "--quiet"])
        fit_cfg = write_config(tmp_path, f"""\
csv = {tmp_path / 'diagnostics.csv'}
column = l2_av
fit_t_lo = 5
fit_t_hi = 20
target = 9.0
fit_tol = 0.01
""", name="fit.cfg")
        assert command_dispatch(["fit", "--config", fit_cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 1

    def test_fit_on_one_row_csv_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("t,l2_av,linf_av,besov0_21,besov0_inf1,nl_l2,nl_besov_inf1,"
                       "weighted_sup\n20,1,1,1,1,1,1,1\n")
        cfg = write_config(tmp_path, f"csv = {csv}\nfit_t_lo = 5\nfit_t_hi = 20\n")
        assert command_dispatch(["fit", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert "holds 1 points" in capsys.readouterr().err

    def test_fit_on_csv_without_column_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "other.csv"
        csv.write_text("t,x\n1,2\n2,3\n")
        cfg = write_config(tmp_path, f"csv = {csv}\n")
        assert command_dispatch(["fit", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert "l2_av" in capsys.readouterr().err

    @pytest.mark.parametrize("text, code, message", [
        ("T = 1.03\n", 2, "whole multiple of dt"),
        ("T = 20\noutput_interval = 0.07\n", 2, "whole multiple of dt"),
        ("T = 20\nfit_t_lo = 50\nfit_t_hi = 10\n", 2, "fit_t_lo must be below"),
        ("T = 20\n", 0, ""),
        ("T = 140\noutput_interval = 10\n", 0, ""),
    ])
    def test_reinterpreted_config_rejected(self, tmp_path, capsys, text, code, message):
        # dt = 0.05: T = 1.03 used to end at 1.05 and an interval of 0.07 to
        # sample every 0.05; T = 20 and 140 are whole multiples despite rounding
        cfg = write_config(tmp_path, "N = 64\nR = 500\ndt = 0.05\n" + text)
        assert command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("linear-decay", "p_list"),
        ("kernel-probe", "t_list"),
    ])
    def test_empty_list_rejected(self, tmp_path, capsys, command, key):
        # an empty p_list would report PASS on zero fits; an empty t_list has no sup
        cfg = write_config(tmp_path, f"N = 64\nR = 60\nT = 10\n{key} =\n")
        assert command_dispatch([command, "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert f"{key} must list one or more entries" in capsys.readouterr().err

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        command_dispatch(["simulate", "--config", cfg,
                          "--out", str(tmp_path), "--quiet"])
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        value = lines[2].split(",")[1]
        assert float(value) > 0
        # every emitted value must round-trip exactly through text
        assert format(float(value), ".17g") == value
