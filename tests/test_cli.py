"""Config parsing, command dispatch, exit codes, and bit-stable output."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radns.cli
from radns.cli import command_dispatch
from radns.config import RunConfig, parse_config
from radns.solver import SolverConfig


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

    def test_dealias_is_not_a_key(self):
        # the 2/3 rule is the one truncation; no other fraction was ever run
        config = parse_config("dealias = 0.5")
        assert config.errors == ["unknown key 'dealias' (line 1)"]

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

    def test_solver_defaults_are_the_solver_config_defaults(self):
        assert RunConfig().solver_config() == SolverConfig()


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

    def pinned_besov_norm(self, tmp_path, capsys, text, value):
        # the printed value is pinned to the last digit: the command converts
        # the sampled Gaussian to spectral values before the norm
        cfg = write_config(tmp_path, text)
        code = command_dispatch(["besov-norm", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == f"besov norm = {value}\n"
        payload = json.loads((tmp_path / "besov_norm.json").read_text())
        assert payload["value"] == float(value)

    def test_besov_norm_command(self, tmp_path, capsys):
        self.pinned_besov_norm(tmp_path, capsys,
                               "N = 1023\nR = 50\nc = 0.01\ns = 0\np = 2\nq = 1\n",
                               "0.024521849823673825")

    def test_besov_norm_command_high_band_sup(self, tmp_path, capsys):
        self.pinned_besov_norm(tmp_path, capsys,
                               "N = 4096\nR = 200\nc = 0.3\nw = 2\ns = 0.5\np = inf\n"
                               "q = 1\nband = high\nj0 = -1\n", "0.29954596721801224")

    @pytest.mark.parametrize("command, text", [
        ("simulate", "N = 255\nR = 60\ndt = 0.1\nT = 4\n"),
        ("linear-decay", "N = 4095\nR = 140\ndt = 0.05\nT = 60\nc = 0.01\n"
                         "fit_t_lo = 10\nfit_t_hi = 60\np_list = 2\n"),
        ("kernel-probe", "t_list = 16\n"),
        ("besov-norm", "N = 255\nR = 30\ns = 0\np = 3\nq = 1\n"),
    ], ids=["simulate", "linear-decay", "kernel-probe", "besov-norm"])
    def test_no_command_calls_hypot(self, tmp_path, monkeypatch, command, text):
        # every modulus goes through spectral.modulus, a complex abs: the
        # scalar libm hypot costs six to eight times as much per node
        def no_hypot(*args, **kwargs):
            raise AssertionError("numpy.hypot called")
        monkeypatch.setattr(np, "hypot", no_hypot)
        cfg = write_config(tmp_path, text)
        assert command_dispatch([command, "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 0

    @pytest.mark.parametrize("s,message", [("inf", "must be finite"),
                                           ("2000", "overflows"), ("-2000", "overflows")])
    def test_besov_norm_bad_s_exits_2(self, tmp_path, capsys, s, message):
        cfg = write_config(tmp_path, f"N = 1023\nR = 50\nc = 0.01\ns = {s}\np = 2\nq = 1\n")
        code = command_dispatch(["besov-norm", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "besov_norm.json").exists()

    @pytest.mark.parametrize("band,j0", [("low", -50), ("high", 40)])
    def test_besov_norm_empty_band_exits_2(self, tmp_path, capsys, band, j0):
        cfg = write_config(tmp_path, f"N = 64\nR = 30\nc = 0.01\ns = 0\np = 2\nq = 1\n"
                                     f"band = {band}\nj0 = {j0}\n")
        code = command_dispatch(["besov-norm", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "holds no block of the range [-4, 3]" in capsys.readouterr().err
        assert not (tmp_path / "besov_norm.json").exists()

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

    @pytest.mark.parametrize("text", [
        "t,l2_av\n1,1\n2,0.5,7\n3,0.3\n4,0.2\n5,0.1\n",
        "",
        "t,l2_av\n1,1\n2,abc\n3,0.3\n4,0.2\n5,0.1\n6,0.05\n",
        "t,l2_av\n1,1\n,0.5\n3,0.3\n4,0.2\n5,0.1\n6,0.05\n",
        "t,l2_av\n1,1\n2,inf\n3,0.3\n4,0.2\n5,0.1\n6,0.05\n",
    ], ids=["ragged-row", "empty-file", "non-numeric-cell", "blank-t-cell", "inf-value"])
    def test_fit_on_malformed_csv_exits_2(self, tmp_path, capsys, text):
        # these used to end in a traceback, or to exit 0 having read the
        # cell as NaN (counted as dropped, or a NaN exponent in fit.json)
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        cfg = write_config(tmp_path, f"csv = {csv}\nfit_t_lo = 0.5\nfit_t_hi = 100\n")
        out = tmp_path / "out"
        assert command_dispatch(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert not (out / "fit.json").exists()
        assert "configuration error" in capsys.readouterr().err

    def test_fit_on_csv_without_column_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "other.csv"
        csv.write_text("t,x\n1,2\n2,3\n")
        cfg = write_config(tmp_path, f"csv = {csv}\n")
        assert command_dispatch(["fit", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert "l2_av" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("c = inf", "c must be finite and non-negative"),
        ("gamma = inf", "gamma must be finite and exceed 1"),
    ], ids=["c", "gamma"])
    def test_non_finite_physics_rejected(self, tmp_path, capsys, line, message):
        # both used to run and exit 3 with a non-finite value blamed on the solver
        cfg = write_config(tmp_path, f"N = 64\nR = 60\ndt = 0.05\nT = 1\n{line}\n")
        assert command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.csv").exists()

    @pytest.mark.parametrize("key", ["R", "w", "dt", "T", "output_interval"])
    def test_infinite_value_reported_with_its_line(self, tmp_path, capsys, key):
        # each used to pass the schema: beside another bad key only the other
        # key's line was reported, and R = inf alone ended in make_grid's
        # message with no line number
        cfg = write_config(tmp_path, f"N = 4\n{key} = inf\n")
        assert command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        sign = "non-negative" if key == "T" else "positive"
        assert "N below minimum 8 (line 1)" in err
        assert f"{key} must be finite and {sign} (line 2)" in err
        assert not (tmp_path / "diagnostics.csv").exists()

    @pytest.mark.parametrize("text, code, message", [
        ("T = 1.03\n", 2, "whole multiple of dt"),
        ("T = 20\noutput_interval = 0.07\n", 2, "whole multiple of dt"),
        ("T = 20\nfit_t_lo = 50\nfit_t_hi = 10\n", 2, "fit_t_lo must be below"),
        ("T = 20\n", 0, ""),
        ("T = 140\noutput_interval = 10\n", 0, ""),
        # too many steps to count: this used to raise OverflowError
        ("dt = 1e-320\n", 2, "whole multiple of dt"),
    ])
    def test_reinterpreted_config_rejected(self, tmp_path, capsys, text, code, message):
        # dt = 0.05 unless the case sets it: T = 1.03 used to end at 1.05 and an
        # interval of 0.07 to sample every 0.05; T = 20 and 140 are whole
        # multiples despite rounding
        dt = "" if text.startswith("dt") else "dt = 0.05\n"
        cfg = write_config(tmp_path, "N = 64\nR = 500\n" + dt + text)
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

    @pytest.mark.parametrize("command", ["linear-decay", "nonlinear-decay"])
    def test_unsupported_p_rejected(self, tmp_path, capsys, command):
        # p = 3 has no CSV column: it used to pass the schema and raise KeyError
        cfg = write_config(tmp_path, "N = 64\nR = 60\nT = 10\np_list = 2, 3\n")
        assert command_dispatch([command, "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 2
        assert "p_list must list one or more entries, each 2 or inf" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("t_list, code, message", [
        # t^2 overflows while the probe underflows to 0 (this used to write
        # NaN): the frame grid resolves no such time
        ("1e300", 2, "frame blocks -499 .. -495 at t = 1e+300 leave the range [-9, 5]"),
        # this used to run the t = 16 probe, then abort on a nan relative change
        ("16 inf", 2, "t_list must list one or more entries, each finite and >= 4"),
        # frame blocks j0 +- 2 below the frame grid's j_min = -9: the window used
        # to be empty and report frame_sup 0, or cut and report a smaller sup
        ("1e8", 2, "frame blocks -14 .. -10 at t = 1e+08 leave the range [-9, 5]"),
        ("262144", 2, "frame blocks -10 .. -6 at t = 262144 leave the range [-9, 5]"),
    ], ids=["overflowing", "infinite", "empty-frame", "cut-frame"])
    def test_bad_probe_time_rejected(self, tmp_path, capsys, t_list, code, message):
        cfg = write_config(tmp_path, f"t_list = {t_list}\n")
        assert command_dispatch(["kernel-probe", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "kernel_probe.json").exists()

    def test_linear_only_simulate_matches_linear_decay(self, tmp_path):
        # both take e^{tM} of the initial data at each output time, with no step
        cfg = write_config(tmp_path, "N = 511\nR = 30\nT = 2\noutput_interval = 0.25\n"
                                     "c = 0.01\nlinear_only = true\nfit_t_lo = 0.5\n")
        assert command_dispatch(["linear-decay", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) in (0, 1)
        assert command_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == 0
        assert ((tmp_path / "diagnostics.csv").read_bytes()
                == (tmp_path / "linear-decay.csv").read_bytes())

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate used to print numpy's traceback and exit
        # 1, the code of a FAIL verdict; no test allocates such a grid
        def too_large(config):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(radns.cli, "simulate", too_large)
        assert command_dispatch(["simulate", "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: out of memory: " \
                      "Unable to allocate 745. GiB for an array\n"
        assert not (tmp_path / "diagnostics.csv").exists()

    # every driver needs 4 output times in its window cut at the last row:
    # fit_t_lo..fit_t_hi = [10, 200] for the fits, [20, 200] for lower-bound
    # and [1, 200] for weighted-decay; output_interval is 1
    @pytest.mark.parametrize("command, t_final, code, message", [
        ("linear-decay", 5, 2, "window [10.0, 5.0] holds 0 output times"),
        ("nonlinear-decay", 5, 2, "window [10.0, 5.0] holds 0 output times"),
        # these three used to exit 1 (EMPTY on [20, 5]), 0 and 0
        ("lower-bound", 5, 2, "window [20.0, 5.0] holds 0 output times"),
        ("lower-bound", 22, 2, "window [20.0, 22.0] holds 3 output times"),
        ("weighted-decay", 3, 2, "window [1.0, 3.0] holds 3 output times"),
        ("lower-bound", 23, 0, ""),
        ("weighted-decay", 4, 0, ""),
    ], ids=["linear-T5", "nonlinear-T5", "lower-T5", "lower-T22", "weighted-T3",
            "lower-T23-four-times", "weighted-T4-four-times"])
    def test_short_window_exits_2(self, tmp_path, capsys, command, t_final, code, message):
        cfg = write_config(tmp_path, f"N = 255\nR = 60\ndt = 0.1\nT = {t_final}\n"
                                     "linear_only = true\n")
        assert command_dispatch([command, "--config", cfg,
                                 "--out", str(tmp_path), "--quiet"]) == code
        assert message in capsys.readouterr().err
        if code == 2:
            assert not list(tmp_path.glob("*.json"))

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        command_dispatch(["simulate", "--config", cfg,
                          "--out", str(tmp_path), "--quiet"])
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        value = lines[2].split(",")[1]
        assert float(value) > 0
        # every emitted value must round-trip exactly through text
        assert format(float(value), ".17g") == value


# mostly inside the frame window [4, 2^18), some below or past it
_probe_time = st.one_of(st.sampled_from([4.0, 16.0, 64.0, 256.0, 1e5]),
                        st.floats(1.0, 4e5, allow_nan=False))

_t_list_line = st.builds(
    lambda ts, sep: "t_list = " + sep.join(repr(t) for t in ts) + "\n",
    st.lists(_probe_time, min_size=1, max_size=3), st.sampled_from([", ", " ", ","]))

_harmless_line = st.sampled_from(["N = 64\n", "c = 0.02\n", "# note\n", "\n"])

_config_line = st.one_of(
    _t_list_line, _harmless_line,
    st.sampled_from(["t_list = nan\n", "t_list = inf, 16\n", "t_list = -inf\n",
                     "t_list =\n", "t_list = 16, x\n", "bogus = 1\n", "N = 3\n",
                     "fit_t_lo = 300\n", "no equals sign\n", "= 16\n"]),
    st.text(max_size=30).map(lambda text: text + "\n"))

# half the configs hold one t_list and nothing invalid, so that the probe runs
_config_text = st.one_of(
    st.builds(lambda line, rest: "".join([line] + rest),
              _t_list_line, st.lists(_harmless_line, max_size=2)),
    st.lists(_config_line, max_size=5).map("".join))


class TestStableHeap:
    LINEAR = "N = 1023\nR = 60\nT = 20\nc = 0.01\nfit_t_lo = 5\nfit_t_hi = 20\n"

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class FakeLibc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(radns.cli.ctypes, "CDLL", lambda name: FakeLibc)
        radns.cli._stable_heap()
        assert calls == [(-3, 64 << 20), (-1, 256 << 20)]

    @staticmethod
    def _no_libc(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["cdll-raises", "no-mallopt"])
    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch, tmp_path, cdll):
        cfg = write_config(tmp_path, self.LINEAR)
        args = ["linear-decay", "--config", cfg, "--quiet", "--out"]
        on = command_dispatch(args + [str(tmp_path / "on")])
        monkeypatch.setattr(radns.cli.ctypes, "CDLL", cdll)
        assert radns.cli._stable_heap() is None
        assert command_dispatch(args + [str(tmp_path / "off")]) == on
        assert (tmp_path / "on" / "linear-decay.csv").read_bytes() == \
            (tmp_path / "off" / "linear-decay.csv").read_bytes()


class TestKernelProbeConfigFuzz:
    """Any config text gives kernel-probe an exit code in {0, 1, 2, 3}, no
    traceback, and no kernel_probe.json on a configuration error or abort.
    Only kernel-probe is fuzzed: at most three probe times bound its work,
    while a fuzzed N could make simulate or grid-check allocate gigabytes."""

    @settings(max_examples=25, deadline=None)
    @given(text=_config_text)
    def test_exit_code_and_output(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "out")
            code = command_dispatch(["kernel-probe", "--config", cfg,
                                     "--out", out, "--quiet"])
            assert code in (0, 1, 2, 3)
            if code in (2, 3):
                assert not os.path.exists(os.path.join(out, "kernel_probe.json"))
