"""End-to-end CLI runs in temporary directories."""

import dataclasses
import math
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2lab import solve, torus
from sigma2lab.cli import RunConfig, main
from sigma2lab.errors import ConfigurationError
from sigma2lab.solve import SolverConfig

TRIVIAL_CONFIG = """\
# smallest well-posed setup
n = 2
points_per_axis = 16
alpha = 1.0
A = 0.1
profile = trivial
newton_tol = 1e-9
"""

PERTURBATIVE_CONFIG = """\
n = 2
points_per_axis = 16
alpha = 1.0
A = 0.1
profile = perturbative
f_scale = 0.05
mu_scale = 0.05
newton_tol = 1e-9
"""


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def save_constant(path, points, c):
    """Dump the constant field c on the n = 2 grid of `points` per axis."""
    geom = torus.TorusGeometry(2, points)
    torus.save_field(path, torus.ScalarField(geom, np.full(geom.shape, c)))


class TestConfigParsing:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "frob = 3\n")
        assert run_cli("solve", "--config", cfg) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "alpha = banana\n")
        assert run_cli("solve", "--config", cfg) == 2

    def test_missing_equals(self, tmp_path):
        cfg = write_config(tmp_path, "alpha 1.0\n")
        assert run_cli("solve", "--config", cfg) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("solve", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_warm_start_is_unknown(self, tmp_path, capsys):
        # the t = 0 problem has an exact start, so there is no start field to set
        cfg = write_config(tmp_path, TRIVIAL_CONFIG + "warm_start = x\n")
        assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "unknown key 'warm_start'" in capsys.readouterr().err

    @pytest.mark.parametrize("workload", ["manufactured-n2-16", "perturbative-n2-32",
                                          "perturbative-n3-8"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_configs_parse(self, tmp_path, monkeypatch, workload, seed):
        # the benchmark writes every solver setting and `seed` into its configs
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        w = workloads.WORKLOADS[workload]
        cfg = RunConfig.from_file(str(workloads.prepare(w, seed, tmp_path).config))
        assert (cfg.n, cfg.points_per_axis, cfg.seed) == (w.n, w.points, 0)
        sc = cfg.solver_config()
        assert (sc.max_newton_iters, sc.t_step_init) == (w.max_newton_iters, w.t_step_init)
        assert sc.newton_tol == workloads.NEWTON_TOL


class TestFlags:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--config", "run.cfg", "--seed", "5"], "--seed"),
        (["degeneracy", "--n", "3", "--seed", "5"], "--seed"),
        (["sweep-a", "--a-list", "0.1", "--seed", "5"], "--seed"),
        (["moser-check", "--solution", "u.bin", "--seed", "5"], "--seed"),
        (["degeneracy", "--n", "3", "--config", "run.cfg"], "--config"),
        (["verify", "--out", "o"], "--out"),
        (["verify", "--no-header"], "--no-header"),
    ])
    def test_unread_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: sigma2lab"), err
        assert err[1].startswith(f"sigma2lab: error: unrecognized arguments: {flag}")
        assert not list(tmp_path.iterdir())  # the command did not start


class TestSolve:
    def test_trivial_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        out = tmp_path / "artifacts"
        assert run_cli("solve", "--config", cfg, "--out", str(out), "--no-header") == 0
        text = (out / "monitors.csv").read_text().splitlines()
        header = text[0].split(",")
        kappa_col = header.index("kappa")
        kappas = [float(line.split(",")[kappa_col]) for line in text[1:]]
        assert all(abs(k - 1.0) < 1e-12 for k in kappas)  # kappa_c for n=2
        assert (out / "solution.bin").exists()
        assert (out / "summary.txt").exists()
        assert (out / "monitors.gp").exists()
        u = torus.load_field(out / "solution.bin")
        assert np.max(np.abs(u.values + np.log(0.1))) < 1e-12

    def test_perturbative_profile_rows(self, tmp_path):
        cfg = write_config(tmp_path, PERTURBATIVE_CONFIG)
        out = tmp_path / "artifacts"
        assert run_cli("solve", "--config", cfg, "--out", str(out), "--no-header") == 0
        lines = (out / "monitors.csv").read_text().splitlines()
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, PERTURBATIVE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("solve", "--config", cfg, "--out", str(out_a), "--no-header") == 0
        assert run_cli("solve", "--config", cfg, "--out", str(out_b), "--no-header") == 0
        assert (out_a / "monitors.csv").read_bytes() == (out_b / "monitors.csv").read_bytes()
        assert (out_a / "solution.bin").read_bytes() == (out_b / "solution.bin").read_bytes()

    def test_timestamp_header_togglable(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        out = tmp_path / "stamped"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        first = (out / "monitors.csv").read_text().splitlines()[0]
        assert first.startswith("# sigma2lab solve")

    def test_unwritable_out_dir(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file")
        assert run_cli("solve", "--config", cfg, "--out", str(blocker / "sub")) == 2

    def test_stall_exit_code_and_partial_artifacts(self, tmp_path):
        stall_cfg = write_config(tmp_path, """\
n = 2
points_per_axis = 16
alpha = 1.0
A = 0.1
profile = perturbative
f_scale = 0.0
mu_scale = 2e4
newton_tol = 1e-9
max_newton_iters = 3
t_step_init = 0.25
t_step_min = 0.05
""", name="stall.cfg")
        out = tmp_path / "stall"
        assert run_cli("solve", "--config", stall_cfg, "--out", str(out),
                       "--no-header") == 3
        lines = (out / "monitors.csv").read_text().splitlines()
        assert len(lines) >= 2  # header plus at least the t = 0 row
        assert float(lines[1].split(",")[0]) == 0.0

    def test_linear_stagnation_exit_code_and_artifacts(self, tmp_path, monkeypatch, capsys):
        # every linear solve fails: each attempt ends in a typed
        # LinearSolveError, the continuation stalls and the run still
        # writes its artifacts
        def stagnated(op, b, **kwargs):
            return np.zeros_like(b), 1

        monkeypatch.setattr(solve, "bicgstab", stagnated)
        monkeypatch.setattr(solve, "gmres", stagnated)
        out = tmp_path / "out"
        assert run_cli("solve", "--out", str(out), "--no-header") == 3
        err = capsys.readouterr().err
        assert "LinearSolveError" in err and "Traceback" not in err
        for name in ("monitors.csv", "solution.bin", "summary.txt"):
            assert (out / name).is_file(), name


class TestTypedErrors:
    """Bad input ends in exit code 2 and one `error:` line, not a traceback."""

    @staticmethod
    def assert_one_error_line(capsys, text):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert text in lines[0]

    @pytest.mark.parametrize("n, A, fails", [
        (2, "1e-160", True), (2, "1e-154", False),
        (3, "1e-154", True), (3, "1.2e-154", True), (3, "1e-150", False),
    ])
    def test_unrepresentable_A(self, tmp_path, n, A, fails):
        # kappa_c / A^2, sigma_2(g') of the t = 0 start, must be a float64;
        # a process of its own, so that numpy's warnings reach its stderr
        cfg = write_config(tmp_path, f"n = {n}\npoints_per_axis = 8\nA = {A}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sigma2lab", "solve", "--config", cfg,
             "--out", str(tmp_path / "o"), "--no-header"],
            capture_output=True, text=True, timeout=300)
        assert "RuntimeWarning" not in proc.stderr
        if fails:
            lines = proc.stderr.strip().splitlines()
            assert proc.returncode == 2
            assert len(lines) == 1 and lines[0].startswith(f"error: A = {A} ")
        else:
            assert proc.returncode == 0 and proc.stderr == ""

    def test_unrepresentable_A_in_list_before_any_solve(self, tmp_path, capsys):
        # every A is checked before the first solve, so a bad value late in
        # the list loses no finished solve and writes nothing
        cfg = write_config(tmp_path, "points_per_axis = 8\n")
        out = tmp_path / "o"
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "0.1,1e-160",
                       "--out", str(out)) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "--a-list" in lines[0] and "1e-160" in lines[0]
        assert not (out / "sweep_a.csv").exists()

    def test_negative_newton_tol(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG + "newton_tol = -1\n")
        assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, "newton_tol must be positive")

    @pytest.mark.parametrize("line, text", [
        ("newton_tol = inf", "newton_tol must be positive and finite"),
        ("cone_margin = nan", "cone_margin must be nonnegative and finite"),
        ("max_newton_iters = -3", "max_newton_iters must be nonnegative"),
    ])
    def test_bad_solver_setting(self, tmp_path, capsys, line, text):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG + line + "\n")
        out = tmp_path / "o"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 2
        self.assert_one_error_line(capsys, text)
        assert not out.exists()

    def test_single_sample_sweep(self, tmp_path, capsys):
        assert run_cli("degeneracy", "--n", "3", "--samples", "1",
                       "--out", str(tmp_path)) == 2
        self.assert_one_error_line(capsys, "--samples")

    def test_dump_with_short_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        dump = tmp_path / "short.bin"
        dump.write_bytes(b"S2LFIELD" + bytes(10))
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, "truncated dump")


    def test_dump_with_ragged_payload(self, tmp_path, capsys):
        # a payload that is not a whole number of float64s
        cfg = write_config(tmp_path, TRIVIAL_CONFIG + "points_per_axis = 8\n")
        dump = tmp_path / "ragged.bin"
        save_constant(dump, 8, 2.0)
        dump.write_bytes(dump.read_bytes()[:-3])
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, "truncated dump")

    def test_negative_seed_option(self, capsys):
        assert run_cli("verify", "--fast", "--seed", "-1") == 2
        self.assert_one_error_line(capsys, "seed must be nonnegative")

    def test_negative_seed_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG + "seed = -5\n")
        assert run_cli("verify", "--fast", "--config", cfg) == 2
        self.assert_one_error_line(capsys, "seed must be nonnegative")

    @pytest.mark.parametrize("n_f, p_f", [(float("nan"), 16.0), (float("inf"), 16.0),
                                          (2.0, 16.5), (2.0, float("nan"))])
    def test_dump_with_bad_header_numbers(self, tmp_path, capsys, n_f, p_f):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        dump = tmp_path / "bad.bin"
        dump.write_bytes(b"S2LFIELD" + struct.pack("<3d", n_f, p_f, 1.0) + bytes(8 * 16 ** 4))
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, "whole-number n and points")

    @pytest.mark.parametrize("k_list", ["0", "2,-1", "nan"])
    def test_non_positive_moser_weight(self, tmp_path, capsys, k_list):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        dump = tmp_path / "u.bin"
        save_constant(dump, 16, 2.0)
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--k-list", k_list, "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, "--k-list")

    @pytest.mark.parametrize("k_list, k", [("700", "700"), ("2,700", "700"),
                                           ("1e300", "1e+300")])
    def test_moser_weight_out_of_float_range(self, tmp_path, capsys, k_list, k):
        # on u = 2, e^{-ku} underflows to 0 at every node from k ~ 373: the
        # identity gap would read a silent 0
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        dump = tmp_path / "u.bin"
        save_constant(dump, 16, 2.0)
        out = tmp_path / "o"
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--k-list", k_list, "--out", str(out)) == 2
        self.assert_one_error_line(capsys, f"underflowed to 0 at every node for k={k}")
        assert not (out / "moser.csv").exists()

    @pytest.mark.parametrize("key, field", [("f_scale", "f"), ("mu_scale", "mu")])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_profile_data(self, tmp_path, capsys, key, field, value):
        # ProblemData rejects the data; a numpy warning on the way would be
        # an error here (pytest's filterwarnings)
        cfg = write_config(tmp_path, f"points_per_axis = 8\n{key} = {value}\n")
        out = tmp_path / "o"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 2
        self.assert_one_error_line(capsys, f"error: {field} contains non-finite values")

    @pytest.mark.parametrize("amplitude", ["200", "1000", "-5"])
    def test_manufactured_level_out_of_range(self, tmp_path, capsys, amplitude):
        # u* = -log A + perturbation attains a normalization level A >= 1;
        # the error names the settings that fix it, and no warning leaks
        cfg = write_config(tmp_path, "points_per_axis = 8\nprofile = manufactured\n"
                                     f"amplitude = {amplitude}\n")
        assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        self.assert_one_error_line(capsys, f"amplitude = {amplitude} on base A = 0.1")

    @pytest.mark.parametrize("k_list", ["abc", "2,x", "", ","])
    def test_bad_moser_list(self, tmp_path, capsys, k_list):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        dump = tmp_path / "u.bin"
        save_constant(dump, 16, 2.0)
        out = tmp_path / "o"
        assert run_cli("moser-check", "--config", cfg, "--solution", str(dump),
                       "--k-list", k_list, "--out", str(out)) == 2
        self.assert_one_error_line(capsys, "--k-list")
        assert not out.exists()

    @pytest.mark.parametrize("a_list", ["abc", "", ",", "0.1,0.2", "0.2,0.2", "1.5"])
    def test_bad_a_list(self, tmp_path, capsys, a_list):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        out = tmp_path / "o"
        assert run_cli("sweep-a", "--config", cfg, "--a-list", a_list,
                       "--out", str(out)) == 2
        self.assert_one_error_line(capsys, "--a-list")
        assert not out.exists()

    def test_unsupported_degeneracy_dimension(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run_cli("degeneracy", "--n", "4", "--out", str(out)) == 2
        self.assert_one_error_line(capsys, "--n must be 2 or 3")
        assert not out.exists()


SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))
SETTING_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", "abc", "1e", "0x10", "1_000", "-inf", "nan", "1e400", "-0.0"]),
    st.text(st.characters(blacklist_characters="\n\r#", blacklist_categories=("Cs",)),
            max_size=8),
)


class TestSolverSettings:
    def test_defaults_are_the_solvers(self):
        assert RunConfig().solver_config() == SolverConfig()

    def test_every_setting_is_a_config_key(self, tmp_path):
        # a SolverConfig field without a config key is a setting no run can change
        default = SolverConfig()
        cfg = write_config(tmp_path, "".join(f"{k} = {getattr(default, k)!r}\n"
                                             for k in SOLVER_KEYS))
        assert RunConfig.from_file(cfg).solver_config() == default

    def test_non_defaults_carried_through(self, tmp_path):
        values = {"newton_tol": 1e-7, "max_newton_iters": 7, "t_step_init": 0.5,
                  "t_step_min": 1e-2, "cone_margin": 1e-4, "backtrack_factor": 0.25}
        assert values.keys() == set(SOLVER_KEYS)
        default = SolverConfig()
        for key, value in values.items():
            assert getattr(default, key) != value
            cfg = write_config(tmp_path, f"{key} = {value}\n")
            assert getattr(RunConfig.from_file(cfg).solver_config(), key) == value


class TestSolverSettingsFuzz:
    @settings(max_examples=300, deadline=None)
    @given(entries=st.dictionaries(st.sampled_from(SOLVER_KEYS), SETTING_TEXT))
    def test_valid_config_or_typed_error(self, tmp_path_factory, entries):
        # a new file per example: rewriting one file in place is slow on
        # file systems that flush a truncated file when it is closed
        with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False,
                                         dir=tmp_path_factory.getbasetemp()) as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
        try:
            sc = RunConfig.from_file(fh.name).solver_config()
        except ConfigurationError:
            return
        assert sc.newton_tol > 0.0 and math.isfinite(sc.newton_tol)
        assert sc.max_newton_iters >= 0
        assert 0.0 < sc.t_step_min <= sc.t_step_init <= 1.0
        assert 0.0 < sc.backtrack_factor < 1.0
        assert sc.cone_margin >= 0.0 and math.isfinite(sc.cone_margin)


class TestDegeneracy:
    def test_n3_sweep_matches_closed_form(self, tmp_path):
        out = tmp_path / "deg"
        assert run_cli("degeneracy", "--n", "3", "--samples", "101",
                       "--out", str(out), "--no-header") == 0
        lines = (out / "degeneracy_n3.csv").read_text().splitlines()[1:]
        assert len(lines) == 101
        for line in lines:
            s, kp, rhs = (float(x) for x in line.split(","))
            assert abs(rhs - (s * s - 1.0) ** 2 / 9.0) <= 1e-12
            assert abs(kp - (2 * s + s * s)) <= 1e-12

    def test_n2_frontier(self, tmp_path):
        out = tmp_path / "deg2"
        assert run_cli("degeneracy", "--n", "2", "--samples", "101",
                       "--out", str(out), "--no-header") == 0
        rows = [line.split(",") for line in
                (out / "degeneracy_n2.csv").read_text().splitlines()[1:]]
        small_theta = [r for r in rows if float(r[0]) == 0.002]
        signs = [float(r[4]) for r in small_theta]
        assert -1.0 in signs and 1.0 in signs  # sign change across the grid

    def test_unsupported_dimension(self, tmp_path):
        assert run_cli("degeneracy", "--n", "5", "--out", str(tmp_path)) == 2


class TestVerify:
    def test_fast_suites_pass(self, tmp_path):
        assert run_cli("verify", "--fast", "--seed", "11") == 0


class TestSweepA:
    def test_trivial_rows(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        out = tmp_path / "sweep"
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "0.2,0.1",
                       "--out", str(out), "--no-header") == 0
        lines = (out / "sweep_a.csv").read_text().splitlines()
        header = lines[0].split(",")
        low = header.index("c0_low_ratio")
        high = header.index("c0_high_ratio")
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[1]) == 1.0  # converged
            assert abs(float(parts[low]) - 1.0) < 1e-12
            assert abs(float(parts[high]) - 1.0) < 1e-12

    def test_perturbative_trends(self, tmp_path):
        # boundedness of the C^0 ratios and a non-increasing gradient monitor
        # across a descending A sweep (empirical mirror of the small-A theory)
        cfg = write_config(tmp_path, PERTURBATIVE_CONFIG)
        out = tmp_path / "sweep_p"
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "0.2,0.1,0.05",
                       "--out", str(out), "--no-header") == 0
        lines = (out / "sweep_a.csv").read_text().splitlines()
        header = lines[0].split(",")
        c1 = header.index("c1_max")
        low = header.index("c0_low_ratio")
        high = header.index("c0_high_ratio")
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[1]) == 1.0 for r in rows)
        c1_vals = [float(r[c1]) for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(c1_vals, c1_vals[1:]))
        for r in rows:
            assert 0.5 < float(r[low]) < 2.0
            assert 0.5 < float(r[high]) < 2.0

    def test_empty_list_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "") == 2

    def test_non_descending_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "0.1,0.2") == 2


class TestPlotScripts:
    @staticmethod
    def plotted_columns(gp):
        """The (x, y) CSV header names a gnuplot script plots and its
        (xlabel, ylabel)."""
        text = gp.read_text()
        label = dict(re.findall(r"set (\w)label '([^']*)'", text))
        csv_name, x, y = re.search(r"plot '([^']+)' using (\d+):(\d+)", text).groups()
        lines = (gp.parent / csv_name).read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#")).split(",")
        return (header[int(x) - 1], header[int(y) - 1]), (label["x"], label["y"])

    def test_plotted_column_matches_its_label(self, tmp_path):
        cfg = write_config(tmp_path, TRIVIAL_CONFIG)
        out = tmp_path / "plots"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        assert run_cli("sweep-a", "--config", cfg, "--a-list", "0.2,0.1",
                       "--out", str(out)) == 0
        for n in ("2", "3"):
            assert run_cli("degeneracy", "--n", n, "--samples", "5",
                           "--out", str(out)) == 0
        for name in ("monitors.gp", "sweep_a.gp", "degeneracy_n2.gp", "degeneracy_n3.gp"):
            (x, y), (xlabel, ylabel) = self.plotted_columns(out / name)
            assert x == xlabel, name
            # the y label names the plotted column, alone or inside a formula
            assert y in re.split(r"[\s()]+", ylabel), (name, y, ylabel)

    @pytest.mark.parametrize("header", [True, False])
    def test_degeneracy_n2_one_curve_per_theta(self, tmp_path, header):
        # the CSV holds one sweep of kappa_p per theta; the script draws each
        # as its own curve: its `every ::first::last` row ranges, counted from
        # 0 after the header row, partition the data rows by theta
        out = tmp_path / "deg"
        flags = [] if header else ["--no-header"]
        assert run_cli("degeneracy", "--n", "2", "--samples", "7",
                       "--out", str(out), *flags) == 0
        lines = (out / "degeneracy_n2.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        text = (out / "degeneracy_n2.gp").read_text()
        assert "set key autotitle columnhead" in text
        curves = re.findall(r"every ::(\d+)::(\d+) with linespoints title 'theta = ([^']+)'",
                            text)
        assert len(curves) == 5
        covered = []
        for first, last, theta in curves:
            block = range(int(first), int(last) + 1)
            assert {float(rows[i][0]) for i in block} == {float(theta)}
            covered.extend(block)
        assert covered == list(range(len(rows)))


class TestMoserCheck:
    def test_on_stored_solution(self, tmp_path):
        cfg = write_config(tmp_path, PERTURBATIVE_CONFIG)
        out = tmp_path / "artifacts"
        assert run_cli("solve", "--config", cfg, "--out", str(out), "--no-header") == 0
        out2 = tmp_path / "moser"
        assert run_cli("moser-check", "--config", cfg,
                       "--solution", str(out / "solution.bin"),
                       "--k-list", "2,4", "--out", str(out2), "--no-header") == 0
        lines = (out2 / "moser.csv").read_text().splitlines()
        assert lines[0] == "k,identity_gap,reverse_sobolev_constant"
        for line in lines[1:]:
            k, gap, const = (float(x) for x in line.split(","))
            # near-trivial data: the identity terms are microscopic, so the
            # relative gap is solver-tolerance-limited, not spectral
            assert gap < 1e-3
            assert np.isfinite(const)


    def test_one_bundle_per_field(self, tmp_path, patch_everywhere):
        # the stored field's derivative bundle is shared by every k
        cfg = write_config(tmp_path, PERTURBATIVE_CONFIG)
        out = tmp_path / "artifacts"
        assert run_cli("solve", "--config", cfg, "--out", str(out), "--no-header") == 0
        bundles = Counter()
        real = torus.spectral_derivatives

        def counted(u):
            bundles[u.tobytes()] += 1
            return real(u)

        patch_everywhere(real, counted)
        assert run_cli("moser-check", "--config", cfg,
                       "--solution", str(out / "solution.bin"),
                       "--out", str(tmp_path / "moser"), "--no-header") == 0
        assert len(bundles) == 2  # the stored field and f
        assert max(bundles.values()) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TRIVIAL_CONFIG)
        out = tmp_path / "m"
        proc = subprocess.run(
            [sys.executable, "-m", "sigma2lab.cli", "solve", "--config",
             str(cfg), "--out", str(out), "--no-header"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (out / "monitors.csv").exists()
