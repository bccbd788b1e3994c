import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgecurrents import (ModelParams, as_gamma, edge_dispersion, edge_mode_at_k,
                          total_decomposition)
from edgecurrents import cli
from edgecurrents.cli import main
from cli_sweep import CASES

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(args):
    """Run a fresh interpreter with args, importing the package from src/."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_spectrum_header_and_rows(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--m", "1", "--gamma", "2",
                                    "--k-min", "-2", "--k-max", "2", "--points", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# v_edge=0.80000000000000004"
    assert lines[1] == "# eta=-1"
    assert lines[3] == "# sigma_edge=1"
    assert lines[4] == "k,E_edge,lambda,exists"
    # k = -2: lam = (3*(-2) + 4)/5 < 0, no state
    assert lines[5].endswith("nan,nan,false")
    assert lines[7].startswith("0,") and lines[7].endswith("true")


def test_spectrum_infinite_gamma(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--m", "1", "--gamma", "inf", "--points", "3"])
    assert code == 0
    assert "# eta=-1" in out
    assert "# sigma_edge=0" in out


@pytest.mark.parametrize("g", ["1e200", "-1e200"])
def test_spectrum_huge_gamma_rows_match_infinite_gamma(capsys, g):
    # E and lambda are written in (a, b) = (1/|gamma|, sgn gamma) where gamma^2
    # overflows.  The grid skips k = 0, where lam = 2m/gamma is a genuine 2e-200
    # at gamma = 1e200
    argv = ["spectrum", "--m", "1", "--k-min", "-2", "--k-max", "2", "--points", "8"]
    _, out, _ = run_cli(capsys, [*argv, f"--gamma={g}"])
    _, ref, _ = run_cli(capsys, [*argv, "--gamma=inf"])
    rows = [line.split(",") for line in out.splitlines()[5:]]
    ref_rows = [line.split(",") for line in ref.splitlines()[5:]]
    assert len(rows) == len(ref_rows) == 8
    for row, want in zip(rows, ref_rows):
        assert row[3] == want[3] and not (row[1] == "nan" and row[3] == "true")
        for a, b in zip(row[:3], want[:3]):
            assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-12, nan_ok=True)


def test_spectrum_unit_gamma_special_rule(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--m", "1", "--gamma", "1",
                                    "--k-min", "1", "--k-max", "1", "--points", "1"])
    assert code == 0
    assert "# theta=infinite" in out
    assert "1,1,1,true" in out


def reference_spectrum_rows(m, g, k_min, k_max, points):
    """The table rows built per point: one edge_mode_at_k and one format() per value."""
    p = ModelParams(m, as_gamma(g))
    rows = []
    for k in np.linspace(k_min, k_max, points):
        mode = edge_mode_at_k(p, float(k))
        if mode is None:
            rows.append(f"{format(float(k), '.17g')},nan,nan,false")
        else:
            rows.append(",".join(format(v, ".17g") for v in (mode.k, mode.E, mode.lam)) + ",true")
    return rows


TABLE_CASES = [(m, g) for m in (1.0, 0.0, -1.0)
               for g in ("2", "0.5", "-0.5", "-3", "0", "inf", "1e16", "1e155", "-1e200")]


@pytest.mark.parametrize("m, g", TABLE_CASES + [(1.0, "1"), (1.0, "-1"), (-1.0, "1"), (-1.0, "-1")])
def test_spectrum_rows_match_per_point_reference(capsys, m, g):
    code, out, err = run_cli(capsys, ["spectrum", f"--m={m!r}", f"--gamma={g}", "--points", "41"])
    assert (code, err) == (0, "")
    assert out.splitlines()[5:] == reference_spectrum_rows(m, g, -2.0, 2.0, 41)


@pytest.mark.parametrize("argv, m, g, k_range", [
    (["--m=1", "--gamma=2", "--k-min=-0.0", "--k-max=0", "--points=1"], 1.0, "2", (-0.0, 0.0, 1)),
    # |k| and m near the float limit: inf and nan rows, without numpy's RuntimeWarnings
    (["--m=1", "--gamma=1e16", "--k-min=-1e300", "--k-max=1e300", "--points=7"],
     1.0, "1e16", (-1e300, 1e300, 7)),
    (["--m=1e300", "--gamma=1e16", "--k-min=-1e300", "--k-max=1e300", "--points=7"],
     1e300, "1e16", (-1e300, 1e300, 7)),
    (["--m=1e300", "--gamma=1e16", "--k-min=-1e300", "--k-max=1e300", "--points=20000"],
     1e300, "1e16", (-1e300, 1e300, 20000)),
])
def test_spectrum_corner_rows_are_quiet_and_match_reference(capsys, argv, m, g, k_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["spectrum", *argv])
    assert (code, err) == (0, "")
    assert out.splitlines()[5:] == reference_spectrum_rows(m, g, *k_range)


def reference_profile_rows(m, g, x_min, x_max, points):
    """The profile rows of the library's columns, one format() per value."""
    dec = total_decomposition(ModelParams(m, as_gamma(g)))
    xs = np.geomspace(x_min, x_max, points)
    columns = (xs, dec.bulk_smooth(xs), dec.edge_smooth(xs), dec.total_smooth(xs), dec.regular(xs),
               dec.singular.c_inv_x2 / (xs * xs))
    return [",".join(format(v, ".17g") for v in row) for row in zip(*(c.tolist() for c in columns))]


@pytest.mark.parametrize("m, g", TABLE_CASES)
def test_profile_rows_match_per_value_format(capsys, m, g):
    code, out, err = run_cli(capsys, ["profile", f"--m={m!r}", f"--gamma={g}", "--points", "50"])
    assert code == 0 and json.loads(err)["m"] == m
    assert out.splitlines()[1:] == reference_profile_rows(m, g, 0.1, 5.0, 50)


@pytest.mark.parametrize("m, g", TABLE_CASES)
def test_large_tables_match_per_value_format(capsys, m, g):
    # 2e4 rows span many formatter blocks; the spectrum reference formats the same
    # dispersion arrays one value at a time
    code, out, err = run_cli(capsys, ["profile", f"--m={m!r}", f"--gamma={g}", "--points=20000"])
    assert code == 0 and json.loads(err)["m"] == m
    assert out.splitlines()[1:] == reference_profile_rows(m, g, 0.1, 5.0, 20000)
    code, out, err = run_cli(capsys, ["spectrum", f"--m={m!r}", f"--gamma={g}", "--points=20000"])
    assert (code, err) == (0, "")
    ks = np.linspace(-2.0, 2.0, 20000)
    with np.errstate(over="ignore", invalid="ignore"):
        E, lam = edge_dispersion(ModelParams(m, as_gamma(g)), ks)
    assert out.splitlines()[5:] == [
        f"{format(k, '.17g')},{format(e, '.17g')},{format(lk, '.17g')},true" if lk > 0.0
        else f"{format(k, '.17g')},nan,nan,false" for k, e, lk in zip(ks.tolist(), E.tolist(),
                                                                    lam.tolist())]


@pytest.mark.parametrize("m, g", [(1.0, "2"), (-1.0, "0.5"), (1.0, "-3")])
def test_profile_with_exponent_cells_matches_per_value_format(capsys, m, g):
    # x from 1e-3 to 60: cells below 1e-4 in magnitude, such as the profiles at large x, take
    # an exponent
    code, out, _ = run_cli(capsys, ["profile", f"--m={m!r}", f"--gamma={g}", "--x-min", "1e-3",
                                    "--x-max", "60", "--points", "20000"])
    rows = out.splitlines()[1:]
    assert code == 0 and rows == reference_profile_rows(m, g, 1e-3, 60.0, 20000)
    assert any("e-" in row for row in rows)


def test_profile_stdout_and_sidecar(capsys):
    code, out, err = run_cli(capsys, ["profile", "--m", "0", "--gamma", "2", "--points", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,j2_bulk_smooth,j2_edge_smooth,j2_total,j2_regular,c_x2_over_x2"
    for line in lines[1:]:
        assert abs(float(line.split(",")[4])) < 1e-12  # regular part vanishes at m = 0
    sidecar = json.loads(err)
    assert sidecar["gamma"] == 2.0
    assert sorted(sidecar) == ["c_delta_prime", "c_inv_x2", "c_log_delta_prime", "gamma", "m"]


@pytest.mark.parametrize("Lambda", ["100", "2.5", "1e300"])
def test_profile_sidecar_reports_the_log_coefficient_at_lambda(capsys, Lambda):
    # --lambda adds c_log_delta_prime ln(Lambda); without it the key is absent
    argv = ["profile", "--m", "1", "--gamma", "2", "--points", "3"]
    code, out, err = run_cli(capsys, [*argv, "--lambda", Lambda])
    sidecar = json.loads(err)
    assert code == 0 and sidecar["c_log_delta_prime"] != 0.0
    assert sidecar["log_delta_prime_at_Lambda"] == (
        sidecar["c_log_delta_prime"] * math.log(float(Lambda)))
    code, plain, err = run_cli(capsys, argv)
    assert code == 0 and plain == out
    assert json.loads(err) == {k: v for k, v in sidecar.items() if k != "log_delta_prime_at_Lambda"}


def test_profile_at_float_limits_is_quiet(capsys):
    # 1/x^2 overflows at x = 1e-300 and underflows at 1e300: inf and nan cells without
    # numpy's RuntimeWarnings, so stderr is the JSON sidecar alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["profile", "--m=1", "--gamma=0", "--x-min=1e-300",
                                          "--x-max=1e300", "--points=13"])
    assert code == 0 and len(out.splitlines()) == 14
    assert json.loads(err)["c_inv_x2"] == 0.0


def test_profile_writes_files(tmp_path, capsys):
    out_path = tmp_path / "profile.csv"
    argv = ["profile", "--m", "1", "--gamma", "2", "--points", "7", "--out", str(out_path)]
    assert main(argv) == 0
    first_csv = out_path.read_bytes()
    first_json = (tmp_path / "profile.csv.json").read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first_csv
    assert (tmp_path / "profile.csv.json").read_bytes() == first_json
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["profile", "--m", "1", "--gamma", "2", "--points", "3"],
                                  ["spectrum", "--m", "1", "--gamma", "2", "--points", "3"]])
@pytest.mark.parametrize("where", ["missing directory", "directory", "empty", "sidecar directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    # an --out in a directory that does not exist, that is a directory, that is empty, or whose
    # <out>.json (profile's sidecar) is a directory is rejected by the parser (exit 2, one error
    # line naming it) before anything runs or is written
    out = {"missing directory": tmp_path / "missing" / "table.csv", "directory": tmp_path,
           "empty": "", "sidecar directory": tmp_path / "table.csv"}[where]
    if where == "sidecar directory":
        (tmp_path / "table.csv.json").mkdir()
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage:") and captured.err.count("error:") == 1
    assert f"argument --out: invalid out_path value: '{out}'" in captured.err
    assert sorted(tmp_path.iterdir()) == before


def test_oracle_edge_pass(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--m", "1", "--gamma", "2", "--x", "0.7",
                                    "--what", "edge"])
    assert code == 0
    assert out.splitlines()[1].endswith("PASS")
    # t = 2mx/gamma = 1e-6: the closed form's bracket 1 - (1+t) e^{-t} is taken as its series
    code, out, _ = run_cli(capsys, ["oracle", "--m", "0.01", "--gamma", "1000", "--x", "0.05",
                                    "--what", "edge"])
    assert code == 0
    assert out.splitlines()[1].endswith("PASS")
    # m < 0: the closed form takes the reflection dual itself; at gamma > 0 both sides fill
    # the same edge states
    code, out, _ = run_cli(capsys, ["oracle", "--m", "-1", "--gamma", "0.5", "--x", "1",
                                    "--what", "edge"])
    assert code == 0
    assert out.splitlines()[1].endswith(",PASS")


@pytest.mark.parametrize("gamma, x", [("1e10", "1"), ("1e16", "0.05")])
def test_oracle_edge_tiny_t_passes(capsys, gamma, x):
    # t = 2mx/gamma = 2e-10 and 1e-17, where the bracket 1 - (1+t) e^{-t} is ~t^2/2
    code, out, _ = run_cli(capsys, ["oracle", "--m", "1", "--gamma", gamma, "--x", x,
                                    "--what", "edge"])
    assert code == 0
    assert out.splitlines()[1].endswith(",PASS")


def test_oracle_fail_exit_code(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--m", "1", "--gamma", "2", "--x", "0.7",
                                    "--what", "edge", "--tol", "1e-20"])
    assert code == 1
    assert "FAIL" in out


def test_oracle_zero_closed_form_fails(capsys, monkeypatch):
    # a closed form that collapses to 0 is judged against the oracle, not passed on |oracle| < tol
    import edgecurrents.currents
    monkeypatch.setattr(edgecurrents.currents.CurrentDecomposition, "edge_smooth",
                        lambda self, x: 0.0)
    code, out, _ = run_cli(capsys, ["oracle", "--m", "2", "--gamma", "0.5", "--x", "5",
                                    "--what", "edge"])
    assert code == 1
    assert out.splitlines()[1].endswith(",inf,FAIL")


def test_oracle_subnormal_deviation_passes(capsys):
    # t = 2mx/gamma ~ 745: the closed form is subnormal and the oracle underflows to 0
    code, out, _ = run_cli(capsys, ["oracle", "--m", "0.5", "--gamma", "6.711409395973155e-05",
                                    "--x", "0.05", "--what", "edge"])
    assert code == 0
    assert out.splitlines()[1].endswith(",0,PASS")


def test_constraints_report(capsys):
    code, out, _ = run_cli(capsys, ["constraints", "--gammas", "2,-0.5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "CANCELS"
    assert rep["r_log"] == 0.0
    assert sorted(rep) == ["gammas", "r_dipole", "r_log", "r_minus", "r_plus", "r_x2", "verdict"]
    code, out, _ = run_cli(capsys, ["constraints", "--gammas", "2,3"])
    assert json.loads(out)["verdict"] == "DIVERGENT"


def test_constraints_solve(capsys):
    code, out, _ = run_cli(capsys, ["constraints", "--solve", "2", "--fix", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "SOLVED"
    assert len(rep["solutions"]) == 2
    # [-0.5, 2.0] and [0.5, 2.0] to within 2 ulp
    for sol, want in zip(rep["solutions"], ([-0.5, 2.0], [0.5, 2.0])):
        assert sol[1] == want[1]
        assert abs(sol[0] - want[0]) <= 2 * math.ulp(0.5)


def test_constraints_solve_infeasible(capsys):
    code, out, _ = run_cli(capsys, ["constraints", "--solve", "3", "--fix", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["solutions"] == [] and rep["verdict"] == "INFEASIBLE"


@pytest.mark.parametrize("argv, code", [
    (["constraints", "--solve", "3", "--fix", "2"], 0),
    (["constraints", "--solve", "1"], 2),
    (["constraints", "--solve", "2", "--fix", "2,3"], 2),
    (["constraints", "--gammas", "2,-0.5", "--fix", "3"], 2),
])
def test_constraints_solve_exit_codes_without_traceback(argv, code):
    res = run_fresh(["-m", "edgecurrents.cli", *argv])
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code == 2:
        assert res.stderr.startswith("usage:") and res.stderr.count("error:") == 1


def test_constraints_solve_next_to_unit_gamma(capsys):
    # {g, -+1/g}, with |g| - 1 ~ -1e-3: the pair's r_log rounds to ~1e-10 (1.01e-10 for
    # the second pin), inside the 1e-10 scale of the cancellation test
    for g in (0.9989600324900666, -0.9989930209352929):
        code, out, _ = run_cli(capsys, ["constraints", "--solve", "2", "--fix", repr(g)])
        rep = json.loads(out)
        assert code == 0 and rep["verdict"] == "SOLVED"
        partners = sorted(x for sol in rep["solutions"] for x in sol if x != g)
        assert partners == pytest.approx(sorted([-1.0 / g, 1.0 / g]), rel=1e-12)


def test_constraints_report_huge_gamma_is_json(capsys):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    code, out, _ = run_cli(capsys, ["constraints", "--gammas", "1e200,0.5"])
    rep = json.loads(out, parse_constant=reject)
    assert code == 0 and rep["r_plus"] == 2.0
    assert rep["r_log"] == pytest.approx(1.0 - 5.0 / 3.0)


@pytest.mark.parametrize("extra", [
    ["--eps", "0.1"],
    ["--eps", "0.1", "0.2"],
    ["--eps", "0.2", "nan"],
    ["--eps", "inf", "0.1"],
    ["--eps", "0.1", "0"],
    ["--v-cutoff", "50"],
    ["--l-max", "100"],
])
def test_oracle_usage_errors(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--m", "1", "--gamma", "2", "--x", "0.7", "--what", "edge", *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and err.count("error:") == 1


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--m", "1", "--gamma", "2", "--points", "-1"], "'-1'"),
    (["spectrum", "--m", "1", "--gamma", "abc"], "'abc'"),
    (["dual", "--m", "1", "--gamma", "nan", "--which", "cpt"], "'nan'"),
    (["constraints", "--gammas", "2,abc"], "'2,abc'"),
    (["constraints", "--gammas", "2,"], "'2,'"),
    (["constraints", "--solve", "2", "--fix", "nan"], "'nan'"),
    (["profile", "--m", "1", "--gamma", "2", "--x-min", "-1"], "'-1'"),
    (["profile", "--m", "1", "--gamma", "2", "--x-max", "0"], "'0'"),
    (["profile", "--m", "1", "--gamma", "2", "--points", "0"], "'0'"),
    (["profile", "--m", "1", "--gamma", "2", "--lambda", "-1"], "'-1'"),
    (["constraints", "--gammas", "2,1"], "gamma = +-1"),
    (["spectrum", "--m", "1", "--gamma", "2", "--k-min", "nan"], "'nan'"),
    (["spectrum", "--m", "1", "--gamma", "2", "--k-max", "inf"], "'inf'"),
    (["spectrum", "--m", "nan", "--gamma", "2"], "'nan'"),
    (["spectrum", "--m", "inf", "--gamma", "2"], "'inf'"),
    (["profile", "--m=-inf", "--gamma", "2"], "'-inf'"),
    (["dual", "--m", "nan", "--gamma", "0.5", "--which", "cpt"], "'nan'"),
    (["oracle", "--m", "nan", "--x", "1", "--what", "edge"], "'nan'"),
    (["oracle", "--m", "1", "--x", "inf", "--what", "edge"], "'inf'"),
    (["oracle", "--m", "1", "--x", "0.7", "--what", "edge", "--tol", "nan"], "'nan'"),
    (["oracle", "--m", "1", "--x", "0.7", "--what", "edge", "--tol", "0"], "'0'"),
    # finite ends whose span k_max - k_min overflows
    (["spectrum", "--m", "1", "--gamma", "2", "--k-min", "1.7976931348623157e308",
      "--k-max=-1.7976931348623157e308", "--points", "5"], "k_min=1.7976931348623157e+308"),
    # a finite gamma whose inverse overflows
    (["dual", "--m", "1", "--gamma", "1e-320", "--which", "reflection"], "1/gamma overflows"),
    # the rapidity window (1/Lambda, Lambda) is empty: a usage error, not a sign-flipped c_log
    (["profile", "--m", "1", "--gamma", "2", "--lambda", "0.5"], "rapidity_cutoff value: '0.5'"),
    (["profile", "--m", "1", "--gamma", "2", "--lambda", "1"], "rapidity_cutoff value: '1'"),
    # a solve with more than 5 free gammas would enumerate for minutes or longer
    (["constraints", "--solve", "40"], "need 1 to 5 free gammas, got 40"),
    # each bounded number type is named in its rejection
    (["profile", "--m", "1", "--gamma", "2", "--points", "0"], "positive_int value: '0'"),
    (["spectrum", "--m", "nan", "--gamma", "2"], "finite_float value: 'nan'"),
    (["profile", "--m", "1", "--gamma", "2", "--x-min", "0"], "positive_float value: '0'"),
    (["oracle", "--m", "1", "--x", "0.7", "--what", "edge", "--tol", "nan"],
     "positive_float value: 'nan'"),
])
def test_bad_input_is_one_line(capsys, argv, named):
    # an exception escaping main would be a traceback, and any warning fails here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (2, 3) and out == ""
    # one message line, naming the bad value: argparse's `error:` after its usage
    # lines (exit 2), or the whole of stderr for a rejected parameter (exit 3)
    messages = [line for line in err.splitlines()
                if "error:" in line or line.startswith("rejected parameter:")]
    assert len(messages) == 1 and named in messages[0]
    assert code == 2 or err == messages[0] + "\n"


@pytest.mark.parametrize("argv, code", [
    (["profile", "--m", "1", "--gamma", "-1e200", "--points", "3"], 0),
    (["profile", "--m", "-1e-3", "--gamma", "-2", "--points", "3"], 0),
    (["spectrum", "--m", "-1e-3", "--gamma", "2", "--points", "5"], 0),
    (["dual", "--m", "-1e-3", "--gamma", "-.5", "--which", "reflection"], 0),
    (["oracle", "--m", "1", "--gamma", "2", "--x", "-1e-3", "--what", "edge"], 3),
    (["constraints", "--gammas", "-0.5,2"], 0),
    (["constraints", "--solve", "2", "--fix", "-2e0"], 0),
])
def test_negative_values_are_values(capsys, argv, code):
    # a value in exponent form, or a comma list that starts with a negative value, is read
    # as the option's value, as in the --opt=value form
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    outputs = [run_cli(capsys, a) for a in (argv, joined)]
    assert outputs[0] == outputs[1] and outputs[0][0] == code


@pytest.mark.parametrize("argv, message", [
    (["profile", "--m", "1", "--gamma", "2", "-q"], "unrecognized arguments: -q"),
    (["profile", "--m", "-q", "--gamma", "2"], "expected one argument"),
    (["dual", "--m", "1", "--gamma", "-inf", "--which", "cpt"], "expected one argument"),
])
def test_dash_arguments_that_are_no_numbers_stay_options(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_dual_output(capsys):
    code, out, _ = run_cli(capsys, ["dual", "--m", "1", "--gamma", "0",
                                    "--which", "reflection"])
    assert code == 0
    assert json.loads(out) == {"gamma": "inf", "m": -1.0}


def test_rejected_parameter_exit_code(capsys):
    code, _, err = run_cli(capsys, ["profile", "--m", "1", "--gamma", "1"])
    assert code == 3
    assert "rejected parameter" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--m", "1", "--x", "0", "--what", "edge"],
    ["oracle", "--m", "1", "--x", "0", "--what", "bulk"],
    ["oracle", "--m", "1", "--x", "0", "--what", "branch-cut"],
    ["oracle", "--m", "-1", "--x", "1", "--what", "branch-cut"],
    # 1/x^2 overflows: 4 x^2 underflowed to 0 and raised ZeroDivisionError, or inf and nan FAILed
    ["oracle", "--m", "1", "--x", "1e-200", "--what", "branch-cut"],
    ["oracle", "--m", "1", "--x", "1e-160", "--what", "edge"],
    ["oracle", "--m", "1", "--x", "1e-160", "--what", "bulk"],
    ["oracle", "--m", "1", "--x", "1e-160", "--what", "branch-cut"],
    # x^2 underflows to 0: the closed form divided by zero with a numpy RuntimeWarning
    ["oracle", "--m", "1", "--x", "1e-200", "--what", "edge"],
    ["oracle", "--m", "0", "--x", "1e-200", "--what", "bulk"],
])
def test_oracle_domain_errors_exit_3(capsys, argv):
    # an exception escaping main would be a traceback; every domain error is one line
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("rejected parameter: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["oracle", "--m", "1", "--gamma", "0", "--x", "1", "--what", "bulk"],
    ["oracle", "--m", "1", "--gamma", "inf", "--x", "1", "--what", "bulk"],
    ["oracle", "--m", "-1", "--x", "1", "--what", "bulk"],
    ["oracle", "--m", "0", "--x", "1", "--what", "branch-cut"],
    ["oracle", "--m", "1", "--x", "1e300", "--what", "bulk"],
    ["oracle", "--m", "1", "--x", "1e300", "--what", "edge"],
    ["oracle", "--m", "0", "--x", "1e154", "--what", "branch-cut"],
    ["oracle", "--m", "1", "--x", "1e154", "--what", "branch-cut"],
    ["oracle", "--m", "0", "--x", "1e300", "--what", "branch-cut"],
    ["oracle", "--m", "1", "--x", "1e300", "--what", "branch-cut"],
])
def test_oracle_bulk_and_branch_cut_on_the_whole_domain(capsys, argv):
    # gamma = 0 and inf (0 against 0), m < 0 at the exact reflection dual, and m = 0; at
    # x = 1e300, where x^2 overflows, 0 against 0 without numpy's RuntimeWarning; from
    # x = 1e154 the branch cut's contour form underflows to 0, and its Abel limit to 0 or
    # below the normal range
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out.splitlines()[1].endswith(",PASS")


def test_oracle_branch_cut_fails_honestly_where_the_ray_rule_stops(capsys):
    # the Abel limit cancels an integrand far larger than its value, pi e^{-2mx} (...): at
    # m x = 20 the two rays disagree, and the check FAILs instead of passing a wrong value
    code, out, err = run_cli(capsys, ["oracle", "--m", "1", "--x", "20", "--what", "branch-cut"])
    assert code == 1 and err == ""
    assert out.startswith("FAIL non-convergent")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constraints"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["constraints", "--gammas", "2", "--solve", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main builds its parser on its first call and keeps it; later calls, after a usage error or
    # a rejected parameter too, print the bytes of the first, and still run every check
    cli._parser.cache_clear()
    argv = ["profile", "--m", "1", "--gamma", "2", "--points", "5"]
    first = run_cli(capsys, [*argv, "--lambda", "100"])
    assert first[0] == 0
    with pytest.raises(SystemExit) as stop:
        main(["profile", "--m", "1", "--points", "5"])
    assert stop.value.code == 2 and "--gamma" in capsys.readouterr().err
    assert run_cli(capsys, ["profile", "--m", "1", "--gamma", "1"])[0] == 3
    assert run_cli(capsys, [*argv, "--lambda", "100"]) == first
    code, out, err = run_cli(capsys, argv)  # --lambda of an earlier call leaves no key
    assert (code, out) == first[:2]
    assert "log_delta_prime_at_Lambda" in first[2] and "log_delta_prime_at_Lambda" not in err
    folder = tmp_path / "tables"
    folder.mkdir()
    assert main([*argv, "--out", str(folder / "t.csv")]) == 0
    shutil.rmtree(folder)
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--out", str(folder / "t.csv")])
    assert stop.value.code == 2 and "invalid out_path value" in capsys.readouterr().err
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)  # one parser built, for all 7 calls


@pytest.mark.parametrize("case", [c for c in CASES if not c.large], ids=lambda c: c.argv)
def test_sweep_cases_exit_as_listed(tmp_path, capsys, monkeypatch, case):
    # the cheap cases of tests/cli_sweep.py, in process: each exits with the code listed there
    monkeypatch.chdir(tmp_path)
    for d in case.dirs:
        (tmp_path / d).mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(case.argv.split())
        except SystemExit as exc:
            code = exc.code
    capsys.readouterr()
    assert code == case.code


def test_stdout_determinism(capsys):
    for argv in (["spectrum", "--m", "1", "--gamma", "-3", "--points", "9"],
                 ["profile", "--m", "1", "--gamma", "2", "--points", "9"],
                 ["constraints", "--gammas", "2,-0.5,inf,0"],
                 ["dual", "--m", "1", "--gamma", "2", "--which", "cpt"]):
        _, out1, err1 = run_cli(capsys, argv)
        _, out2, err2 = run_cli(capsys, argv)
        assert out1 == out2
        assert err1 == err2


def test_import_skips_scipy():
    # every oracle kind runs on numpy alone: no scipy module is ever loaded, and the
    # Gauss-Legendre rule is constants, not numpy.polynomial
    argvs = [["oracle", "--m", "1", "--gamma", "2", "--x", "0.7", "--what", "edge"],
             ["oracle", "--m", "1", "--gamma", "2", "--x", "1.0", "--what", "bulk"],
             ["oracle", "--m", "1", "--x", "1.0", "--what", "branch-cut"]]
    script = ("import contextlib, io, sys\n"
              "from edgecurrents.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(a) for a in {argvs!r}]\n"
              "print(codes, sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'\n"
              "                    or n.startswith('numpy.polynomial')))\n")
    res = run_fresh(["-c", script])
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[0, 0, 0] []\n"


def modules_after_main(argvs):
    """Exit codes and the numpy-based modules loaded by main(argv) in a fresh interpreter."""
    script = ("import contextlib, io, sys\n"
              "import edgecurrents\n"
              "from edgecurrents.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              f"    codes = [main(a.split()) for a in {argvs!r}]\n"
              "heavy = ('numpy', 'edgecurrents.oracle', 'edgecurrents.fd',\n"
              "         'edgecurrents.spectrum', 'edgecurrents.currents',\n"
              "         'edgecurrents.table', 'edgecurrents.multifermion',\n"
              "         'dataclasses', 'fractions', 'decimal')\n"
              "print(codes, [n for n in heavy if n in sys.modules])\n")
    res = run_fresh(["-c", script])
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_scalar_subcommands_skip_numpy():
    # constraints and dual are math on a few gammas, and spectrum and profile reject before
    # numpy; spectrum and profile load no oracle or fd, profile no spectrum, and no
    # subcommand loads dataclasses.  Only constraints loads multifermion.  Only the two
    # tables load the table formatter, and it builds its constants from ints, without
    # fractions or decimal
    assert modules_after_main(["constraints --gammas 2,-0.5", "constraints --solve 2 --fix 2"]
                              ) == "[0, 0] ['edgecurrents.multifermion']\n"
    assert modules_after_main(["dual --m 1 --gamma 0 --which reflection",
                               "profile --m 1 --gamma 1",
                               "spectrum --m 1 --gamma 2 --k-min -1e308 --k-max 1e308"]
                              ) == "[0, 3, 3] []\n"
    assert modules_after_main(["spectrum --m 1 --gamma 2 --points 5",
                               "profile --m 1 --gamma 2 --points 5"]) == (
        "[0, 0] ['numpy', 'edgecurrents.spectrum', 'edgecurrents.currents', "
        "'edgecurrents.table']\n")
    assert modules_after_main(["profile --m 1 --gamma 2 --points 5"]
                              ) == "[0] ['numpy', 'edgecurrents.currents', 'edgecurrents.table']\n"
    assert modules_after_main(["oracle --m 1 --gamma 2 --x 0.7 --what edge"]
                              ) == "[0] ['numpy', 'edgecurrents.oracle', 'edgecurrents.currents']\n"
    # the oracles depend on params and errors alone
    res = run_fresh(["-c", "import sys, edgecurrents.oracle\n"
                           "print([n for n in ('edgecurrents.currents', 'edgecurrents.spectrum')"
                           " if n in sys.modules])"])
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


@pytest.mark.parametrize("argv", [
    ["oracle", "--m", "1", "--x", "1.0", "--what", "branch-cut"],
    ["oracle", "--m", "1", "--gamma", "2", "--x", "1.0", "--what", "bulk"],
])
def test_readme_oracle_commands_pass_quietly(argv):
    res = run_fresh(["-m", "edgecurrents.cli", *argv])
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].endswith(",PASS")
    assert res.stderr == ""
