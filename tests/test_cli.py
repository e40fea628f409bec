import json

import numpy as np
import pytest

from fermiwell import cli, errors
from fermiwell.core import WellParams, to_dimensionless
from fermiwell.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_info_record(capsys):
    code, out = run_cli(capsys, "info", "--v0", "48.6845", "--a", "1.5", "--b", "0.9")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["command"] == "info"
    assert rec["results"]["g"] == pytest.approx(3.000, abs=1e-3)
    assert rec["results"]["count_bracket"] == [2, 3]
    assert rec["units"]["u0"] == "MeV"


def test_spectrum_exact_json(capsys):
    code, out = run_cli(capsys, "spectrum", "--v0", "45.3642", "--a", "2", "--b", "1")
    assert code == 0
    rec = json.loads(out)
    energies = [lv["energy"] for lv in rec["results"]["levels"]]
    assert energies == pytest.approx([-33.7554, -16.2221, -4.6764], abs=1e-3)
    assert [lv["parity"] for lv in rec["results"]["levels"]] == ["even", "odd", "even"]


def test_spectrum_oracle_matches_exact(capsys):
    _, out_exact = run_cli(capsys, "spectrum", "--v0", "45.3642", "--a", "2", "--b", "1")
    _, out_oracle = run_cli(capsys, "spectrum", "--v0", "45.3642", "--a", "2", "--b", "1",
                            "--method", "oracle")
    e1 = [lv["energy"] for lv in json.loads(out_exact)["results"]["levels"]]
    e2 = [lv["energy"] for lv in json.loads(out_oracle)["results"]["levels"]]
    assert e1 == pytest.approx(e2, abs=1e-3)


def test_spectrum_csv(capsys):
    code, out = run_cli(capsys, "spectrum", "--v0", "45.3642", "--a", "2", "--b", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,energy,parity,nodes,near_threshold"
    assert len(lines) == 4


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "hbs-scan", "--alpha", "2", "--n-max", "2")
    _, second = run_cli(capsys, "hbs-scan", "--alpha", "2", "--n-max", "2")
    assert first == second


def test_json_round_trip_idempotent(capsys):
    _, out = run_cli(capsys, "info", "--v0", "5", "--a", "3", "--b", "1")
    rec = json.loads(out)
    assert json.dumps(rec, sort_keys=True, indent=2) + "\n" == out


def test_precision_flag(capsys):
    _, out = run_cli(capsys, "info", "--v0", "45.3642", "--a", "2", "--b", "1",
                     "--precision", "10")
    rec = json.loads(out)
    assert abs(rec["results"]["beta"] - 1.5723) < 1e-4
    assert len(str(rec["results"]["g"]).split(".")[1]) > 4


def test_kappa2_override_changes_beta(capsys):
    _, out1 = run_cli(capsys, "info", "--v0", "45.3642", "--a", "2", "--b", "1")
    _, out2 = run_cli(capsys, "info", "--v0", "45.3642", "--a", "2", "--b", "1",
                      "--kappa2", "0.096")
    b1 = json.loads(out1)["results"]["beta"]
    b2 = json.loads(out2)["results"]["beta"]
    assert b2 == pytest.approx(b1 * 2.0**0.5, rel=1e-3)


def test_hbs_command(capsys):
    code, out = run_cli(capsys, "hbs", "--alpha", "1", "--n", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["beta_n"] == pytest.approx(2.7494, abs=5e-4)
    assert rec["results"]["g"] == pytest.approx(4.4617, abs=2e-3)
    assert rec["results"]["verification"]["count_below"] == 4
    assert rec["results"]["verification"]["count_above"] == 5


def test_nuclear_command(capsys):
    code, out = run_cli(capsys, "nuclear", "-A", "208")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["g"] == pytest.approx(8.49, abs=0.02)
    assert rec["results"]["s_wave_count"] == 4


def test_plot_data_potential_defaults(capsys):
    code, out = run_cli(capsys, "plot-data", "--kind", "potential", "--points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# x_fm")
    assert len(lines[0].split("\t")) == 4  # x plus three diffuseness curves
    mid = lines[1 + 5 // 2].split("\t")
    assert all(float(v) == pytest.approx(-5.0, abs=1e-3) for v in mid[1:])


def test_plot_data_hbs_nodes(capsys):
    code, out = run_cli(capsys, "plot-data", "--kind", "hbs", "--alpha", "4",
                        "--beta", "0.9947", "--points", "801")
    assert code == 0
    vals = [float(line.split("\t")[1]) for line in out.strip().splitlines()[1:]]
    signs = [v for v in vals if abs(v) > 1e-6]
    changes = sum(1 for v1, v2 in zip(signs, signs[1:]) if (v1 > 0) != (v2 > 0))
    assert changes == 3


def test_plot_data_eigenfunctions_normalized(capsys):
    code, out = run_cli(capsys, "plot-data", "--kind", "eigenfunctions",
                        "--v0", "45.3642", "--a", "2", "--b", "1",
                        "--points", "2001", "--precision", "8")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split("\t")
    assert header[1:] == ["# x_fm psi0_fm^-1/2 psi1_fm^-1/2 psi2_fm^-1/2".split()[k] for k in (2, 3, 4)]
    import numpy as np
    data = np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])
    for col in range(1, 4):
        norm = np.trapezoid(data[:, col] ** 2, data[:, 0])
        assert norm == pytest.approx(1.0, abs=1e-3)


def test_usage_error_exit_code(capsys):
    assert main(["info", "--v0", "-5", "--a", "2", "--b", "1"]) == 2
    capsys.readouterr()
    assert main(["plot-data", "--kind", "eigenfunctions"]) == 2
    capsys.readouterr()
    assert main(["hbs", "--alpha", "-1", "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("usage error: alpha must be positive")
    assert main(["hbs-scan", "--alpha", "2", "--n-max", "0"]) == 2
    assert capsys.readouterr().err.startswith("usage error: n_max must be at least 1")


def test_info_prints_g_where_e_alpha_overflows(capsys):
    code, out = run_cli(capsys, "info", "--v0", "1", "--a", "1500", "--b", "1")
    assert code == 0
    assert json.loads(out)["results"]["g"] == pytest.approx(209.408, abs=1e-3)


@pytest.mark.parametrize("args, message", [
    (("spectrum", "--v0", "50", "--a", "15", "--b", "0.01"), "underflows"),
    (("hbs", "--alpha", "1500", "--n", "1"), "underflows"),
    (("hbs-scan", "--alpha", "1e6", "--n-max", "3"), "underflows"),
    (("spectrum", "--v0", "inf", "--a", "1", "--b", "1"), "WellParams.v0 must be finite"),
])
def test_overflowing_inputs_are_usage_errors(capsys, args, message):
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err


@pytest.mark.parametrize("args, message", [
    (("hbs", "--alpha", "2", "--n", "100000000"), "n_max = 100000000 exceeds 100"),
    (("spectrum", "--v0", "1e308", "--a", "1", "--b", "1"), "the closed form overflows at U0"),
    (("spectrum", "--v0", "1e307", "--a", "1", "--b", "1"), "exceeds 20000"),
    (("spectrum", "--method", "oracle", "--v0", "1e307", "--a", "1", "--b", "1"), "exceeds 100000000 points"),
    (("spectrum", "--method", "wkb", "--v0", "1e307", "--a", "1", "--b", "1"), "WKB levels, more than 4000000"),
])
def test_oversized_inputs_are_usage_errors(capsys, args, message):
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err
    assert "underflows" not in captured.err


_DEMO = ("--v0", "45.3642", "--a", "2", "--b", "1")


@pytest.mark.parametrize("args, message", [
    (("plot-data", "--kind", "potential", "--points", "1000000000000"), "exceeds 2000000 values"),
    (("plot-data", "--kind", "eigenfunctions", *_DEMO, "--points", "1000000000000"), "exceeds 2000000 values"),
    (("plot-data", "--kind", "hbs", "--alpha", "2", "--beta", "3.5", "--points", "1000000000000"),
     "exceeds 2000000 values"),
    (("plot-data", "--kind", "potential", "--x-max", "nan"), "x-max must be finite and positive, got nan"),
    (("plot-data", "--kind", "potential", "--x-max", "-3"), "got -3.0"),
    (("plot-data", "--kind", "eigenfunctions", *_DEMO, "--x-max", "-3"), "got -3.0"),
    (("plot-data", "--kind", "eigenfunctions", *_DEMO, "--x-max", "nan"), "got nan"),
    (("plot-data", "--kind", "hbs", "--alpha", "2", "--beta", "3.5", "--x-max", "inf"), "got inf"),
    (("plot-data", "--kind", "hbs", "--alpha", "2", "--beta", "3.5", "--x-max", "0"), "got 0.0"),
    (("spectrum", *_DEMO, "--format", "csv", "--precision", "-1"), "precision must lie in [0, 30], got -1"),
    (("plot-data", "--kind", "potential", "--precision", "-2"), "got -2"),
    (("spectrum", *_DEMO, "--precision", "10000000000"), "got 10000000000"),
    (("info", *_DEMO, "--precision", "31"), "got 31"),
    (("hbs-scan", "--alpha", "2", "--n-max", "3", "--precision", "31"), "got 31"),
])
def test_bad_plot_and_precision_inputs_are_usage_errors(monkeypatch, capsys, args, message):
    linspace = np.linspace

    def small_linspace(start, stop, num=50, **kwargs):
        assert num <= cli.MAX_PLOT_VALUES, "the oversized grid was allocated"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", small_linspace)
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err


@pytest.mark.parametrize("precision", ["0", "30"])
def test_precision_range_ends_are_accepted(capsys, precision):
    code, out = run_cli(capsys, "info", *_DEMO, "--precision", precision)
    assert code == 0
    beta = to_dimensionless(WellParams(45.3642, 2, 1)).beta
    assert json.loads(out)["results"]["beta"] == round(beta, int(precision))
    code, out = run_cli(capsys, "spectrum", *_DEMO, "--format", "csv", "--precision", precision)
    assert code == 0 and out.splitlines()[1].startswith("0,-")


def test_plot_table_bound_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_PLOT_VALUES", 40)
    code, out = run_cli(capsys, "plot-data", "--kind", "potential", "--points", "10")
    assert code == 0 and len(out.splitlines()) == 11
    assert main(["plot-data", "--kind", "potential", "--points", "11"]) == 2
    assert "a table of 11 rows x 4 columns exceeds 40 values" in capsys.readouterr().err


def test_numerical_failure_exit_code(capsys):
    # The 2F1 bracket's imaginary residual exceeds its bound at this alpha.
    assert main(["hbs-scan", "--alpha", "0.5", "--n-max", "20"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: imaginary residual")


@pytest.mark.parametrize("error, code, label", [
    (errors.DomainError, 2, "usage error"),
    (errors.PoleError, 2, "usage error"),
    (errors.ConvergenceError, 3, "numerical failure"),
    (errors.DegenerateParameterError, 3, "numerical failure"),
    (errors.QuadratureError, 3, "numerical failure"),
    (errors.FermiwellError, 3, "numerical failure"),
    (errors.BracketCollisionError, 1, "verification failure"),
    (errors.LabelingError, 1, "verification failure"),
    (errors.RootNotFoundError, 1, "verification failure"),
    (errors.VerificationError, 1, "verification failure"),
])
def test_error_exit_codes(monkeypatch, capsys, error, code, label):
    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(cli.hbs_mod, "solve_beta_n", fail)
    assert main(["hbs", "--alpha", "1", "--n", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{label}: planted\n"


def test_oracle_without_states_exits_zero(capsys):
    # The only state lies above the oracle's scan top at -1e-6 v0.
    code, out = run_cli(capsys, "spectrum", "--v0", "1e-4", "--a", "0.1", "--b", "0.1", "--method", "oracle")
    assert code == 0
    assert json.loads(out)["results"] == {"count": 0, "levels": []}


def test_unknown_flag_exit_code(capsys):
    assert main(["info", "--v0", "5", "--a", "2", "--b", "1", "--frobnicate"]) == 2
    capsys.readouterr()


def test_reproduce_table3(capsys):
    code, out = run_cli(capsys, "reproduce", "--table", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["all_pass"] is True
    assert [r["element"] for r in rec["results"]["rows"]] == ["O", "Sn", "Pb"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code = main(["info", "--v0", "5", "--a", "3", "--b", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rec = json.loads(target.read_text())
    assert rec["command"] == "info"
