import contextlib
import io
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermint import ExperimentConfig, ThermoState, get_system, rk2_integrate, run_experiment
from thermint.cli import main
from thermint.systems import CATALOG


def test_simulate_oscillator(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--system", "oscillator", "--h", "0.05",
                 "--t-final", "2.0", "--method", "variational", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "oscillator variational" in captured
    assert (out / "oscillator_variational.csv").exists()


def test_bench_writes_summary(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--system", "oscillator", "--h", "0.05", "--t-final", "2.0",
                 "--method", "variational,rk2", "--out", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "system,method,h,max_pos_err,max_S_err,max_H_dev"
    assert len(lines) == 3


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("system = oscillator\nh = 0.5\nt-final = 2.0\n"
                   "methods = variational\n")
    code = main(["simulate", "--config", str(cfg), "--h", "0.05"])
    assert code == 0
    assert "h=0.05" in capsys.readouterr().out


def test_geometry_check(capsys):
    code = main(["geometry-check", "--points", "10", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max geometric defect" in out


def test_geometry_check_gives_each_system_its_verdict(capsys):
    assert main(["geometry-check", "--points", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == sorted(CATALOG)
    assert all(": ok, max defect " in line for line in lines[:-1])
    # every defect is above 1e-300, so every system fails
    assert main(["geometry-check", "--points", "3", "--tol", "1e-300"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(": FAIL, max defect " in line for line in lines[:4])
    assert lines[4].startswith("max geometric defect: ")
    assert lines[5] == "FAIL: defect above tolerance 1e-300"


def test_convergence_command(capsys):
    code = main(["convergence", "--system", "oscillator",
                 "--h-list", "0.2,0.1,0.05", "--t-final", "10.0"])
    assert code == 0
    assert "fitted order" in capsys.readouterr().out


def test_convergence_refuses_a_single_distinct_step_size(capsys):
    assert main(["convergence", "--h-list", "0.1,0.1", "--t-final", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "two distinct step sizes" in err
    # a repeated step size among others still fits
    assert main(["convergence", "--h-list", "0.1,0.1,0.05", "--t-final", "5"]) == 0
    assert "fitted order" in capsys.readouterr().out


def test_convergence_refuses_a_zero_error(capsys):
    # one step of h = 0.1 from exact data holds only exact positions
    assert main(["convergence", "--h-list", "0.1,0.05", "--t-final", "0.1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "zero position error" in err


def test_unknown_system_is_config_error(capsys):
    for argv in (["simulate", "--system", "oscillator", "--h", "-0.1", "--t-final", "1.0"],
                 ["simulate", "--newton-tol", "inf"],
                 ["simulate", "--newton-tol", "-1"],
                 ["simulate", "--t-final", "nan"],
                 ["simulate", "--t-final", "inf"],
                 ["table", "--h-list", "0.1,abc"],
                 ["table", "--t-final", "inf"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error:"), argv


def test_gas_table_smoke(capsys):
    code = main(["table", "--which", "gas", "--h", "0.05", "--t-final", "2.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ideal-gas" in out and "van-der-waals" in out


def test_solver_failure_names_the_step_once(capsys):
    code = main(["simulate", "--system", "ideal-gas", "--h", "0.3", "--t-final", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure at step ")
    assert err.count("at step") == 1


def test_rk2_overflow_is_a_solver_failure(capsys):
    # the oscillator at h = 1000 overflows in RK2 step 28: the run stops
    # there, with the step's numpy error and its index, not later in the H
    # series
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(FloatingPointError) as info:
            rk2_integrate(get_system("oscillator").lagrangian, ThermoState([0.0], [1.0], 0.0),
                          1000.0, 100)
    assert info.value.step_index == 28
    code = main(["simulate", "--method", "rk2", "--system", "oscillator", "--h", "1000",
                 "--t-final", "1e5"])
    assert code == 3
    assert capsys.readouterr().err == f"solver failure at step 28: {info.value}\n"


@pytest.mark.parametrize("which,header,columns", [
    ("position", "h,variational,midpoint",
     lambda var, rk2: (var.max_pos_err, rk2.max_pos_err)),
    ("hamiltonian", "h,H_p_plus,H_p_minus,H_velocity,H_midpoint",
     lambda var, rk2: (var.H_dev["p_plus"], var.H_dev["p_minus"], var.H_dev["velocity"],
                       rk2.H_dev["velocity"])),
], ids=["position", "hamiltonian"])
def test_error_table_rows_are_the_cells(capsys, which, header, columns):
    # the header, then one row per h of the cell's errors as run_experiment
    # reports them
    code = main(["table", "--which", which, "--h-list", "0.1,0.05", "--t-final", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    rows = []
    for h in (0.1, 0.05):
        methods = run_experiment(ExperimentConfig(h=h, t_final=5.0)).methods
        rows.append(",".join([f"{h:g}"] + [f"{x:.4e}" for x in
                                            columns(methods["variational"], methods["rk2"])]))
    assert lines[1:] == rows


def test_entropy_table_smoke(capsys):
    code = main(["table", "--which", "entropy", "--h-list", "0.1", "--window", "50"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,variational,midpoint   (first 50 steps)"
    assert len(lines) == 2 and lines[1].startswith("0.1,")


def test_entropy_table_takes_the_default_newton_tolerance(capsys):
    # at h = 0.001 the residual floor lies above 1e-12, the tolerance of h >= 0.01
    code = main(["table", "--which", "entropy", "--h-list", "0.001", "--window", "50"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.001,")


def test_entropy_table_header_counts_the_steps_run(capsys):
    code = main(["table", "--which", "entropy", "--t-final", "1", "--h-list", "0.1",
                 "--window", "50"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,variational,midpoint   (first 10 steps)"
    assert len(lines) == 2 and lines[1].startswith("0.1,")


def test_entropy_table_header_names_each_count(capsys):
    code = main(["table", "--which", "entropy", "--t-final", "1", "--h-list", "0.1,0.05",
                 "--window", "15"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,variational,midpoint   (first 10 steps at h=0.1, 15 steps at h=0.05)"
    assert len(lines) == 3


def test_gas_table_reads_gamma(capsys):
    argv = ["table", "--which", "gas", "--t-final", "1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--gamma", "0.1"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--gamma", "0.3"]) == 0
    assert capsys.readouterr().out != default


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("system = oscillator\ntfinal = 2\n")
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "tfinal" in err


@pytest.mark.parametrize("system,q0,n", [("two-pistons", "1.0", 2),
                                         ("ideal-gas", "1.0, 2.0", 1)])
def test_initial_data_of_wrong_length_is_config_error(tmp_path, capsys, system, q0, n):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(f"system = {system}\nq0 = {q0}\n")
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "q0" in err and f"{n} value" in err


def test_solver_failure_prints_the_triple(capsys):
    code = main(["simulate", "--system", "ideal-gas", "--h", "0.3", "--t-final", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure at step 2 from triple (q0=[1.0], q1=[")


def _config_error(code, err, key):
    """Exit 2 with a configuration error whose message names ``key``."""
    assert code == 2
    assert err.startswith("configuration error:")
    assert re.search(rf"\b{key}\b", err.removeprefix("configuration error:")), err


@pytest.mark.parametrize("text,key", [
    ("h = abc", "h"), ("h = 0.01, 0.02", "h"),
    ("q0 = abc", "q0"), ("q1 = abc", "q1"), ("v0 = 1, abc", "v0"),
    ("S0 = x", "S0"), ("S0 = 1, 2", "S0"), ("S0 = inf", "S0"),
    ("methods = 3", "methods"), ("out = 3", "out"), ("out =", "out"),
    ("gamma = abc", "gamma"), ("gamma = -1", "gamma"), ("a_hat = 2", "a_hat"),
    ("system = ideal-gas\nc = 0", "c"), ("rtol = -1", "rtol"), ("atol = x", "atol"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, text, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + "\n")
    code = main(["simulate", "--config", str(cfg), "--t-final", "1"])
    captured = capsys.readouterr()
    _config_error(code, captured.err, key)
    assert captured.out == ""


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--gamma", "-1"], "gamma"),
    (["simulate", "--gamma", "nan"], "gamma"),
    (["simulate", "--system", "ideal-gas", "--gamma", "0"], "gamma"),
    (["simulate", "--h", "abc"], "h"),
    (["bench", "--system", "piston"], "system"),
    (["geometry-check", "--tol", "nan"], "tol"),
    (["geometry-check", "--points", "-3"], "points"),
    (["geometry-check", "--seed", "-1"], "seed"),
    (["table", "--which", "entropy", "--window", "0"], "window"),
    (["table", "--gamma", "-1"], "gamma"),
])
def test_bad_flag_is_config_error_before_any_output(capsys, argv, key):
    code = main(argv + ["--t-final", "1"] if argv[0] in ("simulate", "bench") else argv)
    captured = capsys.readouterr()
    _config_error(code, captured.err, key)
    assert captured.out == ""


def test_flag_and_config_value_give_the_same_message(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("h = abc\n")
    assert main(["simulate", "--config", str(cfg), "--t-final", "1"]) == 2
    from_file = capsys.readouterr().err
    assert main(["simulate", "--h", "abc", "--t-final", "1"]) == 2
    assert capsys.readouterr().err == from_file


def test_overdamped_oscillator(capsys):
    argv = ["simulate", "--system", "oscillator", "--gamma", "3", "--t-final", "1"]
    assert main(argv) == 2
    assert "no exact solution" in capsys.readouterr().err
    # the RK45 reference stands in for the exact solution
    assert main(argv + ["--init-mode", "reference"]) == 0
    assert "max|q-ref|" in capsys.readouterr().out


def test_step_too_small_for_the_newton_tolerance_is_a_config_error(capsys):
    assert main(["simulate", "--h", "1e-160", "--t-final", "1e-159"]) == 2
    assert "h = 1e-160" in capsys.readouterr().err


def test_value_beyond_float_range_is_solver_failure(tmp_path, capsys):
    # from q0 - b_hat = 0.25 at S0 = 10 the piston flies off within a step of h = 0.1,
    # and exp(S) of the entropy it produces overflows
    cfg = tmp_path / "c.cfg"
    cfg.write_text("system = van-der-waals\nh = 0.1\nt-final = 0.2\nq0 = 0.5\n"
                   "a_hat = 0\nb_hat = 0.25\n")
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "solver failure: overflow encountered in exp\n"


# the property test: argv lists and config texts over the real keys

_FLAGS = ("system", "h", "t_final", "gamma", "init_mode", "methods", "newton_tol")
_JUNK = ("abc", "nan", "inf", "0", "-1", "", "1, 2, 3", "bogus")
_PARAMS = {"oscillator": [], "ideal-gas": [("c", 1.0, 3.0)], "two-pistons": [("c", 1.0, 3.0)],
           "van-der-waals": [("a_hat", 0.0, 1e3), ("b_hat", 0.0, 0.3)]}


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _vector(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(
        lambda xs: ", ".join(map(repr, xs)))


@st.composite
def _cell(draw):
    """A cell's settings in the catalog's ranges, with up to two of them junk.

    t_final is always given and, when valid, at most 10 h.
    """
    system = draw(st.sampled_from(sorted(CATALOG)))
    n = 2 if system == "two-pistons" else 1
    h = draw(st.sampled_from([0.1, 0.05, 0.02, 0.01]))
    modes = ["reference", "hold", "taylor"] + (["exact"] if system == "oscillator" else [])
    valid = {
        "system": st.just(system),
        "h": st.just(repr(h)),
        "t_final": st.integers(1, 10).map(lambda k: repr(k * h)),
        "gamma": _number(0.05, 1.0),
        **{key: _number(lo, hi) for key, lo, hi in _PARAMS[system]},
        "init_mode": st.sampled_from(modes),
        "methods": st.lists(st.sampled_from(["variational", "rk2", "reference"]),
                            min_size=1, max_size=3).map(", ".join),
        "newton_tol": st.sampled_from(["1e-8", "1e-10", "1e-12"]),
        "rtol": st.sampled_from(["1e-8", "1e-10"]), "atol": st.sampled_from(["1e-8", "1e-10"]),
        "q0": _vector(0.5, 1.5, n), "v0": _vector(-0.5, 0.5, n), "q1": _vector(0.5, 1.5, n),
        "S0": _number(0.0, 10.0),
    }
    keys = ["t_final"] + draw(st.lists(st.sampled_from(sorted(set(valid) - {"t_final"})),
                                       unique=True, max_size=6))
    junk = draw(st.sets(st.sampled_from(keys), max_size=2))
    return {key: draw(st.sampled_from(_JUNK) if key in junk else valid[key]) for key in keys}


@settings(max_examples=100)
@given(_cell(), st.sampled_from(["simulate", "bench"]), st.booleans())
def test_any_cell_exits_0_2_or_3(cell, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        argv, lines = [command, "--config", f"{tmp}/c.cfg"], [f"out = {tmp}"]
        for key, value in cell.items():
            if flags and key in _FLAGS:
                flag = "method" if key == "methods" else key.replace("_", "-")
                argv += [f"--{flag}", value]
            else:
                lines.append(f"{key} = {value}")
        with open(f"{tmp}/c.cfg", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("configuration error:")
