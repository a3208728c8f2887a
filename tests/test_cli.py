import pytest

from thermint.cli import main


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


def test_convergence_command(capsys):
    code = main(["convergence", "--system", "oscillator",
                 "--h-list", "0.2,0.1,0.05", "--t-final", "10.0"])
    assert code == 0
    assert "fitted order" in capsys.readouterr().out


def test_unknown_system_is_config_error(capsys):
    code = main(["simulate", "--system", "oscillator", "--h", "-0.1",
                 "--t-final", "1.0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


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


def test_entropy_table_smoke(capsys):
    code = main(["table", "--which", "entropy", "--h-list", "0.1", "--window", "50"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,variational,midpoint   (first 50 steps)"
    assert len(lines) == 2 and lines[1].startswith("0.1,")


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
