import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdecay.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sudden_decay_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sudden-decay", "--lambda", "0.1", "--theta-min", "1e-6",
                      "--theta-max", "1e-2", "--points", "9",
                      "--noise", "depolarizing", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10  # header + 9 rows
    assert lines[0].startswith("theta,")


def test_sudden_decay_zero_noise_unit_ratios(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sudden-decay", "--lambda", "0", "--points", "4",
                      "--theta-min", "1e-4", "--theta-max", "1e-2",
                      "--out", str(out)], capsys)
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        assert abs(float(line.split(",")[3]) - 1.0) < 1e-12


def test_sudden_decay_dephasing_variant(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sudden-decay", "--lambda", "0.2", "--points", "3",
                      "--theta-min", "1e-4", "--theta-max", "1e-2",
                      "--noise", "dephasing-y", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


def test_sudden_decay_bad_lambda_exits_2(capsys):
    code, _, err = run(["sudden-decay", "--lambda", "1.5"], capsys)
    assert code == 2
    assert "error" in err


def test_g_table_paper_example(capsys):
    code, out, _ = run(["g-table", "--variant", "paper-example",
                        "--t", "1e-3,1e-2,1e-1,1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    gs = [float(l.split(",")[2]) for l in lines[1:]]
    for got, want in zip(gs[:3], (0.81, 0.54, 0.14)):
        assert abs(got - want) < 0.01
    assert 1e-4 <= gs[3] <= 1e-3


def test_g_table_theorem_variant(capsys):
    code, out, _ = run(["g-table", "--variant", "theorem", "--t", "1e-2"], capsys)
    assert code == 0
    g = float(out.splitlines()[1].split(",")[2])
    assert 0 < g < 1


def test_g_table_missing_t_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["g-table", "--variant", "theorem"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["g-table", "--t", "1e-2", "--bogus", "1"])
    assert exc.value.code == 2


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run(["verify", "--suite", "pinsker", "--samples", "50",
                        "--seed", "7", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["allPassed"]
    assert report["suites"][0]["suite"] == "pinsker"
    assert "pass pinsker" in err


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(["verify", "--suite", "nonsense"], capsys)
    assert code == 2


def test_verify_smoke_all(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(["verify", "--suite", "all", "--samples", "10",
                      "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["allPassed"]
    assert len(report["suites"]) == len(json.loads(out.read_text())["suites"])


def test_verify_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QDECAY_SEED", "99")
    out = tmp_path / "report.json"
    code, _, _ = run(["verify", "--suite", "pinsker", "--samples", "20",
                      "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 99


def test_verify_deterministic_outputs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["verify", "--suite", "classical", "--samples", "40",
                          "--seed", "7", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_private_rate_sweep(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    code, _, err = run(["private-rate", "--p", "0.01", "--lambda", "0.01",
                        "--out", str(out)], capsys)
    assert code == 0
    assert "max positive bound" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,i_kept,i_env,rate_lower_bound"
    assert len(lines) == 9


def test_private_rate_strong_keep(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    code, _, err = run(["private-rate", "--p", "0.999", "--lambda", "0.5",
                        "--points", "3", "--theta-min", "1e-3",
                        "--out", str(out)], capsys)
    assert code == 0
    first = out.read_text().splitlines()[1]
    assert float(first.split(",")[3]) > 0


def test_private_rate_p_zero_exits_2(capsys):
    code, _, err = run(["private-rate", "--p", "0", "--lambda", "0.01"], capsys)
    assert code == 2
    assert "error" in err


def test_help_available(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    for cmd in ("sudden-decay", "g-table", "verify", "private-rate"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0


def test_verify_violation_exits_3(tmp_path, capsys, monkeypatch):
    from qdecay import verify

    def failing_suite(samples, seed):
        return {"suite": "pinsker", "samples": samples, "seed": seed,
                "violations": [{"counter": 0}], "violationCount": 1,
                "worstMargin": -1.0, "passed": False}

    monkeypatch.setitem(verify.SUITES, "pinsker", failing_suite)
    code, _, err = run(["verify", "--suite", "pinsker", "--samples", "5",
                        "--seed", "1", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert "FAIL" in err


def test_units_conversion_to_bits(tmp_path, capsys):
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    base = ["sudden-decay", "--lambda", "0.2", "--points", "2",
            "--theta-min", "1e-3", "--theta-max", "1e-2"]
    assert main(base + ["--out", str(nats)]) == 0
    assert main(base + ["--units", "bits", "--out", str(bits)]) == 0
    capsys.readouterr()
    row_n = nats.read_text().splitlines()[1].split(",")
    row_b = bits.read_text().splitlines()[1].split(",")
    assert abs(float(row_b[1]) - float(row_n[1]) / math.log(2)) < 1e-15
    # ratios are unit-free
    assert row_b[3] == row_n[3]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_nonpositive_samples_exits_2(tmp_path, capsys, samples):
    out = tmp_path / "r.json"
    code, _, err = run(["verify", "--suite", "pinsker", "--samples", samples,
                        "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_verify_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QDECAY_SEED", "abc")
    code, _, err = run(["verify", "--suite", "pinsker", "--samples", "2"], capsys)
    assert code == 2
    assert err.startswith("error:") and "QDECAY_SEED" in err


@pytest.mark.parametrize("t", ["nan", "inf", "1e-2,nan"])
def test_g_table_non_finite_t_exits_2(capsys, t):
    code, out, err = run(["g-table", "--t", t], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_g_table_t_with_zeta_rounding_to_one_exits_2(capsys):
    # 1 - exp(-60) is exactly 1.0 in double precision
    code, out, err = run(["g-table", "--t", "1e-2,20"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zeta" in err


@pytest.mark.parametrize("theta_max", ["2", "nan"])
def test_private_rate_theta_outside_range_exits_2(tmp_path, capsys, theta_max):
    out = tmp_path / "rate.csv"
    code, _, err = run(["private-rate", "--p", "0.3", "--lambda", "0.2",
                        "--theta-max", theta_max, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_sudden_decay_dim_one_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run(["sudden-decay", "--lambda", "0.1", "--dim", "1",
                        "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sudden-decay", "--lambda", "0.1", "--points", "2"],
    ["g-table", "--t", "1e-2"],
    ["verify", "--suite", "pinsker", "--samples", "1"],
    ["private-rate", "--p", "0.3", "--lambda", "0.2", "--points", "2"],
])
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err


def test_verify_unknown_suite_message_is_unquoted(capsys):
    code, _, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2
    assert err.startswith("error: unknown suite 'nope'; choose from [")
    assert err.count("\n") == 1


def test_sudden_decay_dephasing_y_needs_dim_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run(["sudden-decay", "--lambda", "0.1", "--noise", "dephasing-y",
                        "--dim", "3", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_verify_rejects_unwritable_out_before_running(tmp_path, capsys, monkeypatch):
    from qdecay import verify

    calls = []
    monkeypatch.setattr(verify, "run_suites", lambda *a: calls.append(a))
    out = tmp_path / "missing" / "r.json"
    code, _, err = run(["verify", "--suite", "all", "--out", str(out)], capsys)
    assert calls == []
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err


def test_verify_out_check_keeps_existing_report(tmp_path, capsys, monkeypatch):
    from qdecay import verify

    def failing_run(*args):
        raise RuntimeError("numerical failure")

    out = tmp_path / "r.json"
    out.write_text("previous report\n")
    monkeypatch.setattr(verify, "run_suites", failing_run)
    code, _, _ = run(["verify", "--suite", "pinsker", "--out", str(out)], capsys)
    assert code == 1
    assert out.read_text() == "previous report\n"


@pytest.mark.parametrize("argv, name", [
    (["sudden-decay", "--lambda", "0.1", "--theta-min", "0"], "theta_min"),
    (["sudden-decay", "--lambda", "0.1", "--theta-max=-1e-3"], "theta_max"),
    (["private-rate", "--p", "0.3", "--lambda", "0.2", "--theta-min", "-1"], "theta_min"),
    (["private-rate", "--p", "0.3", "--lambda", "0.2", "--theta-max", "0"], "theta_max"),
])
def test_non_positive_theta_bound_is_named(tmp_path, capsys, argv, name):
    out = tmp_path / "sweep.csv"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: {name} must be positive") and err.count("\n") == 1
    assert not out.exists()


def test_repeated_main_calls_match_a_cold_process(tmp_path):
    argvs = [
        ["verify", "--suite", "clsi-converse", "--samples", "2", "--seed", "5"],
        ["g-table", "--variant", "theorem", "--t", "1e-2,1e-1"],
        ["sudden-decay", "--lambda", "0.1", "--points", "3", "--format", "json"],
        ["verify", "--suite", "pinsker", "--samples", "3", "--seed", "6"],
        ["private-rate", "--p", "0.3", "--lambda", "0.2", "--points", "2"],
        ["verify", "--suite", "clsi-converse", "--samples", "2", "--seed", "5"],
    ]
    warm = []
    for k, argv in enumerate(argvs):
        out = tmp_path / f"warm{k}"
        main(argv + ["--out", str(out)])
        warm.append(out.read_bytes())
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for k, argv in enumerate(argvs):
        out = tmp_path / f"cold{k}"
        subprocess.run([sys.executable, "-m", "qdecay", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        assert out.read_bytes() == warm[k], argv
    assert warm[0] == warm[-1]


def test_verify_seed_fallback_after_explicit_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("QDECAY_SEED", "11")
    argv = ["verify", "--suite", "pinsker", "--samples", "1", "--out"]
    assert main(argv + [str(tmp_path / "a.json"), "--seed", "5"]) == 0
    assert main(argv + [str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["seed"] == 5
    assert json.loads((tmp_path / "b.json").read_text())["seed"] == 11
