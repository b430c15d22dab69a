import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import rho_theta_lambda
from qdecay import bounds, entropy, matcore
from qdecay import experiments as exp
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


def test_sweeps_at_dim_64_build_no_channel_and_solve_no_eigenproblem(tmp_path, capsys):
    def unreachable(*args):
        raise AssertionError("the matrix path ran")

    out, rate = tmp_path / "sweep.csv", tmp_path / "rate.csv"
    with pytest.MonkeyPatch.context() as m:
        for name in ("depolarizing", "dephasing_y", "complementary_channel"):
            m.setattr(exp.channels, name, unreachable)
        m.setattr(matcore, "jacobi_eigh_batch", unreachable)
        code, _, err = run(["sudden-decay", "--lambda", "0.1", "--dim", "64", "--points", "3",
                            "--theta-min", "1e-4", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        code, _, _ = run(["private-rate", "--p", "0.3", "--lambda", "0.2", "--noise",
                          "depolarizing", "--points", "3", "--out", str(rate)], capsys)
        assert code == 0 and len(rate.read_text().splitlines()) == 4
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        theta, d_pre, d_post, _, _ = (float(x) for x in line.split(","))
        # the matrix path's oracle: N psi is rho_theta_lambda, pinched to its diagonal
        for got, state in ((d_pre, rho_theta_lambda(theta, 0.0, 64)),
                           (d_post, rho_theta_lambda(theta, 0.1, 64))):
            pinched = matcore.DensityMatrix.from_matrix(np.diag(np.diagonal(state.matrix)))
            assert math.isclose(got, entropy.relative_entropy(state, pinched).unwrap(),
                                rel_tol=1e-7)


@pytest.mark.parametrize("argv", [
    ["sudden-decay", "--lambda", "0.1"],
    ["private-rate", "--p", "0.3", "--lambda", "0.2"],
])
def test_theta_below_theta_min_exits_2(tmp_path, capsys, argv):
    # below about 1.5e-154, sin^2(theta) leaves the normal doubles
    out = tmp_path / "sweep.csv"
    code, _, err = run(argv + ["--theta-min", "1e-200", "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: theta values must lie in [THETA_MIN = {exp.THETA_MIN:g}, pi/4]\n"
    assert not out.exists()
    code, _, err = run(argv + ["--theta-min", repr(exp.THETA_MIN), "--out", str(out)], capsys)
    assert code == 0
    last = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
    assert last[0] == exp.THETA_MIN and last[1] > 0 and all(map(math.isfinite, last))


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


@pytest.mark.parametrize("argv, owner, attr", [
    (["sudden-decay", "--lambda", "0.1"], exp, "sudden_decay_sweep"),
    (["private-rate", "--p", "0.3", "--lambda", "0.2"], exp, "private_rate_lower_bound"),
    (["g-table", "--t", "1e-2,1e-1"], bounds, "g_factor"),
])
def test_sweeps_reject_unwritable_out_before_running(tmp_path, capsys, monkeypatch,
                                                     argv, owner, attr):
    calls = []
    monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(a))
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run(argv + ["--out", str(out)], capsys)
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


@pytest.mark.parametrize("argv, name", [
    (["sudden-decay", "--lambda", "0.1", "--theta-max", "1e400"], "theta_max"),
    (["private-rate", "--p", "0.5", "--lambda", "0.1", "--theta-max", "inf"], "theta_max"),
    (["private-rate", "--p", "0.5", "--lambda", "0.1", "--theta-min", "nan"], "theta_min"),
])
def test_non_finite_theta_bound_gives_only_the_error_line(capsys, argv, name):
    # a warning raised here would print to stderr ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be positive and finite") and err.count("\n") == 1


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


def test_g_table_zeta_exact_at_tiny_t(capsys):
    # zeta = 1 - exp(-3 t) by subtraction printed 0 at t = 1e-17, with
    # tau_star stuck at the 1e-12 grid edge
    code, out, _ = run(["g-table", "--t", "1e-17,1e-13"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        t, zeta, g, tau = (float(x) for x in line.split(","))
        assert zeta == -math.expm1(-3.0 * t)
        assert math.isclose(zeta, 3.0 * t, rel_tol=1e-12)
        assert tau > 1e-12 and g < 1.0


def test_g_table_zeta_is_the_replacement_weight(capsys):
    # one function gives zeta for the g-table and the converse checks, at the
    # worked example's c and diamond bound, which the metadata reports
    times = [1e-17, 3e-13, 1e-9, 2.5e-4, 0.1, 1.0, 12.0]
    for variant in ("theorem", "paper-example"):
        code, out, _ = run(["g-table", "--variant", variant, "--format", "json",
                            "--t", ",".join(map(repr, times))], capsys)
        assert code == 0
        data = json.loads(out)
        assert (data["metadata"]["c"], data["metadata"]["diamond"]) == (4.0, 0.75)
        assert [float(row[0]) for row in data["rows"]] == times
        for t, row in zip(times, data["rows"]):
            want = bounds._replacement_weights(t, bounds.EXAMPLE_C, bounds.EXAMPLE_DIAMOND)[0]
            assert np.float64(row[1]).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("argv", [
    ["sudden-decay", "--lambda", "0.1"],
    ["private-rate", "--p", "0.3", "--lambda", "0.2"],
])
def test_points_above_limit_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "sweep.csv"
    points = str(exp.MAX_THETA_POINTS + 1)
    code, _, err = run(argv + ["--points", points, "--out", str(out)], capsys)
    assert code == 2
    assert err == (f"error: points must be at most MAX_THETA_POINTS = "
                   f"{exp.MAX_THETA_POINTS}, got {points}\n")
    assert not out.exists()
    assert len(exp.theta_logspace(1e-2, 1e-6, exp.MAX_THETA_POINTS)) == exp.MAX_THETA_POINTS


def test_private_rate_bits_converts_the_best_bound_with_the_rows(tmp_path, capsys):
    reports = {}
    for units in ("nats", "bits"):
        out = tmp_path / f"rate_{units}.json"
        code, _, err = run(["private-rate", "--p", "0.3", "--lambda", "0.2", "--units", units,
                            "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        reports[units] = (json.loads(out.read_text()), err)
    (nats, _), (bits, err) = reports["nats"], reports["bits"]
    assert bits["metadata"]["units"] == "bits"
    best = bits["metadata"]["bestBound"]
    assert best == max(float(row[3]) for row in bits["rows"])
    assert best == nats["metadata"]["bestBound"] * 1.4426950408889634
    assert err == f"max positive bound {best:.6g} at theta = {bits['metadata']['bestTheta']:.6g}\n"


@pytest.mark.parametrize("points", ["-1", "0"])
@pytest.mark.parametrize("argv", [
    ["sudden-decay", "--lambda", "0.1"],
    ["private-rate", "--p", "0.3", "--lambda", "0.2"],
])
def test_points_below_one_exits_2(tmp_path, capsys, argv, points):
    out = tmp_path / "sweep.csv"
    code, _, err = run(argv + ["--points", points, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: points must be at least 1, got {points}\n"
    assert not out.exists()


def _readme_commands() -> list:
    """The qdecay lines of README's "Command line" block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qdecay ")]


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == ["sudden-decay", "g-table", "verify",
                                              "private-rate"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
    assert sorted(os.listdir(tmp_path)) == ["rate.csv", "report.json", "sweep.csv"]
