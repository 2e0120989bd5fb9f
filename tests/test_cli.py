import json
import math
import subprocess
import sys

import pytest

from jetweil.cli import main


@pytest.fixture
def prod_file(tmp_path):
    path = tmp_path / "prod.slp"
    path.write_text("input a b\nt = mul a b\noutput t\n")
    return str(path)


@pytest.fixture
def x2y_file(tmp_path):
    path = tmp_path / "x2y.slp"
    path.write_text("input x y\nt = mul x x\nu = mul t y\noutput u\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_plain(capsys, tmp_path):
    path = tmp_path / "sq.slp"
    path.write_text("input x\ny = pow x 2\noutput y\n")
    code, out, _ = run_cli(capsys, "eval", str(path), "--x", "3")
    assert code == 0
    assert out.strip() == "9.0"


def test_eval_json(capsys, prod_file):
    code, out, _ = run_cli(capsys, "eval", prod_file, "--x", "3,5", "--json")
    assert code == 0
    assert json.loads(out) == {"outputs": [15.0]}


def test_eval_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.slp"
    path.write_text("bogus\n")
    code, _, err = run_cli(capsys, "eval", str(path), "--x", "1")
    assert code == 2
    assert "line 1" in err


def test_eval_missing_file(capsys):
    code, _, err = run_cli(capsys, "eval", "/nonexistent.slp", "--x", "1")
    assert code == 2


@pytest.mark.parametrize("command, inputs, body, x, word", [
    ("eval", "x", "y = log x", "-1", "log"),
    ("grad", "x", "y = exp x", "1000", "overflow at node 0"),
    ("grad", "x", "y = pow x 0.5", "-4", "fractional power"),
    ("grad", "x", "y = pow x -1", "0", "negative power"),
    ("grad", "x", "t = exp x\ny = mul t t", "400", "overflow at node 1"),
    ("grad", "a b c", "t = mul a b\ny = mul t c", "1e200,1e-200,1e200",
     "non-finite adjoint at input 1"),
], ids=["eval-log", "grad-exp", "grad-pow-half", "grad-pow-minus-one",
        "grad-square-of-exp", "grad-infinite-adjoint"])
def test_domain_error_exit_code(capsys, tmp_path, command, inputs, body, x,
                                word):
    path = tmp_path / "edge.slp"
    path.write_text(f"input {inputs}\n{body}\noutput y\n")
    code, out, err = run_cli(capsys, command, str(path), "--x", x, "--json")
    assert code == 3
    assert out == ""
    assert word in err


def test_grad_product(capsys, prod_file):
    code, out, _ = run_cli(capsys, "grad", prod_file, "--x", "3,5", "--json")
    assert code == 0
    assert json.loads(out)["gradient"] == [5.0, 3.0]


def test_grad_identity_omega(capsys, tmp_path):
    path = tmp_path / "id.slp"
    path.write_text("input a b\noutput a b\n")
    code, out, _ = run_cli(capsys, "grad", str(path), "--x", "1,2",
                           "--omega", "0.5,0.25", "--json")
    assert code == 0
    assert json.loads(out)["gradient"] == [0.5, 0.25]


def test_grad_multi_output_needs_omega(capsys, tmp_path):
    path = tmp_path / "two.slp"
    path.write_text("input a b\noutput a b\n")
    code, _, err = run_cli(capsys, "grad", str(path), "--x", "1,2")
    assert code == 2
    assert "omega" in err


def test_grad_check_fields(capsys, prod_file):
    code, out, _ = run_cli(capsys, "grad", prod_file, "--x", "3,5",
                           "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["pairing_residual"] <= 1e-10
    assert payload["check"]["fd_max_abs_diff"] <= 1e-4


def test_grad_deterministic(capsys, prod_file):
    _, out1, _ = run_cli(capsys, "grad", prod_file, "--x", "3,5",
                         "--check", "--seed", "9", "--json")
    _, out2, _ = run_cli(capsys, "grad", prod_file, "--x", "3,5",
                         "--check", "--seed", "9", "--json")
    assert out1 == out2


def test_taylor_table(capsys, x2y_file):
    code, out, _ = run_cli(capsys, "taylor", x2y_file, "--x", "1,2",
                           "--dirs", "1,0;0,1", "--caps", "2,1")
    assert code == 0
    payload = json.loads(out)
    entries = {tuple(e["alpha"]): e["value"][0] for e in payload["entries"]}
    assert entries[(1, 1)] == pytest.approx(2.0)
    assert entries[(2, 0)] == pytest.approx(4.0)
    assert entries[(0, 0)] == pytest.approx(2.0)


def test_taylor_envelope_and_tail(capsys, tmp_path):
    path = tmp_path / "exp.slp"
    path.write_text("input x\ny = exp x\noutput y\n")
    code, out, _ = run_cli(capsys, "taylor", str(path), "--x", "0",
                           "--dirs", "1", "--caps", "3",
                           "--envelope", "2.8,2.8,2.8,2.8",
                           "--tail", "2.8,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["envelope"]["passed"]
    assert payload["tail_bound"]["value"] == pytest.approx(
        2.8 * 0.5 ** 4 / 24)


def test_taylor_max_dim_refusal(capsys, x2y_file):
    code, _, err = run_cli(capsys, "taylor", x2y_file, "--x", "1,2",
                           "--dirs", "1,0;0,1", "--caps", "30,30",
                           "--max-dim", "100")
    assert code == 2
    assert "961" in err


def test_taylor_env_var(capsys, x2y_file, monkeypatch):
    monkeypatch.setenv("JETWEIL_MAX_DIM", "4")
    code, _, err = run_cli(capsys, "taylor", x2y_file, "--x", "1,2",
                           "--dirs", "1,0;0,1", "--caps", "2,1")
    assert code == 2
    assert "exceeds limit 4" in err


def test_check_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "envelope", "--count", "10",
                           "--json")
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["results"][0]["violations"] == 0


def test_check_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "check", "nonsense")
    assert code == 2


def test_check_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "check", "duality", "--count", "25",
                         "--seed", "3", "--json")
    _, out2, _ = run_cli(capsys, "check", "duality", "--count", "25",
                         "--seed", "3", "--json")
    assert out1 == out2


def test_bench_mul_reported_not_gated(capsys):
    code, out, _ = run_cli(capsys, "bench", "--family", "mul", "--q", "40",
                           "--dims", "2,4,8,16,32", "--batch", "128",
                           "--repetitions", "5")
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["slope_in_window"] is None
    assert report["q"] == 40
    assert all(r["repetitions"] >= 5 for r in report["runs"])
    assert payload["nested"]["passes"] == 6


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "jetweil.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eval" in proc.stdout


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, want", [("1", 0), ("1000", 3)])
def test_taylor_stdout_is_strict_json(capsys, tmp_path, x, want):
    path = tmp_path / "exp.slp"
    path.write_text("input x\ny = exp x\noutput y\n")
    code, out, err = run_cli(capsys, "taylor", str(path), "--x", x,
                             "--dirs", "1", "--caps", "2")
    assert code == want
    if want == 0:
        assert _strict_json(out)["entries"]
    else:
        assert out == ""
        assert "non-finite" in err and "node 0" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("options, want, word", [
    (["--x", "1e200", "--dirs", "1", "--caps", "1", "--envelope", "1,1"],
     1, None),
    (["--x", "0", "--dirs", "1", "--caps", "15", "--tail", "1e300,1e10"],
     3, "tail bound overflows"),
    (["--x", "0", "--dirs", "1", "--caps", "15", "--tail", "1,1e30"],
     3, "tail bound overflows"),
], ids=["envelope-norm", "tail-inf", "tail-pow-overflow"])
def test_taylor_derived_numbers_stay_finite(capsys, tmp_path, options, want,
                                            word):
    path = tmp_path / "twice.slp"
    path.write_text("input a\noutput a a\n")
    code, out, err = run_cli(capsys, "taylor", str(path), *options)
    assert code == want
    if word is None:
        rows = _strict_json(out)["envelope"]["rows"]
        assert rows[0]["coeff_norm"] == pytest.approx(2 ** 0.5 * 1e200)
    else:
        assert out == ""
        assert word in err


def test_taylor_table_past_170_factorial(capsys, prod_file):
    # alpha! of (100, 100) is past float64, yet every derivative is finite
    code, out, err = run_cli(capsys, "taylor", prod_file, "--x=1,2",
                             "--dirs=1,0;0,1", "--caps", "100,100", "--json")
    assert (code, err) == (0, "")
    entries = _strict_json(out)["entries"]
    assert len(entries) == 101 ** 2
    nonzero = {tuple(e["alpha"]): e["value"] for e in entries
               if e["value"] != [0.0]}
    assert nonzero == {(0, 0): [2.0], (1, 0): [2.0], (0, 1): [1.0],
                       (1, 1): [1.0]}


def test_taylor_envelope_past_170_factorial(capsys, tmp_path):
    path = tmp_path / "ident.slp"
    path.write_text("input a\noutput a\n")
    code, out, _ = run_cli(capsys, "taylor", str(path), "--x=0", "--dirs=1",
                           "--caps", "171", "--envelope", ",".join(["1"] * 172))
    assert code == 0
    rows = _strict_json(out)["envelope"]["rows"]
    assert rows[171]["bound"] == pytest.approx(1 / math.factorial(171))
    assert rows[1] == {"alpha": [1], "bound": 1.0, "coeff_norm": 1.0,
                       "violated": False}


@pytest.mark.parametrize("program, options, word", [
    ("input x\ny = exp x\noutput y\n",
     ["--x=0", "--dirs=100", "--caps", "171"], "(155,)"),
    ("input x\ny = mul x x\noutput y\n",
     ["--x=0", "--dirs=1.3e154", "--caps", "2"], "(2,)"),
], ids=["exp-past-170-factorial", "square-times-2"])
def test_taylor_overflowing_derivative_is_numeric_error(capsys, tmp_path,
                                                        program, options,
                                                        word):
    # every raw coefficient is finite; alpha! times one of them is not
    path = tmp_path / "f.slp"
    path.write_text(program)
    code, out, err = run_cli(capsys, "taylor", str(path), *options, "--json")
    assert (code, out) == (3, "")
    assert f"derivative {word} of output 0 overflows" in err


@pytest.mark.parametrize("argv, word", [
    (["eval", "{ident}", "--x", "nan", "--json"], "non-finite"),
    (["eval", "{ident}", "--x", "inf", "--json"], "non-finite"),
    (["eval", "{ident}", "--x=-inf", "--json"], "non-finite"),
    (["eval", "{prod}", "--x", "nan,1", "--json"], "non-finite"),
    (["grad", "{prod}", "--x", "1,2", "--omega", "nan", "--json"],
     "non-finite"),
    (["taylor", "{ident}", "--x", "0", "--dirs", "inf", "--caps", "1"],
     "non-finite"),
    (["taylor", "{ident}", "--x", "0", "--dirs", "1", "--caps", "2",
      "--envelope", "nan,1,1"], "non-finite"),
    (["taylor", "{ident}", "--x", "0", "--dirs", "1", "--caps", "2",
      "--tail", "1,nan"], "non-finite"),
    (["check", "stability", "--count", "3", "--delta-const", "nan"],
     "--delta-const"),
    (["check", "stability", "--count", "3", "--delta-const", "-1"],
     "--delta-const"),
], ids=["eval-nan", "eval-inf", "eval-minus-inf", "eval-mul-nan",
        "grad-omega-nan", "taylor-dirs-inf", "taylor-envelope-nan",
        "taylor-tail-nan", "check-delta-nan", "check-delta-negative"])
def test_non_finite_options_are_usage_errors(capsys, tmp_path, argv, word):
    (tmp_path / "ident.slp").write_text("input a\noutput a\n")
    (tmp_path / "prod.slp").write_text("input a b\nt = mul a b\noutput t\n")
    argv = [a.format(ident=tmp_path / "ident.slp", prod=tmp_path / "prod.slp")
            for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert word in err


@pytest.mark.parametrize("command, options", [
    ("eval", [("--x", "-0.5,0.3")]),
    ("grad", [("--x", "-0.5,0.3"), ("--omega", "-1.5,2")]),
    ("taylor", [("--x", "-0.5,0.3"), ("--dirs", "-1,0;0,-1"),
                ("--caps", "1,1"), ("--envelope", "-1,2,3"),
                ("--tail", "-2e0,0.5")]),
])
def test_negative_vector_values(capsys, tmp_path, command, options):
    path = tmp_path / "two.slp"
    path.write_text("input a b\nu = mul a b\noutput u a\n")
    spaced = [command, str(path)] + [t for pair in options for t in pair]
    joined = [command, str(path)] + [f"{k}={v}" for k, v in options]
    result = run_cli(capsys, *spaced)
    assert result == run_cli(capsys, *joined)
    assert "expected one argument" not in result[2]


def test_parser_built_once_and_usage_errors_repeat(tmp_path):
    # main reuses one parser; argparse still writes each usage error to the
    # stderr of the moment and exits 2
    import contextlib
    import io

    from jetweil.cli import build_parser
    assert build_parser() is build_parser()
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["eval"]) == 2
        assert "the following arguments are required" in err.getvalue()
    path = tmp_path / "sq.slp"
    path.write_text("input x\ny = mul x x\noutput y\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", str(path), "--x", "3"]) == 0
        assert main(["eval", str(path), "--x", "4"]) == 0
    assert out.getvalue().split() == ["9.0", "16.0"]
