import json
import math
import subprocess
import sys
import warnings

import pytest

from counting import counting
from jetweil.checks import SUITES, run_suite
from jetweil.cli import main
from jetweil.jets import (SeedSpec, coefficient_envelope, tail_bound,
                          taylor_eval)
from jetweil.slp import parse_program


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


def test_eval_directory_path_exits_2(capsys, tmp_path):
    # IsADirectoryError: one error line, no traceback
    code, out, err = run_cli(capsys, "eval", str(tmp_path), "--x", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_program_exits_2(capsys, tmp_path, monkeypatch):
    # root reads a file whatever its mode, so open raises here instead
    from jetweil import cli

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    path = tmp_path / "p.slp"
    path.write_text("input x\ny = sin x\noutput y\n")
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run_cli(capsys, "eval", str(path), "--x", "1")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 13] Permission denied: '{path}'\n"


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


def test_grad_check_near_overflow(capsys, tmp_path):
    # the gradient is finite, and so is every finite-difference point
    path = tmp_path / "big.slp"
    path.write_text("input a b c\np = mul a c\nq = mul b c\nz = add p q\n"
                    "output z\n")
    code, out, _ = run_cli(capsys, "grad", str(path), "--x", "1,-1,1.5e308",
                           "--check", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gradient"] == [1.5e308, 1.5e308, 0.0]
    assert payload["check"]["fd_max_abs_diff"] <= 1e-9 * 1.5e308


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_grad_check_rescales_an_overflowing_probe(capsys, tmp_path, seed):
    # at seeds 2 and 4 the probe v makes J v overflow; it is scaled by a
    # power of two that keeps every tangent finite, and the pairing holds
    path = tmp_path / "big.slp"
    path.write_text("input a b c\np = mul a c\nq = mul b c\nz = add p q\n"
                    "output z\n")
    code, out, _ = run_cli(capsys, "grad", str(path), "--x", "1,-1,1.5e308",
                           "--check", "--seed", str(seed), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gradient"] == [1.5e308, 1.5e308, 0.0]
    assert payload["check"]["pairing_residual"] <= 1e-10


def test_grad_check_records_one_tape(capsys, prod_file):
    with counting() as snapshot:
        code, _, _ = run_cli(capsys, "grad", prod_file, "--x", "3,5",
                             "--check", "--json")
        assert snapshot()["tape_allocations"] == 1
    assert code == 0


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


@pytest.mark.parametrize("tail", ["1", "1,2,3"])
def test_taylor_tail_takes_two_values(capsys, tmp_path, tail):
    # a usage error, reported before the pass (which would fail at log 0)
    path = tmp_path / "log.slp"
    path.write_text("input x\ny = log x\noutput y\n")
    code, out, err = run_cli(capsys, "taylor", str(path), "--x", "0",
                             "--dirs", "1", "--caps", "3", "--tail", tail)
    assert (code, out, err) == (2, "", "error: --tail takes M,rho\n")


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


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_check_suite(capsys, suite):
    code, out, err = run_cli(capsys, "check", suite, "--count", "10",
                             "--json")
    assert code == 0
    # the summary line goes to stderr, so stdout is one JSON document
    assert err.startswith(f"{suite}: count=10 ") and err.endswith(" PASS\n")
    payload = json.loads(out)
    assert [row["suite"] for row in payload["results"]] == [suite]
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


@pytest.mark.parametrize("options, word", [
    (["--dirs", "1", "--caps", "3", "--envelope", "1"],
     "need bounds for degrees 0..3, got 1"),
    (["--dirs", "2", "--caps", "2", "--envelope", "1,1,1"],
     "envelope check requires direction norms <= 1"),
    (["--dirs", "1", "--caps", "3", "--tail", "1,-1"],
     "radius must be positive"),
    (["--dirs", "1", "--caps", "3", "--tail", "-1,1"],
     "derivative bound must be non-negative"),
], ids=["too-few-bounds", "direction-norm", "tail-radius", "tail-bound"])
def test_taylor_envelope_arguments_checked_before_the_pass(capsys, tmp_path,
                                                            options, word):
    # the lifted pass would fail at x = 0 (exit 3): usage comes first
    path = tmp_path / "log.slp"
    path.write_text("input x\ny = log x\noutput y\n")
    code, out, err = run_cli(capsys, "taylor", str(path), "--x", "0",
                             *options, "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {word}\n"


def test_taylor_envelope_norm_overflow_is_a_usage_error(capsys, tmp_path):
    # a direction entry of 1e200 squares past float64: the norm check
    # still refuses it with its one error line, warning nothing
    path = tmp_path / "sin.slp"
    path.write_text("input x\ny = sin x\noutput y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "taylor", str(path), "--x=0",
                                 "--dirs=1e200", "--caps=2",
                                 "--envelope=1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: envelope check requires direction norms <= 1\n"


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
    (["check", "envelope", "--count", "-5", "--json"], "--count"),
    (["check", "all", "--count", "0"], "--count"),
    (["bench", "--repetitions", "0"], "--repetitions"),
    (["bench", "--family", "linear", "--repetitions", "-1"], "--repetitions"),
    (["bench", "--family", "linear", "--batch", "0", "--repetitions", "1"],
     "error: --batch must be >= 1"),
    (["bench", "--family", "mul", "--batch", "-4", "--repetitions", "1"],
     "error: --batch must be >= 1"),
    (["bench", "--family", "linear", "--q", "0", "--repetitions", "1"],
     "error: --q must be >= 1"),
], ids=["eval-nan", "eval-inf", "eval-minus-inf", "eval-mul-nan",
        "grad-omega-nan", "taylor-dirs-inf", "taylor-envelope-nan",
        "taylor-tail-nan", "check-delta-nan", "check-delta-negative",
        "check-count-negative", "check-count-zero", "bench-repetitions-zero",
        "bench-repetitions-negative", "bench-batch-zero",
        "bench-mul-batch-negative", "bench-q-zero"])
def test_non_finite_options_are_usage_errors(capsys, tmp_path, argv, word):
    (tmp_path / "ident.slp").write_text("input a\noutput a\n")
    (tmp_path / "prod.slp").write_text("input a b\nt = mul a b\noutput t\n")
    argv = [a.format(ident=tmp_path / "ident.slp", prod=tmp_path / "prod.slp")
            for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert word in err


@pytest.mark.parametrize("command, body, literal", [
    ("eval", "c = const 1e400\ny = add x c", "1e400"),
    ("taylor", "c = const 1e400\ny = add x c", "1e400"),
    ("taylor", "y = pow x 1e400", "1e400"),
    ("grad", "y = pow x -1e999", "-1e999"),
])
def test_overflowing_literal_is_parse_error(capsys, tmp_path, command, body,
                                            literal):
    path = tmp_path / "big.slp"
    path.write_text(f"input x\n{body}\noutput y\n")
    options = ["--dirs", "1", "--caps", "2"] if command == "taylor" else []
    code, out, err = run_cli(capsys, command, str(path), "--x", "1", *options,
                             "--json")
    assert (code, out) == (2, "")
    assert err == (f"parse error: line 2: literal {literal!r} is not a "
                   "finite float64\n")


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


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("caps", [(1,), (2,), (15,), (4, 4), (3, 3, 3),
                                  (1,) * 6])
@pytest.mark.parametrize("outputs", ["f", "f c"])
@pytest.mark.parametrize("extras", [False, True])
def test_taylor_json_bytes_match_json_dumps(capsys, tmp_path, caps, outputs,
                                            extras):
    # the writer of cli._emit against json.dumps on the same payload
    text = ("input a b\nc = mul a b\nd = sin c\ne = exp a\nf = add d e\n"
            f"output {outputs}\n")
    path = tmp_path / "prog.slp"
    path.write_text(text)
    dirs = [(0.3, 0.4), (-0.25, 0.5), (0.5, 0.125), (0.0, -0.75),
            (0.6, -0.2), (0.1, 0.1)][:len(caps)]
    bounds = [100.0] * (sum(caps) + 1)
    argv = ["taylor", str(path), "--x=0.3,-0.7",
            "--dirs=" + ";".join(f"{u!r},{v!r}" for u, v in dirs),
            "--caps=" + ",".join(map(str, caps)), "--json"]
    table = taylor_eval(parse_program(text),
                        SeedSpec((0.3, -0.7), tuple(dirs), caps))
    payload = table.to_json_dict()
    if extras:
        argv += ["--envelope=" + ",".join(map(repr, bounds)),
                 "--tail=2.5,0.5"]
        payload["envelope"] = coefficient_envelope(table, bounds).to_json_dict()
        payload["tail_bound"] = {"m_next": 2.5, "rho": 0.5, "k": sum(caps),
                                 "value": tail_bound(2.5, sum(caps), 0.5)}
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _dumps(payload)


def _taylor_reference(text, base, dirs, caps, extras):
    """The exit code and json.dumps stdout of a taylor request, from the
    library calls, with --envelope and --tail when extras is set."""
    table = taylor_eval(parse_program(text), SeedSpec(base, dirs, caps))
    payload = table.to_json_dict()
    code = 0
    if extras:
        bounds = [100.0] * (sum(caps) + 1)
        envelope = coefficient_envelope(table, bounds)
        payload["envelope"] = envelope.to_json_dict()
        payload["tail_bound"] = {"m_next": 2.5, "rho": 0.5, "k": sum(caps),
                                 "value": tail_bound(2.5, sum(caps), 0.5)}
        code = 0 if envelope.passed else 1
    return code, _dumps(payload)


def _taylor_argv(path, base, dirs, caps, extras):
    # an empty direction is written "," so that --dirs keeps it
    argv = ["taylor", str(path), "--x=" + ",".join(map(repr, base)),
            "--dirs=" + ";".join(",".join(map(repr, d)) or "," for d in dirs),
            "--caps=" + ",".join(map(str, caps)), "--json"]
    if extras:
        argv += ["--envelope=" + ",".join(["100.0"] * (sum(caps) + 1)),
                 "--tail=2.5,0.5"]
    return argv


@pytest.mark.parametrize("caps", [(3,), (2, 1), (1,) * 6])
@pytest.mark.parametrize("extras", [False, True])
def test_taylor_writer_bytes_at_float_edges(capsys, tmp_path, caps, extras):
    # -0.0, the smallest subnormal, the smallest normal and 1e300 in base,
    # directions and entries (output d is an input, so its entries are its
    # seed), at n = 4 inputs and two outputs; (1,)^6 runs on numpy.  An
    # envelope needs direction norms <= 1, so 1e300 is only in the base there
    text = "input a b c d\ne = mul a b\nf = sub e c\noutput f d\n"
    path = tmp_path / "edges.slp"
    path.write_text(text)
    base = (0.5, -0.0, 5e-324, 1e300)
    edges = (-0.0, 5e-324, 2.2250738585072014e-308,
             0.125 if extras else 1e300)
    dirs = tuple((0.25 * (-1) ** j, edges[j % 4], edges[(j + 1) % 4],
                  edges[(j + 2) % 4]) for j in range(len(caps)))
    code, out, err = run_cli(capsys, *_taylor_argv(path, base, dirs, caps,
                                                   extras))
    assert err == ""
    assert (code, out) == _taylor_reference(text, base, dirs, caps, extras)
    for value in ("-0.0", "5e-324", "2.2250738585072014e-308", "1e+300"):
        assert f" {value}" in out


@pytest.mark.parametrize("extras", [False, True])
def test_taylor_writer_bytes_with_no_inputs(capsys, tmp_path, extras):
    # no inputs: "base" is [] and the one direction is []
    text = "input\ny = const 1.5\noutput y\n"
    path = tmp_path / "zero.slp"
    path.write_text(text)
    code, out, err = run_cli(capsys, *_taylor_argv(path, (), ((),), (1,),
                                                   extras))
    assert (code, err) == (0, "")
    assert (code, out) == _taylor_reference(text, (), ((),), (1,), extras)
    assert '"base": [],' in out and '"directions": [\n    []\n  ],' in out


def test_taylor_derivative_overflow_reported_before_envelope_norm(
        capsys, tmp_path):
    # row (0,) has a norm past float64 and row (2,) a derivative past it:
    # the derivative is reported, as the table is read before the envelope
    path = tmp_path / "both.slp"
    path.write_text("input a b c\nk = const 1e308\nq = mul c c\n"
                    "s = mul k q\noutput a b s\n")
    assert run_cli(capsys, "taylor", str(path), "--x=1.5e308,1.5e308,0",
                   "--dirs=0,0,1", "--caps=2", "--envelope=1,1,1") == (
        3, "", "numeric error: derivative (2,) of output 2 overflows "
               "float64\n")


def test_check_json_bytes_match_json_dumps(capsys):
    code, out, err = run_cli(capsys, "check", "all", "--count", "2",
                             "--seed", "3", "--json")
    assert code == 0
    results = [run_suite(name, count=2, seed=3).to_json_dict()
               for name in sorted(SUITES)]
    assert out == _dumps({"results": results})
    assert [line.split(":")[0] for line in err.splitlines()] == sorted(SUITES)


def test_check_exits_1_when_a_suite_fails(capsys, monkeypatch):
    # a tolerance below every residual makes each duality instance a
    # violation: that suite fails, the others pass, and the run exits 1
    default, _, instance = SUITES["duality"]
    monkeypatch.setitem(SUITES, "duality", (default, -1.0, instance))
    code, out, _ = run_cli(capsys, "check", "all", "--count", "2", "--json")
    assert code == 1
    verdicts = {r["suite"]: (r["violations"], r["passed"])
                for r in json.loads(out)["results"]}
    assert verdicts.pop("duality") == (2, False)
    assert all(passed for _, passed in verdicts.values())


def test_envelope_fold_skips_a_nan_row(monkeypatch):
    # the worst residual is a left fold from 0.0 over every row: a NaN
    # row is skipped, and a row after it still counts
    from jetweil import checks
    from jetweil.jets import EnvelopeReport, EnvelopeRow
    rows = (EnvelopeRow((1,), math.nan, 1.0, False),
            EnvelopeRow((2,), 2.0, 1.0, True))
    monkeypatch.setattr(checks, "coefficient_envelope",
                        lambda table, bounds: EnvelopeReport(rows, False))
    result = run_suite("envelope", count=1, seed=0)
    assert (result.max_residual, result.violations) == (2.0, 1)


def test_closed_stdout_exits_2_quietly(tmp_path):
    # `jetweil taylor ... | head -n 1` on a table larger than a pipe holds
    path = tmp_path / "big.slp"
    path.write_text("input a b\nc = mul a b\nd = sin c\noutput d c\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetweil.cli", "taylor", str(path),
         "--x=0.3,0.4", "--dirs=" + ";".join(["1,0", "0,1"] * 5),
         "--caps=" + ",".join(["1"] * 10), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


def _top_level(argv):
    """(exit code, stdout, stderr) of the top-level parser's parse_args on
    argv, as main rewrites it, where the parse exits."""
    import contextlib
    import io

    from jetweil.cli import _attach_negative_vectors, build_parser
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(_attach_negative_vectors(argv))
        except SystemExit as exc:
            return 2 if exc.code else 0, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["--help"], ["-x"], ["eval", "-h"], ["grad", "-h"],
    ["taylor", "-h"], ["check", "-h"], ["bench", "--help"], ["eval"],
    ["grad", "p.slp"], ["taylor", "p.slp", "--x", "1", "--dirs", "1"],
    ["check"], ["bench", "--family", "nope"], ["check", "nonsense"],
    ["eval", "--x", "-0.5,0.3"], ["eval", "p.slp", "--x", "1", "--bogus"],
    ["taylor", "--bogus", "p.slp"], ["check", "all", "extra"],
    ["eval", "p.slp", "--x"], ["bench", "--q", "x"],
], ids=repr)
def test_command_route_reports_as_the_top_level_parser(capsys, argv):
    # main parses a command's argv with that command's parser: help, usage
    # errors and exit codes must be those of the top-level parser
    assert run_cli(capsys, *argv) == _top_level(argv)


def test_command_route_gives_the_top_level_namespace(tmp_path):
    import argparse
    from unittest import mock

    from jetweil.cli import _attach_negative_vectors, _parse_args, build_parser
    path = str(tmp_path / "p.slp")
    for argv in (["eval", path, "--x", "-0.5,0.3", "--json"],
                 ["grad", path, "--x=1,2", "--omega=-1", "--check",
                  "--seed", "3"],
                 ["taylor", path, "--x=-0.5", "--dirs=-1", "--caps", "3",
                  "--envelope=1,1,1,1", "--tail=2,0.5", "--max-dim", "9"],
                 ["check", "all", "--count", "3", "--delta-const", "2"],
                 ["bench", "--family", "mul", "--dims", "2,4", "--q", "7"]):
        argv = _attach_negative_vectors(argv)
        parse = argparse.ArgumentParser.parse_known_args
        with mock.patch.object(argparse.ArgumentParser, "parse_known_args",
                               autospec=True, side_effect=parse) as spy:
            args = _parse_args(argv)
        assert spy.call_count == 1  # one argparse pass
        assert args == build_parser().parse_args(argv)
        assert args.command == argv[0]


# sha256 of the stdout of fixed check and taylor requests: a change that
# moves any byte of them changes jetweil's output
_PINNED_DIGESTS = {
    "duality":
        "e95da4490b3969555609e6f695190a53f7ca9623a30e3fe014aaa77ff93e6e95",
    "functoriality":
        "687d6adf0d7bf0232ea2979346cd578823219c9a8d162ad120dca040a11e0048",
    "stability":
        "37734e9f16c819a9c636831a9231ef608d3468b3676aecf57fdd629f5282dd25",
    "exactness":
        "7920a81c7074112fac94bc8d814f90da36b632c23338c4464e12957ea85ff2db",
    "envelope":
        "17db9c699bcda9a8393fa41b38ac6ab43f0aca690112407a1bfb29b5fa162b9c",
    "truncation":
        "6410f1ad758065332473e7db914faa17d56d57b1ce6152813feed76d44c756c6",
    "taylor 3,2":
        "8a1d7bf3f4c0468d4d0d35ac3a59e25f1712db7e2d2acd7fd56c73cd8488312b",
    "taylor 1,1,1,1,1,1":
        "95121f8c8e49a5116ab9438510172b54a3e21826e94ecdaa1ec90c9155962d56",
}


@pytest.mark.parametrize("request_name", sorted(_PINNED_DIGESTS))
def test_pinned_stdout_bytes(capsys, tmp_path, request_name):
    import hashlib
    if request_name.startswith("taylor"):
        # caps (3,2) runs on float kernels, (1,)^6 on numpy
        caps = request_name.split()[1]
        path = tmp_path / "p.slp"
        path.write_text("input a b\nc = mul a b\nd = sin c\ne = exp a\n"
                        "f = add d e\noutput f c\n")
        dirs = ["0.6,-0.8", "0,-1", "0.5,0.125", "-0.25,0.5", "0.1,0.1",
                "0.3,0.4"][:len(caps.split(","))]
        k = sum(map(int, caps.split(",")))
        argv = ["taylor", str(path), "--x=0.3,-0.7",
                "--dirs=" + ";".join(dirs), "--caps=" + caps,
                "--envelope=" + ",".join(["3.5"] * (k + 1)),
                "--tail=2.5,0.5", "--json"]
    else:
        argv = ["check", request_name, "--count", "20", "--seed", "5",
                "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _PINNED_DIGESTS[request_name]
