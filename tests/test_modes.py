import math
import random

import numpy as np
import pytest

from jetweil import instrument
from jetweil.cli import main
from jetweil.errors import (DimensionMismatchError, DomainError,
                            NumericOverflowError)
from jetweil.jets import SeedSpec, taylor_eval
from jetweil.modes import (Tape, compose_programs, compose_vjp_check,
                           eval_dual, jvp, pairing_residual, record_tape,
                           vjp)
from jetweil.slp import Program, eval_primal, parse_program, random_program
from jetweil.stability import stability_bound

PROD = parse_program("input a b\nt = mul a b\noutput t")
IDENTITY = Program(n_inputs=2, nodes=(), outputs=(0, 1))


def test_jvp_product_example():
    assert jvp(PROD, [3.0, 5.0], [1.0, 0.0]) == [5.0]
    assert jvp(PROD, [3.0, 5.0], [0.0, 1.0]) == [3.0]


def test_jvp_identity():
    assert jvp(IDENTITY, [1.0, 2.0], [0.25, -4.0]) == [0.25, -4.0]


def test_jvp_sin_at_zero():
    prog = parse_program("input x\ny = sin x\noutput y")
    assert jvp(prog, [0.0], [1.0]) == [1.0]


def test_vjp_product_example():
    assert vjp(PROD, [3.0, 5.0], [1.0]) == [5.0, 3.0]


def test_vjp_identity():
    assert vjp(IDENTITY, [1.0, 2.0], [0.5, 0.25]) == [0.5, 0.25]


def test_vjp_square():
    prog = parse_program("input x\ny = mul x x\noutput y")
    assert vjp(prog, [3.0], [1.0]) == [6.0]


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        jvp(PROD, [1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        vjp(PROD, [1.0, 2.0], [1.0, 2.0])


def test_pairing_zero_tangent():
    assert pairing_residual(PROD, [3.0, 5.0], [0.0, 0.0], [1.0]) == 0.0


def test_pairing_linear_program():
    prog = parse_program("input a b c\ns = add a b\nt = sub s c\n"
                         "u = neg b\noutput t u")
    rng = random.Random(0)
    for _ in range(20):
        x = [rng.uniform(-1, 1) for _ in range(3)]
        v = [rng.uniform(-1, 1) for _ in range(3)]
        w = [rng.uniform(-1, 1) for _ in range(2)]
        assert pairing_residual(prog, x, v, w) <= 1e-13


def test_tape_shape_and_counter():
    instrument.reset()
    tape = record_tape(PROD, [3.0, 5.0])
    assert len(tape.primals) == PROD.n_slots
    assert instrument.snapshot()["tape_allocations"] == 1
    assert all(a == 0.0 for a in tape.adjoints)


def test_eval_dual_returns_outputs_too():
    y, dy = eval_dual(PROD, [3.0, 5.0], [1.0, 1.0])
    assert y == [15.0]
    assert dy == [8.0]


def test_compose_identity():
    prog = parse_program("input x\ny = sin x\noutput y")
    ident = Program(n_inputs=1, nodes=(), outputs=(0,))
    composed = compose_programs(prog, ident)
    assert vjp(composed, [0.3], [1.0]) == vjp(prog, [0.3], [1.0])
    assert compose_vjp_check(ident, ident, [0.4], [1.0]) == 0.0


def test_compose_square_then_sin():
    f = parse_program("input x\ny = mul x x\noutput y")
    g = parse_program("input y\nz = sin y\noutput z")
    gap = compose_vjp_check(f, g, [1.0], [1.0])
    assert gap <= 1e-13
    composed = compose_programs(f, g)
    grad = vjp(composed, [1.0], [1.0])[0]
    assert abs(grad - 2.0 * math.cos(1.0)) < 1e-14


def test_compose_arity_mismatch():
    g = parse_program("input a b\nt = mul a b\noutput t")
    f = parse_program("input x\ny = sin x\noutput y")
    with pytest.raises(DimensionMismatchError):
        compose_programs(f, g)


def test_gradient_against_central_differences():
    rng = random.Random(5)
    h = 1e-5
    for i in range(50):
        prog = random_program(seed=500 + i, depth=rng.randint(1, 20),
                              n_inputs=rng.randint(1, 4))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        grad = vjp(prog, x, [1.0])
        from jetweil.slp import eval_primal
        for j in range(prog.n_inputs):
            xp = list(x)
            xm = list(x)
            xp[j] += h
            xm[j] -= h
            fd = (eval_primal(prog, xp)[0] - eval_primal(prog, xm)[0]) / (2 * h)
            assert abs(fd - grad[j]) / max(1.0, abs(grad[j])) <= 1e-6


def test_duality_fuzz():
    rng = random.Random(21)
    worst = 0.0
    for i in range(300):
        prog = random_program(seed=7000 + i, depth=rng.randint(1, 50),
                              n_inputs=rng.randint(1, 8))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        w = [rng.uniform(-1, 1)]
        worst = max(worst, pairing_residual(prog, x, v, w))
    assert worst <= 1e-10


def test_functoriality_fuzz():
    rng = random.Random(22)
    worst = 0.0
    for i in range(150):
        f = random_program(seed=8000 + i, depth=rng.randint(1, 25),
                           n_inputs=rng.randint(1, 4))
        g = random_program(seed=9000 + i, depth=rng.randint(1, 25),
                           n_inputs=1)
        x = [rng.uniform(-1, 1) for _ in range(f.n_inputs)]
        worst = max(worst, compose_vjp_check(f, g, x, [1.0]))
    assert worst <= 1e-10


@pytest.mark.parametrize("body, x, error, node", [
    ("c = const 2\ny = exp x", 1000.0, NumericOverflowError, 1),
    ("c = const 2\ny = pow x 0.5", -4.0, DomainError, 1),
    ("c = const 2\ny = pow x -1", 0.0, DomainError, 1),
    ("t = exp x\ny = mul t t", 400.0, NumericOverflowError, 1),
    ("t = sqrt x\ny = neg t", 0.0, DomainError, 0),
], ids=["exp", "pow-half", "pow-minus-one", "square-of-exp",
        "sqrt-derivative"])
def test_first_order_errors_name_the_node(body, x, error, node):
    # every first-order mode fails with the class and node eval_primal gives
    prog = parse_program(f"input x\n{body}\noutput y")
    calls = [lambda: jvp(prog, [x], [1.0]), lambda: vjp(prog, [x], [1.0])]
    if node == 1:
        calls.append(lambda: eval_primal(prog, [x]))
    for call in calls:
        with pytest.raises(error) as exc:
            call()
        assert exc.value.node == node


def _outcome(call):
    """(error class, node) of a failing call; None when it returns."""
    try:
        call()
    except (DomainError, NumericOverflowError) as err:
        return type(err), err.node
    return None


@pytest.mark.parametrize("rhs, x, error, primal_error", [
    ("log u", 0.0, DomainError, DomainError),
    ("log u", -1.0, DomainError, DomainError),
    ("sqrt u", 0.0, DomainError, None),
    ("sqrt u", -1.0, DomainError, DomainError),
    ("recip u", 0.0, DomainError, DomainError),
    ("recip u", 1e-300, NumericOverflowError, None),
    ("pow u 0.5", 0.0, DomainError, DomainError),
    ("pow u 0.5", -1.0, DomainError, DomainError),
    ("pow u -1", 0.0, DomainError, DomainError),
    ("pow u -2", 0.0, DomainError, DomainError),
    ("pow u 1.5", 0.0, DomainError, DomainError),
    ("pow u 0", 0.0, None, None),
    ("exp u", 1000.0, NumericOverflowError, NumericOverflowError),
    ("pow u 3", 1e200, NumericOverflowError, NumericOverflowError),
], ids=["log-0", "log-neg", "sqrt-0", "sqrt-neg", "recip-0",
        "recip-derivative-overflow", "pow-half-0",
        "pow-half-neg", "pow-minus-one-0", "pow-minus-two-0",
        "pow-three-halves-0", "pow-zero-0", "exp-overflow",
        "pow-three-overflow"])
def test_domain_edges_agree_across_modes(rhs, x, error, primal_error,
                                         tmp_path, capsys):
    # the edge primitive is node 2 and the output; sqrt at 0 and recip at
    # 1e-300 have a value but no finite derivative
    text = f"input x\nc = const 0\nu = add x c\ny = {rhs}\noutput y\n"
    prog = parse_program(text)
    expected = None if error is None else (error, 2)
    calls = [lambda: jvp(prog, [x], [1.0]), lambda: vjp(prog, [x], [1.0]),
             lambda: stability_bound(prog, [x], [1.0])]
    calls += [lambda k=k: taylor_eval(prog, SeedSpec((x,), ((1.0,),), (k,)))
              for k in (1, 3)]
    assert [_outcome(call) for call in calls] == [expected] * len(calls)
    primal = None if primal_error is None else (primal_error, 2)
    assert _outcome(lambda: eval_primal(prog, [x])) == primal

    path = tmp_path / "edge.slp"
    path.write_text(text)
    for argv in (["grad", str(path), "--x", repr(x), "--json"],
                 ["taylor", str(path), "--x", repr(x), "--dirs", "1",
                  "--caps", "3", "--json"]):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (0 if error is None else 3)
        assert (out == "") == (error is not None)


def test_non_finite_adjoints_and_tangents_raise():
    # every value is finite, but d z / d b = a c = 1e400 is not
    prog = parse_program("input a b c\nt = mul a b\nz = mul t c\noutput z")
    x = [1e200, 1e-200, 1e200]
    assert eval_primal(prog, x) == [1e200]
    with pytest.raises(NumericOverflowError,
                       match="non-finite adjoint at input 1") as exc:
        vjp(prog, x, [1.0])
    assert exc.value.node is None
    with pytest.raises(NumericOverflowError,
                       match="non-finite tangent at node 1") as exc:
        jvp(prog, x, [0.0, 1.0, 0.0])
    assert exc.value.node == 1
    # an output that is an input slot is named as the input
    passthrough = parse_program("input a b\nt = mul a a\noutput t b")
    assert jvp(passthrough, [1.0, 2.0], [1.0, 0.0]) == [2.0, 0.0]
    with pytest.raises(NumericOverflowError,
                       match="non-finite tangent at node 0"):
        jvp(passthrough, [1e100, 1.0], [1e300, 0.0])
    with pytest.raises(NumericOverflowError,
                       match="non-finite tangent at input 1"):
        jvp(passthrough, [1.0, 1.0], [0.0, math.inf])
