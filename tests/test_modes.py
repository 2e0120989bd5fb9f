import json
import math
import random
import warnings

import numpy as np
import pytest

from counting import counting, rule_calls
from jetweil.cli import main
from jetweil.errors import (DimensionMismatchError, DomainError,
                            NumericOverflowError)
from jetweil.jets import SeedSpec, WeilSemantics, seed, taylor_eval
from jetweil.modes import (Tape, compose_programs, compose_vjp_check,
                           eval_dual, jvp, pairing_residual, record_tape,
                           reverse_sweep, tangent_sweep, vjp)
from jetweil.slp import (PRIMITIVES, PrimitiveKind, Program, eval_generic,
                         eval_primal, parse_program, random_program)
from jetweil.stability import stability_bound
from jetweil.weil import WeilValue, make_shape

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
    with counting() as snapshot:
        tape = record_tape(PROD, [3.0, 5.0])
        assert snapshot()["tape_allocations"] == 1
    assert isinstance(tape, Tape)
    assert len(tape.primals) == PROD.n_slots
    assert tape.partials == [(5.0, 3.0)]
    assert not hasattr(tape, "adjoints")


def test_tape_sweeps_any_number_of_covectors():
    tape = record_tape(PROD, [3.0, 5.0])
    primals = list(tape.primals)
    assert reverse_sweep(tape, [1.0]) == [5.0, 3.0]
    assert reverse_sweep(tape, [1.0]) == [5.0, 3.0]
    assert reverse_sweep(tape, [2.0]) == [10.0, 6.0]
    assert tape.primals == primals


def _bits(values):
    return [v.hex() for v in values]


def _looped_sweeps(prog, x, v, omega):
    """The sweeps as one loop over each node's (partial, operand) pairs,
    with the partials of fresh linear rule calls."""
    vals, dots = [float(a) for a in x], [float(a) for a in v]
    parts = []
    for node in prog.nodes:
        value, p = PRIMITIVES[node.op].linear(
            [vals[r] for r in node.operands], node.const)
        dot = 0.0
        for pk, r in zip(p, node.operands):
            dot += pk * dots[r]
        vals.append(value)
        dots.append(dot)
        parts.append(p)
    adj = [0.0] * prog.n_slots
    for w, r in zip(omega, prog.outputs):
        adj[r] += w
    for k in range(prog.n_nodes - 1, -1, -1):
        for pk, r in zip(parts[k], prog.nodes[k].operands):
            adj[r] += pk * adj[prog.n_inputs + k]
    return [dots[r] for r in prog.outputs], adj[:prog.n_inputs]


def test_one_tape_swept_both_ways():
    rng = random.Random(14)
    for seed in range(60):
        prog = random_program(seed=seed, depth=rng.randint(1, 80),
                              n_inputs=rng.randint(1, 4))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        w = [rng.uniform(-1, 1)]
        tape = record_tape(prog, x)
        forward, backward = tangent_sweep(tape, v), reverse_sweep(tape, w)
        assert _bits(forward) == _bits(jvp(prog, x, v))
        assert _bits(backward) == _bits(vjp(prog, x, w))
        assert (_bits(forward), _bits(backward)) == tuple(
            map(_bits, _looped_sweeps(prog, x, v, w)))
    # the fold starts from 0.0, so products that are all -0.0 sum to +0.0
    neg = parse_program("input a\nu = neg a\noutput u")
    for prog, x, v in ((PROD, [1.0, 1.0], [-0.0, -0.0]),
                       (neg, [1.0], [0.0])):
        assert _bits(jvp(prog, x, v)) == _bits([0.0])
        assert _bits(jvp(prog, x, v)) == _bits(
            _looped_sweeps(prog, x, v, [1.0])[0])


def test_sweeps_make_no_rule_call():
    prog = random_program(seed=4, depth=40, n_inputs=3)
    x, v, w = [0.1, -0.2, 0.3], [1.0, 0.5, -0.5], [1.0]
    # one linear rule call per live node, and one kappa call per live row
    n = len(prog.steps)
    with rule_calls() as calls:
        tape = record_tape(prog, x)
        assert calls() == {"value": 0, "linear": n, "kappa": 0}
        tangent_sweep(tape, v)
        reverse_sweep(tape, w)
        reverse_sweep(tape, [2.0])
        assert calls() == {"value": 0, "linear": n, "kappa": 0}
        stability_bound(prog, x, w)
        assert calls() == {"value": 0, "linear": 2 * n, "kappa": n}
    with counting() as snapshot:
        pairing_residual(prog, x, v, w)
        assert snapshot()["tape_allocations"] == 1


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


def test_compose_vjp_check_norms_past_float_square_root():
    # The pullbacks of f = (1e200 x, 1e200 y) square past float64: a norm
    # through a dot product overflows with a RuntimeWarning and reads inf,
    # which would turn any gap into 0.0; hypot stays finite.
    f = parse_program("input x y\nc = const 1e200\nu = mul c x\n"
                      "w = mul c y\noutput u w")
    g = parse_program("input u w\nz = add u w\noutput z")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compose_vjp_check(f, g, [1.0, 1.0], [1.0]) == 0.0


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


@pytest.mark.parametrize("rhs, x, error", [
    ("log u", -1.0, DomainError),
    ("sqrt u", -4.0, DomainError),
    ("recip u", 0.0, DomainError),
    ("exp u", 1000.0, NumericOverflowError),
], ids=["log-neg", "sqrt-neg", "recip-0", "exp-overflow"])
def test_dead_node_fails_in_no_mode(rhs, x, error, tmp_path, capsys):
    # y, node 2, fails at x; while no output reads it no mode evaluates it,
    # and every mode returns.  Once y is an output, every mode fails there
    body = f"input x\nc = const 0\nu = add x c\ny = {rhs}\nz = sin x\n"
    shape = make_shape((1, 1, 1))
    batch = [WeilValue(shape, np.stack([w.coeffs] * 2, axis=1))
             for w in seed(SeedSpec((x,), ((1.0,), (0.5,), (-1.0,)),
                                    shape.caps))]
    path = tmp_path / "dead.slp"
    for outputs, expected in (("z", None), ("z y", (error, 2))):
        text = body + f"output {outputs}\n"
        prog = parse_program(text)
        omega = [1.0] * prog.n_outputs
        calls = [
            lambda: eval_primal(prog, [x]), lambda: jvp(prog, [x], [1.0]),
            lambda: vjp(prog, [x], omega),
            lambda: stability_bound(prog, [x], omega),
            lambda: taylor_eval(prog, SeedSpec((x,), ((1.0,),), (2,))),
            lambda: taylor_eval(prog, SeedSpec((x,), ((1.0,),) * 6,
                                               (1,) * 6))]
        if expected is None or error is DomainError:
            # a batched pass leaves overflow to its caller (README)
            calls.append(lambda: eval_generic(prog, batch,
                                              WeilSemantics(shape, (2,))))
        assert [_outcome(call) for call in calls] == [expected] * len(calls)
        path.write_text(text)
        omega_arg = ",".join(["1"] * prog.n_outputs)
        for argv in (["eval"], ["grad", "--omega", omega_arg],
                     ["grad", "--omega", omega_arg, "--check"],
                     ["taylor", "--dirs", "1", "--caps", "3"]):
            code = main([argv[0], str(path), "--x", repr(x), "--json",
                         *argv[1:]])
            out = capsys.readouterr().out
            assert (code, out == "") == ((0, False) if expected is None
                                         else (3, True)), argv


@pytest.mark.parametrize("first, x, error, message", [
    ("sqrt x", 0.0, DomainError, "sqrt derivative needs a positive argument"),
    ("recip x", 1e-170, NumericOverflowError, "overflow at node 0 (recip)"),
], ids=["sqrt-0", "recip-derivative-overflow"])
def test_modes_name_the_first_failing_node(first, x, error, message,
                                           tmp_path, capsys):
    # node 1, sqrt y at y = 0, has no derivative either: every mode names
    # node 0, the first failure in forward order
    text = f"input x y\na = {first}\nb = sqrt y\nc = add a b\noutput c\n"
    prog = parse_program(text)
    calls = [lambda: jvp(prog, [x, 0.0], [1.0, 1.0]),
             lambda: vjp(prog, [x, 0.0], [1.0]),
             lambda: stability_bound(prog, [x, 0.0], [1.0])]
    assert [_outcome(call) for call in calls] == [(error, 0)] * len(calls)
    path = tmp_path / "two.slp"
    path.write_text(text)
    code = main(["grad", str(path), "--x", f"{x!r},0", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"numeric error: {message}\n"


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


def _sqrt_of_zero(prog, x, outcome):
    """Whether outcome is a DomainError at a sqrt node whose operand's
    primal at x is 0."""
    if outcome is None or outcome[0] is not DomainError:
        return False
    node = prog.nodes[outcome[1]]
    if node.op is not PrimitiveKind.SQRT:
        return False
    head = Program(prog.n_inputs, prog.nodes[:outcome[1]], node.operands)
    return eval_primal(head, x) == [0.0]


def test_one_domain_rule_across_modes(tmp_path, capsys):
    # a differential fuzz over unsafe random programs: the derivative modes
    # (the tape's jvp, vjp and stability_bound, and the lifted pass on the
    # float kernels at caps (2,) and on numpy at (1,)*6) fail with one class
    # at one node, or all return; eval_primal, a value mode, agrees with
    # them except where they fail at a sqrt of primal 0, whose value exists.
    # Programs on which any mode raises NumericOverflowError are left out:
    # the lifted pass checks only its outputs for overflow, where eval and
    # the tape name the node that overflows (see the FOUND in CHANGES.md on
    # the lifted pass's overflow checks)
    checked = at_sqrt_of_zero = 0
    disagree = []
    for s in range(1000):
        rng = random.Random(s)
        prog = random_program(s, depth=rng.randint(3, 30), n_inputs=2,
                              safe=False)
        x = [rng.uniform(-3, 3) for _ in range(2)]
        v = [rng.uniform(-1, 1) for _ in range(2)]
        dirs = [tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(6)]
        modes = [_outcome(lambda: jvp(prog, x, v)),
                 _outcome(lambda: vjp(prog, x, [1.0])),
                 _outcome(lambda: stability_bound(prog, x, [1.0])),
                 _outcome(lambda: taylor_eval(
                     prog, SeedSpec(x, dirs[:1], (2,)))),
                 _outcome(lambda: taylor_eval(
                     prog, SeedSpec(x, dirs, (1,) * 6)))]
        value = _outcome(lambda: eval_primal(prog, x))
        if any(out is not None and out[0] is NumericOverflowError
               for out in modes + [value]):
            continue
        checked += 1
        if len(set(modes)) > 1:
            disagree.append((s, modes))
        elif value != modes[0]:
            if not _sqrt_of_zero(prog, x, modes[0]):
                disagree.append((s, modes + [value]))
            at_sqrt_of_zero += 1
    assert disagree == []
    # the overflow exclusion leaves nearly every program, and the sqrt
    # exception is met
    assert checked > 990 and at_sqrt_of_zero > 5

    # a batched pass at (1, 1, 1) over four points fails at the least node
    # at which its columns' batch-1 passes fail with a DomainError
    shape = make_shape((1, 1, 1))
    batched_failures = 0
    for s in range(300):
        rng = random.Random(s)
        prog = random_program(s, depth=rng.randint(3, 30), n_inputs=2,
                              safe=False)
        specs = [SeedSpec([rng.uniform(-3, 3) for _ in range(2)],
                          [[rng.uniform(-1, 1) for _ in range(2)]
                           for _ in range(3)], shape.caps) for _ in range(4)]
        nodes = [out[1] for out in (_outcome(lambda: taylor_eval(prog, spec))
                                    for spec in specs)
                 if out is not None and out[0] is DomainError]
        inputs = [WeilValue(shape, np.stack(cols, axis=1))
                  for cols in zip(*([w.coeffs for w in seed(spec)]
                                    for spec in specs))]
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(lambda: eval_generic(prog, inputs,
                                                WeilSemantics(shape, (4,))))
        assert got == ((DomainError, min(nodes)) if nodes else None), s
        batched_failures += bool(nodes)
    assert batched_failures > 100

    # the CLI: eval gives sqrt(0) = 0, and both derivative modes exit 3
    path = tmp_path / "cancel.slp"
    path.write_text("input x\nc = sub x x\ny = sqrt c\noutput y\n")
    codes = []
    for argv in (["eval"], ["grad"], ["taylor", "--dirs", "1", "--caps", "3"]):
        codes.append(main([argv[0], str(path), "--x", "1.5", "--json",
                           *argv[1:]]))
        out = capsys.readouterr().out
        if argv[0] == "eval":
            assert json.loads(out) == {"outputs": [0.0]}
    assert codes == [0, 3, 3]
