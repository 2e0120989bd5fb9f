import dataclasses
import hashlib
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetweil.bench import _batched_seed, bench_program, run_weil_bench
from jetweil.errors import (DomainError, NumericOverflowError, ParseError)
from jetweil.jets import WeilSemantics
from jetweil.slp import (PRIMITIVES, Node, PrimitiveKind, Program,
                         eval_generic, eval_primal, parse_program,
                         pretty_print, random_program)
from jetweil.weil import make_shape

SQUARE = "input x\ny = mul x x\noutput y\n"
SIN_PROD = "input a b\nt = mul a b\ns = sin t\noutput s\n"


class RealSemantics:
    """Plain 64-bit evaluation with domain checks, for eval_generic."""

    def constant(self, c: float):
        return c

    def apply(self, node: Node, args):
        return PRIMITIVES[node.op].value(args, node.const)


def test_parse_minimal():
    prog = parse_program(SQUARE)
    assert prog.n_inputs == 1
    assert prog.n_nodes == 1
    assert prog.outputs == (1,)


def test_parse_two_node():
    prog = parse_program(SIN_PROD)
    assert prog.n_inputs == 2
    assert prog.n_nodes == 2
    assert prog.nodes[1].op is PrimitiveKind.SIN


def test_parse_comments_and_blank_lines():
    text = "# header\ninput x\n\n# mid\ny = sin x  # trailing\noutput y\n"
    prog = parse_program(text)
    assert prog.n_nodes == 1


@pytest.mark.parametrize("text,fragment", [
    ("output z", "must start with an 'input'"),
    ("input x\noutput z", "undefined name 'z'"),
    ("input x\ny = frob x\noutput y", "unknown primitive"),
    ("input x\ny = mul x\noutput y", "expects 2 operands"),
    ("input x\nx = sin x\noutput x", "duplicate name"),
    ("input x\ny = sin z\noutput y", "undefined name 'z'"),
    ("input x\ny = const nope\noutput y", "numeric literal"),
    ("", "empty program"),
    ("input x\ny = sin x", "must end with an 'output'"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text, message, line", [
    ("", "empty program", 1),
    ("# only\n\n", "empty program", 1),
    ("\n  # c\noutput z", "program must start with an 'input' line", 3),
    ("input x 1y\noutput x", "bad input name '1y'", 1),
    ("input x é\noutput x", "bad input name 'é'", 1),
    ("input x y x\noutput x", "duplicate name 'x'", 1),
    ("input x\ny = sin x\n\n", "program must end with an 'output' line", 2),
    ("input x\ninput y\noutput x", "'input' line out of place", 2),
    ("input x\noutput x\noutput x", "'output' line out of place", 2),
    ("input x\ny sin x\noutput y", "expected 'name = op args...'", 2),
    ("input x\ny =\noutput y", "expected 'name = op args...'", 2),
    ("input x\n2y = sin x\noutput x", "bad name '2y'", 2),
    ("input x\ny = sin x\ny = cos x\noutput y", "duplicate name 'y'", 3),
    ("input x\ny = frob x\noutput y", "unknown primitive 'frob'", 2),
    ("input x\ny = const\noutput y", "const takes one numeric literal", 2),
    ("input x\ny = const nan\noutput y", "const takes one numeric literal", 2),
    ("input x\ny = const 1e400\noutput y",
     "literal '1e400' is not a finite float64", 2),
    ("input x\ny = pow x\noutput y",
     "pow takes an operand and a numeric exponent", 2),
    ("input x\ny = pow x x\noutput y",
     "pow takes an operand and a numeric exponent", 2),
    ("input x\ny = pow x -1e400\noutput y",
     "literal '-1e400' is not a finite float64", 2),
    ("input x\ny = sin x x\noutput y", "sin expects 1 operands, got 2", 2),
    ("input x\ny = div x\noutput y", "div expects 2 operands, got 1", 2),
    ("input x\ny = add x z\noutput y", "undefined name 'z'", 2),
    ("input a b\nq__recip = sin a\nq = div a b\noutput q",
     "duplicate name 'q__recip'", 3),
    ("input a b\nq = div a b\nq__recip = sin a\noutput q",
     "duplicate name 'q__recip'", 3),
    ("input x\ny = const \u0661\u0662\noutput y",
     "const takes one numeric literal", 2),
    ("input x\ny = pow x \uff12\noutput y",
     "pow takes an operand and a numeric exponent", 2),
    ("input x\ny = sin x\noutput y z", "undefined name 'z'", 3),
    ("input x\ny = sin x\noutput", "output line names no values", 3),
    # precedence: the first statement, the last, the ones between them in
    # order, then the names on the output line
    ("input 1x\ny = frob x\nz = sin", "bad input name '1x'", 1),
    ("input x\ny = frob x\nz = sin", "program must end with an 'output' line",
     3),
    ("input x\ny = frob x\nz = sin q\noutput w",
     "unknown primitive 'frob'", 2),
    ("input x\ny = const 1e400\nz = sin q\noutput w",
     "literal '1e400' is not a finite float64", 2),
    ("input x\ny = pow q 1e400\noutput y",
     "literal '1e400' is not a finite float64", 2),
    ("input x\ny = add q r\noutput w", "undefined name 'q'", 2),
])
def test_parse_error_message_and_line(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_program("input x\ny = mul x\noutput y")
    assert exc.value.line == 2


def test_div_desugars_to_recip_mul():
    prog = parse_program("input a b\nq = div a b\noutput q")
    ops = [n.op for n in prog.nodes]
    assert ops == [PrimitiveKind.RECIP, PrimitiveKind.MUL]
    assert eval_primal(prog, [6.0, 3.0]) == [2.0]


def test_const_and_pow_payloads():
    prog = parse_program("input x\nc = const 2.5\ny = pow x 3\nz = mul c y\n"
                         "output z")
    assert prog.nodes[0].const == 2.5
    assert prog.nodes[1].const == 3.0
    assert eval_primal(prog, [2.0]) == [20.0]


def test_div_recip_name_is_in_scope():
    prog = parse_program("input x\nq = div x x\ny = neg q__recip\n"
                         "output y q__recip")
    assert prog.names == ("x", "q__recip", "q", "y")
    assert prog.nodes[2].operands == (1,)
    assert prog.outputs == (3, 1)


def test_roundtrip_identity():
    for text in (SQUARE, SIN_PROD,
                 "input a b\nq = div a b\nr = tanh q\noutput r q\n",
                 "input a b\nq = div a b\nr = div q__recip q\n"
                 "output r q__recip r__recip\n"):
        prog = parse_program(text)
        back = parse_program(pretty_print(prog))
        assert back == prog
        assert back.names == prog.names


@pytest.mark.parametrize("safe", [True, False])
def test_roundtrip_random_programs(safe):
    for seed in range(50):
        prog = random_program(seed, depth=30, n_inputs=3, safe=safe)
        back = parse_program(pretty_print(prog))
        assert back == prog
        assert back.names == prog.names


def test_parser_builds_what_checked_constructors_build():
    # the parser builds Node and Program unchecked; the checked
    # constructors accept the same fields and give equal objects
    texts = [pretty_print(random_program(seed, depth=40, n_inputs=3,
                                         safe=seed % 2 == 0))
             for seed in range(60)]
    texts.append("input a b\nq = div a b\nr = div q q__recip\n"
                 "c = const -2.5\np = pow r -1.5\noutput p q a\n")
    for text in texts:
        parsed = parse_program(text)
        nodes = tuple(Node(n.op, n.operands, n.const) for n in parsed.nodes)
        checked = Program(n_inputs=parsed.n_inputs, nodes=nodes,
                          outputs=parsed.outputs, names=parsed.names)
        assert parsed == checked
        assert parsed.nodes == nodes
        assert list(map(hash, parsed.nodes)) == list(map(hash, nodes))
        assert all(type(n) is Node for n in parsed.nodes)
        assert parsed.names == checked.names
        assert parsed.steps == checked.steps


def test_eval_primal_examples():
    assert eval_primal(parse_program(SQUARE), [3.0]) == [9.0]
    out = eval_primal(parse_program(SIN_PROD), [1.0, math.pi])
    assert abs(out[0]) < 1e-15


def test_eval_primal_domain_error_names_node():
    prog = parse_program("input x\na = neg x\nb = log a\noutput b")
    with pytest.raises(DomainError) as exc:
        eval_primal(prog, [1.0])
    assert exc.value.node == 1


def test_eval_primal_overflow():
    prog = parse_program("input x\na = exp x\nb = exp a\nc = exp b\noutput c")
    with pytest.raises(NumericOverflowError) as exc:
        eval_primal(prog, [5.0])
    assert exc.value.node is not None


def test_eval_generic_matches_primal():
    rng = random.Random(3)
    sem = RealSemantics()
    for i in range(200):
        prog = random_program(seed=i, depth=rng.randint(1, 30),
                              n_inputs=rng.randint(1, 5))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        assert eval_generic(prog, x, sem) == eval_primal(prog, x)


def test_empty_program_identity():
    prog = Program(n_inputs=2, nodes=(), outputs=(0, 1))
    assert eval_primal(prog, [4.0, 5.0]) == [4.0, 5.0]


def test_program_validation():
    with pytest.raises(ValueError):
        Program(n_inputs=1, nodes=(Node(PrimitiveKind.SIN, (1,)),),
                outputs=(1,))
    with pytest.raises(ValueError):
        Program(n_inputs=1, nodes=(), outputs=(5,))
    with pytest.raises(ValueError):
        Program(n_inputs=1,
                nodes=(Node(PrimitiveKind.DIV, (0, 0)),), outputs=(1,))


def test_program_refuses_empty_outputs():
    # as the parser refuses an output line that names no values: a pass
    # over such a program has nothing to return
    with pytest.raises(ValueError, match="program has no outputs"):
        Program(n_inputs=1, nodes=(), outputs=())
    with pytest.raises(ValueError, match="program has no outputs"):
        Program(n_inputs=1, nodes=(Node(PrimitiveKind.SIN, (0,)),),
                outputs=())


@pytest.mark.parametrize("op, operands", [
    (PrimitiveKind.CONST, ()), (PrimitiveKind.POW_CONST, (0,))])
@pytest.mark.parametrize("payload", [math.inf, -math.inf, math.nan])
def test_program_rejects_non_finite_payload(op, operands, payload):
    with pytest.raises(ValueError, match="non-finite payload"):
        Program(n_inputs=1, nodes=(Node(op, operands, payload),),
                outputs=(1,))


def test_node_arity_checked():
    with pytest.raises(ValueError):
        Node(PrimitiveKind.ADD, (0,))


def test_node_is_frozen():
    node = Node(PrimitiveKind.SIN, (0,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.op = PrimitiveKind.COS
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.operands = (1,)
    assert not hasattr(node, "__dict__")


def test_random_program_deterministic():
    a = random_program(seed=11, depth=20, n_inputs=3)
    b = random_program(seed=11, depth=20, n_inputs=3)
    assert a == b
    assert a != random_program(seed=12, depth=20, n_inputs=3)


def test_random_program_stable_across_pythons():
    # a seed names the same programs on every CPython the CI runs; the
    # unsafe weight table is summed by a left fold, since from 3.12 sum()
    # of floats is compensated
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(pretty_print(
            random_program(seed, depth=40, n_inputs=3, safe=False)).encode())
    assert digest.hexdigest() == (
        "e99edc77962f7fb072f2ba1c32172d7e1b334dd868c21d5459c941fefc7f81d8")


def test_random_program_depth_one():
    prog = random_program(seed=0, depth=1, n_inputs=2)
    assert prog.n_nodes >= 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 40),
       n=st.integers(1, 6), point=st.integers(0, 10 ** 6))
def test_safe_programs_never_raise(seed, depth, n, point):
    prog = random_program(seed=seed, depth=depth, n_inputs=n)
    rng = random.Random(point)
    x = [rng.uniform(-1, 1) for _ in range(n)]
    eval_primal(prog, x)  # must not raise


def test_safe_fuzz_ten_thousand_evals():
    rng = random.Random(99)
    evals = 0
    while evals < 10 ** 4:
        prog = random_program(seed=rng.randrange(10 ** 9),
                              depth=rng.randint(1, 30),
                              n_inputs=rng.randint(1, 6))
        for _ in range(10):
            x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
            eval_primal(prog, x)
            evals += 1


class _Box:
    """A value that can be weakly referenced."""

    def __init__(self, v: float):
        self.v = v


class _WeakSemantics:
    """Real semantics over boxes; records, before each node, which earlier
    node results are still alive."""

    def __init__(self):
        self.refs = []
        self.alive = []

    def constant(self, c):
        self.alive.append([r() is not None for r in self.refs])
        return self._keep(_Box(c))

    def apply(self, node, args):
        self.alive.append([r() is not None for r in self.refs])
        value = RealSemantics().apply(node, [a.v for a in args])
        return self._keep(_Box(value))

    def _keep(self, box):
        self.refs.append(weakref.ref(box))
        return box


# t is an output and a later operand, x an input returned as an output, u
# squares t through one slot, and d and e are read by no output, e after v's
# last live reader w
LIVENESS = ("input x y\nt = mul x y\nu = mul t t\nv = sin t\nw = cos v\n"
            "d = neg x\ne = exp v\noutput t u w x\n")


def test_steps_release_and_peak_live():
    prog = parse_program(LIVENESS)
    # slots: x 0, y 1, t 2, u 3, v 4, w 5, d 6, e 7; d and e hold no value,
    # and v dies at w, not at e; inputs are never released
    assert [k for k, _, _ in prog.steps] == [0, 1, 2, 3]
    assert prog.steps == tuple((k, prog.nodes[k], dead) for k, dead in
                               [(0, ()), (1, ()), (2, ()), (3, (4,))])
    assert prog.steps is prog.steps
    sem = _WeakSemantics()
    eval_generic(prog, [_Box(1.5), _Box(-0.25)], sem)
    assert len(sem.refs) == len(prog.steps)
    # x, y, t, u, v and w once w is made; d and e are never counted
    assert prog.peak_live == 6
    dims = (2, 4, 8, 16, 32)
    report = run_weil_bench(prog, "liveness", dims=dims, repetitions=1,
                            warmup=0, batch=4)
    assert [r.peak_coeff_bytes for r in report.runs] == \
        [6 * dim * 4 * 8 for dim in dims]


def test_live_nodes_are_those_the_outputs_reach():
    # a node is live when a search back from the outputs through operands
    # reaches its slot
    for seed in range(40):
        prog = random_program(seed, depth=30, n_inputs=3, safe=seed % 2 == 0)
        prog = Program(prog.n_inputs, prog.nodes,
                       (prog.n_slots - 1, prog.n_slots // 2))
        reached, todo = set(), list(prog.outputs)
        while todo:
            slot = todo.pop()
            if slot >= prog.n_inputs and slot not in reached:
                reached.add(slot)
                todo += prog.nodes[slot - prog.n_inputs].operands
        assert [k for k, _, _ in prog.steps] == sorted(
            slot - prog.n_inputs for slot in reached)


def test_eval_generic_releases_dead_slots():
    prog = parse_program("input x\na = sin x\nb = cos a\nc = exp b\n"
                         "d = neg c\noutput d\n")
    sem = _WeakSemantics()
    (out,) = eval_generic(prog, [_Box(0.3)], sem)
    assert out.v == eval_primal(prog, [0.3])[0]
    # before node 2 runs, node 0 (read only by node 1) is gone
    assert sem.alive[2] == [False, True]
    assert sem.alive[3] == [False, False, True]


def test_eval_generic_keeps_outputs_and_inputs():
    prog = parse_program(LIVENESS)
    x = [1.5, -0.25]
    assert eval_generic(prog, x, RealSemantics()) == eval_primal(prog, x)
    inputs = [_Box(v) for v in x]
    outs = eval_generic(prog, inputs, _WeakSemantics())
    assert [o.v for o in outs] == eval_primal(prog, x)
    assert outs[3] is inputs[0]


@pytest.mark.parametrize("family", ["linear", "mul"])
@pytest.mark.parametrize("seed", range(6))
def test_bench_peak_bytes_count_live_values(family, seed):
    # a lifted pass holds the inputs and the values not yet released, not
    # one array per slot; the count here is taken by weak references
    prog = bench_program(family, q=40, seed=seed)
    sem = _WeakSemantics()
    eval_generic(prog, [_Box(0.5) for _ in range(prog.n_inputs)], sem)
    held = prog.n_inputs + 1 + max(sum(alive) for alive in sem.alive)
    assert held < prog.n_slots
    dims = (2, 4, 8, 16, 32)
    report = run_weil_bench(prog, family, dims=dims, repetitions=1,
                            warmup=0, batch=4)
    assert [r.peak_coeff_bytes for r in report.runs] == \
        [held * dim * 4 * 8 for dim in dims]


def test_bench_mul_family_stays_finite():
    # the mul family stays mul-heavy, and every output coefficient of its
    # default program is finite (with no numpy warning) on the seeded
    # inputs of a default bench run, up to (1,)*6
    prog = bench_program("mul", q=500, seed=0)
    products = sum(node.op is PrimitiveKind.MUL for node in prog.nodes)
    assert products >= prog.n_nodes // 2
    for p in (1, 3, 6):
        shape = make_shape((1,) * p)
        inputs = _batched_seed(prog, shape, 64, random.Random(0))
        out, = eval_generic(prog, inputs, WeilSemantics(shape, (64,)))
        assert np.isfinite(out.coeffs).all()


def test_bench_mul_family_cancels_no_node():
    # no sum or difference of two values that are not 0 is 0 in every
    # column: such a cancellation's 0 is kept by every product it reaches,
    # whose rows the kernels then skip.  (A product may still underflow to
    # 0; bench_program("mul", seed=7) does.)  Every node is an output, so
    # the pass keeps them all
    shape = make_shape((1, 1, 1))
    for seed in range(10):
        prog = bench_program("mul", q=500, seed=seed)
        every = Program(prog.n_inputs, prog.nodes,
                        tuple(range(prog.n_inputs, prog.n_slots)))
        slots = _batched_seed(prog, shape, 8, random.Random(seed))
        slots += eval_generic(every, slots, WeilSemantics(shape, (8,)))
        for k, node in enumerate(prog.nodes, prog.n_inputs):
            if node.op is not PrimitiveKind.MUL and all(
                    slots[r].coeffs.any() for r in node.operands):
                assert slots[k].coeffs.any(), (seed, k)


def test_rule_table_covers_every_primitive():
    # div is desugared by the parser and never reaches an evaluator
    assert set(PRIMITIVES) == set(PrimitiveKind) - {PrimitiveKind.DIV}
