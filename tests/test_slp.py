import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetweil.bench import bench_program, run_weil_bench
from jetweil.errors import (DomainError, NumericOverflowError, ParseError)
from jetweil.slp import (PRIMITIVES, Node, PrimitiveKind, Program,
                         eval_generic, eval_primal, parse_program,
                         pretty_print, random_program)

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


def test_roundtrip_identity():
    for text in (SQUARE, SIN_PROD,
                 "input a b\nq = div a b\nr = tanh q\noutput r q\n"):
        prog = parse_program(text)
        assert parse_program(pretty_print(prog)) == prog


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


def test_node_arity_checked():
    with pytest.raises(ValueError):
        Node(PrimitiveKind.ADD, (0,))


def test_random_program_deterministic():
    a = random_program(seed=11, depth=20, n_inputs=3)
    b = random_program(seed=11, depth=20, n_inputs=3)
    assert a == b
    assert a != random_program(seed=12, depth=20, n_inputs=3)


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
# squares t through one slot, and d is never read
LIVENESS = ("input x y\nt = mul x y\nu = mul t t\nv = sin t\nw = cos v\n"
            "d = neg x\noutput t u w x\n")


def test_dead_after_table():
    prog = parse_program(LIVENESS)
    # slots: x 0, y 1, t 2, u 3, v 4, w 5, d 6; v dies at w, d where it is
    # made; inputs are never released
    assert prog.dead_after == ((), (), (), (4,), (6,))
    assert prog.dead_after is prog.dead_after


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


def test_rule_table_covers_every_primitive():
    # div is desugared by the parser and never reaches an evaluator
    assert set(PRIMITIVES) == set(PrimitiveKind) - {PrimitiveKind.DIV}
