import math
import random

import numpy as np
import pytest

from jetweil.errors import UnsupportedOrderError, UnsupportedPrimitiveError
from jetweil.jets import SeedSpec, taylor_eval
from jetweil.oracle import (SparsePoly, finite_difference,
                            nested_jvp_schedule, symbolic_eval,
                            symbolic_partial)
from jetweil.slp import parse_program, random_program

SQUARE = parse_program("input x\ny = mul x x\noutput y")
AXIS2 = [(1.0, 0.0), (0.0, 1.0)]
AXIS3 = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


def _table_gap(prog, x, dirs, k, step=None):
    """Max relative disagreement between the schedule and the lifted pass."""
    table, count, diag = nested_jvp_schedule(prog, x, dirs, k, step=step)
    exact = taylor_eval(prog, SeedSpec(tuple(x), tuple(tuple(d) for d in dirs),
                                      (k,) * len(dirs)))
    gap = 0.0
    for alpha in table.alphas:
        if sum(alpha) > k:
            continue
        ref = float(exact.entry(alpha)[0])
        got = float(table.entry(alpha)[0])
        gap = max(gap, abs(got - ref) / max(1.0, abs(ref)))
    return gap, count, diag


def test_symbolic_square():
    [poly] = symbolic_eval(SQUARE)
    assert poly.terms == {(2,): 1.0}


def test_symbolic_expand():
    prog = parse_program("input a b\ns = add a b\nt = mul s a\noutput t")
    [poly] = symbolic_eval(prog)
    assert poly.terms == {(2, 0): 1.0, (1, 1): 1.0}


def test_symbolic_rejects_sin():
    prog = parse_program("input x\ny = sin x\noutput y")
    with pytest.raises(UnsupportedPrimitiveError):
        symbolic_eval(prog)


def test_symbolic_partial_examples():
    prog = parse_program("input x y\nt = mul x x\nu = mul t y\noutput u")
    [poly] = symbolic_eval(prog)
    assert symbolic_partial(poly, (1, 1), [1.0, 2.0]) == pytest.approx(2.0)
    assert symbolic_partial(poly, (0, 0), [1.0, 2.0]) == pytest.approx(2.0)
    [sq] = symbolic_eval(SQUARE)
    assert symbolic_partial(sq, (3,), [5.0]) == 0.0


def test_sparse_poly_algebra():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p.terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert p.pow_int(2).total_degree() == 4
    assert (p - p).terms == {}


def test_fd_parabola():
    assert finite_difference(SQUARE, [0.0], (2,), h=1e-3)[0] == pytest.approx(
        2.0, abs=1e-6)


def test_fd_constant():
    prog = parse_program("input x\nc = const 4\noutput c")
    assert finite_difference(prog, [0.3], (1,))[0] == pytest.approx(0.0)


def test_fd_exp_slope():
    prog = parse_program("input x\ny = exp x\noutput y")
    assert finite_difference(prog, [0.0], (1,), h=1e-5)[0] == pytest.approx(
        1.0, abs=1e-9)


def test_fd_rejects_high_order():
    with pytest.raises(UnsupportedOrderError):
        finite_difference(SQUARE, [0.0], (5,))


def test_fd_matches_taylor_to_order_three():
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    x = [0.6, 0.8]
    exact = taylor_eval(prog, SeedSpec(tuple(x), tuple(AXIS2), (3, 3)))
    for alpha in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0)]:
        est = finite_difference(prog, x, alpha)[0]
        ref = float(exact.entry(alpha)[0])
        assert abs(est - ref) / max(1.0, abs(ref)) <= 1e-4


def test_pass_counts_exact():
    rng = random.Random(0)
    for p in range(1, 5):
        for k in range(1, 5):
            prog = random_program(seed=p * 10 + k, depth=6, n_inputs=p)
            x = [rng.uniform(-0.5, 0.5) for _ in range(p)]
            dirs = [[1.0 if i == j else 0.0 for i in range(p)]
                    for j in range(p)]
            table, count, _ = nested_jvp_schedule(prog, x, dirs, k)
            assert count.passes == math.comb(p + k, k)
            assert (count.p, count.k) == (p, k)
            # one table row per pass: exactly the alphas with |alpha| <= k
            assert len(table.alphas) == count.passes
            assert all(sum(a) <= k for a in table.alphas)
            assert table.raw.shape == (count.passes, 1)


def test_p1_k1_is_value_plus_jvp():
    prog = parse_program("input x\ny = sin x\noutput y")
    table, count, _ = nested_jvp_schedule(prog, [0.0], [(1.0,)], 1)
    assert count.passes == 2
    assert float(table.entry((0,))[0]) == pytest.approx(0.0)
    assert float(table.entry((1,))[0]) == pytest.approx(1.0)


def test_schedule_exact_at_order_one():
    prog = parse_program("input x y\nt = mul x y\ns = tanh t\noutput s")
    gap, count, _ = _table_gap(prog, [0.4, 0.9], AXIS2, 1)
    assert count.passes == 3
    assert gap <= 1e-14


def test_schedule_agreement_p2_k2():
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    gap, count, diag = _table_gap(prog, [0.7, 0.4], AXIS2, 2)
    assert count.passes == 6
    assert gap <= 1e-8
    assert not diag.ill_conditioned


def test_schedule_agreement_p3_k2():
    prog = parse_program("input x y z\na = mul x y\nb = mul a z\n"
                         "c = sin b\noutput c")
    gap, count, _ = _table_gap(prog, [0.3, 0.5, 0.4], AXIS3, 2)
    assert count.passes == 10
    assert gap <= 1e-7


def test_schedule_agreement_p3_k3_example():
    # cross-validation target: 20 passes, table within 1e-8 of taylor_eval
    prog = parse_program("input x y z\nc = const 0.05\na = mul x y\n"
                         "b = mul a z\nd = mul c b\ns = sin d\noutput s")
    gap, count, diag = _table_gap(prog, [0.8, 0.9, 0.7], AXIS3, 3)
    assert count.passes == math.comb(6, 3) == 20
    assert gap <= 1e-8
    assert not diag.ill_conditioned


def test_schedule_safe_program_agreement():
    rng = random.Random(31)
    worst = 0.0
    for i in range(60):
        prog = random_program(seed=4000 + i, depth=rng.randint(1, 10),
                              n_inputs=2)
        x = [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
        gap, _, _ = _table_gap(prog, x, AXIS2, 2)
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_schedule_nonaxis_directions():
    prog = parse_program("input x y\nt = mul x y\ns = exp t\noutput s")
    dirs = [(0.6, 0.8), (-0.8, 0.6)]
    gap, count, _ = _table_gap(prog, [0.3, 0.2], dirs, 2)
    assert count.passes == 6
    assert gap <= 1e-8


def test_schedule_rejects_bad_order():
    with pytest.raises(ValueError):
        nested_jvp_schedule(SQUARE, [1.0], [(1.0,)], 0)


def test_schedule_k4_count_and_rough_accuracy():
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    gap, count, diag = _table_gap(prog, [0.7, 0.4], AXIS2, 4)
    assert count.passes == math.comb(6, 4) == 15
    # k >= 4 recovery is best-effort: counted exactly, accuracy degraded
    assert gap <= 1e-1
    assert diag.max_condition > 0
