import math
import random

import numpy as np
import pytest

from jetweil.errors import (DimensionMismatchError, NumericOverflowError,
                            UnsupportedOrderError, UnsupportedPrimitiveError)
from jetweil.jets import SeedSpec, taylor_eval
from jetweil.oracle import (SparsePoly, finite_difference,
                            nested_jvp_schedule, symbolic_eval,
                            symbolic_partial)
from jetweil.slp import eval_primal, parse_program, random_program

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
    assert p.pow_int(2).terms == {(4, 0): 1.0, (2, 2): -2.0, (0, 4): 1.0}
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


def test_fd_is_the_stencil_fold():
    # the stencil sums weight * f(point) from 0.0 in offset order and divides
    # once by h**order, on every output alike: at order 1 the weights are
    # -1/2, +1/2 at -h, +h, at order 2 1/4, -1/2, 1/4 at -2h, 0, +2h
    one = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    two = parse_program("input x y\nt = mul x y\ns = sin t\n"
                        "e = exp y\noutput s e")
    x, y = 0.3, -0.7
    for prog in (one, two):
        def f(a, b):
            return eval_primal(prog, [a, b])
        h = (2.0 ** -52) ** (1.0 / 3) * (1.0 + abs(x))
        want = [(0.0 + -0.5 * lo + 0.5 * hi) / h
                for lo, hi in zip(f(x + -1 * h, y), f(x + 1 * h, y))]
        assert finite_difference(prog, [x, y], (1, 0)).tolist() == want
        h = (2.0 ** -52) ** (1.0 / 4) * (1.0 + abs(y))
        want = [(0.0 + 0.25 * lo + -0.5 * mid + 0.25 * hi) / h ** 2
                for lo, mid, hi in zip(f(x, y + -2 * h), f(x, y),
                                       f(x, y + 2 * h))]
        assert finite_difference(prog, [x, y], (0, 2)).tolist() == want


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


@pytest.mark.parametrize("p", [2, 4])
def test_schedule_center_layout_order_three(p):
    # k = 3 with p != 3 runs the center layout; single-node rays fit order 3
    # from value rows, so it is far less accurate than k = 2 (worst measured
    # gap 2.6e-3 at p = 2, 3.7e-3 at p = 4)
    rng = random.Random(31)
    dirs = [[1.0 if i == j else 0.0 for i in range(p)] for j in range(p)]
    worst = 0.0
    for i in range(60):
        prog = random_program(seed=4000 + i, depth=rng.randint(1, 10),
                              n_inputs=p)
        x = [rng.uniform(-0.8, 0.8) for _ in range(p)]
        gap, count, _ = _table_gap(prog, x, dirs, 3)
        assert count.passes == math.comb(p + 3, 3)
        worst = max(worst, gap)
    assert worst <= 5e-3


X2Y = parse_program("input x y\nt = mul x x\nu = mul t y\noutput u")


@pytest.mark.parametrize("call, error, message", [
    (lambda: nested_jvp_schedule(X2Y, [0.1, 0.2], [(1.0,), (0.0, 1.0)], 2),
     DimensionMismatchError, "direction length 1 != input dimension 2"),
    (lambda: nested_jvp_schedule(X2Y, [0.1, 0.2], [(1.0, 0.0, 0.0)], 1),
     DimensionMismatchError, "direction length 3 != input dimension 2"),
    (lambda: nested_jvp_schedule(X2Y, [0.1, 0.2], [], 2),
     ValueError, "at least one direction"),
    (lambda: symbolic_partial(symbolic_eval(X2Y)[0], (1, 1), [2.0]),
     DimensionMismatchError, "program takes 2 inputs, got 1"),
    (lambda: symbolic_partial(symbolic_eval(X2Y)[0], (1, 1, 0), [2.0, 1.0]),
     DimensionMismatchError, "alpha length 3 != input dimension 2"),
    (lambda: finite_difference(X2Y, [0.1, 0.2], (0, 0, 1)),
     DimensionMismatchError, "alpha length 3 != input dimension 2"),
    (lambda: finite_difference(X2Y, [0.1], (0, 1)),
     DimensionMismatchError, "program takes 2 inputs, got 1"),
    # a negative entry read as a lower order gave a number
    (lambda: finite_difference(X2Y, [0.1, 0.2], (-1, 0)),
     ValueError, r"alpha entries must be >= 0, got \(-1, 0\)"),
    (lambda: symbolic_partial(symbolic_eval(X2Y)[0], (-1, 0), [0.1, 0.2]),
     ValueError, r"alpha entries must be >= 0, got \(-1, 0\)"),
], ids=["schedule-short-direction", "schedule-long-direction",
        "schedule-no-direction", "symbolic-short-point", "symbolic-long-alpha",
        "fd-long-alpha", "fd-short-point", "fd-negative-alpha",
        "symbolic-negative-alpha"])
def test_oracles_refuse_wrong_lengths(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_schedule_nonaxis_directions():
    prog = parse_program("input x y\nt = mul x y\ns = exp t\noutput s")
    dirs = [(0.6, 0.8), (-0.8, 0.6)]
    gap, count, _ = _table_gap(prog, [0.3, 0.2], dirs, 2)
    assert count.passes == 6
    assert gap <= 1e-8


def test_schedule_rejects_bad_order():
    with pytest.raises(ValueError):
        nested_jvp_schedule(SQUARE, [1.0], [(1.0,)], 0)


@pytest.mark.parametrize("fd, step", [
    pytest.param(fd, step, id=f"{'fd-' * fd}{step}")
    for fd in (False, True)
    for step in (0.0, -1e-4, math.nan, math.inf, 1e-200)])
def test_schedule_rejects_bad_step(fd, step, monkeypatch):
    # refused before any pass: a zero step made a NaN table (and the
    # stencil a NaN estimate), with a numpy warning (an error under this
    # suite), and a max_residual of 0.0; a NaN or infinite h failed in the
    # pass with a NumericOverflowError or a math domain error; and at
    # 1e-200 the order-2 division is by 1e-200 ** 2 = 0.0
    from jetweil import oracle

    def no_pass(*args):
        raise AssertionError("a pass ran")
    monkeypatch.setattr(oracle, "eval_dual", no_pass)
    monkeypatch.setattr(oracle, "eval_primal", no_pass)
    with pytest.raises(ValueError, match="positive finite"):
        if fd:
            finite_difference(X2Y, [0.1, 0.2], (1, 1), h=step)
        else:
            nested_jvp_schedule(X2Y, [0.1, 0.2], AXIS2, 2, step=step)


def test_fd_default_step_near_overflow():
    # the step scales with the coordinate it moves: a norm of x would be
    # inf here, and a step sized by the third coordinate would overflow
    # a * c when the stencil moves a
    prog = parse_program("input a b c\np = mul a c\nq = mul b c\n"
                         "z = add p q\noutput z")
    x = [1.0, -1.0, 1.5e308]
    for i, want in enumerate([1.5e308, 1.5e308, 0.0]):
        est = finite_difference(prog, x, tuple(int(j == i) for j in range(3)))
        assert abs(est[0] - want) <= 1e-9 * 1.5e308


def test_schedule_k4_count_and_rough_accuracy():
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    gap, count, diag = _table_gap(prog, [0.7, 0.4], AXIS2, 4)
    assert count.passes == math.comb(6, 4) == 15
    # k >= 4 recovery is best-effort: counted exactly, accuracy degraded
    assert gap <= 1e-1
    assert diag.max_condition > 0


def test_schedule_joint_fit_reports_its_residual():
    # the k >= 4 joint fit computed no residual, so max_residual read 0.0
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    _, _, diag = nested_jvp_schedule(prog, [0.7, 0.4], AXIS2, 4)
    assert 0.0 < diag.max_residual < math.inf


def test_schedule_nan_residual_reads_nan(monkeypatch):
    # max() drops a NaN that is not its first argument; the diagnostics
    # must not, whichever fit it comes from
    from jetweil import oracle
    apply_fit = oracle._apply_fit
    calls = []

    def nan_first(*args):
        sol, resid = apply_fit(*args)
        calls.append(resid)
        return sol, math.nan if len(calls) == 1 else resid

    monkeypatch.setattr(oracle, "_apply_fit", nan_first)
    _, _, diag = nested_jvp_schedule(X2Y, [0.3, 0.2], AXIS2, 3)
    assert len(calls) == 2 and math.isnan(diag.max_residual)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_schedule_tangent_overflow(k):
    # recip x squared at x = 1.05e-103: the value is finite, its tangent is
    # not.  From k = 3 the passes at x raise, as jvp does, where unchecked
    # tangents gave -inf and NaN rows with max_residual 0.0; at k = 2 every
    # pass sits at x +- 1.2e-5, where all is finite, and the residual's
    # norm must not overflow, as a dot product of its squares does
    prog = parse_program("input x y\na = recip x\nb = mul a a\n"
                         "c = mul b y\noutput c")
    x = [1.05e-103, 1.0]
    if k >= 3:
        with pytest.raises(NumericOverflowError,
                           match="non-finite tangent at node 2"):
            nested_jvp_schedule(prog, x, AXIS2, k)
        return
    table, _, diag = nested_jvp_schedule(prog, x, AXIS2, k)
    assert np.isfinite(table.raw).all()
    assert 0.0 < diag.max_residual < math.inf


@pytest.mark.parametrize("x, k, raises", [
    (708.0, 5, True), (709.0, 5, True), (700.0, 5, False), (709.0, 4, False),
])
def test_schedule_entry_overflow(x, k, raises):
    # exp near its float64 edge: every pass is finite, but from k = 4 the
    # joint fit's scaling by alpha! / s^|alpha| can take an entry past it
    prog = parse_program("input x\ny = exp x\noutput y")
    if raises:
        with pytest.raises(NumericOverflowError,
                           match=r"schedule entry \(5,\) of output 0"):
            nested_jvp_schedule(prog, [x], [(1.0,)], k)
    else:
        table, _, _ = nested_jvp_schedule(prog, [x], [(1.0,)], k)
        assert np.isfinite(table.raw).all()


def test_fit_weights_are_built_once_per_p_k(monkeypatch):
    # each (p, k)'s weights come from one pinv in _pass_plan; a later call
    # at the same (p, k) makes no np.linalg call and gives the same bits
    from jetweil import oracle
    prog = random_program(seed=404, depth=8, n_inputs=4)
    x = [0.1, 0.2, 0.3, 0.4]
    dirs = np.eye(4).tolist()
    seen = []
    for name in ("lstsq", "pinv", "cond", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            seen.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    oracle._pass_plan.cache_clear()
    for k in (3, 4):   # the per-order (center layout) and the joint fits
        del seen[:]
        first = nested_jvp_schedule(prog, x, dirs, k)
        assert "pinv" in seen and "lstsq" not in seen
        del seen[:]
        again = nested_jvp_schedule(prog, x, dirs, k)
        assert seen == []
        assert np.array_equal(first[0].raw, again[0].raw)
        assert first[1:] == again[1:]
