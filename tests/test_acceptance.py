"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line with the measured quantity; a failure
of any test here means the corresponding guarantee does not hold.
"""
import math
import random
import time

import numpy as np

from counting import counting
from jetweil.bench import bench_program, run_weil_bench
from jetweil.checks import (check_duality, check_exactness,
                            check_functoriality, check_stability)
from jetweil.jets import (SeedSpec, WeilSemantics, basis_seed,
                          coefficient_envelope, directional_taylor,
                          tail_bound, taylor_eval)
from jetweil.modes import jvp, record_tape
from jetweil.oracle import nested_jvp_schedule
from jetweil.slp import eval_generic, parse_program, random_program
from jetweil.weil import WeilValue, make_shape


def test_criterion_1_duality_and_functoriality():
    t0 = time.perf_counter()
    dual = check_duality(count=1000, seed=0)
    funct = check_functoriality(count=500, seed=0)
    elapsed = time.perf_counter() - t0
    assert dual.count == 1000 and funct.count == 500
    assert dual.max_residual <= 1e-10, dual.max_residual
    assert funct.max_residual <= 1e-10, funct.max_residual
    assert elapsed < 30.0, elapsed
    print(f"criterion 1 duality/functoriality: PASS "
          f"(residuals {dual.max_residual:.2e}/{funct.max_residual:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_2_polynomial_exactness():
    t0 = time.perf_counter()
    result = check_exactness(count=200, seed=0)
    elapsed = time.perf_counter() - t0
    assert result.count == 200
    assert result.violations == 0
    assert result.max_residual <= 1e-12, result.max_residual
    assert elapsed < 60.0, elapsed
    print(f"criterion 2 polynomial exactness: PASS "
          f"(max rel error {result.max_residual:.2e}, {elapsed:.1f}s)")


def test_criterion_3_sin_series_order_7():
    prog = parse_program("input x\ny = sin x\noutput y")
    coeffs = directional_taylor(prog, [0.0], [1.0], 7)
    expected = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040]
    worst = max(abs(c - e) for c, e in zip(coeffs, expected))
    assert worst <= 1e-14, worst
    print(f"criterion 3 sin series k=7: PASS (max abs error {worst:.2e})")


def test_criterion_4_dimension_and_pass_counts():
    rng = random.Random(42)
    for _ in range(50):
        caps = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        shape = make_shape(caps)
        assert shape.dim == math.prod(c + 1 for c in caps)
        assert len(shape.multi_indices()) == shape.dim
    for p in range(1, 5):
        for k in range(1, 5):
            prog = random_program(seed=100 * p + k, depth=8, n_inputs=p)
            x = [0.1 * (i + 1) for i in range(p)]
            dirs = [[1.0 if i == j else 0.0 for i in range(p)]
                    for j in range(p)]
            _, count, _ = nested_jvp_schedule(prog, x, dirs, k)
            assert count.passes == math.comb(p + k, k), (p, k, count.passes)
    print("criterion 4 dim products and first-order pass counts: PASS")


def test_criterion_5_linear_scaling_benchmark():
    t0 = time.perf_counter()
    prog = bench_program("linear", q=500, seed=0)
    q = prog.n_nodes
    batch = 2048
    report = run_weil_bench(prog, "linear", dims=(2, 4, 8, 16, 32, 64),
                            repetitions=5, batch=batch, seed=0)
    elapsed = time.perf_counter() - t0
    assert q == 500
    assert 0.8 <= report.slope <= 1.3, report.slope
    # the slope is timed unwrapped; counting wraps every node, a cost that
    # does not grow with dim, so one untimed pass per dim counts instead.
    # A pass lifts the live nodes only
    for run in report.runs:
        shape = make_shape(run.caps)
        inputs = [WeilValue(shape, np.full((shape.dim, batch), 0.5))
                  for _ in range(prog.n_inputs)]
        with counting() as snapshot:
            eval_generic(prog, inputs, WeilSemantics(shape, (batch,)))
            counters = snapshot()
        assert counters["tape_allocations"] == 0
        assert counters["lifted_primitives"] == len(prog.steps)
    with counting() as snapshot:
        tape = record_tape(prog, [0.5, 0.5])
        assert snapshot()["tape_allocations"] == 1
    assert len(tape.primals) == prog.n_slots == q + prog.n_inputs
    assert elapsed < 120.0, elapsed
    print(f"criterion 5 linear-family scaling: PASS "
          f"(slope {report.slope:.3f}, Q={q}, {elapsed:.1f}s)")


def test_criterion_6_stability_bound():
    result = check_stability(count=100, seed=0)
    assert result.count == 100
    assert result.violations == 0
    print(f"criterion 6 stability bound: PASS "
          f"({result.count - result.violations}/{result.count} hold)")


def test_criterion_7_envelope_and_truncation():
    exp_prog = parse_program("input x\ny = exp x\noutput y")
    table = taylor_eval(exp_prog, SeedSpec((0.0,), ((1.0,),), (5,)))
    assert coefficient_envelope(table, [math.e] * 6).passed
    sin_prog = parse_program("input x\ny = sin x\noutput y")
    sin_table = taylor_eval(sin_prog, SeedSpec((0.2,), ((1.0,),), (5,)))
    assert coefficient_envelope(sin_table, [1.0] * 6).passed

    rho, k = 0.5, 3
    bound = tail_bound(math.e, k, rho)
    partial = sum(rho ** l / math.factorial(l) for l in range(k + 1))
    remainder = abs(math.exp(rho) - partial)
    assert bound <= 7.08e-3
    assert remainder <= bound, (remainder, bound)
    print(f"criterion 7 envelope/truncation: PASS "
          f"(remainder {remainder:.3e} <= bound {bound:.3e})")


def test_criterion_8_cross_mode_agreement():
    rng = random.Random(7)
    worst_jvp = 0.0
    for i in range(1000):
        prog = random_program(seed=20000 + i, depth=rng.randint(1, 30),
                              n_inputs=rng.randint(1, 5))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        table = taylor_eval(prog, SeedSpec(tuple(x), (tuple(v),), (1,)))
        eps = float(table.entry((1,))[0])
        fwd = jvp(prog, x, v)[0]
        worst_jvp = max(worst_jvp,
                        abs(eps - fwd) / max(1.0, abs(fwd)))
    assert worst_jvp <= 1e-13, worst_jvp

    worst_sched = 0.0
    for i in range(100):
        prog = random_program(seed=30000 + i, depth=rng.randint(1, 12),
                              n_inputs=2)
        x = [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
        dirs = [(1.0, 0.0), (0.0, 1.0)]
        table, _, _ = nested_jvp_schedule(prog, x, dirs, 2)
        exact = taylor_eval(prog, basis_seed(x, 2))
        for alpha in table.alphas:
            if sum(alpha) > 2:
                continue
            ref = float(exact.entry(alpha)[0])
            got = float(table.entry(alpha)[0])
            worst_sched = max(worst_sched,
                              abs(got - ref) / max(1.0, abs(ref)))
    assert worst_sched <= 1e-8, worst_sched
    print(f"criterion 8 cross-mode agreement: PASS "
          f"(eps-vs-jvp {worst_jvp:.2e}, schedule-vs-lifted "
          f"{worst_sched:.2e})")
