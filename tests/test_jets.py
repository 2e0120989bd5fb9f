import math
import random

import numpy as np
import pytest

from jetweil import instrument
from jetweil.errors import DimensionMismatchError
from jetweil.jets import (SeedSpec, WeilSemantics, basis_seed,
                          coefficient_envelope, directional_taylor, seed,
                          tail_bound, taylor_eval)
from jetweil.modes import jvp
from jetweil.slp import eval_generic, parse_program, random_program
from jetweil.weil import multi_factorial

X2Y = parse_program("input x y\nt = mul x x\nu = mul t y\noutput u")


def test_seed_single_direction():
    spec = SeedSpec(base=(2.0,), directions=((1.0,),), caps=(2,))
    [w] = seed(spec)
    assert np.array_equal(w.coeffs, [2.0, 1.0, 0.0])


def test_seed_zero_directions_constant_jet():
    spec = SeedSpec(base=(1.5,), directions=((0.0,),), caps=(2,))
    [w] = seed(spec)
    assert np.array_equal(w.coeffs, [1.5, 0.0, 0.0])


def test_seed_basis_placement():
    spec = SeedSpec(base=(1.0, 2.0), directions=((1.0, 0.0), (0.0, 1.0)),
                    caps=(1, 1))
    w1, w2 = seed(spec)
    # component 1 = 1 + e1, component 2 = 2 + e2
    assert np.array_equal(w1.coeffs, [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(w2.coeffs, [2.0, 1.0, 0.0, 0.0])


def test_seed_spec_validation():
    with pytest.raises(DimensionMismatchError):
        SeedSpec(base=(1.0,), directions=((1.0, 2.0),), caps=(1,))
    with pytest.raises(DimensionMismatchError):
        SeedSpec(base=(1.0,), directions=((1.0,),), caps=(1, 1))


def test_taylor_x2y_example():
    spec = SeedSpec(base=(1.0, 2.0), directions=((1.0, 0.0), (0.0, 1.0)),
                    caps=(2, 1))
    table = taylor_eval(X2Y, spec)
    assert table.entry((0, 0)) == pytest.approx([2.0])
    assert table.entry((1, 0)) == pytest.approx([4.0])
    assert table.entry((0, 1)) == pytest.approx([1.0])
    assert table.entry((2, 0)) == pytest.approx([4.0])
    assert table.entry((1, 1)) == pytest.approx([2.0])
    assert table.entry((2, 1)) == pytest.approx([2.0])


def test_taylor_constant_program():
    prog = parse_program("input x\nc = const 3.5\noutput c")
    table = taylor_eval(prog, SeedSpec((0.2,), ((1.0,),), (3,)))
    assert table.entry((0,)) == pytest.approx([3.5])
    for alpha in table.alphas[1:]:
        assert table.entry(alpha) == pytest.approx([0.0])


def test_taylor_exp_all_ones():
    prog = parse_program("input x\ny = exp x\noutput y")
    table = taylor_eval(prog, SeedSpec((0.0,), ((1.0,),), (4,)))
    for l in range(5):
        assert float(table.entry((l,))[0]) == pytest.approx(1.0, abs=1e-14)


def test_directional_taylor_sin():
    prog = parse_program("input x\ny = sin x\noutput y")
    coeffs = directional_taylor(prog, [0.0], [1.0], 5)
    assert coeffs == pytest.approx([0, 1, 0, -1 / 6, 0, 1 / 120], abs=1e-15)


def test_directional_taylor_identity():
    prog = parse_program("input x\noutput x")
    coeffs = directional_taylor(prog, [0.7], [1.0], 4)
    assert coeffs == pytest.approx([0.7, 1, 0, 0, 0], abs=1e-15)


def test_directional_taylor_cube():
    prog = parse_program("input x\ny = pow x 3\noutput y")
    coeffs = directional_taylor(prog, [1.0], [1.0], 3)
    assert coeffs == pytest.approx([1, 3, 3, 1], abs=1e-13)


def test_entry_is_factorial_times_coeff():
    spec = SeedSpec((0.3, 0.4), ((1.0, 0.0), (0.0, 1.0)), (2, 2))
    prog = parse_program("input x y\nt = mul x y\ns = sin t\noutput s")
    table = taylor_eval(prog, spec)
    for alpha in table.alphas:
        fac = math.factorial(alpha[0]) * math.factorial(alpha[1])
        assert float(table.entry(alpha)[0]) == pytest.approx(
            fac * float(table.coeff(alpha)[0]), rel=1e-15)


@pytest.mark.parametrize("caps", [(3,), (2, 1), (1, 3, 2), (1,) * 4])
def test_table_rows_follow_graded_alphas(caps):
    # row r of raw is every output's coefficient of e^alphas[r], alphas in
    # (|alpha|, alpha) order, and values is raw times alpha!
    text = "input x y\nt = mul x y\ns = sin t\nu = exp x\noutput s u x"
    prog = parse_program(text)
    dirs = tuple(tuple(0.1 * (i + 1) * (-1) ** j for i in range(2))
                 for j in range(len(caps)))
    spec = SeedSpec((0.3, -0.7), dirs, caps)
    table = taylor_eval(prog, spec)
    shape = table.shape
    assert table.alphas == tuple(sorted(shape.multi_indices(),
                                        key=lambda a: (sum(a), a)))
    outputs = eval_generic(prog, seed(spec), WeilSemantics(shape))
    flat = {a: i for i, a in enumerate(shape.multi_indices())}
    assert table.raw.shape == (shape.dim, 3)
    for alpha, row in zip(table.alphas, table.raw):
        assert np.array_equal(row, [o.coeffs[flat[alpha]] for o in outputs])
    facts = np.array([[multi_factorial(a)] for a in table.alphas], dtype=float)
    assert np.array_equal(table.values, table.raw * facts)


def test_entry_mappings_agree_with_rows():
    table = taylor_eval(X2Y, SeedSpec((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)),
                                      (2, 1)))
    assert list(table.entries) == list(table.alphas) == list(table.coeffs)
    for alpha in table.alphas:
        assert np.array_equal(table.entries[alpha], table.entry(alpha))
        assert np.array_equal(table.coeffs[alpha], table.coeff(alpha))
    with pytest.raises(TypeError):
        table.entries[(0, 0)] = np.zeros(1)


def test_symmetry_under_direction_swap():
    prog = parse_program("input x y\nt = mul x y\nu = exp t\noutput u")
    rng = random.Random(4)
    for _ in range(10):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        v1 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        v2 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        t1 = taylor_eval(prog, SeedSpec(x, (v1, v2), (2, 3)))
        t2 = taylor_eval(prog, SeedSpec(x, (v2, v1), (3, 2)))
        for (a, b) in t1.alphas:
            lhs = float(t1.entry((a, b))[0])
            rhs = float(t2.entry((b, a))[0])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_cap_refinement_stability():
    prog = parse_program("input x y\nt = mul x y\ns = tanh t\noutput s")
    spec_small = SeedSpec((0.4, 0.7), ((1.0, 0.2), (0.0, 1.0)), (2, 2))
    spec_big = SeedSpec((0.4, 0.7), ((1.0, 0.2), (0.0, 1.0)), (4, 3))
    small = taylor_eval(prog, spec_small)
    big = taylor_eval(prog, spec_big)
    for alpha in small.alphas:
        assert float(small.entry(alpha)[0]) == pytest.approx(
            float(big.entry(alpha)[0]), rel=1e-13, abs=1e-13)


def test_single_pass_counters():
    prog = random_program(seed=1, depth=25, n_inputs=3)
    instrument.reset()
    taylor_eval(prog, basis_seed([0.1, 0.2, 0.3], 2))
    counters = instrument.snapshot()
    assert counters["lifted_primitives"] == prog.n_nodes
    assert counters["tape_allocations"] == 0


def test_weil_eps_coefficient_equals_jvp():
    rng = random.Random(13)
    for i in range(200):
        prog = random_program(seed=i, depth=rng.randint(1, 30),
                              n_inputs=rng.randint(1, 5))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        table = taylor_eval(prog, SeedSpec(tuple(x), (tuple(v),), (1,)))
        eps = float(table.entry((1,))[0])
        forward = jvp(prog, x, v)[0]
        assert abs(eps - forward) <= 1e-13 * max(1.0, abs(forward))


def test_envelope_exp_and_sin():
    prog = parse_program("input x\ny = exp x\noutput y")
    table = taylor_eval(prog, SeedSpec((0.0,), ((1.0,),), (5,)))
    report = coefficient_envelope(table, [math.e] * 6)
    assert report.passed
    sin_prog = parse_program("input x\ny = sin x\noutput y")
    table = taylor_eval(sin_prog, SeedSpec((0.3,), ((1.0,),), (5,)))
    assert coefficient_envelope(table, [1.0] * 6).passed


def test_envelope_zero_function():
    prog = parse_program("input x\nc = const 0\ny = mul x c\noutput y")
    table = taylor_eval(prog, SeedSpec((0.5,), ((1.0,),), (3,)))
    assert coefficient_envelope(table, [0.0] * 4).passed


def test_envelope_rejects_large_directions():
    table = taylor_eval(X2Y, SeedSpec((1.0, 2.0), ((2.0, 0.0), (0.0, 1.0)),
                                      (1, 1)))
    with pytest.raises(ValueError):
        coefficient_envelope(table, [10.0] * 3)


def test_envelope_needs_enough_bounds():
    table = taylor_eval(X2Y, SeedSpec((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)),
                                      (2, 1)))
    with pytest.raises(ValueError):
        coefficient_envelope(table, [10.0, 10.0])


def test_tail_bound_examples():
    bound = tail_bound(math.e, 3, 0.5)
    assert bound == pytest.approx(math.e * 0.5 ** 4 / 24)
    actual = abs(math.exp(0.5) - sum(0.5 ** l / math.factorial(l)
                                     for l in range(4)))
    assert actual <= bound
    assert tail_bound(0.0, 3, 0.5) == 0.0
    assert tail_bound(1.0, 2, 1e-9) < 1e-27
    with pytest.raises(ValueError):
        tail_bound(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        tail_bound(-1.0, 2, 0.5)


def test_table_json_shape():
    spec = SeedSpec((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)), (2, 1))
    payload = taylor_eval(X2Y, spec).to_json_dict()
    assert list(payload) == ["caps", "base", "directions", "entries"]
    alphas = [tuple(e["alpha"]) for e in payload["entries"]]
    assert alphas == sorted(alphas, key=lambda a: (sum(a), a))
