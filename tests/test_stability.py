import math
import random

import numpy as np
import pytest

from jetweil.slp import Node, PrimitiveKind, Program, parse_program, \
    random_program
from jetweil.stability import (KAPPA_CAP, UNIT_ROUNDOFF, condition_estimate,
                               stability_bound)
from jetweil.modes import vjp


@pytest.mark.parametrize("rhs, x, norm", [
    ("mul x y", [3.0, 4.0], 5.0),
    ("sin x", [0.0, 0.0], 1.0),
    ("add x y", [1.0, 1.0], math.sqrt(2)),
    ("exp x", [1.0, 0.0], math.e),
    ("neg x", [7.0, 0.0], 1.0),
    ("const 2", [0.0, 0.0], 0.0),
    ("recip x", [2.0, 0.0], 0.25),
], ids=["mul", "sin", "add", "exp", "neg", "const", "recip"])
def test_primitive_row_holds_the_partials_norm(rhs, x, norm):
    # a primitive row's local norm is the 2-norm of its node's partials
    prog = parse_program(f"input x y\nz = {rhs}\noutput z")
    row = stability_bound(prog, x, [1.0]).rows[0]
    assert (row.kind, row.node) == ("primitive", 0)
    assert row.local_norm == pytest.approx(norm)


def test_condition_examples():
    mul = Node(PrimitiveKind.MUL, (0, 1))
    assert condition_estimate(mul, [5.0, -3.0]) == (1.0, False)
    exp = Node(PrimitiveKind.EXP, (0,))
    assert condition_estimate(exp, [0.0]) == (0.0, False)
    assert condition_estimate(exp, [10.0]) == (10.0, False)


def test_condition_cap_and_flag():
    log = Node(PrimitiveKind.LOG, (0,))
    kappa, capped = condition_estimate(log, [1.0])
    assert capped
    assert kappa == KAPPA_CAP
    add = Node(PrimitiveKind.ADD, (0, 1))
    kappa, capped = condition_estimate(add, [1.0, -1.0])
    assert capped and kappa == KAPPA_CAP


def test_pow_zero_at_zero_bound():
    # x**0 is constant, so its adjoint map is zero even at x = 0
    prog = parse_program("input x\ny = pow x 0\noutput y")
    report = stability_bound(prog, [0.0], [1.0])
    assert report.product_bound == 1.0
    assert report.rows[0].local_norm == 0.0


def test_identity_program_bound():
    prog = Program(n_inputs=2, nodes=(), outputs=(0, 1))
    report = stability_bound(prog, [1.0, 2.0], [0.6, -0.8])
    assert report.product_bound == pytest.approx(1.0)
    assert report.observed_norm == pytest.approx(1.0)
    assert report.first_order_error == 0.0


def test_norms_of_finite_gradients_past_1e154_stay_finite():
    # exp x at 700: a gradient of 1.01e304, whose square overflows; and a
    # covector of two 1e200 through the identity
    report = stability_bound(parse_program("input x\ny = exp x\noutput y"),
                             [700.0], [1.0])
    assert report.observed_norm == math.exp(700.0)
    assert report.observed_norm <= report.product_bound < math.inf
    prog = Program(n_inputs=2, nodes=(), outputs=(0, 1))
    report = stability_bound(prog, [1.0, 2.0], [1e200, -1e200])
    assert report.observed_norm == report.product_bound == math.hypot(1e200,
                                                                      1e200)


def test_rows_cover_live_nodes_only():
    # no output reads d: it has no row, and its reads of x make no fan-out
    # row; its adjoint is 0, so the bound still holds
    prog = parse_program("input x\ny = sin x\nd = mul x x\noutput y")
    report = stability_bound(prog, [0.5], [1.0])
    assert [(r.kind, r.node) for r in report.rows] == [("primitive", 0)]
    assert report.observed_norm <= report.product_bound


def test_square_program_bound():
    # x*x at 3: mul step sqrt(18), fan-out duplication step sqrt(2)
    prog = parse_program("input x\ny = mul x x\noutput y")
    report = stability_bound(prog, [3.0], [1.0])
    assert report.observed_norm == pytest.approx(6.0)
    assert report.product_bound >= report.observed_norm
    kinds = {(r.kind, r.node): r for r in report.rows}
    assert kinds[("primitive", 0)].local_norm == pytest.approx(math.sqrt(18))
    assert kinds[("fan", 0)].lipschitz == pytest.approx(math.sqrt(2))


def test_bound_holds_on_fuzz():
    rng = random.Random(17)
    for i in range(100):
        prog = random_program(seed=i * 3 + 1, depth=rng.randint(1, 40),
                              n_inputs=rng.randint(1, 6))
        x = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        w = [rng.uniform(-1, 1)]
        report = stability_bound(prog, x, w)
        assert report.observed_norm <= report.product_bound


def test_zero_delta_gives_pure_lipschitz_chain():
    prog = parse_program("input x\ny = exp x\nz = sin y\noutput z")
    report = stability_bound(prog, [0.5], [1.0], delta_const=0.0)
    expected = 1.0
    for row in report.rows:
        expected *= row.lipschitz
    assert report.product_bound == pytest.approx(expected)
    assert report.first_order_error == 0.0
    # and still an upper bound on the observed pullback norm
    assert report.observed_norm <= report.product_bound + 1e-12


def test_monotone_under_appended_primitives():
    base = parse_program("input x\ny = exp x\noutput y")
    longer = parse_program("input x\ny = exp x\nz = mul y y\noutput z")
    b0 = stability_bound(base, [0.5], [1.0]).product_bound
    b1 = stability_bound(longer, [0.5], [1.0]).product_bound
    assert b1 >= b0  # appended steps all have effective L >= 1


def test_delta_scaling():
    prog = parse_program("input x\ny = exp x\noutput y")
    r4 = stability_bound(prog, [2.0], [1.0], delta_const=4.0)
    r8 = stability_bound(prog, [2.0], [1.0], delta_const=8.0)
    d4 = [row.delta for row in r4.rows if row.kind == "primitive"][0]
    d8 = [row.delta for row in r8.rows if row.kind == "primitive"][0]
    assert d8 == pytest.approx(2 * d4)
    assert d4 == pytest.approx(4 * UNIT_ROUNDOFF * 2.0)


def test_first_order_error_is_delta_sum():
    prog = parse_program("input x y\nt = mul x y\nu = exp t\noutput u")
    report = stability_bound(prog, [0.5, 0.25], [1.0])
    assert report.first_order_error == pytest.approx(
        sum(r.delta for r in report.rows))


def test_report_json_roundtrip():
    prog = parse_program("input x\ny = tanh x\noutput y")
    payload = stability_bound(prog, [0.2], [1.0]).to_json_dict()
    assert set(payload) == {"rows", "product_bound", "observed_norm",
                            "first_order_error"}
    assert payload["observed_norm"] == pytest.approx(
        abs(vjp(prog, [0.2], [1.0])[0]))
