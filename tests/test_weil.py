import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetweil.errors import (DomainError, IncompatibleShapesError,
                            ShapeTooLargeError)
from jetweil.weil import (PAIR_LIMIT, WeilShape, WeilValue, make_shape,
                          multi_factorial, weil_add, weil_const, weil_mul,
                          weil_neg, weil_pow_int, weil_recip, weil_sub,
                          weil_unary)


def val(caps, coeffs):
    return WeilValue(make_shape(caps), np.asarray(coeffs, dtype=float))


def weil_generator(shape: WeilShape, j: int) -> WeilValue:
    """The j-th nilpotent generator e_j as a value."""
    coeffs = np.zeros(shape.dim)
    coeffs[shape.strides[j]] = 1.0
    return WeilValue(shape, coeffs)


def test_make_shape_dims():
    assert make_shape([2, 1]).dim == 6
    assert make_shape([1]).dim == 2
    assert make_shape([3, 3, 3]).dim == 64


def test_make_shape_rejects_bad_caps():
    with pytest.raises(ValueError):
        make_shape([])
    with pytest.raises(ValueError):
        make_shape([0, 2])


def test_make_shape_guard():
    with pytest.raises(ShapeTooLargeError) as exc:
        make_shape([9] * 8, max_dim=1000)
    assert exc.value.dim == 10 ** 8
    assert exc.value.limit == 1000


def test_index_alpha_roundtrip():
    shape = make_shape([2, 1, 3])
    for idx, alpha in enumerate(shape.multi_indices()):
        assert shape.alpha_of(idx) == alpha


def test_shape_equality_is_structural():
    assert make_shape([2, 1]) == make_shape([2, 1])
    assert make_shape([2, 1]) != make_shape([1, 2])


def test_add_example():
    a = val([1], [1, 1])
    b = val([1], [2, 3])
    assert np.array_equal(weil_add(a, b).coeffs, [3, 4])


def test_add_identity_and_inverse():
    a = val([2], [0.5, -1.25, 2.0])
    zero = weil_const(a.shape, 0.0)
    assert np.array_equal(weil_add(a, zero).coeffs, a.coeffs)
    assert np.array_equal(weil_add(a, weil_neg(a)).coeffs, np.zeros(3))


def test_mul_square_example():
    w = val([2], [1, 1, 0])
    assert np.array_equal(weil_mul(w, w).coeffs, [1, 2, 1])


def test_mul_identity():
    a = val([2, 1], [0.3, 1.5, -2, 0.25, 4, -1])
    one = weil_const(a.shape, 1.0)
    assert np.array_equal(weil_mul(a, one).coeffs, a.coeffs)


def test_mul_nilpotency_example():
    e = weil_generator(make_shape([1]), 0)
    assert np.array_equal(weil_mul(e, e).coeffs, np.zeros(2))


def test_mul_shape_mismatch():
    with pytest.raises(IncompatibleShapesError):
        weil_mul(val([1], [1, 2]), val([2], [1, 2, 3]))


def test_mul_batched_against_loop():
    # Unbatched products use the pair table and batched ones the slice loop;
    # both add every coefficient's terms in one order, so they agree exactly.
    # (1500,) has more pairs than PAIR_LIMIT and loops unbatched too.
    assert 1501 * 1502 // 2 > PAIR_LIMIT
    rng = np.random.default_rng(0)
    for caps in [(2,), (15,), (2, 2), (4, 4, 4), (1,) * 6, (15, 15),
                 (1500,)]:
        shape = make_shape(caps)
        a = WeilValue(shape, rng.normal(size=(shape.dim, 5)))
        b = WeilValue(shape, rng.normal(size=(shape.dim, 5)))
        batched = weil_mul(a, b)
        for i in range(5):
            single = weil_mul(WeilValue(shape, a.coeffs[:, i]),
                              WeilValue(shape, b.coeffs[:, i]))
            assert np.array_equal(batched.coeffs[:, i], single.coeffs), caps


def _sparse_factors(shape, rng, batch):
    """Batched factors named by their nonzero rows: dense, a constant, a
    seeded input (rows 0 and the strides), rows zero in only some columns."""
    dense = rng.normal(size=(shape.dim, batch))
    const = np.zeros_like(dense)
    const[0] = rng.normal(size=batch)
    seeded = const.copy()
    seeded[list(shape.strides)] = rng.normal(size=(shape.p, batch))
    partial = dense * (rng.random(dense.shape) < 0.5)
    partial[1::3] = 0.0
    return {name: WeilValue(shape, c) for name, c in [
        ("dense", dense), ("const", const), ("seeded", seeded),
        ("partial", partial)]}


@pytest.mark.parametrize("caps", [(2,), (15,), (2, 2), (4, 4, 4), (1,) * 6,
                                  (1500,)])
def test_mul_sparse_factors_batched_against_loop(caps):
    # The slice loop runs over the sparser factor, over a second factor's
    # rows in descending index; every column still matches its unbatched
    # product, which (1500,), past PAIR_LIMIT, also takes by the slice loop.
    rng = np.random.default_rng(7)
    shape = make_shape(caps)
    factors = _sparse_factors(shape, rng, 4)
    pairs = [("dense", "const"), ("const", "dense"), ("dense", "seeded"),
             ("seeded", "dense"), ("dense", "partial"), ("partial", "dense"),
             ("seeded", "const"), ("const", "seeded"), ("seeded", "partial"),
             ("partial", "seeded"), ("partial", "partial")]
    for x, y in pairs:
        a, b = factors[x], factors[y]
        batched = weil_mul(a, b)
        for i in range(4):
            single = weil_mul(WeilValue(shape, a.coeffs[:, i]),
                              WeilValue(shape, b.coeffs[:, i]))
            assert np.array_equal(batched.coeffs[:, i], single.coeffs), \
                (caps, x, y, i)


def test_mul_mixed_batch():
    # An unbatched factor is the one looped over, in either operand order,
    # and each column still matches its unbatched product bit for bit.
    rng = np.random.default_rng(1)
    for caps in [(1, 1), (2,), (15,), (2, 2), (4, 4, 4), (15, 15)]:
        shape = make_shape(caps)
        a = WeilValue(shape, rng.normal(size=(shape.dim,)))
        b = WeilValue(shape, rng.normal(size=(shape.dim, 4)))
        for out, first in ((weil_mul(a, b), True), (weil_mul(b, a), False)):
            assert out.coeffs.shape == (shape.dim, 4)
            for i in range(4):
                col = WeilValue(shape, b.coeffs[:, i])
                single = weil_mul(a, col) if first else weil_mul(col, a)
                assert np.array_equal(out.coeffs[:, i], single.coeffs), \
                    (caps, first, i)


def test_mul_broadcasts_a_single_column():
    # the sparser factor may be the one with more columns; the batch shapes
    # broadcast in either order
    shape = make_shape((2, 2))
    factors = _sparse_factors(shape, np.random.default_rng(9), 4)
    dense = WeilValue(shape, factors["dense"].coeffs[:, :1])
    for x, y in ((dense, factors["const"]), (factors["const"], dense)):
        out = weil_mul(x, y)
        for i in range(4):
            a, b = (WeilValue(shape, w.coeffs[:, i % len(w.primal)])
                    for w in (x, y))
            assert np.array_equal(out.coeffs[:, i], weil_mul(a, b).coeffs)


@pytest.mark.parametrize("caps", [(2, 2), (1,) * 6, (4, 4, 4)])
def test_slice_loop_updates_per_sparse_row(monkeypatch, caps):
    # A product costs one slice update per nonzero row of the sparser
    # factor, whichever operand it is: 1 for a constant, p + 1 for a
    # seeded input.
    from jetweil import weil
    lookups = []
    table = weil._slice_table

    class Counting(list):
        def __getitem__(self, k):
            lookups.append(k)
            return list.__getitem__(self, k)

    monkeypatch.setattr(weil, "_slice_table",
                        lambda shape: Counting(table(shape)))
    shape = make_shape(caps)
    factors = _sparse_factors(shape, np.random.default_rng(8), 3)
    dense = factors["dense"]
    for sparse, want in (("const", 1), ("seeded", shape.p + 1)):
        for a, b in ((dense, factors[sparse]), (factors[sparse], dense)):
            lookups.clear()
            weil_mul(a, b)
            assert len(lookups) == want, (caps, sparse)


def test_unary_exp_example():
    w = val([2], [0, 1, 0])
    assert np.allclose(weil_unary("exp", w).coeffs, [1, 1, 0.5], atol=1e-15)


def test_unary_log_example():
    w = val([2], [1, 1, 0])
    assert np.allclose(weil_unary("log", w).coeffs, [0, 1, -0.5], atol=1e-15)


@pytest.mark.parametrize("caps", [(15,), (3, 3)])
def test_tanh_against_exp_and_recip(caps):
    # tanh x = 1 - 2 / (1 + exp(2x)), built from the other lifts.
    rng = np.random.default_rng(2)
    shape = make_shape(caps)
    for primal in (-2.0, -0.3, 0.0, 0.7, 3.0):
        coeffs = rng.uniform(-0.5, 0.5, size=shape.dim)
        coeffs[0] = primal
        x = WeilValue(shape, coeffs)
        one = weil_const(shape, 1.0)
        r = weil_recip(weil_add(one, weil_unary("exp", weil_add(x, x))))
        ref = weil_sub(one, weil_add(r, r))
        got = weil_unary("tanh", x)
        assert np.allclose(got.coeffs, ref.coeffs, rtol=0, atol=1e-12)


def test_unary_constant_jet():
    w = weil_const(make_shape([1]), 0.7)
    for kind in ("exp", "log", "sin", "cos", "tanh", "sqrt", "recip"):
        out = weil_recip(w) if kind == "recip" else weil_unary(kind, w)
        nil = out.coeffs.copy()
        nil[0] = 0.0
        assert np.array_equal(nil, np.zeros_like(nil))


def test_unary_domain_error_carries_value():
    w = val([1], [-1.0, 1.0])
    with pytest.raises(DomainError) as exc:
        weil_unary("log", w)
    assert exc.value.value == -1.0


def test_recip_examples():
    assert np.allclose(weil_recip(val([1], [2, 1])).coeffs, [0.5, -0.25])
    one = weil_const(make_shape([2]), 1.0)
    assert np.allclose(weil_recip(one).coeffs, one.coeffs)
    assert np.allclose(weil_recip(val([2], [1, 1, 0])).coeffs, [1, -1, 1])


def test_recip_of_nilpotent_rejected():
    with pytest.raises(DomainError):
        weil_recip(val([1], [0.0, 1.0]))


def test_pow_int_matches_repeated_mul():
    w = val([3], [1.2, 0.7, -0.3, 0.1])
    by_mul = w
    for n in range(2, 6):
        by_mul = weil_mul(by_mul, w)
        fast = weil_pow_int(w, n)
        assert np.allclose(fast.coeffs, by_mul.coeffs, rtol=1e-13)


def test_pow_fractional_and_negative():
    w = val([2], [4.0, 1.0, 0.0])
    half = weil_unary("pow", w, exponent=0.5)
    assert np.allclose(half.coeffs, weil_unary("sqrt", w).coeffs, rtol=1e-13)
    inv = weil_unary("pow", w, exponent=-1.0)
    assert np.allclose(inv.coeffs, weil_recip(w).coeffs, rtol=1e-13)


def _random_value(caps, seed):
    rng = np.random.default_rng(seed)
    shape = make_shape(caps)
    return WeilValue(shape, rng.uniform(-2.0, 2.0, size=shape.dim))


caps_strategy = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(caps=caps_strategy, seed=st.integers(0, 10 ** 6))
def test_ring_axioms(caps, seed):
    a = _random_value(caps, seed)
    b = _random_value(caps, seed + 1)
    c = _random_value(caps, seed + 2)
    scale = float(np.max(np.abs(a.coeffs)) * np.max(np.abs(b.coeffs)) + 1)
    assert np.allclose(weil_add(a, b).coeffs, weil_add(b, a).coeffs,
                       rtol=1e-14)
    assert np.allclose(weil_mul(a, b).coeffs, weil_mul(b, a).coeffs,
                       rtol=1e-14, atol=1e-14 * scale)
    lhs = weil_mul(weil_mul(a, b), c)
    rhs = weil_mul(a, weil_mul(b, c))
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-14,
                       atol=1e-13 * scale)
    dist_l = weil_mul(a, weil_add(b, c))
    dist_r = weil_add(weil_mul(a, b), weil_mul(a, c))
    assert np.allclose(dist_l.coeffs, dist_r.coeffs, rtol=1e-14,
                       atol=1e-13 * scale)


@settings(max_examples=30, deadline=None)
@given(caps=caps_strategy, j=st.integers(0, 2))
def test_generator_nilpotency(caps, j):
    j = j % len(caps)
    shape = make_shape(caps)
    e = weil_generator(shape, j)
    power = e
    for _ in range(caps[j]):
        power = weil_mul(power, e)
    assert np.array_equal(power.coeffs, np.zeros(shape.dim))


@settings(max_examples=50, deadline=None)
@given(caps=caps_strategy, seed=st.integers(0, 10 ** 6))
def test_recip_is_inverse(caps, seed):
    w = _random_value(caps, seed)
    w.coeffs[0] = float(np.sign(w.coeffs[0]) or 1.0) * (abs(w.coeffs[0]) + 0.1)
    r = weil_recip(w)
    prod = weil_mul(w, r)
    one = weil_const(w.shape, 1.0)
    # roundoff scales with the size of the reciprocal coefficients
    scale = max(1.0, float(np.max(np.abs(r.coeffs))))
    assert np.allclose(prod.coeffs, one.coeffs, atol=1e-10 * scale)


@settings(max_examples=50, deadline=None)
@given(caps=caps_strategy, seed=st.integers(0, 10 ** 6))
def test_exp_log_consistency(caps, seed):
    w = _random_value(caps, seed)
    w.coeffs[0] = abs(w.coeffs[0]) + 0.11
    back = weil_unary("exp", weil_unary("log", w))
    scale = max(1.0, float(np.max(np.abs(w.coeffs))) / abs(w.coeffs[0]))
    assert np.allclose(back.coeffs, w.coeffs, rtol=1e-9,
                       atol=1e-9 * scale ** sum(caps))


def test_multi_factorial():
    assert multi_factorial((0, 0)) == 1
    assert multi_factorial((3, 2, 1)) == 12
    assert multi_factorial((4,)) == math.factorial(4)


IDENTITY_CAPS = [(15,), (3, 3), (4, 4, 4), (1,) * 6, (2, 2, 2)]


def _jet(shape, rng, primal, batch=()):
    coeffs = rng.uniform(-0.5, 0.5, size=(shape.dim,) + batch)
    coeffs[0] = primal
    return WeilValue(shape, coeffs)


def _gap(a, b):
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


@pytest.mark.parametrize("caps", IDENTITY_CAPS)
def test_graded_lift_identities(caps):
    rng = np.random.default_rng(3)
    shape = make_shape(caps)
    one = weil_const(shape, 1.0)
    x = _jet(shape, rng, -0.4)
    pos = _jet(shape, rng, 1.3)
    sin, cos = weil_unary("sin", x), weil_unary("cos", x)
    root = weil_unary("sqrt", pos)
    log = weil_unary("log", pos)
    gaps = {
        "exp(x) exp(-x)": _gap(weil_mul(weil_unary("exp", x),
                                        weil_unary("exp", weil_neg(x))), one),
        "sin^2 + cos^2": _gap(weil_add(weil_mul(sin, sin),
                                       weil_mul(cos, cos)), one),
        "log(exp x)": _gap(weil_unary("log", weil_unary("exp", x)), x),
        "sqrt(x)^2": _gap(weil_mul(root, root), pos),
        "recip(x) x": _gap(weil_mul(weil_recip(pos), pos), one),
        "pow(x, 2.5)": _gap(
            weil_unary("pow", pos, exponent=2.5),
            weil_unary("exp", weil_mul(weil_const(shape, 2.5), log))),
    }
    assert max(gaps.values()) <= 1e-12, gaps


UNARY_CASES = [("exp", None), ("log", None), ("sin", None), ("cos", None),
               ("tanh", None), ("sqrt", None), ("recip", None),
               ("pow", 2.5), ("pow", -1.5), ("pow", -2.0), ("pow", 3.0)]


@pytest.mark.parametrize("caps", [(2,), (15,), (2, 2), (4, 4, 4), (1,) * 6,
                                  (6, 6, 6)])
def test_unary_batched_against_loop(caps):
    # One batched lift and one unbatched lift per column add every
    # coefficient's terms in the same order, so they agree exactly.
    rng = np.random.default_rng(4)
    shape = make_shape(caps)
    w = _jet(shape, rng, rng.uniform(0.5, 2.0, size=5), batch=(5,))
    for kind, exponent in UNARY_CASES:
        batched = (weil_recip(w) if kind == "recip"
                   else weil_unary(kind, w, exponent=exponent))
        for i in range(5):
            col = WeilValue(shape, w.coeffs[:, i])
            single = (weil_recip(col) if kind == "recip"
                      else weil_unary(kind, col, exponent=exponent))
            assert np.array_equal(batched.coeffs[:, i], single.coeffs), \
                (kind, exponent, caps)


@pytest.mark.parametrize("batch", [1, 7, 9])
def test_unary_batched_in_column_blocks(monkeypatch, batch):
    # A small GATHER_LIMIT splits every level into blocks of 2 to 5 columns,
    # and 9 columns leave a lone one; each still matches its unbatched lift.
    from jetweil import weil
    monkeypatch.setattr(weil, "GATHER_LIMIT", 40)
    weil._levels.cache_clear()
    try:
        rng = np.random.default_rng(6)
        shape = make_shape((4, 4))
        w = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
        for kind in ("exp", "sin", "tanh", "log"):
            batched = weil_unary(kind, w)
            for i in range(batch):
                single = weil_unary(kind, WeilValue(shape, w.coeffs[:, i]))
                assert np.array_equal(batched.coeffs[:, i], single.coeffs), kind
    finally:
        weil._levels.cache_clear()


def test_unary_past_pair_limit_matches_table(monkeypatch):
    # Past PAIR_LIMIT the lifts build each target's pairs from its box,
    # in the order of the table, so they agree exactly.
    from jetweil import weil
    rng = np.random.default_rng(5)
    shape = make_shape((3, 2, 2))
    cases = [(kind, exponent, batch) for kind, exponent in UNARY_CASES
             for batch in ((), (3,))]
    values = {batch: _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch),
                          batch=batch) for batch in ((), (3,))}

    def lift(kind, exponent, batch):
        w = values[batch]
        return (weil_recip(w) if kind == "recip"
                else weil_unary(kind, w, exponent=exponent))

    table = [lift(*case) for case in cases]
    monkeypatch.setattr(weil, "PAIR_LIMIT", 0)
    weil._pair_table.cache_clear()
    weil._levels.cache_clear()
    try:
        for case, ref in zip(cases, table):
            assert np.array_equal(lift(*case).coeffs, ref.coeffs), case
    finally:
        weil._pair_table.cache_clear()
        weil._levels.cache_clear()


@pytest.mark.parametrize("kind, exponent, primal, message", [
    ("log", None, 0.0, "log requires a positive primal"),
    ("sqrt", None, -1.0, "sqrt lift requires a positive primal"),
    ("pow", 0.5, -4.0, "fractional power requires a positive primal"),
    ("pow", -1.0, 0.0, "negative power of a non-invertible element"),
    ("recip", None, 0.0, "reciprocal of a non-invertible element "
                         "(primal coefficient is zero)"),
])
def test_unary_domain_errors(kind, exponent, primal, message):
    from jetweil.jets import SeedSpec, taylor_eval
    from jetweil.slp import parse_program
    w = val([2], [primal, 1.0, 0.0])
    with pytest.raises(DomainError) as exc:
        if kind == "recip":
            weil_recip(w)
        else:
            weil_unary(kind, w, exponent=exponent)
    assert str(exc.value) == message
    assert exc.value.value == primal
    # inside a program the evaluator adds the node index
    op = f"pow x {exponent}" if kind == "pow" else f"{kind} x"
    prog = parse_program(f"input x\nc = const 1\ny = {op}\noutput y\n")
    with pytest.raises(DomainError) as exc:
        taylor_eval(prog, SeedSpec((primal,), ((1.0,),), (2,)))
    assert str(exc.value) == message
    assert exc.value.node == 1


def test_sqrt_of_constant_jet_at_zero():
    out = weil_unary("sqrt", weil_const(make_shape([3]), 0.0))
    assert np.array_equal(out.coeffs, np.zeros(4))
    with pytest.raises(DomainError) as exc:
        weil_unary("sqrt", weil_const(make_shape([3]), -1.0))
    assert str(exc.value) == "sqrt of a negative primal"


def test_sqrt_boundary_decided_per_column():
    # column 0 is the constant jet at 0, column 1 is not: each column lifts
    # as it would alone
    shape = make_shape([2])
    w = WeilValue(shape, np.array([[0.0, 1.0], [0.0, 0.5], [0.0, 0.0]]))
    out = weil_unary("sqrt", w)
    for i in range(2):
        single = weil_unary("sqrt", WeilValue(shape, w.coeffs[:, i]))
        assert np.array_equal(out.coeffs[:, i], single.coeffs)
    assert np.array_equal(out.coeffs[:, 0], np.zeros(3))
    # a non-constant column at 0 and a constant one below 0 still fail
    with pytest.raises(DomainError, match="requires a positive primal"):
        weil_unary("sqrt", WeilValue(shape, np.array([[0.0, 0.0],
                                                      [0.0, 0.5],
                                                      [0.0, 0.0]])))
    with pytest.raises(DomainError, match="sqrt of a negative primal"):
        weil_unary("sqrt", WeilValue(shape, np.array([[-1.0, 1.0],
                                                      [0.0, 0.5],
                                                      [0.0, 0.0]])))


def _batched_kernels(shape, rng, batch):
    """A batched product and three batched lifts, with their inputs."""
    a = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
    b = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
    return [weil_mul(a, b), weil_unary("sin", a), weil_unary("tanh", b),
            weil_unary("log", a)]


def test_batched_results_do_not_alias_scratch():
    # results outlive later kernel calls of other shapes and batches, which
    # reuse the same scratch, and stay exactly as they were
    from jetweil import weil
    rng = np.random.default_rng(7)
    kept = _batched_kernels(make_shape((1,) * 6), rng, 300)
    copies = [r.coeffs.copy() for r in kept]
    for caps, batch in [((2, 2), 1000), ((4, 4), 64), ((1,) * 6, 300)]:
        _batched_kernels(make_shape(caps), rng, batch)
    for r, c in zip(kept, copies):
        assert np.array_equal(r.coeffs, c)
        for buf in weil._scratch.bufs:
            assert not np.shares_memory(r.coeffs, buf)


def test_level_tables_are_bounds_checked():
    from jetweil import weil
    zero = np.zeros(1, dtype=np.intp)
    with pytest.raises(IndexError):
        weil._level_conv(np.array([[4]]), np.array([[0]]), zero, zero, zero,
                         3)
    with pytest.raises(IndexError):
        weil._level_conv(np.array([[1]]), np.array([[-1]]), zero, zero, zero,
                         3)


def test_threads_lift_like_serial():
    # each thread keeps its own scratch: threads (more than cores) lifting
    # different batches at once, switching often, give their serial
    # results bit for bit
    import sys
    import threading
    cases = [(make_shape((1,) * 6), 700), (make_shape((2, 2, 2)), 900),
             (make_shape((1,) * 4), 300), (make_shape((3, 3)), 500)]
    serial = [_batched_kernels(shape, np.random.default_rng(i), batch)
              for i, (shape, batch) in enumerate(cases)]
    results = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def work(i):
        shape, batch = cases[i]
        start.wait(timeout=60)
        for _ in range(5):
            results[i].append(_batched_kernels(
                shape, np.random.default_rng(i), batch))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, ref in zip(results, serial):
        assert len(runs) == 5
        for run in runs:
            for got, want in zip(run, ref):
                assert np.array_equal(got.coeffs, want.coeffs)
