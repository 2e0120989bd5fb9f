import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetweil.errors import (DomainError, IncompatibleShapesError,
                            ShapeTooLargeError)
from jetweil.weil import (PAIR_LIMIT, WeilValue, make_shape, multi_factorial,
                          weil_add, weil_const, weil_generator, weil_mul,
                          weil_neg, weil_pow_int, weil_recip, weil_sub,
                          weil_unary)


def val(caps, coeffs):
    return WeilValue(make_shape(caps), np.asarray(coeffs, dtype=float))


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
        assert shape.index(alpha) == idx
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


def test_mul_mixed_batch():
    rng = np.random.default_rng(1)
    shape = make_shape([1, 1])
    a = WeilValue(shape, rng.normal(size=(4,)))
    b = WeilValue(shape, rng.normal(size=(4, 3)))
    out = weil_mul(a, b)
    assert out.coeffs.shape == (4, 3)
    for i in range(3):
        single = weil_mul(a, WeilValue(shape, b.coeffs[:, i]))
        assert np.allclose(out.coeffs[:, i], single.coeffs, atol=1e-14)


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
        out = weil_unary(kind, w)
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
