import contextlib
import copy
import hashlib
import itertools
import math
import pickle
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetweil.errors import (DomainError, IncompatibleShapesError,
                            NumericOverflowError, ShapeTooLargeError)
from jetweil import weil
from jetweil.jets import SeedSpec, WeilSemantics, taylor_eval
from jetweil.slp import eval_generic, parse_program, random_program
from jetweil.weil import (DEFAULT_MAX_DIM, PAIR_LIMIT, WeilShape, WeilValue,
                          make_shape, multi_factorial, weil_add, weil_const,
                          weil_mul, weil_neg, weil_pow_int, weil_recip,
                          weil_sub, weil_unary)


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


def test_shapes_are_interned():
    shape = make_shape((2, 1))
    assert make_shape([2, 1]) is shape
    assert make_shape(np.array([2, 1])) is shape
    assert copy.copy(shape) is shape
    assert copy.deepcopy(shape) is shape
    assert pickle.loads(pickle.dumps(shape)) is shape


def test_threads_intern_one_shape(monkeypatch):
    # a slow constructor holds every thread inside the interning at once
    def slow_shape(**fields):
        time.sleep(0.01)
        return WeilShape(**fields)
    monkeypatch.setattr(weil, "WeilShape", slow_shape)
    caps = (41, 2, 3)  # caps no other test makes
    with ThreadPoolExecutor(8) as pool:
        shapes = list(pool.map(lambda _: make_shape(caps), range(8)))
    assert all(s is shapes[0] for s in shapes)


def test_shape_past_default_max_dim_copies_interned():
    # a copy goes back through the interning, not through the max_dim check
    shape = make_shape((1,) * 21, max_dim=1 << 21)
    assert shape.dim > DEFAULT_MAX_DIM
    assert copy.deepcopy(shape) is shape
    assert pickle.loads(pickle.dumps(shape)) is shape


def test_copied_values_keep_their_interned_shape():
    a = val([2, 1], [0.3, 1.5, -2, 0.25, 4, -1])
    b = pickle.loads(pickle.dumps(a))
    assert b.shape is a.shape and copy.deepcopy(a).shape is a.shape
    assert np.array_equal(weil_mul(a, b).coeffs, weil_mul(a, a).coeffs)


@pytest.mark.parametrize("caps", [(2.7,), (2.0,), (True,), (2, False),
                                  (np.True_,), (np.float64(2.0),), ("2",)])
def test_non_integer_caps_are_refused(caps):
    with pytest.raises(ValueError, match="integer"):
        make_shape(caps)
    with pytest.raises(ValueError, match="integer"):
        SeedSpec(base=(1.0,), directions=((1.0,),) * len(caps), caps=caps)


def test_numpy_integer_caps_are_accepted():
    caps = np.array([3, 1], dtype=np.int32)
    assert make_shape(caps) is make_shape((3, 1))
    spec = SeedSpec(base=(1.0,), directions=((1.0,), (0.5,)), caps=caps)
    assert spec.caps == (3, 1) and type(spec.caps[0]) is int


def test_value_with_wrong_rows_is_refused():
    with pytest.raises(IncompatibleShapesError, match="3 rows, expected 6"):
        WeilValue(make_shape((2, 1)), np.zeros(3))


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
    # same dim, different caps
    with pytest.raises(IncompatibleShapesError, match=r"\(1, 2\) vs \(2, 1\)"):
        weil_mul(val([1, 2], [0.0] * 6), val([2, 1], [0.0] * 6))


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


GATHER_CAPS = [(1,) * 4, (1,) * 5, (1,) * 6, (2, 2), (2, 2, 2), (3,), (15,)]


def _columns_match_unbatched(shape, a, b, out):
    for i in range(a.shape[1]):
        single = weil_mul(WeilValue(shape, a[:, i]), WeilValue(shape, b[:, i]))
        assert np.array_equal(out[:, i], single.coeffs), (shape.caps, i)


@pytest.mark.parametrize("caps", GATHER_CAPS)
@pytest.mark.parametrize("batch", [2, 3, 128])
def test_dense_product_groups_against_loop(caps, batch):
    # Dense batched products go through the grouped gather, but on (2, 2),
    # (3,) and (15,), with few rows per group, through the slice loop; the
    # groups themselves are checked at every shape.  Each column equals its
    # unbatched product bit for bit.
    rng = np.random.default_rng(11)
    shape = make_shape(caps)
    a, b = rng.normal(size=(2, shape.dim, batch))
    _columns_match_unbatched(
        shape, a, b, weil_mul(WeilValue(shape, a), WeilValue(shape, b)).coeffs)
    out = np.empty_like(a)
    for targets, conv in weil._product_groups(shape):
        out[targets] = conv(a, b)[0]
    _columns_match_unbatched(shape, a, b, out)


@pytest.mark.parametrize("batch", [1, 7, 9])
def test_dense_product_groups_past_gather_limit(monkeypatch, batch):
    # Each group's conv, given no out arrays, sums into new ones; each still
    # matches its unbatched product.  Past a small GATHER_LIMIT weil_mul
    # itself takes the slice loop, since the pairs times the columns exceed
    # GATHER_LIMIT, but a lone column, which no conv is given, runs the
    # unbatched product.
    monkeypatch.setattr(weil, "GATHER_LIMIT", 40)
    weil._product_groups.cache_clear()
    try:
        rng = np.random.default_rng(12)
        for caps in [(1,) * 4, (2, 2, 2)]:
            shape = make_shape(caps)
            a, b = rng.normal(size=(2, shape.dim, batch))
            if batch > 1:
                out = np.empty_like(a)
                for targets, conv in weil._product_groups(shape):
                    out[targets] = conv(a, b)[0]
                _columns_match_unbatched(shape, a, b, out)
            _columns_match_unbatched(shape, a, b, weil_mul(
                WeilValue(shape, a), WeilValue(shape, b)).coeffs)
    finally:
        weil._product_groups.cache_clear()


@pytest.mark.parametrize("caps", [(1,) * 6, (3, 3, 3), (2, 2, 2)])
def test_lone_column_products_run_unbatched(monkeypatch, caps):
    # Factors of one column or none each take the pair table, never the
    # batched kernels (which look for zero rows first), and the product has
    # the shape of the factor with more axes; its column is the unbatched
    # product bit for bit.
    shape = make_shape(caps)
    a, b = np.random.default_rng(14).normal(size=(2, shape.dim))
    want = weil_mul(WeilValue(shape, a), WeilValue(shape, b)).coeffs
    monkeypatch.setattr(weil, "_nonzero_rows", None)
    for sa, sb in [((1,), (1,)), ((), (1,)), ((1, 1), (1,)), ((1, 1), (1, 1))]:
        got = weil_mul(WeilValue(shape, a.reshape((shape.dim,) + sa)),
                       WeilValue(shape, b.reshape((shape.dim,) + sb))).coeffs
        assert got.shape == (shape.dim,) + max(sa, sb, key=len)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("caps", [(1, 1, 1), (1,) * 4, (2, 2, 2)])
@pytest.mark.parametrize("batch", [2, 3])
def test_negative_zero_products_as_bincount(caps, batch):
    # Column 0 has only -0.0 terms (+0.0 times a negative, or -0.0 times a
    # positive); the other columns make every row nonzero, so the product
    # gathers.  np.bincount adds them to 0.0 and gives +0.0, and so must
    # every kernel.
    shape = make_shape(caps)
    rng = np.random.default_rng(13)
    for zero, other in ((0.0, -1.0), (-0.0, 1.0)):
        a = rng.normal(size=(shape.dim, batch))
        b = rng.normal(size=(shape.dim, batch))
        a[:, 0], b[:, 0] = zero, other * rng.uniform(1, 2, shape.dim)
        out = weil_mul(WeilValue(shape, a), WeilValue(shape, b)).coeffs
        i, j, k = weil._pair_table(shape)
        want = np.bincount(k, a[i, 0] * b[j, 0], shape.dim)
        assert not np.signbit(want).any()
        assert np.array_equal(out[:, 0], want)
        assert not np.signbit(out[:, 0]).any()


@pytest.mark.parametrize("batch", [2, 3, 4, 8, 16, 128])
def test_batched_fold_without_fused_multiply_add(batch):
    # Rounding each product before adding it gives
    # -(1 + 2**-29) + (1 + 2**-29) = 0; a fused multiply-add would keep the
    # 2**-60 that rounding a1 * a1 drops.  The batched kernels multiply and
    # then add, in two numpy calls, so they fold as np.bincount does on
    # every platform; a one-call sum of products (np.einsum, np.dot) may
    # fuse the two where the CPU has the instruction.
    a1, a0 = 1.0 + 2.0 ** -30, -(1.0 + 2.0 ** -29)
    assert a1 * a1 + a0 == 0.0
    # the same sums through a product: target e_0 of (1,)*4 has the pairs
    # (0, e_0) and (e_0, 0), in that order; column 1 on makes rows nonzero
    shape = make_shape((1,) * 4)
    s = shape.strides[0]
    rng = np.random.default_rng(14)
    a, b = rng.normal(size=(2, shape.dim, batch))
    a[:, 0] = b[:, 0] = 0.0
    a[0, 0], a[s, 0], b[0, 0], b[s, 0] = a0, a1, a1, 1.0
    out = weil_mul(WeilValue(shape, a), WeilValue(shape, b)).coeffs
    assert out[s, 0] == 0.0
    _columns_match_unbatched(shape, a, b, out)


@pytest.mark.parametrize("caps", [(1, 1, 1), (1,) * 4, (1,) * 6, (2, 2, 2)])
def test_dense_products_make_no_slice_update(monkeypatch, caps):
    lookups = []
    table = weil._slice_table

    class Counting(list):
        def __getitem__(self, k):
            lookups.append(k)
            return list.__getitem__(self, k)

    monkeypatch.setattr(weil, "_slice_table",
                        lambda shape: Counting(table(shape)))
    shape = make_shape(caps)
    dense = _sparse_factors(shape, np.random.default_rng(15), 3)["dense"]
    weil_mul(dense, dense)
    assert lookups == []
    # past GATHER_LIMIT pairs times columns the same product loops over rows
    pairs = weil._pair_table(shape)[0].size
    monkeypatch.setattr(weil, "GATHER_LIMIT", 3 * pairs - 1)
    weil_mul(dense, dense)
    assert len(lookups) == shape.dim


@pytest.mark.parametrize("caps", [(2, 2), (1,) * 6, (3, 3, 3)])
def test_batched_sin_gathers_dx_once_per_level(monkeypatch, caps):
    # one conv call per level and tile, with D x on the left and both of c
    # and s on the right, so D x is gathered once for both sums: 5 columns
    # in tiles of 2 make three tiles, the last a lone column
    calls = []
    build = weil._level_conv

    def counted(*tables):
        conv = build(*tables)

        def count(a, *bs, **kw):
            calls.append(len(bs))
            return conv(a, *bs, **kw)
        return count

    monkeypatch.setattr(weil, "_level_conv", counted)
    weil._levels.cache_clear()
    try:
        shape = make_shape(caps)
        monkeypatch.setattr(weil, "TILE_GATHER", 2 * weil._levels(shape)[0])
        rng = np.random.default_rng(16)
        weil_unary("sin", _jet(shape, rng, rng.uniform(0.5, 2.0, 5), (5,)))
    finally:
        weil._levels.cache_clear()
    assert calls == [2] * shape.max_total_degree * 3


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
                                  (6, 6, 6), (1,) * 5, (3, 3, 3)])
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


# Primal values at which every libm gives f exactly (exp, sin, cos and tanh
# of +-0, log of 1, and powers of 2 to the exponents of UNARY_CASES), so the
# digests below pin the recurrences' own arithmetic on any host.
EXACT_PRIMALS = {"exp": (0.0, -0.0), "sin": (0.0, -0.0), "cos": (0.0, -0.0),
                 "tanh": (0.0, -0.0), "log": (1.0,),
                 "sqrt": (0.25, 1.0, 4.0, 16.0),
                 "recip": (0.25, 1.0, 4.0, 16.0),
                 "pow": (0.25, 1.0, 4.0, 16.0)}


def _lift_digest(caps, batch):
    """SHA-256 of the coefficient bytes of every UNARY_CASES lift at caps,
    over seeded jets of the given batch (None: unbatched)."""
    shape = make_shape(caps)
    rng = np.random.default_rng(sum(caps) * 10007 + (batch or 0))
    size = () if batch is None else (batch,)
    h = hashlib.sha256()
    for kind, exponent in UNARY_CASES:
        w = _jet(shape, rng, rng.choice(EXACT_PRIMALS[kind], size=size), size)
        h.update(_lift(kind, exponent, w).coeffs.tobytes())
    return h.hexdigest()


# _lift_digest at the kernels the lifts had before they ran in graded row
# order over column tiles
LIFT_DIGESTS = {
    ((1, 1, 1, 1, 1, 1), None): "3cf684adf49ef2bd15f09f1b34c478261d950cb9d4697ef44d932737404ffc4d",
    ((1, 1, 1, 1, 1, 1), 5): "34828cd319a055ccd7b65f276a911f6ba694d6f90eb40482c78cbde2b353c51f",
    ((1, 1, 1, 1, 1, 1), 300): "d825cedd78c7d582aa9459af3f77da284a1683656dce96910250cc21aad15915",
    ((1, 1, 1, 1, 1, 1), 2048): "671a7b21df48a28a3e8d9dbdcc0229e93ac36be3ca602ddcf47e554acf0f6f98",
    ((3, 3, 3), None): "20baea9bb9b8f094746c12bb295f9693ee48ba1e2bcd5f29ac24888457467e22",
    ((3, 3, 3), 5): "64a8a87d34cae6899f1af4e984883df4927f3f819b548580810dd1dca0cfc78c",
    ((3, 3, 3), 300): "e56264ba89f16cec61d788d77c7a90cad0e0c7f0d411448eff5e4f18b7067b96",
    ((3, 3, 3), 2048): "d272981a72b0ed4b53f1850bfd5914cdd1c2169fbed9932b816ff6a73b24bca3",
    ((15,), None): "1fc89d738618845c16dcb846de5918a06cc4627fed531e3ef0ea98b3ac2dd684",
    ((15,), 5): "857b78b8135c39e67cfcd37a37c92fbf316639104e393fedbff809a2a6bb8319",
    ((15,), 300): "3fe17ac467506e6e7e04c798b4215de8133e409cb2c9ec06e29e14ea65e8faff",
    ((15,), 2048): "f4064e540139190b140012a2f05527a22ed1ac28fc9a100353fe3d1e9286dbb0",
    ((2, 2, 2), None): "f505a50f2753991c0d6959878c2e876213f7fe1026369c586a2e8fabbc42a15f",
    ((2, 2, 2), 5): "91b7ca48c5868d108f60166649cfaf8323f455e8a0f38b50b9db4c9595958f96",
    ((2, 2, 2), 300): "68f3c5f073ebd00b53788ee4e1519b14a288f6bf0d7580f841729032e60d1eb0",
    ((2, 2, 2), 2048): "f84af44565b853b6278f34a0cad1f0457ea03699aadcc4997d3071bf3d3638d0",
    ((6, 6, 6), None): "63cfc5d6812a84e3fea3cce680610627ba44640f0aba0fea5dd56bd0df0028c5",
    ((6, 6, 6), 5): "6290c111413f0208c4961cf8ee5eda9f24ddd04dba41c26114a956ef53d48a56",
    ((6, 6, 6), 300): "69f0ba1204213e5fb971d8c237232d476a5e65486ba5c73d7c5e9276099f689f",
    ((6, 6, 6), 2048): "b672c302852cdace035f483b2f274e23c78209c632eeca3ec5ae968af7947834",
}


@pytest.mark.parametrize("caps, batch", list(LIFT_DIGESTS))
def test_lifts_keep_their_bits(caps, batch):
    assert _lift_digest(caps, batch) == LIFT_DIGESTS[caps, batch]


@contextlib.contextmanager
def _pair_limit(limit):
    """The kernels under another PAIR_LIMIT, with every per-shape table
    that depends on it built afresh, before and after."""
    tables = (weil._pair_table, weil._product_groups, weil._levels,
              weil.float_kernels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "PAIR_LIMIT", limit)
        for table in tables:
            table.cache_clear()
        try:
            yield
        finally:
            for table in tables:
                table.cache_clear()


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 7, 9, 13])
def test_unary_batched_in_column_blocks(monkeypatch, batch):
    # A small TILE_GATHER runs a batch in tiles of w = 4 columns, with the
    # level tables and past PAIR_LIMIT, where the widest level is the top
    # alpha's box: one tile of 1 to 4 columns, or whole tiles and a tail,
    # a lone column (1, 5, 9, 13) running unbatched, as a tile of shape ().
    # Every lift of UNARY_CASES matches its unbatched columns bit for bit.
    shape = make_shape((3, 2, 2))
    rng = np.random.default_rng(6)
    w = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
    tiles = []
    lift_tile = weil._lift_tile

    def counted(kind, shape, coeffs, *rest):
        tiles.append(coeffs.shape[1:])
        return lift_tile(kind, shape, coeffs, *rest)

    monkeypatch.setattr(weil, "_lift_tile", counted)
    tail = batch % 4
    widths = [(4,)] * (batch // 4) + [(tail,) if tail > 1 else ()] * (tail > 0)
    for limit in (PAIR_LIMIT, 0):
        with _pair_limit(limit):
            plan = weil._levels(shape)
            widest = shape.dim - 1 if plan is None else plan[0]
            monkeypatch.setattr(weil, "TILE_GATHER", 4 * widest + 3)
            for kind, exponent in UNARY_CASES:
                tiles.clear()
                batched = _lift(kind, exponent, w)
                if (kind, exponent) != ("pow", 3.0):  # pow_int multiplies
                    assert tiles == widths, (kind, limit)
                for i in range(batch):
                    single = _lift(kind, exponent,
                                   WeilValue(shape, w.coeffs[:, i]))
                    assert np.array_equal(batched.coeffs[:, i],
                                          single.coeffs), (kind, limit)


def test_unary_one_column_tiles_run_unbatched(monkeypatch):
    # A TILE_GATHER below the widest level makes every tile one column
    # wide, and each runs unbatched, as a tile of shape (): every lift of
    # UNARY_CASES matches its unbatched columns bit for bit.
    shape = make_shape((2, 2, 2))
    rng = np.random.default_rng(15)
    w = _jet(shape, rng, rng.uniform(0.5, 2.0, size=3), batch=(3,))
    tiles = []
    lift_tile = weil._lift_tile

    def counted(kind, shape, coeffs, *rest):
        tiles.append(coeffs.shape[1:])
        return lift_tile(kind, shape, coeffs, *rest)

    monkeypatch.setattr(weil, "_lift_tile", counted)
    monkeypatch.setattr(weil, "TILE_GATHER", 1)
    for kind, exponent in UNARY_CASES:
        tiles.clear()
        batched = _lift(kind, exponent, w)
        if (kind, exponent) != ("pow", 3.0):  # pow_int multiplies
            assert tiles == [()] * 3, kind
        for i in range(3):
            single = _lift(kind, exponent, WeilValue(shape, w.coeffs[:, i]))
            assert np.array_equal(batched.coeffs[:, i], single.coeffs), kind


def test_unary_past_pair_limit_matches_table():
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
    with _pair_limit(0):
        for case, ref in zip(cases, table):
            assert np.array_equal(lift(*case).coeffs, ref.coeffs), case


DOMAIN_CASES = [
    ("log", None, 0.0, "log requires a positive primal"),
    ("sqrt", None, -1.0, "sqrt lift requires a positive primal"),
    ("pow", 0.5, -4.0, "fractional power requires a positive primal"),
    ("pow", -1.0, 0.0, "negative power of a non-invertible element"),
    ("recip", None, 0.0, "reciprocal of a non-invertible element "
                         "(primal coefficient is zero)"),
]


@contextlib.contextmanager
def _float_pairs_per_degree(limit):
    """float_kernels under another FLOAT_PAIRS_PER_DEGREE: with 0 no shape
    has them, so every batch-1 pass runs on numpy; with 10 ** 9 every shape
    within PAIR_LIMIT has them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "FLOAT_PAIRS_PER_DEGREE", limit)
        weil.float_kernels.cache_clear()
        try:
            yield
        finally:
            weil.float_kernels.cache_clear()


BATCH1_CAPS = [(1,), (8,), (15,), (2, 2), (4, 4), (2, 2, 2), (1,) * 5,
               (1,) * 6, (3, 3, 3), (4, 4, 4)]


def _lift(kind, exponent, w):
    return (weil_recip(w) if kind == "recip"
            else weil_unary(kind, w, exponent=exponent))


def _float_lift(kernels, kind, exponent, x):
    return (kernels.recip(x) if kind == "recip"
            else kernels.unary(kind, x, exponent))


@pytest.mark.parametrize("caps", BATCH1_CAPS)
def test_batch1_float_kernel_matches_numpy(caps):
    # the float kernels add each coefficient's terms in the order of
    # np.bincount, so they give the numpy kernels' bits (signed zeros
    # included): every lift of UNARY_CASES over three jets, sqrt of a
    # constant jet at a positive primal, and every product, sum and
    # difference of the jets, a jet with zero coefficients and the all -0.0
    # jet
    rng = np.random.default_rng(8)
    shape = make_shape(caps)
    with _float_pairs_per_degree(10 ** 9):
        kernels = weil.float_kernels(shape)
    jets = [_jet(shape, rng, primal) for primal in (0.3, 1.7, 40.0)]
    zero, two = weil_const(shape, 0.0), weil_const(shape, 2.0)
    numpy_out = [_lift(kind, exponent, w) for w in jets
                 for kind, exponent in UNARY_CASES]
    numpy_out.append(weil_unary("sqrt", two))
    float_out = [_float_lift(kernels, kind, exponent, w.coeffs.tolist())
                 for w in jets for kind, exponent in UNARY_CASES]
    float_out.append(kernels.unary("sqrt", two.coeffs.tolist()))
    sparse = WeilValue(shape, np.where(rng.random(shape.dim) < 0.5, 0.0,
                                       jets[0].coeffs))
    factors = jets + [sparse, weil_neg(zero)]
    # products on floats at any size
    loop = weil.FloatKernels(kernels.degrees, kernels.steps, None)
    for a in factors:
        for b in factors:
            numpy_out += [weil_mul(a, b), weil_mul(a, b), weil_add(a, b),
                          weil_sub(a, b)]
            x, y = a.coeffs.tolist(), b.coeffs.tolist()
            float_out += [kernels.mul(x, y), loop.mul(x, y),
                          kernels.add(x, y), kernels.sub(x, y)]
        numpy_out.append(weil_neg(a))
        float_out.append(kernels.neg(a.coeffs.tolist()))
    assert ([np.array(x).tobytes() for x in float_out]
            == [w.coeffs.tobytes() for w in numpy_out])


def test_batch1_float_kernel_selection():
    # at most FLOAT_PAIRS_PER_DEGREE pairs with beta != 0 per total degree
    # get float kernels; their pairs are the level tables' pairs in order,
    # and past FLOAT_MUL_PAIRS pairs their products run on the pair table
    chosen = {caps: weil.float_kernels(make_shape(caps)) is not None
              for caps in BATCH1_CAPS}
    assert chosen == {caps: caps not in ((1,) * 6, (3, 3, 3), (4, 4, 4))
                      for caps in BATCH1_CAPS}
    for caps in BATCH1_CAPS[:7]:
        products = weil.float_kernels(make_shape(caps)).products
        assert (products is None) == (caps in ((1,), (8,), (2, 2))), caps
        assert products is None or products is weil._pair_table(
            make_shape(caps))
    shape = make_shape((2, 3))
    i, j, k = weil._pair_table(shape)
    keep = i != 0
    want = sorted(zip(k[keep].tolist(), i[keep].tolist(), j[keep].tolist()))
    kernels = weil.float_kernels(shape)
    degrees, steps = kernels.degrees, kernels.steps
    assert list(degrees) == [sum(shape.alpha_of(t)) for t in range(shape.dim)]
    assert [t for _, t, _ in steps] == shape.graded()[0][1:].tolist()
    assert all(d == degrees[t] for d, t, _ in steps)
    assert all(list(pairs) == sorted(pairs) for _, _, pairs in steps)
    assert sorted((t, b, c) for _, t, pairs in steps
                  for b, c in pairs) == want


def test_pow_int_product_count():
    # one product per set bit, the first with one, and one squaring per bit
    # below the top: no squaring after the top bit
    w = val([3], [1.2, 0.7, -0.3, 0.1])
    kernels = weil.float_kernels(w.shape)
    for n in range(1, 10):
        want = bin(n).count("1") + n.bit_length() - 1
        with mock.patch.object(weil, "weil_mul", wraps=weil.weil_mul) as mul:
            out = weil_pow_int(w, n)
        assert mul.call_count == want, n
        with mock.patch.object(weil.FloatKernels, "mul", autospec=True,
                               side_effect=weil.FloatKernels.mul) as mul:
            floats = kernels.pow_int(w.coeffs.tolist(), n)
        assert mul.call_count == want, n
        assert np.array(floats).tobytes() == out.coeffs.tobytes()


@pytest.mark.parametrize("kind, exponent, primal, message", DOMAIN_CASES)
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


@pytest.mark.parametrize("kind, exponent, primal, message", DOMAIN_CASES)
@pytest.mark.parametrize("floats", [False, True], ids=["numpy", "floats"])
def test_batch1_kernels_raise_alike(floats, kind, exponent, primal, message):
    w = _jet(make_shape((2, 2)), np.random.default_rng(9), primal)
    with pytest.raises(DomainError) as exc:
        if floats:
            _float_lift(weil.float_kernels(w.shape), kind, exponent,
                        w.coeffs.tolist())
        else:
            _lift(kind, exponent, w)
    assert str(exc.value) == message
    assert exc.value.value == primal


PASS_CAPS = [(1,), (2,), (4,), (8,), (15,), (2, 2), (1, 1, 1), (3, 3),
             (1,) * 4]


def _taylor_outcome(prog, spec):
    """taylor_eval's raw table as bytes, or its error's class, message,
    node and value."""
    try:
        return taylor_eval(prog, spec).raw.tobytes()
    except DomainError as err:
        return type(err), str(err), err.node, float(err.value)
    except NumericOverflowError as err:
        return type(err), str(err), err.node


def _float_pass_cases(caps):
    rng = np.random.default_rng(len(caps) * 100 + sum(caps))
    cases = []
    for seed in range(60):
        prog = random_program(seed, depth=30, n_inputs=2, safe=seed < 30)
        dirs = rng.uniform(-1, 1, size=(len(caps), 2))
        cases.append((prog, SeedSpec(tuple(rng.uniform(-1.5, 1.5, size=2)),
                                     tuple(map(tuple, dirs)), caps)))
    return cases


@pytest.mark.parametrize("caps", PASS_CAPS)
def test_float_pass_matches_numpy_pass(caps):
    # the whole pass on floats gives the numpy pass's table to the bit, and
    # the same error class, message, node and value where it fails
    assert weil.float_kernels(make_shape(caps)) is not None
    cases = _float_pass_cases(caps)
    outcomes, lifts = {}, {}
    for limit in (10 ** 9, 0):
        with _float_pairs_per_degree(limit), mock.patch.object(
                weil, "weil_unary", wraps=weil.weil_unary) as numpy_lifts:
            outcomes[limit] = [_taylor_outcome(*case) for case in cases]
        lifts[limit] = numpy_lifts.call_count
    assert outcomes[10 ** 9] == outcomes[0]
    # the float pass lifts no node through a numpy kernel
    assert lifts[10 ** 9] == 0 < lifts[0]
    # the unsafe programs reach domain errors, and most passes succeed
    failed = [out[0] for out in outcomes[0] if not isinstance(out, bytes)]
    assert DomainError in failed and len(failed) < len(cases) // 2


# (statements, x, direction, what taylor_eval raises: None, a DomainError
# "domain" or a NumericOverflowError "overflow")
EDGE_PROGRAMS = [
    ("y = log x", 0.0, 1.0, "domain"), ("y = log x", -2.0, 1.0, "domain"),
    ("y = log x", 1e-300, 1.0, "overflow"),
    ("y = sqrt x", 0.0, 1.0, "domain"), ("y = sqrt x", 0.0, 0.0, "domain"),
    ("y = sqrt x", -1.0, 0.0, "domain"), ("y = sqrt x", -0.0, 0.0, "domain"),
    ("y = sqrt x", 1e-300, 1.0, "overflow"),
    ("y = recip x", 0.0, 1.0, "domain"), ("y = recip x", -0.0, 0.0, "domain"),
    ("y = recip x", 5e-324, 1.0, "overflow"),
    ("c = const 0\ny = recip c", 1.0, 1.0, "domain"),
    ("y = pow x 0.5", -4.0, 1.0, "domain"),
    ("y = pow x -1", 0.0, 1.0, "domain"), ("y = pow x -2", 0.0, 0.0, "domain"),
    ("y = pow x -1.5", 1e-200, 1.0, "overflow"),
    ("y = pow x 3", 1e103, 1.0, "overflow"), ("y = pow x 0", 0.0, 1.0, None),
    ("y = pow x 2.5", 2.0, 1.0, None), ("y = exp x", 1000.0, 1.0, "overflow"),
    ("y = exp x", 700.0, 1.0, None),
    ("y = mul x x\nz = mul y y", 1e100, 1.0, "overflow"),
]


@pytest.mark.parametrize("caps", [(2,), (8,), (2, 2)])
def test_float_pass_domain_edges(caps):
    outcomes = {}
    for limit in (10 ** 9, 0):
        with _float_pairs_per_degree(limit):
            outcomes[limit] = []
            for body, x, v, _ in EDGE_PROGRAMS:
                name = body.splitlines()[-1].split()[0]
                prog = parse_program(f"input x\n{body}\noutput {name}\n")
                spec = SeedSpec((x,), ((v,),) * len(caps), caps)
                outcomes[limit].append(_taylor_outcome(prog, spec))
    assert outcomes[10 ** 9] == outcomes[0]
    raised = {None: bytes, "domain": DomainError,
              "overflow": NumericOverflowError}
    assert [bytes if isinstance(out, bytes) else out[0]
            for out in outcomes[0]] == [raised[want] for *_, want in
                                        EDGE_PROGRAMS]


@pytest.mark.parametrize("limit", [0, 10 ** 9], ids=["numpy", "floats"])
def test_exp_overflow_raises_without_warning(limit):
    prog = parse_program("input x\nc = const 1\ny = exp x\noutput y\n")
    with _float_pairs_per_degree(limit), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError) as exc:
            taylor_eval(prog, SeedSpec((1000.0,), ((1.0,),), (3,)))
    assert exc.value.node == 1


def _sqrt_lifts(shape):
    """sqrt of a coefficient list on the numpy kernels and on the float
    kernels of shape, each returning a list."""
    with _float_pairs_per_degree(10 ** 9):
        floats = weil.float_kernels(shape)
    return [lambda c: weil_unary("sqrt", WeilValue(shape, c)).coeffs.tolist(),
            lambda c: floats.unary("sqrt", c)]


SQRT_MESSAGE = "sqrt lift requires a positive primal"


def test_sqrt_of_constant_jet_at_zero():
    # the tape's rule on both kernel sets: a constant jet at 0 or below is
    # refused as any jet there is, with one message and its primal as
    # DomainError.value; at a positive primal it is np.sqrt to the bit,
    # with zeros above it.  Near float64's top the recurrence's d * x0
    # overflows to inf, which numpy warns of (taylor_eval silences it), and
    # its zero sums over inf stay 0.0
    for caps in [(3,), (2, 2), (1,) * 6]:
        shape = make_shape(caps)
        for lift in _sqrt_lifts(shape):
            for primal in (0.0, -0.0, -1.0, -1e308):
                with pytest.raises(DomainError) as exc:
                    lift([primal] + [0.0] * (shape.dim - 1))
                assert str(exc.value) == SQRT_MESSAGE
                assert (np.float64(exc.value.value).tobytes()
                        == np.float64(primal).tobytes())
            for primal in (5e-324, 1e-300, 0.3, 2.0, 7.0, 1e308,
                           np.finfo(float).max):
                want = [float(np.sqrt(primal))] + [0.0] * (shape.dim - 1)
                with np.errstate(over="ignore"):
                    got = lift([primal] + [0.0] * (shape.dim - 1))
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sqrt_boundary_decided_per_column():
    # a batch is refused when any column sits at 0, a constant jet or not:
    # DomainError.value holds the primals of exactly those columns, in
    # column order (here 0.0 for column 1 and -0.0 for column 3, both
    # constant jets); the other columns lift as they would alone
    shape = make_shape([2])
    w = np.array([[4.0, 0.0, 9.0, -0.0, 2.0],
                  [0.5, 0.0, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DomainError) as exc:
        weil_unary("sqrt", WeilValue(shape, w))
    assert str(exc.value) == SQRT_MESSAGE
    assert exc.value.value.tobytes() == np.array([0.0, -0.0]).tobytes()
    kept = w[:, [0, 2, 4]]
    out = weil_unary("sqrt", WeilValue(shape, kept))
    for i in range(3):
        single = weil_unary("sqrt", WeilValue(shape, kept[:, i]))
        assert out.coeffs[:, i].tobytes() == single.coeffs.tobytes()
    assert out.coeffs[:, 2].tobytes() == np.array([np.sqrt(2.0), 0.0,
                                                   0.0]).tobytes()
    # in a program, the batched pass fails at the node where that column's
    # batch-1 pass fails, with that column's primal
    prog = parse_program("input x\ny = sqrt x\noutput y\n")
    with pytest.raises(DomainError) as batch1:
        taylor_eval(prog, SeedSpec((0.0,), ((0.0,),), (2,)))
    with pytest.raises(DomainError) as batched:
        eval_generic(prog, [WeilValue(shape, w[:, :2])],
                     WeilSemantics(shape, (2,)))
    assert batched.value.node == batch1.value.node is not None
    assert str(batched.value) == str(batch1.value) == SQRT_MESSAGE
    assert batched.value.value.tolist() == [batch1.value.value] == [0.0]


def _batched_kernels(shape, rng, batch):
    """A batched product and three batched lifts, with their inputs."""
    a = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
    b = _jet(shape, rng, rng.uniform(0.5, 2.0, size=batch), batch=(batch,))
    return [weil_mul(a, b), weil_unary("sin", a), weil_unary("tanh", b),
            weil_unary("log", a)]


def test_batched_results_outlive_later_kernel_calls():
    # results outlive later kernel calls of other shapes and batches, which
    # reuse the memory of their freed temporaries, and stay exactly as they
    # were
    rng = np.random.default_rng(7)
    kept = _batched_kernels(make_shape((1,) * 6), rng, 300)
    copies = [r.coeffs.copy() for r in kept]
    for caps, batch in [((2, 2), 1000), ((4, 4), 64), ((1,) * 6, 300)]:
        _batched_kernels(make_shape(caps), rng, batch)
    for r, c in zip(kept, copies):
        assert np.array_equal(r.coeffs, c)


def test_level_tables_are_bounds_checked():
    from jetweil import weil
    zero = np.zeros(1, dtype=np.intp)
    with pytest.raises(IndexError):
        weil._level_conv(np.array([[4]]), np.array([[0]]), zero, zero, zero,
                         3)
    with pytest.raises(IndexError):
        weil._level_conv(np.array([[1]]), np.array([[-1]]), zero, zero, zero,
                         3)


def _batched_work(shape, rng, batch):
    """_batched_kernels, then the outputs of a whole batched pass of a
    random program."""
    prog = random_program(seed=batch, depth=16, n_inputs=2)
    inputs = [_jet(shape, rng, rng.uniform(0.5, 2.0, size=batch),
                   batch=(batch,)) for _ in range(2)]
    kernels = _batched_kernels(shape, rng, batch)
    return kernels + eval_generic(prog, inputs, WeilSemantics(shape, (batch,)))


def test_threads_lift_like_serial():
    # threads (more than cores) lifting different batches and running
    # whole passes at once, switching often, give their serial results bit
    # for bit
    import sys
    import threading
    cases = [(make_shape((1,) * 6), 700), (make_shape((2, 2, 2)), 900),
             (make_shape((1,) * 4), 300), (make_shape((3, 3)), 500)]
    serial = [_batched_work(shape, np.random.default_rng(i), batch)
              for i, (shape, batch) in enumerate(cases)]
    results = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def work(i):
        shape, batch = cases[i]
        start.wait(timeout=60)
        for _ in range(5):
            results[i].append(_batched_work(
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


# Programs of the pinned batched passes: seeded-input lifts (with a product
# and a constant factor after them), and products of inputs, constants and
# an all-zero factor (a - a).  The lifts' primals are ones every libm
# evaluates exactly, so the digests hold on any host.
_PINNED_LIFTS = parse_program(
    "input a b c d\ns = sin a\nk = cos a\ne = exp b\nt = tanh c\n"
    "l = log d\nm = mul s e\nh = const 0.5\nq = mul h t\nu = add m q\n"
    "v = mul k l\noutput s k e t l u v\n")
_PINNED_MULS = parse_program(
    "input a b c\nh = const 0.5\nab = mul a b\nabc = mul ab c\n"
    "aa = mul a a\ns = add ab c\np = mul s aa\nz = sub a a\npz = mul z p\n"
    "hc = mul h c\nq = mul abc hc\nr = mul q p\nw = mul r abc\n"
    "output abc p pz q r w\n")


def _seeded_inputs(shape, rng, primals, batch):
    """Batched inputs seeded along every direction, as taylor-batched
    seeds them, with some direction entries 0.0 or -0.0, so that inputs
    fill different rows."""
    inputs = []
    for base in primals:
        coeffs = np.zeros((shape.dim, batch))
        coeffs[0] = rng.choice(base, size=batch)
        for stride in shape.strides:
            v = rng.uniform(-1.0, 1.0, size=batch)
            pick = rng.random()
            if pick < 0.25:
                v[:] = 0.0
            elif pick < 0.4:
                v[:] = -0.0
            coeffs[stride] = v
        inputs.append(WeilValue(shape, coeffs))
    return inputs


def _pass_digest(caps, batch):
    """SHA-256 of every output's coefficient bytes of one batched pass of
    each pinned program at caps and batch size."""
    shape = make_shape(caps)
    rng = np.random.default_rng(sum(caps) * 7919 + batch)
    h = hashlib.sha256()
    zeros = (0.0, -0.0)
    for prog, primals in (
            (_PINNED_LIFTS, (zeros, zeros, zeros, (1.0,))),
            (_PINNED_MULS, [(-1.5, -0.75, 0.5, 1.25)] * 3)):
        inputs = _seeded_inputs(shape, rng, primals, batch)
        for out in eval_generic(prog, inputs, WeilSemantics(shape, (batch,))):
            h.update(out.coeffs.tobytes())
    return h.hexdigest()


# _pass_digest at the kernels before lifts and products skipped zero rows
PASS_DIGESTS = {
    ((1, 1, 1, 1, 1, 1), 1): "26139b175f1178ef44fbe5fe85a0b6be0022c301479e1e81fb2e7c4f2fd36038",
    ((1, 1, 1, 1, 1, 1), 5): "feb63ab3da954979859192d9fa29abdb6cab090b4b449e114c05732babaa99fe",
    ((1, 1, 1, 1, 1, 1), 2048): "5106eab1d838d5181332ba2b1050737e27ea0927666fca36c629942d516eb834",
    ((2, 2, 2), 1): "dc2e581a12489274811fecd3855cbd42ba5ec3f82829303b7f303d0668094b58",
    ((2, 2, 2), 5): "630bc2d0215aaac091f5afee7d81df2331e8f52847815cb44782b77901a3bd49",
    ((2, 2, 2), 2048): "68f6a6501fbe13f2c7ff9a232fdb048a7726c0658599743354291944ca3cb192",
    ((4, 4), 1): "65b45582934cd88e74a4cf4a6c724aa2a5ff8eba5544406bd465a9ad2c61950e",
    ((4, 4), 5): "c1e61e601ef093459e7b97928fdb528cc35d14891fe78c4d90c3ad612073cf88",
    ((4, 4), 2048): "3b59d588d88708a6ff39c61e19b1874a15f82997573acb3bfe46d6d47cc42ad0",
    ((6,), 1): "f073af41f810487d2f9bd925286c7960f78030bfbddf7d1db42086fa05b66b36",
    ((6,), 5): "6231a0d048cd3b12cb180673a16e45419f64eaed79c1d0a2815a3b049a760fc8",
    ((6,), 2048): "cedc2372c3bb70ec1599ca7245677d8933abab0fbc46b92041d02e2da5ba9ba1",
}


@pytest.mark.parametrize("caps, batch", list(PASS_DIGESTS))
def test_batched_passes_keep_their_bits(caps, batch):
    assert _pass_digest(caps, batch) == PASS_DIGESTS[caps, batch]


@contextlib.contextmanager
def _parent_kernels():
    """The kernels as they ran before they skipped zero rows: every lift
    on its full level plan, every product with no pair loop."""
    plan = weil._plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weil, "_plan", lambda shape, betas=None: plan(shape))
        mp.setattr(weil, "PAIR_FIXED", math.inf)
        yield


def _sparse_jets(shape, rng, batch):
    """Batched jets that fill few rows, each primal in [0.5, 2]: a constant,
    a seeded input, one whose direction holds 0.0, -0.0 and, in one row,
    0.0 and -0.0 by column, and a product of two seeded inputs."""
    def seeded():
        coeffs = np.zeros((shape.dim, batch))
        coeffs[0] = rng.uniform(0.5, 1.4, batch)
        for stride in shape.strides:
            coeffs[stride] = rng.uniform(-1.0, 1.0, batch)
        return coeffs
    const = np.zeros((shape.dim, batch))
    const[0] = rng.uniform(0.5, 2.0, batch)
    const[shape.dim // 2] = -0.0
    signed = seeded()
    strides = shape.strides
    signed[strides[0]] = -0.0
    signed[strides[-1]] = np.where(rng.random(batch) < 0.5, 0.0, -0.0)
    if len(strides) > 2:
        signed[strides[1]][::2] = 0.0  # zero in some columns: a nonzero row
    product = weil_mul(WeilValue(shape, seeded()), WeilValue(shape, seeded()))
    return [WeilValue(shape, const), WeilValue(shape, seeded()),
            WeilValue(shape, signed), product]


def _same_bits(got, want):
    return got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("caps, limit", [
    ((1,) * 6, PAIR_LIMIT), ((2, 2, 2), PAIR_LIMIT), ((4, 4), PAIR_LIMIT),
    ((6,), PAIR_LIMIT), ((3, 2, 2), 0), ((1,) * 4, 0)])
def test_zero_row_lifts_keep_the_parent_bits(monkeypatch, caps, limit):
    # every lift of UNARY_CASES of a jet with zero rows runs on a plan
    # restricted to its nonzero rows (past PAIR_LIMIT, on boxes restricted
    # to them), here wherever it drops a pair or none, and gives the full
    # plan's bits, signed zeros included; each batch column equals the
    # column's own unbatched lift
    monkeypatch.setattr(weil, "LIFT_FIXED", 0)
    shape = make_shape(caps)
    rng = np.random.default_rng(sum(caps) + limit % 7)
    restricted = []
    plan = weil._plan

    def spy(shape, betas=None):
        restricted.append(betas is not None)
        return plan(shape, betas)

    with _pair_limit(limit):
        for w in _sparse_jets(shape, rng, 6):
            for kind, exponent in UNARY_CASES:
                with mock.patch.object(weil, "_plan", spy):
                    got = _lift(kind, exponent, w)
                with _parent_kernels():
                    want = _lift(kind, exponent, w)
                assert _same_bits(got, want), (kind, exponent)
                for col in range(6):
                    alone = _lift(kind, exponent,
                                  WeilValue(shape, w.coeffs[:, col]))
                    assert (alone.coeffs.tobytes()
                            == got.coeffs[:, col].tobytes()), (kind, col)
    assert any(restricted)


def test_zero_row_lift_facing_inf_keeps_the_parent_nan(monkeypatch):
    # exp of a constant jet at 1000 is inf in row 0, and 0 * inf = NaN in
    # every row above it, batched or not; the restricted plan alone would
    # read 0 there, so the tile runs again on the full plan
    monkeypatch.setattr(weil, "LIFT_FIXED", 0)
    shape = make_shape((1,) * 6)
    coeffs = np.zeros((shape.dim, 4))
    coeffs[0] = [1000.0, 0.5, 1000.0, -3.0]
    w = WeilValue(shape, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = weil_unary("exp", w)
        with _parent_kernels():
            want = weil_unary("exp", w)
        alone = weil_unary("exp", WeilValue(shape, coeffs[:, 0]))
    assert _same_bits(got, want)
    assert np.isnan(got.coeffs[1:, [0, 2]]).all()
    assert (got.coeffs[1:, [1, 3]] == 0.0).all()
    assert alone.coeffs.tobytes() == got.coeffs[:, 0].tobytes()
    # a seeded input at 800: exp(800) is inf, and so is every row's partner
    coeffs[0] = 800.0
    coeffs[shape.strides[2]] = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = weil_unary("exp", WeilValue(shape, coeffs))
        with _parent_kernels():
            want = weil_unary("exp", WeilValue(shape, coeffs))
    assert _same_bits(got, want)
    # sin of 1e300 e_1 at caps (2, 1): every row of s is finite, but cos
    # overflows at 2 e_1, and 0 * -inf there puts NaN into s at (2, 1)
    shape = make_shape((2, 1))
    coeffs = np.zeros((shape.dim, 3))
    coeffs[shape.strides[0]] = [1e300, 0.5, -1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = weil_unary("sin", WeilValue(shape, coeffs))
        with _parent_kernels():
            want = weil_unary("sin", WeilValue(shape, coeffs))
    assert _same_bits(got, want)
    assert np.isnan(got.coeffs[-1, [0, 2]]).all()


@pytest.mark.parametrize("caps", [(1,) * 6, (2, 2, 2), (1,) * 5])
def test_zero_row_products_keep_the_parent_bits(caps):
    # products of sparse factors run one row update per pair of nonzero
    # rows where that costs less than the slice loop, and give its bits,
    # signed zeros included: constants, seeded inputs, products of inputs
    # and an all-zero factor, batched by batched and by an unbatched one
    shape = make_shape(caps)
    rng = np.random.default_rng(len(caps))
    jets = _sparse_jets(shape, rng, 512)
    jets.append(WeilValue(shape, np.zeros((shape.dim, 512))))
    jets.append(WeilValue(shape, np.where(jets[1].coeffs != 0.0, 0.0, -0.0)))
    unbatched = jets[1].coeffs[:, 7].copy()
    unbatched[shape.strides[0]] = 0.0
    jets.append(WeilValue(shape, unbatched))
    pairs = []
    row_pairs = weil._row_pairs

    def spy(*args):
        out = row_pairs(*args)
        pairs.append(out is not None)
        return out

    for a in jets:
        for b in jets:
            with mock.patch.object(weil, "_row_pairs", spy):
                got = weil_mul(a, b)
            with _parent_kernels():
                want = weil_mul(a, b)
            assert _same_bits(got, want)
    assert any(pairs)


def test_zero_row_product_facing_inf_keeps_the_parent_nan():
    # where the factor whose rows the slice loop visits holds inf in a
    # nonzero row, the pair loop would drop inf * 0 = NaN terms against
    # the other factor's zero rows: the product takes the slice loop.  An
    # inf in the other factor meets the same zero rows either way.
    shape = make_shape((1,) * 6)
    rng = np.random.default_rng(9)

    def seeded(skip):
        coeffs = np.zeros((shape.dim, 512))
        coeffs[0] = rng.uniform(0.5, 1.5, 512)
        for j, stride in enumerate(shape.strides):
            if j != skip:
                coeffs[stride] = rng.uniform(-1.0, 1.0, 512)
        return coeffs

    for (skip_a, skip_b), inf_a, inf_b in itertools.product(
            ((None, 3), (3, None), (2, 3)), (False, True), (False, True)):
        ca, cb = seeded(skip_a), seeded(skip_b)
        ca[shape.strides[1], 5] = np.inf if inf_a else 1.0
        cb[shape.strides[4], 9] = -np.inf if inf_b else 1.0
        a, b = WeilValue(shape, ca), WeilValue(shape, cb)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for x, y in ((a, b), (b, a)):
                got = weil_mul(x, y)
                with _parent_kernels():
                    want = weil_mul(x, y)
                assert _same_bits(got, want)
