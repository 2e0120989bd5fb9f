import contextlib
import dataclasses
import math
import os
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from counting import counting
from jetweil.errors import (DimensionMismatchError, DomainError,
                            NumericOverflowError)
from jetweil.jets import (SeedSpec, WeilSemantics, basis_seed,
                          check_envelope_args, coefficient_envelope,
                          directional_taylor, seed,
                          tail_bound, taylor_eval)
from jetweil.modes import compose_programs, jvp, pairing_residual
from jetweil.oracle import SparsePoly
from jetweil.slp import (Node, PrimitiveKind, Program, eval_generic,
                         parse_program, random_program)
from jetweil import jets, weil
from jetweil.weil import WeilValue, make_shape, multi_factorial

X2Y = parse_program("input x y\nt = mul x x\nu = mul t y\noutput u")


# every primitive, div and pow by an integer and a fraction among them
EVERY_PRIMITIVE = parse_program("""input x y
c = const 0.5
a = add x y
s = sub a c
m = mul a s
n = neg m
e = exp n
l = log a
si = sin x
co = cos y
t = tanh s
q = sqrt a
r = recip a
d = div x a
p = pow s 3
f = pow a 1.5
output e l si co t q r d p f
""")
KERNEL_NAMES = ("weil_mul", "weil_unary", "weil_recip", "weil_pow_int",
                "weil_add", "weil_sub", "weil_neg", "weil_const")


@contextlib.contextmanager
def _wrapped_kernels():
    """Each numpy kernel rebound in ``weil`` to a mock wrapping it, as a
    tracer rebinds them; yields the mocks by name."""
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(mock.patch.object(
            weil, name, wraps=getattr(weil, name))) for name in KERNEL_NAMES}


def test_lifts_reach_kernels_rebound_in_weil():
    # every lift looks its numpy kernel up in weil when it runs, so kernels
    # rebound there are called in batched and unbatched numpy passes; a
    # float pass calls none of them
    x, dirs = (0.7, 0.4), ((0.3, -0.2), (0.1, 0.5))
    shape = make_shape((2, 2))
    with _wrapped_kernels() as kernels:
        inputs = [weil.WeilValue(shape, np.outer(w.coeffs, np.linspace(1, 2, 4)))
                  for w in seed(SeedSpec(x, dirs, (2, 2)))]
        eval_generic(EVERY_PRIMITIVE, inputs, WeilSemantics(shape, (4,)))
    assert {name: kernel.call_count > 0 for name, kernel in kernels.items()
            } == dict.fromkeys(KERNEL_NAMES, True)
    six = SeedSpec(x, ((0.3, -0.2),) * 6, (1,) * 6)
    assert weil.float_kernels(make_shape(six.caps)) is None
    with _wrapped_kernels() as kernels:
        taylor_eval(EVERY_PRIMITIVE, six)
    assert {name: kernel.call_count > 0 for name, kernel in kernels.items()
            } == dict.fromkeys(KERNEL_NAMES, True)
    with _wrapped_kernels() as kernels:
        taylor_eval(EVERY_PRIMITIVE, SeedSpec(x, dirs[:1], (2,)))
    assert {name: kernel.call_count for name, kernel in kernels.items()
            } == dict.fromkeys(KERNEL_NAMES, 0)


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
    with counting() as snapshot:
        taylor_eval(prog, basis_seed([0.1, 0.2, 0.3], 2))
        counters = snapshot()
    # one lift per node an output reads
    assert counters["lifted_primitives"] == len(prog.steps)
    assert counters["tape_allocations"] == 0


def _composed_series(f_raw, alphas, g_raw, caps):
    """g's Taylor polynomial at f's primal applied to f's nilpotent part,
    sum of g_m N**m truncated to caps, on ``oracle.SparsePoly``: no
    ``weil`` code composes."""
    p = len(caps)

    def truncate(poly):
        return SparsePoly(p, {e: c for e, c in poly.terms.items()
                              if all(a <= cap for a, cap in zip(e, caps))})

    nil = SparsePoly(p, {a: float(c) for a, c in zip(alphas, f_raw) if any(a)})
    out, power = SparsePoly.constant(p, g_raw[0]), SparsePoly.constant(p, 1.0)
    for g_m in g_raw[1:]:
        power = truncate(power * nil)
        out = out + SparsePoly(p, {e: g_m * c for e, c in power.terms.items()})
    return out


# Worst gap measured over 200 pairs of three columns per caps: 3.3e-15,
# relative to max(1, the largest |coefficient|).
FUNCTORIALITY_TOL = 5e-15


@pytest.mark.parametrize("caps", [(2,), (4,), (2, 2), (3, 3), (2, 2, 2)])
def test_lifted_functoriality(caps):
    # T(g o f) = T g o T f, coefficient by coefficient: f's table along
    # (dirs, caps) substituted into g's univariate table at f(x), to the top
    # total degree, against taylor_eval of the composed program and against
    # each column of one batched pass of it.  This guards the multivariate
    # bookkeeping (pair tables, slice loop, product groups, float tables).
    shape = make_shape(caps)
    rng = random.Random(len(caps) * 100 + sum(caps))
    batch = 3
    for _ in range(30):
        n = rng.randint(1, 3)
        f = random_program(rng.randrange(10 ** 6), rng.randint(5, 30), n)
        g = random_program(rng.randrange(10 ** 6), rng.randint(5, 30), 1)
        fg = compose_programs(f, g)
        specs = [SeedSpec(tuple(rng.uniform(-1, 1) for _ in range(n)),
                          tuple(tuple(rng.uniform(-1, 1) for _ in range(n))
                                for _ in caps), caps) for _ in range(batch)]
        inputs = [np.zeros((shape.dim, batch)) for _ in range(n)]
        for col, spec in enumerate(specs):
            for x, seeded in zip(spec.base, inputs):
                seeded[0, col] = x
            for d, stride in zip(spec.directions, shape.strides):
                for v, seeded in zip(d, inputs):
                    seeded[stride, col] = v
        batched = eval_generic(fg, [WeilValue(shape, c) for c in inputs],
                               WeilSemantics(shape, (batch,)))[0].coeffs
        for col, spec in enumerate(specs):
            tf = taylor_eval(f, spec)
            tg = taylor_eval(g, SeedSpec((float(tf.raw[0, 0]),), ((1.0,),),
                                         (shape.max_total_degree,)))
            series = _composed_series(tf.raw[:, 0], tf.alphas, tg.raw[:, 0],
                                      caps)
            want = np.array([series.terms.get(a, 0.0) for a in tf.alphas])
            for got in (taylor_eval(fg, spec).raw[:, 0],
                        batched[shape.graded()[0], col]):
                gap = np.abs(got - want).max() / max(1.0, np.abs(got).max())
                assert gap <= FUNCTORIALITY_TOL, (caps, col, gap)


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


def test_weil_eps_coefficient_equals_jvp_on_partial_primitives():
    # unsafe programs reach the in-domain rules of log, sqrt, recip and pow;
    # seeds 0-399 at inputs in [0.1, 1] leave 321 programs in domain, with a
    # worst eps gap of 5.4e-13 and a worst pairing residual of 7.0e-16
    rng = random.Random(13)
    checked = 0
    kinds = set()
    for i in range(400):
        prog = random_program(seed=i, depth=rng.randint(1, 30),
                              n_inputs=rng.randint(1, 5), safe=False)
        x = [rng.uniform(0.1, 1.0) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1, 1) for _ in range(prog.n_inputs)]
        w = [rng.uniform(-1, 1)]
        try:
            forward = jvp(prog, x, v)[0]
        except (DomainError, NumericOverflowError):
            continue
        table = taylor_eval(prog, SeedSpec(tuple(x), (tuple(v),), (1,)))
        eps = float(table.entry((1,))[0])
        assert abs(eps - forward) <= 1e-11 * max(1.0, abs(forward)), i
        assert pairing_residual(prog, x, v, w) <= 1e-13, i
        checked += 1
        kinds.update(node.op for node in prog.nodes)
    assert checked >= 300, checked
    assert kinds == set(PrimitiveKind) - {PrimitiveKind.DIV,
                                          PrimitiveKind.CONST}


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


def test_envelope_norms_do_not_overflow():
    # the library keeps its own check: a direction of norm past float64
    # is refused by hypot, without numpy's overflow warning, and one of
    # norm 1 reached through tiny entries passes
    table = taylor_eval(X2Y, SeedSpec((1.0, 2.0), ((1.0, 0.0), (0.0, 1.0)),
                                      (1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="direction norms <= 1"):
            check_envelope_args([(1e200, 1e200)], (1, 1), [1.0] * 3)
        check_envelope_args([(0.6, 0.8), (1e-200, 1e-200)], (1, 1),
                            [1.0] * 3)
        assert coefficient_envelope(table, [10.0] * 3).passed
    far = dataclasses.replace(table, directions=((1e200, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="direction norms <= 1"):
        coefficient_envelope(far, [10.0] * 3)


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


# -- batched passes over memory that earlier values freed ---------------------

def _seeded_batch_inputs(shape, batch, n_inputs, rng, n_specs=7):
    """(inputs, specs, cols): n_specs SeedSpecs drawn from rng, and batched
    seeded inputs whose column j holds the seed of specs[cols[j]]."""
    specs = [SeedSpec(tuple(rng.uniform(-1.0, 1.0, n_inputs)),
                      tuple(map(tuple, rng.uniform(-1.0, 1.0,
                                                   (shape.p, n_inputs)))),
                      shape.caps) for _ in range(n_specs)]
    cols = np.arange(batch) % n_specs
    coeffs = np.zeros((n_inputs, shape.dim, batch))
    for i, spec in enumerate(specs):
        for j, w in enumerate(seed(spec)):
            coeffs[j][:, cols == i] = w.coeffs[:, None]
    return [weil.WeilValue(shape, c) for c in coeffs], specs, cols


# the lifts of a batched pass besides the exp, sin, cos and tanh that safe
# random programs draw: each on b = x x + 1, in its domain in every column,
# and none an output
LIFTS_ON_B = parse_program("""input x y
c = const 1
s = mul x x
b = add s c
l = log b
q = sqrt b
r = recip b
p = pow b 3
h = pow b 0.5
u = add l q
v = sub r p
w = mul u v
m = mul h y
z = add w m
output z
""")

# (caps, a batch size whose values take 128 KiB or more, from which glibc's
# malloc maps a block of its own unless told otherwise, and one below)
BATCH_CASES = [((1,) * 6, 256, 128), ((2, 2, 2), 607, 300), ((3,), 4096, 5)]


@pytest.mark.parametrize("caps, large, small", BATCH_CASES)
def test_batched_pass_columns_match_unbatched_passes(caps, large, small):
    # every column of a batched pass, whose kernels write into memory that
    # earlier values freed, is the table of its unbatched pass
    shape = make_shape(caps)
    assert shape.dim * large * 8 >= 1 << 17 > shape.dim * small * 8
    rng = np.random.default_rng(sum(caps) * 31 + len(caps))
    progs = []
    for prog in [random_program(seed=600 + k, depth=14, n_inputs=2)
                 for k in range(8)] + [LIFTS_ON_B]:
        # an input and an earlier node are outputs too
        progs.append(Program(prog.n_inputs, prog.nodes,
                             (prog.n_slots - 1, 0, prog.n_inputs + 1)))
    graded = shape.graded()[0]
    for batch in (large, small):
        for prog in progs:
            inputs, specs, cols = _seeded_batch_inputs(shape, batch, 2, rng)
            if prog.nodes == LIFTS_ON_B.nodes:
                # x is constant in the columns of specs[0], and so is b:
                # every lift meets a batch mixing constant jets, at b >= 1,
                # with others, and runs its one recurrence over all of them
                specs[0] = SeedSpec(specs[0].base, tuple(
                    (0.0,) + d[1:] for d in specs[0].directions), caps)
                inputs[0].coeffs[1:, cols == 0] = 0.0
            outs = eval_generic(prog, inputs, WeilSemantics(shape, (batch,)))
            for i, spec in enumerate(specs):
                raw = taylor_eval(prog, spec).raw
                for o, out in enumerate(outs):
                    assert np.array_equal(out.coeffs[graded][:, cols == i],
                                          np.repeat(raw[:, o:o + 1],
                                                    (cols == i).sum(), 1))


def test_batched_outputs_outlive_later_passes():
    # t is an output and a later operand, c a constant output and x an
    # input output: later passes at other shapes and batch sizes, which
    # reuse the memory this pass freed, leave every output as it was
    prog = parse_program("input x y\nt = mul x y\nu = sin t\nc = const 2\n"
                         "v = add u t\nw = mul v v\nz = tanh w\n"
                         "output z t c x\n")
    shape = make_shape((1,) * 6)
    rng = np.random.default_rng(3)
    inputs = _seeded_batch_inputs(shape, 600, 2, rng)[0]
    outs = eval_generic(prog, inputs, WeilSemantics(shape, (600,)))
    assert outs[3] is inputs[0]
    copies = [out.coeffs.copy() for out in outs]
    for caps, batch in [((2, 2, 2), 700), ((1,) * 6, 2048), ((1,) * 6, 600),
                        ((1,) * 5, 128)]:
        other = make_shape(caps)
        eval_generic(prog, _seeded_batch_inputs(other, batch, 2, rng)[0],
                     WeilSemantics(other, (batch,)))
    for out, copy in zip(outs, copies):
        assert out.coeffs.tobytes() == copy.tobytes()


def test_batched_pass_after_a_domain_error_keeps_its_bits():
    # log of a column <= 0 fails at node 3 mid-pass, after the values of
    # nodes 0 to 2 were made; the next pass gives the bits of the one before
    prog = parse_program("input x y\na = mul x y\nb = sin a\nd = neg b\n"
                         "l = log x\ne = add d l\noutput e\n")
    shape = make_shape((1,) * 6)
    rng = np.random.default_rng(5)
    inputs = _seeded_batch_inputs(shape, 512, 2, rng)[0]
    inputs[0].coeffs[0] = np.abs(inputs[0].coeffs[0]) + 0.5
    before = eval_generic(prog, inputs, WeilSemantics(shape, (512,)))
    bad = [weil.WeilValue(shape, inputs[0].coeffs.copy()), inputs[1]]
    bad[0].coeffs[0, 100] = -0.25
    with pytest.raises(DomainError) as exc:
        eval_generic(prog, bad, WeilSemantics(shape, (512,)))
    assert exc.value.node == 3
    assert list(exc.value.value) == [-0.25]
    after = eval_generic(prog, inputs, WeilSemantics(shape, (512,)))
    assert after[0].coeffs.tobytes() == before[0].coeffs.tobytes()


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _glibc(),
                    reason="weil sets malloc's thresholds only on Linux "
                           "with glibc, and the fault count is glibc's")
def test_repeated_large_pass_faults_in_no_pages():
    # at (1,)*6, B = 2048 a node value takes 520 KiB: with malloc's default
    # thresholds each one was mapped afresh and unmapped when the pass
    # dropped it, some 2,600 minor faults a pass; with the thresholds weil
    # sets, the third pass reuses what the first two freed
    import resource
    prog = random_program(seed=77, depth=20, n_inputs=2)
    shape = make_shape((1,) * 6)
    inputs = _seeded_batch_inputs(shape, 2048, 2, np.random.default_rng(6))[0]
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        eval_generic(prog, inputs, WeilSemantics(shape, (2048,)))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert faults[2] <= 50, faults


# three inputs, z moved by no direction in FLOAT_CASES, and z as an output
MOVED_AND_STILL = parse_program("""input x y z
c = const 0.5
a = add x y
s = sub a c
m = mul a s
n = neg m
e = exp n
l = log a
si = sin z
co = cos y
t = tanh s
q = sqrt a
r = recip a
d = div z a
p = pow s 3
f = pow a 1.5
g = mul si z
output e l si co t q r d p f g z
""")
FLOAT_CASES = [((2,), ((0.3, -0.0, 0.0),)),
               ((4, 4), ((0.3, -0.0, 0.0), (-0.0, 0.5, -0.0)))]


@pytest.mark.parametrize("caps, dirs", FLOAT_CASES)
def test_float_pass_matches_numpy_kernels_bit_for_bit(caps, dirs):
    # the float pass seeds lists; the numpy kernels on seed()'s arrays give
    # the same bits, signed zeros included
    shape = make_shape(caps)
    assert weil.float_kernels(shape) is not None
    spec = SeedSpec((0.7, 0.4, -0.3), dirs, caps)
    outputs = eval_generic(MOVED_AND_STILL, seed(spec), WeilSemantics(shape))
    want = np.array([w.coeffs for w in outputs]).T[shape.graded()[0]]
    got = taylor_eval(MOVED_AND_STILL, spec).raw
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("caps", [(2,), (1,) * 6])
@pytest.mark.parametrize("body, x, v, node", [
    ("a = exp x\nb = sub a a", 800.0, 1.0, 1),  # every coefficient NaN
    ("b = exp x", 700.0, 1000.0, 0),  # finite to order 1, inf at order 2
], ids=["nan", "inf-past-order-1"])
def test_non_finite_output_node_on_floats_and_numpy(caps, body, x, v, node):
    # the float pass checks its lists, the numpy pass its arrays: both
    # name the first output with a non-finite coefficient, not the second
    floats = weil.float_kernels(make_shape(caps)) is not None
    assert floats == (caps == (2,))
    prog = parse_program(f"input x\n{body}\nc = sin x\noutput b c\n")
    with pytest.raises(NumericOverflowError,
                       match=f"output coefficient at node {node}$") as err:
        taylor_eval(prog, SeedSpec((x,), ((v,),) * len(caps), caps))
    assert err.value.node == node
