"""Dense truncated coefficient arithmetic over commuting nilpotent generators.

A value is a coefficient array over the monomial basis e^alpha where each
generator e_j satisfies e_j**(cap_j + 1) == 0.  Multiplication is truncated
convolution, so series truncation is structural: products past any cap are
simply never formed.  Coefficients may carry a trailing batch axis, which
every operation broadcasts over.

Five numpy kernels, picked from the operands' own shapes and zero rows:

* pair table: products of two unbatched operands, reduced over the cached
  index pairs (alpha, beta) with one ``np.bincount``.
* grouped gather: batched products of two factors of one batch shape, each
  with more than ``GATHER_ROWS`` * max(dim, 3 * groups) nonzero rows, while
  the pairs times the batch columns fit ``GATHER_LIMIT``.  The targets are
  grouped by their number of pairs; each group gathers both factors,
  multiplies and sums them through ``_level_conv``, and writes its targets
  once.
* slice loop: every other batched product, one slice update per nonzero
  row of one factor: the unbatched one if only one is, else the one with
  fewer nonzero rows, so a constant factor costs one update and a seeded
  input p + 1.  A second factor's rows are visited in descending index.
* pair loop: a batched product whose factors each have at most half their
  rows nonzero, where its count of element updates beats the slice loop's
  (``PAIR_CALL``, ``PAIR_FIXED``): one row update per pair of nonzero rows
  that fits the caps.  A product of two seeded inputs at (1,)*6 makes 43
  of them where the slice loop updates 256 rows.
* graded recurrences: unary lifts.  y = f(x) obeys D y = f'(x) D x, where D
  multiplies coefficient alpha by |alpha|, which fixes y one total degree at
  a time (Griewank & Walther, *Evaluating Derivatives*, ch. 13), through the
  same gather kernel: ``sin`` and ``cos`` gather D x once per degree for
  both of their sums.  They run in graded row order, (|alpha|, alpha), so
  each degree's targets are one block of rows, which every level sums into
  and divides in place: one ``take`` permutes x in and one permutes y out.
  A batch runs in column tiles, ``TILE_GATHER`` // widest columns wide
  (widest the most padded pairs of one level), so that a tile's gathers
  and operands stay in L2; an unbatched value is one tile.

Zero rows: a row that is 0.0 or -0.0 in every batch column adds a term of
0.0 or -0.0 to each sum it meets, and a sum that starts from 0.0 is never
-0.0, so dropping such a term keeps the sum's bits while the term's other
factor is finite.  The slice loop skips the zero rows of the factor it
visits.  The pair loop also skips those of the other factor, so it runs
only where the visited factor's nonzero rows are finite.  A lift whose
operand's top row is zero looks for its other zero rows (one row test is
all a dense operand pays, and a lift too small to gain pays none) and,
where they drop enough pairs (``LIFT_PAIR``, ``LIFT_FIXED``), runs each
recurrence on a level plan restricted to its nonzero beta rows
(``_sparse_levels``, at most ``SPARSE_PLANS`` kept); a seeded input fills
p + 1 of the 64 rows of (1,)*6.  tanh's y y sum keeps the full plan, and
its tiles that plan's width.  Where a partner of a dropped term (y, or s
and c, or u) is inf or NaN when the tile is done, the term would have
been NaN, so the tile runs again on the full plan: exp of a constant jet
at 1000 reads NaN above row 0, as every kernel did before.  The float
kernels, the pair table and the grouped gather add every term.

Each primitive's ``lift`` rule runs on one of two kernel sets with one
interface (``const``, ``add``, ``sub``, ``neg``, ``mul``, ``unary``,
``recip``): ``NumpyKernels`` on ``WeilValue``s, or ``FloatKernels`` on Python
lists, for an unbatched pass whose shape has at most
``FLOAT_PAIRS_PER_DEGREE`` * K pairs with beta != 0 (K the top total degree):
numpy costs a few calls per node and degree, Python floats a few bytecodes
per pair.  ``jets.taylor_eval`` picks the set once per pass.  The unary,
recip and integer-power lifts and their domain checks (``_lift_unary``, ...)
are stated once for both.  The float kernels fold each coefficient with a
plain ``+=`` from 0.0: never ``sum()``, which adds floats with compensation
from CPython 3.12.  Only a product past ``FLOAT_MUL_PAIRS`` pairs goes
through numpy, as the pair table's one ``np.bincount``.

All of them add each coefficient's terms from 0.0 in ascending order of
the first factor's index (the descending visit of a second factor's rows
does exactly that), so batched, unbatched and float results agree bit for
bit.  A gather of two columns or more multiplies the gathered pairs and
then adds along the pair axis, which numpy folds in order when that axis
is not the innermost; a lone column, which numpy would reduce pairwise,
runs the unbatched kernels.  The multiply and the add stay two calls: a
one-call sum of products (``np.einsum``, ``np.dot``) may fuse them into
one rounding on CPUs with a fused multiply-add, which the tests guard.
Past ``PAIR_LIMIT`` pairs no pair table is built: products run the slice
loop, and the recurrences build each coefficient's pairs when they reach
it.

Shapes are interned: ``make_shape`` returns one ``WeilShape`` per caps
tuple, and copies and pickles come back as that object.  Shapes therefore
compare by identity, operands are checked with one ``is`` test, and every
per-shape ``lru_cache`` hashes in C.  ``WeilValue(shape, coeffs)`` checks its
rows; the kernels build their results unchecked (``_result``), since every
kernel makes a float array of ``shape.dim`` rows by construction.

Memory: at B = 2048 a node value or a batched temporary takes hundreds of
KiB.  By default glibc's malloc maps each block of 128 KiB and up afresh and
returns it to the OS when it is freed (or trims it off the top of its heap),
so every kernel call faulted its pages in again, which cost more than the
arithmetic.  On import on Linux with glibc this module therefore sets two
of malloc's parameters with ``mallopt``: ``M_MMAP_THRESHOLD`` to 32 MiB, its
largest value on 64-bit, and ``M_TRIM_THRESHOLD`` to 16 MiB.  Setting either
one turns off glibc's dynamic threshold, so both are set.  Freed node values
and temporaries then stay in malloc's heap and are reused without faulting.
They are set once per process; a host program may call ``mallopt`` again
after the import.  Elsewhere nothing is set.  The gathers run ``np.take``
with ``mode="clip"``, which checks no index per call; ``_level_conv`` checks
each table once, when it is built.
"""
from __future__ import annotations

import ctypes
import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, IncompatibleShapesError, ShapeTooLargeError

DEFAULT_MAX_DIM = 1 << 20
# Largest pair table weil_mul builds; three intp index arrays, 24 MiB at most.
PAIR_LIMIT = 1 << 20
# Most pairs times batch columns a batched product gathers (4 MiB of
# float64 per factor).  Past it the gather copies more than the slice loop
# costs: a dense (1,)*6 product (729 pairs) ran 3.58 ms gathered against
# the loop's 3.05 at B = 2048, and 0.19 against 0.54 ms at B = 128.
GATHER_LIMIT = 1 << 19
# Most pairs (beta != 0) per total degree at which an unbatched pass runs
# on Python floats: the numpy recurrence costs a few calls per degree, the
# float one a few bytecodes per pair.  Measured on single lifts, exp broke
# even near 65 pairs per degree, sin/tanh/log/pow near 85; (1,)*6 at 111 ran
# 1.3x slower on floats.
FLOAT_PAIRS_PER_DEGREE = 64
# Most pairs at which a float pass multiplies on Python floats, some 60 ns a
# pair; past it one np.bincount over arrays of the two lists costs less,
# about 5 us at any of the float passes' shapes.  (8,) has 45 pairs, (12,) 91.
FLOAT_MUL_PAIRS = 64
# A batched product of two factors of one batch shape runs the grouped
# gather when the sparser one has more than GATHER_ROWS * max(dim, 3 g)
# nonzero rows, g the shape's number of pair-count groups, and its pairs
# times its batch size fit GATHER_LIMIT; else the slice loop over it.  The
# gather costs a few calls per group, the loop two per row, but the gather
# copies every pair.  Measured at B = 128 to 2048, the gather overtook the
# loop between 0.4 and 0.5 of dim on (1,)*4 to (1,)*6 and (2, 2, 2) at
# B = 512, near 0.8 on (1,)*5 and (2, 2, 2) at B = 2048, and near 1.5 rows
# per group on (1, 1, 1), (3, 3) and (4, 4); it never won on (1, 1),
# (2, 2) or any (c,), nor on dense (1,)*6 (729 pairs) at B = 2048.
GATHER_ROWS = 0.5
# A batched product whose two factors each have at most half their rows
# nonzero makes one row update per pair of nonzero rows that fits the caps
# when npairs * (cols + PAIR_CALL) + PAIR_FIXED < cols * slab, cols being
# its batch columns and slab the rows the slice loop would update: each
# row update costs a call, worth PAIR_CALL element updates of the slice
# loop, and finding the pairs and checking the loop's factor finite costs
# PAIR_FIXED.  Fitted on the 81 such products among a constant, seeded
# inputs and products of two and three of them, paired five ways, at the
# caps of taylor-batched and (4, 4) and (6,), B = 128, 512 and 2048 (2-core
# Xeon, best of five): the rule took 7.71 ms in all, the faster loop of
# each product 7.71, the slice loop alone 11.53.  PAIR_FIXED = 0 took 7.84
# ms, PAIR_CALL = 1000 8.10, and counting len(rows_a) * len(rows_b) in
# place of the pairs 7.98 at best.
PAIR_CALL = 200
PAIR_FIXED = 7000
# A lift whose operand's top row is zero runs on the plan restricted to the
# operand's nonzero rows when the pairs it drops times (cols + LIFT_PAIR)
# reach LIFT_FIXED: each dropped pair saves a gathered product per column
# and, on the unbatched path, about LIFT_PAIR columns' worth more, while
# finding the rows and checking the partners finite costs LIFT_FIXED.
# Fitted on 336 lifts (sin, exp, tanh and log of a constant, a seeded input
# and a product of two) at the caps of taylor-batched with B = 128, 512 and
# 2048, and unbatched at (1,)*6, (3, 3, 3), (4, 4, 4), (2, 2, 2), (6,),
# (15,) and (4, 4) (2-core Xeon, best of three): the rule took 79.5 ms in
# all, the faster plan of each lift 79.1, the full plan alone 108.0 and the
# restricted plan wherever the top row is zero 80.5, up to 80% slower on
# (1, 1) at B = 128; LIFT_FIXED = 7000 took 79.7 ms.
LIFT_PAIR = 8
LIFT_FIXED = 15000
# Most products one level of a batched lift gathers at a time (512 KiB of
# float64 in each of its two gathers): a lift runs over column tiles
# TILE_GATHER // widest wide, widest being its widest level's padded pairs,
# so that a tile's gathers and operands stay in a 2 MiB L2.  On a 2-core
# Xeon, best of three single lifts at B = 2048: 2**16 ran sin at (1,)*6 in
# 4.0 ms against 4.6 at 2**15 and 2**17, and was fastest at (3, 3, 3) too;
# at (6, 6, 6) and (15, 15) it was within 5% of 2**17.  taylor-batched
# ops_per_s read 198, 202 and 205 at 2**15, 2**16 and 2**17, against 176
# untiled (medians of three 12 s runs each).
TILE_GATHER = 1 << 16
# Most restricted level plans (``_sparse_levels``) kept, least recently
# used first out: one per shape and set of nonzero rows.  taylor-batched's
# schedules and warm-ups at seeds 1 and 2 make 6 of them, taylor-scalar's 1,
# each a few KiB at (1,)*6.
SPARSE_PLANS = 64
# malloc's parameters set at import (see the module docstring), glibc's
# numbers for them: blocks up to 32 MiB come from the heap, and the heap
# gives memory back to the OS only past 16 MiB free at its top.  A
# taylor-batched pass needs up to 12 MiB of live node values, criterion 5's
# 9 MiB.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _set_malloc_thresholds() -> None:
    """Set malloc's mmap and trim thresholds, on glibc only."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no such name here
        return
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 16 << 20)


_set_malloc_thresholds()


@dataclass(frozen=True, eq=False)
class WeilShape:
    """Descriptor of the truncation lattice: per-direction caps and indexing.
    Made by ``make_shape``, one object per caps tuple, compared by identity."""

    caps: tuple[int, ...]
    dim: int
    strides: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.caps)

    @property
    def tensor_shape(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.caps)

    @property
    def max_total_degree(self) -> int:
        return sum(self.caps)

    def alpha_of(self, idx: int) -> tuple[int, ...]:
        out = []
        for stride in self.strides:
            a, idx = divmod(idx, stride)
            out.append(a)
        return tuple(out)

    @lru_cache(maxsize=None)
    def multi_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(a) for a in np.ndindex(self.tensor_shape))

    @lru_cache(maxsize=None)
    def graded(self) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
        """The flat indices in (|alpha|, alpha) order, and their alphas: the
        flat order is lexicographic, so a stable sort by |alpha| does it."""
        order = np.argsort(_degrees(self)[:-1], kind="stable")
        return order, tuple(self.multi_indices()[k] for k in order)

    @lru_cache(maxsize=None)
    def factorials(self) -> tuple[np.ndarray, np.ndarray]:
        """alpha! = m * 2**e in ``graded()`` order, float64 m and int e, so
        x * alpha! is ``np.ldexp(x * m, e)`` even past 170!.  e is 0 wherever
        alpha! fits float64, and m is then float(alpha!): the same bits."""
        m, e = zip(*map(_split, map(multi_factorial, self.graded()[1])))
        return np.array(m), np.array(e)

    def __reduce__(self):  # copies and pickles come back interned
        return _intern, (self.caps,)


def cap_tuple(caps: Iterable[int]) -> tuple[int, ...]:
    """caps as a tuple of ints.  A bool or a non-integral cap is a
    ValueError, where ``int()`` would read True as 1 and 2.7 as 2; numpy
    integers pass, through ``operator.index``."""
    caps = tuple(caps)
    if not any(isinstance(c, bool) for c in caps):
        try:
            return tuple(map(operator.index, caps))
        except TypeError:
            pass
    raise ValueError(f"every cap must be an integer, got {caps!r}")


def make_shape(caps: Iterable[int], max_dim: int | None = None) -> WeilShape:
    """The shape of ``caps``, refused past ``max_dim`` coefficients
    (``DEFAULT_MAX_DIM`` if None)."""
    caps = cap_tuple(caps)
    if not caps:
        raise ValueError("caps must be non-empty")
    if any(c < 1 for c in caps):
        raise ValueError("every cap must be >= 1")
    shape = _intern(caps)
    limit = DEFAULT_MAX_DIM if max_dim is None else max_dim
    if shape.dim > limit:
        raise ShapeTooLargeError(shape.dim, limit)
    return shape


_shapes: dict[tuple[int, ...], WeilShape] = {}


def _intern(caps: tuple[int, ...]) -> WeilShape:
    """The one WeilShape of a caps tuple that ``cap_tuple`` has read.  Two
    threads may both build a new shape; ``setdefault`` keeps one for both,
    which an ``lru_cache`` would not."""
    try:
        return _shapes[caps]
    except KeyError:
        pass
    dim = 1
    for c in caps:
        dim *= c + 1
    strides = []
    acc = 1
    for c in reversed(caps):
        strides.append(acc)
        acc *= c + 1
    return _shapes.setdefault(caps, WeilShape(
        caps=caps, dim=dim, strides=tuple(reversed(strides))))


def multi_factorial(alpha: Sequence[int]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _split(n: int) -> tuple[float, int]:
    """(m, e) with n = m * 2**e, m correctly rounded: (float(n), 0) while
    that is finite, else m below 2**1023."""
    try:
        return float(n), 0
    except OverflowError:
        e = n.bit_length() - 1023
        return n / (1 << e), e  # int division rounds correctly


@dataclass(frozen=True)
class WeilValue:
    """Coefficient array over a shape's monomial basis; index 0 is the primal."""

    shape: WeilShape
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape[0] != self.shape.dim:
            raise IncompatibleShapesError(
                f"coefficient array has {c.shape[0]} rows, expected {self.shape.dim}")
        object.__setattr__(self, "coeffs", c)

    @property
    def primal(self):
        return self.coeffs[0]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]


def _result(shape: WeilShape, coeffs: np.ndarray) -> WeilValue:
    """A kernel's result, without ``__post_init__``'s conversion and row
    check: the fields go straight into the instance dict."""
    value = object.__new__(WeilValue)
    fields = value.__dict__
    fields["shape"] = shape
    fields["coeffs"] = coeffs
    return value


def weil_const(shape: WeilShape, value) -> WeilValue:
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((shape.dim,) + value.shape)
    coeffs[0] = value
    return _result(shape, coeffs)


def _check_shapes(a: WeilValue, b: WeilValue) -> WeilShape:
    if a.shape is not b.shape:
        raise IncompatibleShapesError(
            f"caps {a.shape.caps} vs {b.shape.caps}")
    return a.shape


def weil_add(a: WeilValue, b: WeilValue) -> WeilValue:
    shape = _check_shapes(a, b)
    return _result(shape, np.add(a.coeffs, b.coeffs))


def weil_sub(a: WeilValue, b: WeilValue) -> WeilValue:
    shape = _check_shapes(a, b)
    return _result(shape, np.subtract(a.coeffs, b.coeffs))


def weil_neg(a: WeilValue) -> WeilValue:
    return _result(a.shape, np.negative(a.coeffs))


@lru_cache(maxsize=None)
def _pair_table(shape: WeilShape):
    """Flat indices (i, j, i + j) of every pair alpha + beta inside the caps.

    The flat index is linear in the multi-index, so the target of a pair is
    simply i + j.  Pairs are sorted by ascending i, the order in which the
    slice loop visits them.  None when there are more than PAIR_LIMIT pairs.
    """
    if math.prod((c + 1) * (c + 2) // 2 for c in shape.caps) > PAIR_LIMIT:
        return None
    i = np.zeros(1, dtype=np.intp)
    j = np.zeros(1, dtype=np.intp)
    for cap, stride in zip(shape.caps, shape.strides):
        ax, bx = np.nonzero(np.add.outer(np.arange(cap + 1),
                                         np.arange(cap + 1)) <= cap)
        i = (i[:, None] + ax * stride).ravel()
        j = (j[:, None] + bx * stride).ravel()
    order = np.argsort(i, kind="stable")
    i, j = i[order], j[order]
    return i, j, i + j


@lru_cache(maxsize=None)
def _slice_table(shape: WeilShape):
    """(dst, src) slices of the slice loop for every flat index."""
    heads = [[slice(x, None) for x in range(c + 1)] for c in shape.caps]
    tails = [[slice(0, c + 1 - x) for x in range(c + 1)] for c in shape.caps]
    return [(tuple(map(list.__getitem__, heads, alpha)),
             tuple(map(list.__getitem__, tails, alpha)))
            for alpha in shape.multi_indices()]


def _nonzero_rows(w: WeilValue) -> np.ndarray:
    """Flat indices of the rows of w that are nonzero in some batch column,
    ascending; NaN counts as nonzero, -0.0 as zero."""
    c = w.coeffs
    if c.ndim > 1:
        c = (c.reshape(len(c), -1) != 0).any(axis=1)
    return c.nonzero()[0]


def weil_mul(a: WeilValue, b: WeilValue) -> WeilValue:
    """Truncated convolution; exponent overflow past any cap is dropped.

    Two operands of one column or none each use the pair table while it
    has at most PAIR_LIMIT pairs.  Two factors of one batch shape, each
    with more than ``GATHER_ROWS`` * max(dim, 3 * groups) nonzero rows, and
    at most GATHER_LIMIT pairs times batch columns, run the grouped gather:
    one ``conv`` per group of ``_product_groups``, each writing its targets
    once.  All other products run the slice loop, one update per
    nonzero row of the factor with the smaller (axes, nonzero rows): an
    unbatched factor broadcasts, so it goes first, and a tie keeps a.  The
    loop visits a's rows in ascending index and b's in descending index.
    Where both factors have at most half their rows nonzero and
    ``_row_pairs`` counts fewer element updates for it, the pair loop
    replaces the slice loop: one row update per pair of nonzero rows that
    fits the caps, in ascending index of a.  Every kernel adds each
    coefficient's terms in ascending index of a, from 0.0, so every batch
    column equals its unbatched product bit for bit.
    """
    shape = _check_shapes(a, b)
    if a.coeffs.ndim == 1 and b.coeffs.ndim == 1:
        pairs = _pair_table(shape)
        if pairs is not None:
            i, j, k = pairs
            return _result(shape, np.bincount(
                k, weights=a.coeffs[i] * b.coeffs[j], minlength=shape.dim))
    elif a.coeffs.size == b.coeffs.size == shape.dim and (
            pairs := _pair_table(shape)) is not None:
        # a lone column each: shaped as the factor with more axes
        i, j, k = pairs
        ca, cb = a.coeffs, b.coeffs
        sums = np.bincount(k, ca.ravel()[i] * cb.ravel()[j], shape.dim)
        return _result(shape, sums.reshape(
            (ca if ca.ndim >= cb.ndim else cb).shape))
    rows_a, rows_b = _nonzero_rows(a), _nonzero_rows(b)
    groups = (_product_groups(shape) if a.coeffs.shape == b.coeffs.shape
              else None)
    if groups is not None and min(len(rows_a), len(rows_b)) > (
            GATHER_ROWS * max(shape.dim, 3 * len(groups))) and (
            # the pair table's size, then times the batch columns
            math.prod((c + 1) * (c + 2) // 2 for c in shape.caps)
            * a.coeffs[0].size <= GATHER_LIMIT):
        ca = a.coeffs.reshape(shape.dim, -1)
        cb = b.coeffs.reshape(ca.shape)
        result = np.empty(a.coeffs.shape)
        out = result.reshape(ca.shape)
        for targets, conv in groups:
            out[targets] = conv(ca, cb)[0]
        return _result(shape, result)
    batch = np.broadcast_shapes(a.coeffs.shape[1:], b.coeffs.shape[1:])
    swap = (b.coeffs.ndim, len(rows_b)) < (a.coeffs.ndim, len(rows_a))
    if batch and 2 * max(len(rows_a), len(rows_b)) <= shape.dim:
        loop, rows = (b, rows_b) if swap else (a, rows_a)
        pairs = _row_pairs(shape, rows_a, rows_b, rows, math.prod(batch))
        # beside the slice loop, the pairs drop the terms of the loop's
        # nonzero rows against the other factor's zero rows: each is
        # 0.0 or -0.0 while those rows are finite
        if pairs is not None and np.isfinite(loop.coeffs[rows]).all():
            ca, cb = a.coeffs, b.coeffs
            result = np.zeros((shape.dim,) + batch)
            for ia, ib in zip(*pairs):
                acc = result[ia + ib]
                acc += ca[ia] * cb[ib]
            return _result(shape, result)
    if swap:
        a, b, rows_a = b, a, rows_b[::-1]
    tshape = shape.tensor_shape
    ta = a.coeffs
    tb = b.coeffs.reshape(tshape + b.coeffs.shape[1:])
    result = np.zeros((shape.dim,) + batch)
    out = result.reshape(tshape + batch)
    table = _slice_table(shape)
    for ia in rows_a:
        dst, src = table[ia]
        acc = out[dst]  # `out[dst] += t` re-assigns the view
        acc += ta[ia] * tb[src]
    return _result(shape, result)


def _row_pairs(shape: WeilShape, rows_a, rows_b, loop, cols: int):
    """The flat indices (ia, ib) of every pair of the rows rows_a of a and
    rows_b of b whose alpha + beta fits the caps, as two lists in
    ascending ia, then ib; None where the pair loop would cost more
    element updates than the slice loop over the rows ``loop``
    (``PAIR_CALL``).  The row counts come first: row 0 of either factor
    pairs with every row of the other, and no pair is looked for where
    that many would leave no room for PAIR_FIXED twice, the search itself
    costing about as much and being spent even when the slice loop runs.
    Flat indices add as multi-indices unless a digit carries, and a carry
    drops the total degree."""
    call = cols + PAIR_CALL
    zero_a = rows_a.size > 0 and rows_a[0] == 0
    zero_b = rows_b.size > 0 and rows_b[0] == 0
    least = (zero_a * len(rows_b) + zero_b * len(rows_a)
             - (zero_a and zero_b)) * call + 2 * PAIR_FIXED
    # the slice loop updates at most dim rows per row it visits
    if cols * shape.dim * len(loop) <= least:
        return None
    budget = cols * _slabs(shape)[0][loop].sum()
    if budget <= least:
        return None
    deg = _degrees(shape)
    k = np.minimum(rows_a[:, None] + rows_b, shape.dim)
    ia, ib = (deg[rows_a][:, None] + deg[rows_b] == deg[k]).nonzero()
    if len(ia) * call + PAIR_FIXED >= budget:
        return None
    return rows_a[ia].tolist(), rows_b[ib].tolist()


@lru_cache(maxsize=None)
def _slabs(shape: WeilShape) -> tuple[np.ndarray, int]:
    """The rows of the slice loop's update for each flat index alpha, the
    betas that fit beside it, prod(cap + 1 - alpha); and their sum past
    alpha = 0, the pairs (beta, alpha - beta) with beta != 0."""
    out = np.ones(1, dtype=np.intp)
    for c in shape.caps:
        out = np.multiply.outer(out, np.arange(c + 1, 0, -1)).ravel()
    return out, int(out[1:].sum())


@lru_cache(maxsize=None)
def _product_groups(shape: WeilShape):
    """(targets, conv) for each pair count n of the pair table: ``targets``
    holds the flat indices with n pairs, and ``conv(a, b)[0]`` sums their
    pairs a[i] * b[j] in ascending i, the pair table's order, unpadded.
    Every index is a target of pair (0, alpha), so the groups cover the dim
    rows.
    None past PAIR_LIMIT pairs."""
    pairs = _pair_table(shape)
    if pairs is None:
        return None
    i, j, k = pairs
    order = np.argsort(k, kind="stable")  # by target, ascending i within
    i, j, k = i[order], j[order], k[order]
    count = np.bincount(k)
    groups = []
    for n in np.unique(count).tolist():
        targets = np.flatnonzero(count == n)
        sel = np.isin(k, targets)
        pos = np.repeat(np.arange(len(targets)), n)
        groups.append((targets, _level_conv(
            i[sel].reshape(-1, n), j[sel].reshape(-1, n), i[sel], j[sel],
            pos, shape.dim)))
    return tuple(groups)


@lru_cache(maxsize=None)
def _degrees(shape: WeilShape) -> np.ndarray:
    """Total degree |alpha| of every flat index, then 0 for the zero row."""
    deg = np.indices(shape.tensor_shape).reshape(shape.p, -1).sum(axis=0)
    return np.append(deg, 0).astype(float)


@lru_cache(maxsize=None)
def _graded_rows(shape: WeilShape):
    """(order, rows, degrees) of the graded row order, in which the lifts
    run: row g holds flat index order[g] and flat index k sits in row
    rows[k]; degrees holds |alpha| of every row, then 0 for a zero row
    after them.  Each total degree's rows are one block."""
    order = shape.graded()[0]
    rows = np.empty(shape.dim, dtype=np.intp)
    rows[order] = np.arange(shape.dim)
    return order, rows, _degrees(shape)[np.append(order, shape.dim)]


def _target_pairs(shape: WeilShape):
    """(beta, alpha - beta, alpha) of every pair with beta != 0, sorted by
    target alpha, then ascending beta; None past PAIR_LIMIT pairs."""
    pairs = _pair_table(shape)
    if pairs is None:
        return None
    i, j, k = pairs
    keep = i != 0
    order = np.argsort(k[keep], kind="stable")
    return i[keep][order], j[keep][order], k[keep][order]


@lru_cache(maxsize=None)
def _levels(shape: WeilShape):
    """(widest, levels), levels holding (d, lo, hi, conv) for each total
    degree d = 1..K, in that order; None past PAIR_LIMIT pairs.

    Indices are graded rows (``_graded_rows``).  The rows lo..hi - 1 are
    the alphas with |alpha| == d; for each of them ``conv(a, *bs)`` sums
    a[beta] * b[alpha - beta] over beta != 0 in ascending flat index of
    beta, for each b, where a and the bs carry a zero row after their dim
    rows.  ``widest`` is the most padded pairs, over the levels, that a
    batched ``conv`` gathers per column.
    """
    return _level_plan(shape, None)


@lru_cache(maxsize=SPARSE_PLANS)
def _sparse_levels(shape: WeilShape, betas: bytes):
    """``_levels`` with only the pairs whose beta is one of the flat
    indices ``betas`` (the bytes of an ascending intp array): a target with
    no such pair sums to 0.0."""
    return _level_plan(shape, np.frombuffer(betas, dtype=np.intp))


def _level_plan(shape: WeilShape, betas):
    """The plan of ``_levels``, on the pairs whose beta is among the flat
    indices betas (an intp array) where given; every row of each level is
    a target, with no pairs or with some."""
    pairs = _target_pairs(shape)
    if pairs is None:
        return None
    if betas is not None:
        keep = np.isin(pairs[0], betas)
        pairs = tuple(x[keep] for x in pairs)
    rows, deg = _graded_rows(shape)[1:]
    # the first graded row of each total degree, then dim
    bounds = np.searchsorted(deg[:-1], np.arange(shape.max_total_degree + 2))
    # a degree's targets ascend in flat index and in row alike
    i, j, k = (rows[x] for x in pairs)
    level = deg[k]
    widest, levels = 0, []
    for d in range(1, shape.max_total_degree + 1):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        sel = level == d
        pos = k[sel] - lo
        count = np.bincount(pos, minlength=hi - lo)
        # column r of I, J: the pairs of row lo + r, padded with the zero row
        I = np.full((count.max(), hi - lo), shape.dim)
        J = I.copy()
        at = np.arange(len(pos)) - (np.cumsum(count) - count)[pos]
        I[at, pos] = i[sel]
        J[at, pos] = j[sel]
        widest = max(widest, I.size)
        levels.append((np.float64(d), lo, hi,
                       _level_conv(I, J, i[sel], j[sel], pos, shape.dim, 0)))
    return widest, tuple(levels)


def _level_conv(I, J, i, j, pos, dim: int, axis: int = 1):
    """``conv(a, *bs, out=None)`` lists, for each b, the sums of
    a[I[r]] * b[J[r]] along each row r of the tables (each column r where
    ``axis``, the tables' pair axis, is 0); a is gathered once for all of
    them.  Unbatched, one ``np.bincount`` over the pairs (i, j) of the rows
    ``pos``, into a new array; batched, the gathers of a and b multiplied
    and added along the pair axis by ``np.add.reduce``, into the arrays of
    ``out`` (one per b) where given.  Both add each
    target's pairs in table order, from 0.0, so a batch column matches its
    unbatched lift exactly; a batch has two columns or more, since numpy
    would reduce a lone one pairwise.  Pairs first, each add spans every
    target and column of a lift's narrow tile; targets first, each target's
    sum over a product's full batch stays in cache.

    The gathers run unchecked, so the index tables are checked here, once:
    every entry lies in 0..dim, the rows of an operand with its zero row.
    """
    for table in (I, J):
        if table.size and (table.min() < 0 or table.max() > dim):
            raise IndexError(f"level table index outside 0..{dim}")
    rows = I.shape[1 - axis]

    def conv(a, *bs, out=None):
        sums = []
        if a.ndim == 1:  # unbatched lifts make most calls: a plain loop
            ai = a[i]
            for b in bs:
                sums.append(np.bincount(pos, ai * b[j], rows))
        else:
            ga = a.take(I, 0, mode="clip")
            for b, o in zip(bs, out or [None] * len(bs)):
                gb = b.take(J, 0, mode="clip")
                sums.append(np.add.reduce(np.multiply(ga, gb, out=gb),
                                          axis=axis, initial=0.0, out=o))
        return sums
    return conv


def _box_levels(shape: WeilShape, betas=None):
    """_levels past PAIR_LIMIT, one target at a time: the pairs of alpha
    are the beta != 0 of the box beta <= alpha, built when reached; where
    ``betas`` is given, only those that are among its flat indices."""
    order, rows, deg = _graded_rows(shape)
    if betas is not None:
        keep = np.zeros(shape.dim, dtype=bool)
        keep[np.frombuffer(betas, dtype=np.intp)] = True
    for g in range(1, shape.dim):
        k = int(order[g])
        box = tuple(x + 1 for x in shape.alpha_of(k))
        flat = np.dot(shape.strides,
                      np.indices(box).reshape(shape.p, -1)[:, 1:])
        if betas is not None:
            flat = flat[keep[flat]]
        i, j = rows[flat], rows[k - flat]
        yield deg[g], g, g + 1, _level_conv(
            i[:, None], j[:, None], i, j, np.zeros(len(i), dtype=np.intp),
            shape.dim, 0)


def _plan(shape: WeilShape, betas: bytes | None = None):
    """(widest, levels) of the recurrences: ``_levels``, or where betas is
    given ``_sparse_levels``; past PAIR_LIMIT a new ``_box_levels``
    generator, whose widest level is the top alpha's box."""
    full = _levels(shape)
    if full is None:
        return shape.dim - 1, _box_levels(shape, betas)
    return full if betas is None else _sparse_levels(shape, betas)


def _restriction(w: WeilValue) -> bytes | None:
    """The nonzero rows of w, as the bytes of an ascending intp array, where
    w's top row is zero and a plan restricted to its nonzero rows drops
    enough pairs (beta, alpha - beta) to pay for finding them and checking
    the partners (``LIFT_PAIR``, ``LIFT_FIXED``); else None.  The pairs of
    beta number its slab, and all of them bound what can be dropped, so a
    small lift looks at no row."""
    slab, pairs = _slabs(w.shape)
    weight = w.coeffs[0].size + LIFT_PAIR
    if pairs * weight < LIFT_FIXED:
        return None
    top = w.coeffs[-1]
    if top.any() if top.ndim else top:
        return None
    rows = _nonzero_rows(w)
    if (pairs - slab[rows[rows > 0]].sum()) * weight < LIFT_FIXED:
        return None
    return rows.tobytes()


def _graded(kind: str, w: WeilValue, r: float = 0.0) -> WeilValue:
    """Lift a unary primitive: D is a derivation, and coefficient alpha of
    D y = f'(x) D x gives y_alpha from lower degrees of y through one
    ``conv``.  A batch runs in column tiles TILE_GATHER // widest wide, so
    that each level's gathers stay in cache; an unbatched value is one
    tile.  An operand whose top row is zero in every column may run on a
    plan restricted to its nonzero rows (``_restriction``, ``_lift_tile``).
    Domain checks are the caller's."""
    shape = w.shape
    coeffs = w.coeffs
    betas = _restriction(w)
    # tanh's y y sum gathers on the full plan: its tiles keep that width
    widest = _plan(shape, None if kind == "tanh" else betas)[0]
    back = _graded_rows(shape)[1]
    if coeffs.ndim == 1:
        return _result(shape, _lift_tile(kind, shape, coeffs, r,
                                         betas).take(back))
    coeffs = coeffs.reshape(shape.dim, -1)
    result = np.empty(w.coeffs.shape)
    out = result.reshape(coeffs.shape)
    width = max(1, TILE_GATHER // max(1, widest))
    cols = coeffs.shape[1]
    for lo in range(0, cols, width):
        # a lone column runs unbatched: numpy would sum it pairwise
        tile = slice(lo, lo + width) if min(width, cols - lo) > 1 else lo
        _lift_tile(kind, shape, coeffs[:, tile], r, betas).take(
            back, 0, out[:, tile], "clip")
    return _result(shape, result)


def _lift_tile(kind: str, shape: WeilShape, coeffs: np.ndarray, r: float,
               betas: bytes | None = None) -> np.ndarray:
    """The recurrence of ``_graded`` on coeffs (dim rows, one or no column
    axis): one ``take`` puts x in graded rows, where each level fills the
    block [lo, hi) of y.  Returns y in graded rows, with a zero row after
    them.

    Where ``betas`` is given, the levels gather D x only from those flat
    indices, x being 0.0 or -0.0 in every other row: each term dropped is
    then 0.0 or -0.0 times a partner (y, or c and s, or u), and a sum that
    starts from 0.0 is never -0.0, so adding such a term leaves its bits
    as they are, while the partner is finite.  Where a partner is inf or
    NaN the term would be NaN, so the tile runs again on the full plan.
    tanh's y y sum always runs on the full plan."""
    order, _, deg = _graded_rows(shape)
    # five operands, each with a zero row after its dim rows, which the
    # padding gathers: a tile's other rows are left unset, since each
    # recurrence writes a row before it reads it; an unbatched value's are
    # zeroed, which costs fewer calls
    rows = (5, shape.dim + 1) + coeffs.shape[1:]
    if coeffs.ndim == 1:
        operands = np.zeros(rows)
    else:
        operands = np.empty(rows)
        operands[:, -1] = 0.0
    x, dx, y, p, q = operands
    coeffs.take(order, 0, x[:-1], "clip")
    np.multiply(deg if x.ndim == 1 else deg[:, None], x, dx)  # D x
    x0 = x[:1]  # a row, so scalar and batched primals take one ufunc path
    steps = _plan(shape, betas)[1]
    partners = 2, 3  # the operands that hold y
    # each conv sums into the row block it fills, or returns new unbatched
    # sums, and one ufunc writes the block from them
    if kind == "exp":  # D y = y D x
        y[:1] = np.exp(x0)
        for d, lo, hi, conv in steps:
            t = y[lo:hi]
            np.divide(*conv(dx, y, out=(t,)), d, t)
    elif kind in ("sin", "cos"):  # D s = c D x, D c = -s D x
        s, c = y, p
        s[:1], c[:1] = np.sin(x0), np.cos(x0)
        for d, lo, hi, conv in steps:
            ts, tc = s[lo:hi], c[lo:hi]
            sc, ss = conv(dx, c, s, out=(ts, tc))
            np.divide(sc, d, ts)
            np.divide(ss, -d, tc)
        partners = 2, 4
        y = s if kind == "sin" else c
    elif kind == "tanh":  # D y = u D x with u = 1 - y**2
        u, spare = p, q
        y0 = y[:1] = np.tanh(x0)
        u[:1] = 1.0 - y0 * y0
        full = None if betas is None else iter(_plan(shape)[1])
        for d, lo, hi, conv in steps:
            t, tu = y[lo:hi], u[lo:hi]
            np.divide(*conv(dx, u, out=(t,)), d, t)
            yy, = (conv if full is None else next(full)[3])(y, y, out=(tu,))
            # x is spent, and no ufunc here writes over its own input
            np.negative(np.add(yy, np.multiply(y0, t, x[lo:hi]),
                               spare[lo:hi]), tu)
        partners = 3, 4
    elif kind in ("log", "pow"):
        # log: x D y = D x; pow: x D y = r y D x, sqrt from y**2 = x and
        # recip from x y = 1.  Each level's operand a = d x - D x, or
        # (r + 1) D x - d x, fills the rows its pairs reach, below hi, and
        # dxs = d x the same rows.
        a, dxs, den = p, q, np.empty_like(x0)
        if kind == "log":
            y[:1] = np.log(x0)
        else:
            y[:1] = x0 ** r
            rdx = np.multiply(dx, r + 1.0, dx)  # D x itself is spent
        for d, lo, hi, conv in steps:
            t = y[lo:hi]
            np.multiply(x[:hi], d, dxs[:hi])
            if kind == "log":
                np.subtract(dxs[:hi], dx[:hi], a[:hi])
                sums, = conv(a, y, out=(t,))
                sums = np.subtract(dxs[lo:hi], sums, a[lo:hi])
            else:
                np.subtract(rdx[:hi], dxs[:hi], a[:hi])
                sums, = conv(a, y, out=(t,))
            np.divide(sums, np.multiply(x0, d, den), t)
    else:
        raise ValueError(f"unsupported unary primitive {kind!r}")
    if betas is not None and not np.isfinite(operands[slice(*partners)]).all():
        return _lift_tile(kind, shape, coeffs, r)
    return y


def _require(cond, message: str, primal):
    """A lift's domain check: DomainError with the primal values that fail
    cond, where primal is a float, a numpy scalar or a batch row."""
    if not np.all(cond):
        bad = np.asarray(primal)[~np.asarray(cond)] if np.ndim(primal) else primal
        raise DomainError(message, value=bad)


# The lifts both kernel sets share: k is a ``NumpyKernels`` or a
# ``FloatKernels``, x a value of its representation.

def _lift_unary(k, kind: str, x, exponent: float | None = None):
    """Lift a smooth scalar primitive by its graded recurrence, after its
    domain check, the tape's: sqrt needs a positive primal, constant jet or
    not.  pow by a non-negative integer goes to ``pow_int``."""
    if kind == "pow":
        if exponent is None:
            raise ValueError("pow lift needs an exponent")
        if exponent == round(exponent) and exponent >= 0:
            return k.pow_int(x, int(round(exponent)))
        primal = k.primal(x)
        if exponent != round(exponent):
            _require(primal > 0, "fractional power requires a positive primal",
                     primal)
        else:
            _require(primal != 0, "negative power of a non-invertible element",
                     primal)
        return k.graded("pow", x, exponent)
    if kind == "log":
        primal = k.primal(x)
        _require(primal > 0, "log requires a positive primal", primal)
    elif kind == "sqrt":
        primal = k.primal(x)
        _require(primal > 0, "sqrt lift requires a positive primal", primal)
        return k.graded("pow", x, 0.5)
    return k.graded(kind, x)


def _lift_recip(k, x):
    """Multiplicative inverse, the power -1."""
    primal = k.primal(x)
    _require(primal != 0, "reciprocal of a non-invertible element "
             "(primal coefficient is zero)", primal)
    return k.graded("pow", x, -1.0)


def _lift_pow_int(k, x, n: int):
    """Exact non-negative integer power by binary exponentiation, in
    popcount(n) + n.bit_length() - 1 products: one per set bit, the first of
    them with one, and a squaring below each bit but the top one."""
    mul = k.mul
    result = k.like(x, 1.0)
    while n > 0:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


@dataclass(frozen=True, slots=True)
class NumpyKernels:
    """The lift kernels on ``WeilValue``s of one shape and batch shape.
    Each kernel is looked up in this module's globals when it is called, so
    rebinding ``weil_mul``, ``weil_unary``, ... here reaches every lift."""

    shape: WeilShape
    batch_shape: tuple[int, ...] = ()

    def const(self, c: float) -> WeilValue:
        return weil_const(self.shape, np.full(self.batch_shape, float(c)))

    add = lambda self, a, b: weil_add(a, b)
    sub = lambda self, a, b: weil_sub(a, b)
    neg = lambda self, a: weil_neg(a)
    mul = lambda self, a, b: weil_mul(a, b)
    unary = lambda self, kind, w, exponent=None: weil_unary(kind, w, exponent)
    recip = lambda self, w: weil_recip(w)
    pow_int = staticmethod(lambda w, n: weil_pow_int(w, n))

    # the hooks of the shared lifts
    primal = operator.attrgetter("primal")
    graded = staticmethod(_graded)

    @staticmethod
    def like(w: WeilValue, c) -> WeilValue:
        """The constant jet c, of w's shape and batch."""
        return weil_const(w.shape, np.broadcast_to(c, w.batch_shape))


# The kernels every numpy lift runs on: the shared lifts read their
# operands' shapes, never the kernels'.
_plain = NumpyKernels(None)


def weil_recip(w: WeilValue) -> WeilValue:
    """Multiplicative inverse, the power -1."""
    return _lift_recip(_plain, w)


def weil_pow_int(w: WeilValue, n: int) -> WeilValue:
    """Exact non-negative integer power by binary exponentiation."""
    return _lift_pow_int(_plain, w, n)


def weil_unary(kind: str, w: WeilValue,
               exponent: float | None = None) -> WeilValue:
    """Lift a smooth scalar primitive by its graded recurrence."""
    return _lift_unary(_plain, kind, w, exponent)


@dataclass(frozen=True, eq=False, slots=True)
class FloatKernels:
    """The lift kernels on the coefficient lists of one shape, which
    ``float_kernels`` builds: ``degrees`` holds |alpha| of every flat index,
    and ``steps`` (|alpha|, alpha, pairs) for every alpha != 0 in graded
    order, pairs being the (beta, alpha - beta) with beta != 0 in ascending
    beta.  ``products`` is the pair table where products run on numpy, past
    FLOAT_MUL_PAIRS pairs, else None."""

    degrees: tuple[float, ...]
    steps: tuple[tuple[float, int, tuple[tuple[int, int], ...]], ...]
    products: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    unary, recip, pow_int = _lift_unary, _lift_recip, _lift_pow_int
    primal = operator.itemgetter(0)

    def const(self, c: float) -> list[float]:
        x = [0.0] * len(self.degrees)
        x[0] = float(c)
        return x

    def like(self, x: list[float], c) -> list[float]:
        return self.const(c)

    add = staticmethod(lambda a, b: list(map(operator.add, a, b)))
    sub = staticmethod(lambda a, b: list(map(operator.sub, a, b)))
    neg = staticmethod(lambda a: list(map(operator.neg, a)))

    def mul(self, a: list[float], b: list[float]) -> list[float]:
        """``weil_mul`` on lists: each coefficient is a ``+=`` fold from 0.0
        in ascending index of a, the order in which ``np.bincount`` adds the
        pair table, so the bits (signed zeros too) are the same.  Past
        FLOAT_MUL_PAIRS pairs it is that ``np.bincount``."""
        if self.products is not None:
            i, j, k = self.products
            return np.bincount(k, np.array(a)[i] * np.array(b)[j],
                               len(a)).tolist()
        a0 = a[0]
        out = [0.0] * len(a)
        out[0] = 0.0 + a0 * b[0]
        for _, t, pairs in self.steps:
            acc = 0.0 + a0 * b[t]
            for i, j in pairs:
                acc += a[i] * b[j]
            out[t] = acc
        return out

    def graded(self, kind: str, x: list[float],
               r: float = 0.0) -> list[float]:
        """The recurrences of ``_graded`` on a list, one target at a time.
        Each conv is a ``+=`` fold from 0.0 over the step's pairs, as
        ``np.bincount`` adds them, so the result is the same to the bit.
        Primal values are numpy calls, as in ``_graded``: a ``math``
        function may round differently, and ``**`` on a float may raise
        OverflowError."""
        steps = self.steps
        x0 = x[0]
        dx = list(map(operator.mul, self.degrees, x))  # D x
        y = [0.0] * len(x)
        if kind == "exp":
            y[0] = float(np.exp(x0))
            for d, t, pairs in steps:
                acc = 0.0
                for b, c in pairs:
                    acc += dx[b] * y[c]
                y[t] = acc / d
        elif kind in ("sin", "cos"):
            s, co = y, [0.0] * len(x)
            s[0], co[0] = float(np.sin(x0)), float(np.cos(x0))
            for d, t, pairs in steps:
                acc_s = acc_c = 0.0
                for b, c in pairs:
                    acc_s += dx[b] * co[c]
                    acc_c += dx[b] * s[c]
                s[t], co[t] = acc_s / d, acc_c / -d
            y = s if kind == "sin" else co
        elif kind == "tanh":
            u = [0.0] * len(x)
            y0 = y[0] = float(np.tanh(x0))
            u[0] = 1.0 - y0 * y0
            for d, t, pairs in steps:
                acc = 0.0
                for b, c in pairs:
                    acc += dx[b] * u[c]
                yt = y[t] = acc / d
                acc = 0.0
                for b, c in pairs:
                    acc += y[b] * y[c]
                u[t] = -(acc + y0 * yt)
        elif kind == "log":
            y[0] = float(np.log(x0))
            for d, t, pairs in steps:
                acc = 0.0
                for b, c in pairs:
                    acc += (d * x[b] - dx[b]) * y[c]
                y[t] = (d * x[t] - acc) / (d * x0)
        elif kind == "pow":
            # an array, as _graded's row: np.float64 ** r rounds differently
            y[0] = float(np.asarray(x0) ** r)
            r1 = r + 1.0
            for d, t, pairs in steps:
                acc = 0.0
                for b, c in pairs:
                    acc += (r1 * dx[b] - d * x[b]) * y[c]
                y[t] = acc / (d * x0)
        else:
            raise ValueError(f"unsupported unary primitive {kind!r}")
        return y


@lru_cache(maxsize=None)
def float_kernels(shape: WeilShape) -> FloatKernels | None:
    """The float kernels of shape; None where an unbatched pass runs on
    numpy, past FLOAT_PAIRS_PER_DEGREE * K pairs with beta != 0 (K the top
    total degree) or past PAIR_LIMIT pairs."""
    pairs = _target_pairs(shape)
    if (pairs is None or len(pairs[0])
            > FLOAT_PAIRS_PER_DEGREE * shape.max_total_degree):
        return None
    by_target: dict[int, list[tuple[int, int]]] = {}
    for b, c, t in zip(*(a.tolist() for a in pairs)):
        by_target.setdefault(t, []).append((b, c))
    degrees = tuple(_degrees(shape)[:-1].tolist())
    products = _pair_table(shape)
    return FloatKernels(degrees, tuple(
        (degrees[t], t, tuple(by_target[t]))
        for t in shape.graded()[0][1:].tolist()),
        products if len(products[0]) > FLOAT_MUL_PAIRS else None)
