"""Dense truncated coefficient arithmetic over commuting nilpotent generators.

A value is a coefficient array over the monomial basis e^alpha where each
generator e_j satisfies e_j**(cap_j + 1) == 0.  Multiplication is truncated
convolution, so series truncation is structural: products past any cap are
simply never formed.  Coefficients may carry a trailing batch axis, which
every operation broadcasts over.

Three kernels, picked from the operands' own shapes:

* pair table: products of two unbatched operands, reduced over the cached
  index pairs (alpha, beta) with one ``np.bincount``.
* slice loop: products with a batched operand, one slice update per nonzero
  row of one factor: the unbatched one if only one is, else the one with
  fewer nonzero rows, so a constant factor costs one update and a seeded
  input p + 1.  A second factor's rows are visited in descending index.
* graded recurrences: unary lifts.  y = f(x) obeys D y = f'(x) D x, where D
  multiplies coefficient alpha by |alpha|, which fixes y one total degree at
  a time (Griewank & Walther, *Evaluating Derivatives*, ch. 13).

All three add each coefficient's terms in ascending order of the first
factor's index (the descending visit of a second factor's rows does exactly
that), so batched and unbatched results agree bit for bit.  Past
``PAIR_LIMIT`` pairs no pair table is built: products run the slice loop,
and the recurrences build each coefficient's pairs when they reach it.

Scratch: the batched temporaries of the slice loop and of the recurrences'
gathers go into two float64 buffers that each thread keeps for reuse
(``threading.local``, since library callers may lift from threads).
Each buffer holds ``GATHER_LIMIT`` values, 4 MiB; a larger temporary is
allocated afresh.  Fresh temporaries of this size go back to the OS when
freed (malloc maps them, or trims them off the top of its heap), so every
call page-faulted them in again, which at B = 2048 cost more than the
arithmetic.  The scratch holds temporaries only: no
returned array is a view into it.  The gathers run ``np.take`` with
``mode="clip"``, because the default ``mode="raise"`` always copies through
a temporary ``out``; the index check moves to ``_level_conv``, which checks
each table once, when it is built.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, IncompatibleShapesError, ShapeTooLargeError

DEFAULT_MAX_DIM = 1 << 20
# Largest pair table weil_mul builds; three intp index arrays, 24 MiB at most.
PAIR_LIMIT = 1 << 20
# Most products one batched recurrence gathers at a time (4 MiB of float64).
# Summed over sin lifts at B = 2048, 2**19 ran (6,6,6) and (15,15) twice as
# fast as 2**20 or no limit, and the benchmark's small caps as fast.
GATHER_LIMIT = 1 << 19

_scratch = threading.local()


def _scratch_buffer(which: int, n: int) -> np.ndarray:
    """Flat float64 scratch buffer ``which`` (0 or 1) of the calling thread,
    of at least n values; a fresh array past GATHER_LIMIT values."""
    if n > GATHER_LIMIT:
        return np.empty(n)
    try:
        return _scratch.bufs[which]
    except AttributeError:
        _scratch.bufs = (np.empty(GATHER_LIMIT), np.empty(GATHER_LIMIT))
        return _scratch.bufs[which]


@dataclass(frozen=True)
class WeilShape:
    """Descriptor of the truncation lattice: per-direction caps and indexing."""

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

    def __eq__(self, other) -> bool:  # structural: caps only
        return isinstance(other, WeilShape) and self.caps == other.caps

    def __hash__(self) -> int:
        return hash(self.caps)


def make_shape(caps: Sequence[int], max_dim: int | None = None) -> WeilShape:
    caps = tuple(int(c) for c in caps)
    if not caps:
        raise ValueError("caps must be non-empty")
    if any(c < 1 for c in caps):
        raise ValueError("every cap must be >= 1")
    dim = 1
    for c in caps:
        dim *= c + 1
    limit = DEFAULT_MAX_DIM if max_dim is None else max_dim
    if dim > limit:
        raise ShapeTooLargeError(dim, limit)
    strides = []
    acc = 1
    for c in reversed(caps):
        strides.append(acc)
        acc *= c + 1
    return WeilShape(caps=caps, dim=dim, strides=tuple(reversed(strides)))


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


def weil_const(shape: WeilShape, value) -> WeilValue:
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((shape.dim,) + value.shape)
    coeffs[0] = value
    return WeilValue(shape, coeffs)


def _check_shapes(a: WeilValue, b: WeilValue) -> WeilShape:
    if a.shape != b.shape:
        raise IncompatibleShapesError(
            f"caps {a.shape.caps} vs {b.shape.caps}")
    return a.shape


def weil_add(a: WeilValue, b: WeilValue) -> WeilValue:
    shape = _check_shapes(a, b)
    return WeilValue(shape, a.coeffs + b.coeffs)


def weil_sub(a: WeilValue, b: WeilValue) -> WeilValue:
    shape = _check_shapes(a, b)
    return WeilValue(shape, a.coeffs - b.coeffs)


def weil_neg(a: WeilValue) -> WeilValue:
    return WeilValue(a.shape, -a.coeffs)


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
    """Flat indices of the rows of w that are nonzero in some batch column."""
    return np.flatnonzero(w.coeffs.reshape(w.shape.dim, -1).any(axis=1))


def weil_mul(a: WeilValue, b: WeilValue) -> WeilValue:
    """Truncated convolution; exponent overflow past any cap is dropped.

    Two unbatched operands use the pair table while it has at most
    PAIR_LIMIT pairs.  All other products run the slice loop, one update per
    nonzero row of the factor with the smaller (axes, nonzero rows): an
    unbatched factor broadcasts, so it goes first, and a tie keeps a.  The
    loop visits a's rows in ascending index and b's in descending index, so
    either way each coefficient adds its terms in ascending index of a, as
    the pair table does, and every batch column equals its unbatched product
    bit for bit.
    """
    shape = _check_shapes(a, b)
    if a.coeffs.ndim == 1 and b.coeffs.ndim == 1:
        pairs = _pair_table(shape)
        if pairs is not None:
            i, j, k = pairs
            return WeilValue(shape, np.bincount(
                k, weights=a.coeffs[i] * b.coeffs[j], minlength=shape.dim))
    rows_a, rows_b = _nonzero_rows(a), _nonzero_rows(b)
    if (b.coeffs.ndim, len(rows_b)) < (a.coeffs.ndim, len(rows_a)):
        a, b, rows_a = b, a, rows_b[::-1]
    tshape = shape.tensor_shape
    ta = a.coeffs
    tb = b.coeffs.reshape(tshape + b.coeffs.shape[1:])
    batch = np.broadcast_shapes(ta.shape[1:], b.coeffs.shape[1:])
    out = np.zeros(tshape + batch)
    scratch = _scratch_buffer(0, out.size)
    table = _slice_table(shape)
    for ia in rows_a:
        dst, src = table[ia]
        part, acc = tb[src], out[dst]  # `out[dst] += t` re-assigns the view
        np.add(acc, np.multiply(ta[ia], part, out=scratch[:acc.size]
                                .reshape(acc.shape)), out=acc)
    return WeilValue(shape, out.reshape((shape.dim,) + batch))


@lru_cache(maxsize=None)
def _degrees(shape: WeilShape) -> np.ndarray:
    """Total degree |alpha| of every flat index, then 0 for the zero row."""
    deg = np.indices(shape.tensor_shape).reshape(shape.p, -1).sum(axis=0)
    return np.append(deg, 0).astype(float)


@lru_cache(maxsize=None)
def _levels(shape: WeilShape):
    """(d, targets, conv) for each total degree d = 1..K, in that order.

    ``targets`` holds the flat indices alpha with |alpha| == d.  For each of
    them ``conv(a, b)`` sums a[beta] * b[alpha - beta] over beta != 0 in
    ascending beta, where a and b carry a zero row after their dim rows.
    None past PAIR_LIMIT pairs.
    """
    pairs = _pair_table(shape)
    if pairs is None:
        return None
    i, j, k = pairs
    keep = i != 0
    order = np.argsort(k[keep], kind="stable")  # by target, ascending beta
    i, j, k = i[keep][order], j[keep][order], k[keep][order]
    deg = _degrees(shape)[k]
    levels = []
    for d in range(1, shape.max_total_degree + 1):
        sel = deg == d
        targets, start, count = np.unique(k[sel], return_index=True,
                                          return_counts=True)
        pos = np.repeat(np.arange(len(targets)), count)
        # row r of I, J: the pairs of targets[r], padded with the zero row
        I = np.full((len(targets), count.max()), shape.dim)
        J = I.copy()
        I[pos, np.arange(len(pos)) - start[pos]] = i[sel]
        J[pos, np.arange(len(pos)) - start[pos]] = j[sel]
        levels.append((np.float64(d), targets,
                       _level_conv(I, J, i[sel], j[sel], pos, shape.dim)))
    return tuple(levels)


def _level_conv(I, J, i, j, pos, dim: int):
    """Unbatched, one ``np.bincount`` over the pairs; batched, the padded
    gather summed along its rows, GATHER_LIMIT products at a time.  Both add
    in ascending beta, so a batch column matches its unbatched lift exactly.

    The gathers run unchecked into the thread's scratch, so the index
    tables are checked here, once: every entry lies in 0..dim, the rows of
    an operand with its zero row.
    """
    for table in (I, J):
        if table.min() < 0 or table.max() > dim:
            raise IndexError(f"level table index outside 0..{dim}")
    cols = max(1, GATHER_LIMIT // I.size)

    def conv(a, b):
        if a.ndim == 1:
            return np.bincount(pos, a[i] * b[j], len(I))
        if a.shape[1] == 1:  # numpy would sum a lone column pairwise
            return conv(a[:, 0], b[:, 0])[:, None]
        if a.shape[1] <= cols:
            n, gather = I.size * a.shape[1], I.shape + a.shape[1:]
            prod = a.take(I, 0, _scratch_buffer(0, n)[:n].reshape(gather),
                          "clip")
            prod *= b.take(J, 0, _scratch_buffer(1, n)[:n].reshape(gather),
                           "clip")
            return prod.sum(axis=1)
        return np.concatenate([conv(a[:, lo:lo + cols], b[:, lo:lo + cols])
                               for lo in range(0, a.shape[1], cols)], axis=1)
    return conv


def _box_levels(shape: WeilShape):
    """_levels past PAIR_LIMIT pairs, one target at a time: the pairs of
    alpha are the beta != 0 of the box beta <= alpha, built when reached."""
    deg = _degrees(shape)[:-1]
    for k in shape.graded()[0][1:]:
        box = tuple(x + 1 for x in shape.alpha_of(int(k)))
        i = np.dot(shape.strides, np.indices(box).reshape(shape.p, -1)[:, 1:])
        yield deg[k], np.array([k]), _level_conv(
            i[None], k - i[None], i, k - i, np.zeros(len(i), dtype=np.intp),
            shape.dim)


def _graded(kind: str, w: WeilValue, r: float = 0.0) -> WeilValue:
    """Lift a unary primitive: D is a derivation, and coefficient alpha of
    D y = f'(x) D x gives y_alpha from lower degrees of y through one
    ``conv``.  Domain checks are the caller's."""
    shape = w.shape
    batch = w.batch_shape
    # operands carry a zero row after the dim coefficients, for the padding
    rows = (shape.dim + 1,) + ((math.prod(batch),) if batch else ())
    coeffs = w.coeffs.reshape((shape.dim,) + rows[1:])
    deg = _degrees(shape).reshape((-1,) + (1,) * (len(rows) - 1))
    dx = np.zeros(rows)  # D x
    np.multiply(deg[:-1], coeffs, out=dx[:-1])
    x0 = coeffs[:1]  # a row, so scalar and batched primals take one ufunc path
    if kind in ("log", "pow"):
        x = np.zeros(rows)
        x[:-1] = coeffs
    y = np.zeros(rows)
    levels = _levels(shape) or _box_levels(shape)
    if kind == "exp":  # D y = y D x
        y[:1] = np.exp(x0)
        for d, t, conv in levels:
            y[t] = conv(dx, y) / d
    elif kind in ("sin", "cos"):  # D s = c D x, D c = -s D x
        s, c = y, np.zeros(rows)
        s[:1], c[:1] = np.sin(x0), np.cos(x0)
        for d, t, conv in levels:
            s[t], c[t] = conv(dx, c) / d, conv(dx, s) / -d
        y = s if kind == "sin" else c
    elif kind == "tanh":  # D y = u D x with u = 1 - y**2
        u = np.zeros(rows)
        y0 = y[:1] = np.tanh(x0)
        u[:1] = 1.0 - y0 * y0
        for d, t, conv in levels:
            yt = y[t] = conv(dx, u) / d
            u[t] = -(conv(y, y) + y0 * yt)
    elif kind == "log":  # x D y = D x
        y[:1] = np.log(x0)
        for d, t, conv in levels:
            y[t] = (d * x[t] - conv(d * x - dx, y)) / (d * x0)
    elif kind == "pow":  # x D y = r y D x: sqrt from y**2 = x, recip from x y = 1
        y[:1] = x0 ** r
        for d, t, conv in levels:
            y[t] = conv((r + 1.0) * dx - d * x, y) / (d * x0)
    else:
        raise ValueError(f"unsupported unary primitive {kind!r}")
    return WeilValue(shape, y[:-1].reshape((shape.dim,) + batch))


def _require(cond, message: str, primal):
    if not np.all(cond):
        bad = np.asarray(primal)[~np.asarray(cond)] if np.ndim(primal) else primal
        raise DomainError(message, value=bad)


def weil_recip(w: WeilValue) -> WeilValue:
    """Multiplicative inverse, the power -1."""
    _require(np.asarray(w.primal) != 0, "reciprocal of a non-invertible "
             "element (primal coefficient is zero)", w.primal)
    return _graded("pow", w, -1.0)


def weil_pow_int(w: WeilValue, n: int) -> WeilValue:
    """Exact non-negative integer power by binary exponentiation."""
    result = weil_const(w.shape, np.ones_like(np.asarray(w.primal, dtype=float)))
    base = w
    while n > 0:
        if n & 1:
            result = weil_mul(result, base)
        base = weil_mul(base, base)
        n >>= 1
    return result


def weil_unary(kind: str, w: WeilValue, exponent: float | None = None) -> WeilValue:
    """Lift a smooth scalar primitive by its graded recurrence."""
    c0 = np.asarray(w.primal)
    if kind == "pow":
        if exponent is None:
            raise ValueError("pow lift needs an exponent")
        if exponent == round(exponent) and exponent >= 0:
            return weil_pow_int(w, int(round(exponent)))
        if exponent != round(exponent):
            _require(c0 > 0, "fractional power requires a positive primal",
                     w.primal)
        else:
            _require(c0 != 0, "negative power of a non-invertible element",
                     w.primal)
        return _graded("pow", w, exponent)
    if kind == "log":
        _require(c0 > 0, "log requires a positive primal", w.primal)
    elif kind == "sqrt":
        # a constant jet may sit on the domain boundary; decided per column
        const = ~np.any(w.coeffs[1:], axis=0)
        _require(~const | (c0 >= 0), "sqrt of a negative primal", w.primal)
        _require(const | (c0 > 0), "sqrt lift requires a positive primal",
                 w.primal)
        if np.all(const):
            return weil_const(w.shape, np.sqrt(w.primal))
        if np.any(const):
            return _sqrt_columns(w, const)
        return _graded("pow", w, 0.5)
    return _graded(kind, w)


def _sqrt_columns(w: WeilValue, const: np.ndarray) -> WeilValue:
    """sqrt of a batch mixing constant jets with others: sqrt(c0) for the
    constant columns, the pow 1/2 recurrence over the rest."""
    cols = w.coeffs.reshape(w.shape.dim, -1)
    const = const.reshape(-1)
    out = np.zeros_like(cols)
    out[0, const] = np.sqrt(cols[0, const])
    out[:, ~const] = _graded("pow", WeilValue(w.shape, cols[:, ~const]),
                             0.5).coeffs
    return WeilValue(w.shape, out.reshape(w.coeffs.shape))
