"""Dense truncated coefficient arithmetic over commuting nilpotent generators.

A value is a coefficient array over the monomial basis e^alpha where each
generator e_j satisfies e_j**(cap_j + 1) == 0.  Multiplication is truncated
convolution, so series truncation is structural: products past any cap are
simply never formed.  Coefficients may carry a trailing batch axis, which
every operation broadcasts over.

Multiplication has two kernels, picked from the operands' own shapes:

* pair table: both operands unbatched (1-D coefficients) and at most
  ``PAIR_LIMIT`` index pairs (alpha, beta) with alpha + beta inside the caps.
  The pairs are built once per caps and reduced with one ``np.bincount``;
  the Python cost no longer grows with the dimension.
* slice loop: everything else (batched or mixed operands, or more pairs than
  the limit).  One vectorized slice update per coefficient of the unbatched
  factor, which amortizes well over a batch axis.

Both kernels add the terms of every output coefficient in the same order,
so for finite coefficients they agree bit for bit.

Unary lifts compose the scalar Taylor series at the primal with the
nilpotent part by Horner steps; the tanh series comes from the recurrence
for y' = 1 - y**2 (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IncompatibleShapesError, ShapeTooLargeError

DEFAULT_MAX_DIM = 1 << 20
# Largest pair table weil_mul builds; three intp index arrays, 24 MiB at most.
PAIR_LIMIT = 1 << 20


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

    def index(self, alpha: Sequence[int]) -> int:
        if len(alpha) != self.p:
            raise IncompatibleShapesError(
                f"multi-index length {len(alpha)} != {self.p}")
        idx = 0
        for a, cap, stride in zip(alpha, self.caps, self.strides):
            if not 0 <= a <= cap:
                raise IncompatibleShapesError(
                    f"exponent {a} outside [0, {cap}]")
            idx += a * stride
        return idx

    def alpha_of(self, idx: int) -> tuple[int, ...]:
        out = []
        for stride in self.strides:
            a, idx = divmod(idx, stride)
            out.append(a)
        return tuple(out)

    def multi_indices(self) -> tuple[tuple[int, ...], ...]:
        return _alpha_table(self.caps)

    def __eq__(self, other) -> bool:  # structural: caps only
        return isinstance(other, WeilShape) and self.caps == other.caps

    def __hash__(self) -> int:
        return hash(self.caps)


@lru_cache(maxsize=None)
def _alpha_table(caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    shape = tuple(c + 1 for c in caps)
    return tuple(tuple(a) for a in np.ndindex(shape))


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

    def coeff(self, alpha: Sequence[int]):
        return self.coeffs[self.shape.index(alpha)]


def weil_const(shape: WeilShape, value) -> WeilValue:
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((shape.dim,) + value.shape)
    coeffs[0] = value
    return WeilValue(shape, coeffs)


def weil_generator(shape: WeilShape, j: int, batch_shape: tuple[int, ...] = ()) -> WeilValue:
    """The j-th nilpotent generator e_j as a value."""
    coeffs = np.zeros((shape.dim,) + batch_shape)
    coeffs[shape.strides[j]] = 1.0
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


def weil_mul(a: WeilValue, b: WeilValue) -> WeilValue:
    """Truncated convolution; exponent overflow past any cap is dropped.

    Two unbatched operands with at most PAIR_LIMIT index pairs use the
    cached pair table: one gather, one product and one ``np.bincount``.
    All other products run the slice loop over the unbatched factor's
    coefficients.  Both add each output's terms in ascending order of the
    first factor's index, so their results are bit-identical for finite
    coefficients.
    """
    shape = _check_shapes(a, b)
    if a.coeffs.ndim == 1 and b.coeffs.ndim == 1:
        pairs = _pair_table(shape)
        if pairs is not None:
            i, j, k = pairs
            return WeilValue(shape, np.bincount(
                k, weights=a.coeffs[i] * b.coeffs[j], minlength=shape.dim))
    if a.coeffs.ndim > b.coeffs.ndim:
        a, b = b, a  # iterate over the unbatched factor
    caps = shape.caps
    tshape = shape.tensor_shape
    batch = b.coeffs.shape[1:]
    ta = a.coeffs
    tb = b.coeffs.reshape(tshape + b.coeffs.shape[1:])
    out = np.zeros(tshape + batch)
    alphas = shape.multi_indices()
    for ia in range(shape.dim):
        av = ta[ia]
        if not np.any(av):
            continue
        alpha = alphas[ia]
        dst = tuple(slice(x, None) for x in alpha)
        src = tuple(slice(0, cap + 1 - x) for x, cap in zip(alpha, caps))
        out[dst] += av * tb[src]
    return WeilValue(shape, out.reshape((shape.dim,) + batch))


def _nilpotent_part(w: WeilValue) -> WeilValue:
    coeffs = w.coeffs.copy()
    coeffs[0] = 0.0
    return WeilValue(w.shape, coeffs)


def _taylor_recompose(w: WeilValue, series: Sequence) -> WeilValue:
    """Horner evaluation of sum_l series[l] * n**l with n the nilpotent part."""
    nil = _nilpotent_part(w)
    if not np.any(nil.coeffs):
        return weil_const(w.shape, series[0] * np.ones_like(w.primal))
    acc = weil_const(w.shape, np.broadcast_to(
        np.asarray(series[-1], dtype=float), np.shape(w.primal)))
    for coef in reversed(series[:-1]):
        acc = weil_mul(acc, nil)
        acc.coeffs[0] += coef
    return acc


def _require(cond, message: str, primal):
    if not np.all(cond):
        bad = np.asarray(primal)[~np.asarray(cond)] if np.ndim(primal) else primal
        raise DomainError(message, value=bad)


def _series_exp(c0, K):
    e = np.exp(c0)
    return [e / math.factorial(l) for l in range(K + 1)]


def _series_log(c0, K):
    _require(np.asarray(c0) > 0, "log requires a positive primal", c0)
    out = [np.log(c0)]
    for l in range(1, K + 1):
        out.append((-1.0) ** (l - 1) / (l * c0 ** l))
    return out


def _series_sin(c0, K):
    s, c = np.sin(c0), np.cos(c0)
    cycle = [s, c, -s, -c]
    return [cycle[l % 4] / math.factorial(l) for l in range(K + 1)]


def _series_cos(c0, K):
    s, c = np.sin(c0), np.cos(c0)
    cycle = [c, -s, -c, s]
    return [cycle[l % 4] / math.factorial(l) for l in range(K + 1)]


def _series_tanh(c0, K):
    # y(t) = tanh(c0 + t) solves y' = 1 - y^2, so its Taylor coefficients obey
    # (l+1) y_{l+1} = [l == 0] - sum_{j<=l} y_j y_{l-j}.
    y = [np.tanh(c0)]
    for l in range(K):
        conv = sum(y[j] * y[l - j] for j in range(l + 1))
        y.append((float(l == 0) - conv) / (l + 1))
    return y


def _series_sqrt(c0, K):
    _require(np.asarray(c0) > 0, "sqrt lift requires a positive primal", c0)
    out = [np.sqrt(c0)]
    binom = 0.5
    fac = 1.0
    for l in range(1, K + 1):
        fac *= binom / l
        out.append(fac * c0 ** (0.5 - l))
        binom -= 1.0
    return out


def _series_recip(c0, K):
    _require(np.asarray(c0) != 0, "reciprocal of a non-invertible element "
             "(primal coefficient is zero)", c0)
    inv = 1.0 / np.asarray(c0, dtype=float)
    return [(-1.0) ** l * inv ** (l + 1) for l in range(K + 1)]


def _series_pow(c0, K, exponent: float):
    c0a = np.asarray(c0, dtype=float)
    if exponent != round(exponent):
        _require(c0a > 0, "fractional power requires a positive primal", c0)
    elif exponent < 0:
        _require(c0a != 0, "negative power of a non-invertible element", c0)
    out = []
    fac = 1.0
    for l in range(K + 1):
        if l > 0:
            fac *= (exponent - (l - 1)) / l
        if fac == 0.0:
            out.append(np.zeros_like(c0a) if c0a.ndim else 0.0)
        else:
            out.append(fac * c0a ** (exponent - l))
    return out


_SERIES: dict[str, Callable] = {
    "exp": _series_exp,
    "log": _series_log,
    "sin": _series_sin,
    "cos": _series_cos,
    "tanh": _series_tanh,
    "sqrt": _series_sqrt,
    "recip": _series_recip,
}


def weil_recip(w: WeilValue) -> WeilValue:
    """Multiplicative inverse via the truncated geometric series."""
    return _taylor_recompose(w, _series_recip(w.primal, w.shape.max_total_degree))


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
    """Lift a smooth scalar primitive by Taylor recomposition at the primal."""
    if kind == "neg":
        return weil_neg(w)
    K = w.shape.max_total_degree
    if kind == "pow":
        if exponent is None:
            raise ValueError("pow lift needs an exponent")
        if exponent == round(exponent) and exponent >= 0:
            return weil_pow_int(w, int(round(exponent)))
        return _taylor_recompose(w, _series_pow(w.primal, K, exponent))
    try:
        series = _SERIES[kind]
    except KeyError:
        raise ValueError(f"unsupported unary primitive {kind!r}") from None
    if kind in ("sqrt",) and not np.any(_nilpotent_part(w).coeffs):
        # constant jet: allow the domain boundary itself
        _require(np.asarray(w.primal) >= 0, "sqrt of a negative primal", w.primal)
        return weil_const(w.shape, np.sqrt(w.primal) * np.ones_like(w.primal))
    return _taylor_recompose(w, series(w.primal, K))
