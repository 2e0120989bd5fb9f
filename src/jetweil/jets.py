"""Seeding, one-pass lifted evaluation, and mixed-derivative extraction.

Inputs are seeded as base + sum_j e_j * v_j and the program is evaluated
once under coefficient-array semantics.  The derivative table is the
outputs' coefficient vectors, one row per multi-index alpha in (|alpha|,
alpha) order; alpha! times row alpha is the mixed directional derivative.
Each primitive's lift is its one ``lift`` rule in ``slp.PRIMITIVES``, run
over a ``weil`` kernel set.

``taylor_eval`` runs a pass whose shape has ``weil.float_kernels`` on Python
lists of coefficients: at the small shapes of batch-1 requests, numpy's
per-call cost outweighs the arithmetic.  The pass seeds its inputs and
checks its outputs on lists, and builds numpy arrays only for the returned
table and, inside the pass, for products past ``weil.FLOAT_MUL_PAIRS``
pairs.  The float and numpy passes give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, NumericOverflowError
from .slp import PRIMITIVES, Node, Program, check_finite, eval_generic
from .weil import (NumpyKernels, WeilShape, WeilValue, cap_tuple,
                   float_kernels, make_shape)


class WeilSemantics:
    """Scalar semantics lifting every primitive to coefficient arrays.

    ``kernels`` is the kernel set each primitive's ``lift`` rule runs on:
    ``weil.NumpyKernels`` of the shape and batch shape, unless
    ``taylor_eval`` has put the shape's ``weil.FloatKernels`` there for a
    pass on Python lists.
    """

    def __init__(self, shape: WeilShape, batch_shape: tuple[int, ...] = ()):
        self.kernels = NumpyKernels(shape, batch_shape)

    def constant(self, c: float) -> WeilValue | list[float]:
        return self.kernels.const(c)

    def apply(self, node: Node, args: Sequence) -> WeilValue | list[float]:
        return PRIMITIVES[node.op].lift(self.kernels, args, node.const)


@dataclass(frozen=True)
class SeedSpec:
    """Base point, packed directions, and per-direction truncation caps."""

    base: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        object.__setattr__(self, "directions", tuple(
            tuple(float(c) for c in d) for d in self.directions))
        object.__setattr__(self, "caps", cap_tuple(self.caps))
        if len(self.directions) != len(self.caps):
            raise DimensionMismatchError(
                f"{len(self.directions)} directions but {len(self.caps)} caps")
        n = len(self.base)
        for d in self.directions:
            if len(d) != n:
                raise DimensionMismatchError(
                    f"direction length {len(d)} != input dimension {n}")

    @property
    def n(self) -> int:
        return len(self.base)


def seed(spec: SeedSpec, max_dim: int | None = None) -> list[WeilValue]:
    """Component-wise seeded values: degree 0 holds x, degree e_j holds v_j."""
    shape = make_shape(spec.caps, max_dim=max_dim)
    coeffs = np.zeros((spec.n, shape.dim))  # one row per input
    coeffs[:, 0] = spec.base
    coeffs[:, list(shape.strides)] = np.transpose(spec.directions)
    return [WeilValue(shape, row) for row in coeffs]


@dataclass
class DerivativeTable:
    """Row r of ``raw`` holds the outputs' coefficients of e^alpha, alpha =
    ``alphas[r]``, which the envelope checks are stated on; ``values`` is
    alpha! times them, the mixed directional derivatives.  The rows are a
    prefix of ``shape.graded()``: all of it for ``taylor_eval``, the
    |alpha| <= k part for ``nested_jvp_schedule``."""

    shape: WeilShape
    base: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]
    raw: np.ndarray

    @property
    def alphas(self) -> tuple[tuple[int, ...], ...]:
        """The multi-indices of the rows, in (|alpha|, alpha) order."""
        return self.shape.graded()[1][:len(self.raw)]

    @cached_property
    def values(self) -> np.ndarray:
        """alpha! times ``raw``; NumericOverflowError where that is past
        float64."""
        m, e = self.shape.factorials()
        n = len(self.raw)
        with np.errstate(over="ignore"):
            values = np.ldexp(self.raw * m[:n, None], e[:n, None])
        if not np.isfinite(values).all():
            r, col = np.argwhere(~np.isfinite(values))[0]
            raise NumericOverflowError(
                f"derivative {self.alphas[r]} of output {col} overflows "
                "float64")
        return values

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], int]:
        return {alpha: r for r, alpha in enumerate(self.alphas)}

    def entry(self, alpha: Sequence[int]) -> np.ndarray:
        return self.values[self._rows[tuple(alpha)]]

    def coeff(self, alpha: Sequence[int]) -> np.ndarray:
        return self.raw[self._rows[tuple(alpha)]]

    # Read-only alpha -> row views, kept because perfbench/workloads.py reads
    # them; the package itself uses entry(), coeff() and the arrays.
    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], np.ndarray]:
        return MappingProxyType(dict(zip(self.alphas, self.values)))

    @cached_property
    def coeffs(self) -> Mapping[tuple[int, ...], np.ndarray]:
        return MappingProxyType(dict(zip(self.alphas, self.raw)))

    def to_json_dict(self) -> dict:
        return {
            "caps": list(self.shape.caps),
            "base": list(self.base),
            "directions": [list(d) for d in self.directions],
            "entries": [{"alpha": list(alpha), "value": value, "coeff": coeff}
                        for alpha, value, coeff in zip(
                            self.alphas, self.values.tolist(),
                            self.raw.tolist())],
        }


def taylor_eval(prog: Program, spec: SeedSpec,
                max_dim: int | None = None) -> DerivativeTable:
    """One lifted pass; entries are alpha! times the output coefficients.

    The pass runs on Python floats where the shape has float kernels, else
    on numpy.  A float pass seeds its inputs as lists, checks its outputs
    on them, and builds one numpy array, for the returned table.  Raises
    NumericOverflowError, carrying the output's node index, when any output
    coefficient is non-finite.
    """
    shape = make_shape(spec.caps, max_dim=max_dim)
    sem = WeilSemantics(shape)
    floats = float_kernels(shape)
    if floats is None:
        inputs = seed(spec, max_dim=max_dim)
    else:
        sem.kernels = floats
        inputs = [[x] + [0.0] * (shape.dim - 1) for x in spec.base]
        for stride, d in zip(shape.strides, spec.directions):
            for row, v in zip(inputs, d):
                row[stride] = v
    # non-finite outputs raise below, so numpy need not warn about them (a
    # float pass takes its primal values from numpy too)
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = eval_generic(prog, inputs, sem)
    if floats is None:
        coeffs = np.array([out.coeffs for out in outputs])  # row per output
        # an output's largest |coefficient| is finite when all of them are
        worst = np.abs(coeffs).max(axis=1).tolist()
    else:
        coeffs = outputs
        worst = [0.0 if all(map(math.isfinite, out)) else math.inf
                 for out in outputs]
    check_finite(prog, worst, prog.outputs, "output coefficient")
    return DerivativeTable(shape=shape, base=spec.base,
                           directions=spec.directions,
                           raw=np.asarray(coeffs).T[shape.graded()[0]])


def basis_seed(x: Sequence[float], cap: int) -> SeedSpec:
    """Coordinate-basis seeding: one direction e_j per input, uniform cap."""
    n = len(x)
    dirs = tuple(tuple(1.0 if i == j else 0.0 for i in range(n))
                 for j in range(n))
    return SeedSpec(base=tuple(x), directions=dirs, caps=(cap,) * n)


def directional_taylor(prog: Program, x: Sequence[float],
                       v: Sequence[float], k: int) -> np.ndarray:
    """Taylor coefficients of t -> f(x + t v) at 0 for a scalar output."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    spec = SeedSpec(base=tuple(x), directions=(tuple(v),), caps=(k,))
    raw = taylor_eval(prog, spec).raw
    if raw.shape[1] != 1:
        raise DimensionMismatchError(
            "directional_taylor expects a single-output program")
    return raw[:, 0]


@dataclass(frozen=True)
class EnvelopeRow:
    alpha: tuple[int, ...]
    coeff_norm: float
    bound: float
    violated: bool


@dataclass(frozen=True)
class EnvelopeReport:
    rows: tuple[EnvelopeRow, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_envelope_args(directions: Sequence[Sequence[float]],
                        caps: Sequence[int], bounds: Sequence[float]) -> None:
    """ValueError unless every direction norm is <= 1, as the envelope
    assumes (never silently normalized), and bounds cover 0..sum(caps).
    ``math.hypot`` cannot overflow on the way to a norm below 1."""
    for d in directions:
        if math.hypot(*d) > 1.0 + 1e-12:
            raise ValueError(
                "envelope check requires direction norms <= 1")
    max_degree = sum(caps)
    if len(bounds) <= max_degree:
        raise ValueError(
            f"need bounds for degrees 0..{max_degree}, got {len(bounds)}")


def coefficient_envelope(table: DerivativeTable,
                         bounds: Sequence[float]) -> EnvelopeReport:
    """Check every raw coefficient against M_{|alpha|} / alpha!."""
    check_envelope_args(table.directions, table.shape.caps, bounds)
    rows = []
    passed = True
    ms, es = table.shape.factorials()
    for alpha, coeff, m, e in zip(table.alphas, table.raw.tolist(),
                                  ms.tolist(), es.tolist()):
        # hypot cannot overflow on the way, and is |c| for one output
        norm = math.hypot(*coeff)
        if not math.isfinite(norm):
            raise NumericOverflowError(f"norm of coefficient {alpha} overflows")
        bound = math.ldexp(float(bounds[sum(alpha)]) / m, -e)
        bad = norm > bound * (1.0 + 1e-12)
        passed = passed and not bad
        rows.append(EnvelopeRow(alpha=alpha, coeff_norm=norm,
                                bound=bound, violated=bad))
    return EnvelopeReport(rows=tuple(rows), passed=passed)


def tail_bound(m_next: float, k: int, rho: float) -> float:
    """Cauchy-style remainder bound M * rho^(k+1) / (k+1)!; raises
    NumericOverflowError when it or a factor of it is past float64."""
    if rho <= 0:
        raise ValueError("radius must be positive")
    if m_next < 0:
        raise ValueError("derivative bound must be non-negative")
    try:
        bound = m_next * rho ** (k + 1) / math.factorial(k + 1)
    except OverflowError:  # rho ** (k + 1), or (k + 1)! past 170!
        bound = math.inf
    if not math.isfinite(bound):
        raise NumericOverflowError("tail bound overflows float64")
    return bound
