"""Seeding, one-pass lifted evaluation, and mixed-derivative extraction.

Inputs are seeded as base + sum_j e_j * v_j and the program is evaluated
once under coefficient-array semantics.  The derivative table is the
outputs' coefficient vectors, one row per multi-index alpha in (|alpha|,
alpha) order; alpha! times row alpha is the mixed directional derivative.
Each primitive's lift is its ``lift`` rule in ``slp.PRIMITIVES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import instrument
from .errors import DimensionMismatchError, NumericOverflowError
from .slp import PRIMITIVES, Node, Program, check_finite, eval_generic
from .weil import WeilShape, WeilValue, make_shape, weil_const


class WeilSemantics:
    """Scalar semantics lifting every primitive to coefficient arrays."""

    def __init__(self, shape: WeilShape, batch_shape: tuple[int, ...] = ()):
        self.shape = shape
        self.batch_shape = batch_shape

    def constant(self, c: float) -> WeilValue:
        instrument.counters["lifted_primitives"] += 1
        return weil_const(self.shape, np.full(self.batch_shape, float(c)))

    def apply(self, node: Node, args: Sequence[WeilValue]) -> WeilValue:
        instrument.counters["lifted_primitives"] += 1
        return PRIMITIVES[node.op].lift(args, node.const)


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
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
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
    coeffs = np.zeros((spec.n, shape.dim))
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

    Raises NumericOverflowError, carrying the output's node index, when any
    output coefficient is non-finite.
    """
    inputs = seed(spec, max_dim=max_dim)
    shape = inputs[0].shape if inputs else make_shape(spec.caps, max_dim=max_dim)
    sem = WeilSemantics(shape)
    # non-finite outputs raise below, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = eval_generic(prog, inputs, sem)
    # an output's largest |coefficient| is finite when all of them are
    check_finite(prog, [np.abs(out.coeffs).max() for out in outputs],
                 prog.outputs, "output coefficient")
    raw = np.stack([out.coeffs for out in outputs], axis=1)[shape.graded()[0]]
    return DerivativeTable(shape=shape, base=spec.base,
                           directions=spec.directions, raw=raw)


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
        return {
            "passed": self.passed,
            "rows": [{"alpha": list(r.alpha), "coeff_norm": r.coeff_norm,
                      "bound": r.bound, "violated": r.violated}
                     for r in self.rows],
        }


def coefficient_envelope(table: DerivativeTable,
                         bounds: Sequence[float]) -> EnvelopeReport:
    """Check every raw coefficient against M_{|alpha|} / alpha!.

    Requires direction norms <= 1, the hypothesis the envelope is stated
    under; larger directions are rejected, never silently normalized.
    """
    for d in table.directions:
        if np.linalg.norm(d) > 1.0 + 1e-12:
            raise ValueError(
                "envelope check requires direction norms <= 1")
    max_degree = sum(table.alphas[-1])
    if len(bounds) <= max_degree:
        raise ValueError(
            f"need bounds for degrees 0..{max_degree}, got {len(bounds)}")
    rows = []
    passed = True
    for alpha, coeff, m, e in zip(table.alphas, table.raw,
                                  *table.shape.factorials()):
        # hypot cannot overflow on the way, and is |c| for one output
        norm = math.hypot(*coeff)
        if not math.isfinite(norm):
            raise NumericOverflowError(f"norm of coefficient {alpha} overflows")
        bound = math.ldexp(float(bounds[sum(alpha)]) / m, -int(e))
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
