"""Seeding, one-pass lifted evaluation, and mixed-derivative extraction.

Inputs are seeded as base + sum_j e_j * v_j, the program is evaluated once
under coefficient-array semantics, and each coefficient is rescaled by the
factorial of its multi-index to obtain the mixed directional derivative
table.  Each primitive's lift is its ``lift`` rule in ``slp.PRIMITIVES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import instrument
from .errors import DimensionMismatchError, NumericOverflowError
from .slp import PRIMITIVES, Node, Program, eval_generic
from .weil import (WeilShape, WeilValue, make_shape, multi_factorial,
                   weil_const)


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

    @property
    def p(self) -> int:
        return len(self.caps)


def seed(spec: SeedSpec, max_dim: int | None = None) -> list[WeilValue]:
    """Component-wise seeded values: degree 0 holds x, degree e_j holds v_j."""
    shape = make_shape(spec.caps, max_dim=max_dim)
    out = []
    for i in range(spec.n):
        coeffs = np.zeros(shape.dim)
        coeffs[0] = spec.base[i]
        for j, direction in enumerate(spec.directions):
            coeffs[shape.strides[j]] = direction[i]
        out.append(WeilValue(shape, coeffs))
    return out


@dataclass
class DerivativeTable:
    """Mixed directional derivatives keyed by multi-index.

    ``entries`` holds factorial-rescaled derivative values (m-vectors);
    ``coeffs`` keeps the raw coefficients the envelope checks are stated on.
    """

    shape: WeilShape
    base: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]
    entries: dict[tuple[int, ...], np.ndarray]
    coeffs: dict[tuple[int, ...], np.ndarray]

    def entry(self, alpha: Sequence[int]) -> np.ndarray:
        return self.entries[tuple(alpha)]

    def coeff(self, alpha: Sequence[int]) -> np.ndarray:
        return self.coeffs[tuple(alpha)]

    def sorted_alphas(self) -> list[tuple[int, ...]]:
        return sorted(self.entries, key=lambda a: (sum(a), a))

    def to_json_dict(self) -> dict:
        return {
            "caps": list(self.shape.caps),
            "base": list(self.base),
            "directions": [list(d) for d in self.directions],
            "entries": [
                {"alpha": list(alpha),
                 "value": [float(v) for v in np.atleast_1d(self.entries[alpha])],
                 "coeff": [float(v) for v in np.atleast_1d(self.coeffs[alpha])]}
                for alpha in self.sorted_alphas()
            ],
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
    for slot, out in zip(prog.outputs, outputs):
        if not np.all(np.isfinite(out.coeffs)):
            node = slot - prog.n_inputs if slot >= prog.n_inputs else None
            where = f"node {node}" if node is not None else f"input {slot}"
            raise NumericOverflowError(
                f"non-finite output coefficient at {where}", node=node)
    entries: dict[tuple[int, ...], np.ndarray] = {}
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    for idx, alpha in enumerate(shape.multi_indices()):
        raw = np.array([out.coeffs[idx] for out in outputs])
        coeffs[alpha] = raw
        entries[alpha] = raw * multi_factorial(alpha)
    return DerivativeTable(shape=shape, base=spec.base,
                           directions=spec.directions,
                           entries=entries, coeffs=coeffs)


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
    table = taylor_eval(prog, spec)
    m = len(table.coeffs[(0,)])
    if m != 1:
        raise DimensionMismatchError(
            "directional_taylor expects a single-output program")
    return np.array([float(table.coeffs[(l,)][0]) for l in range(k + 1)])


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
    max_degree = max(sum(a) for a in table.coeffs)
    if len(bounds) <= max_degree:
        raise ValueError(
            f"need bounds for degrees 0..{max_degree}, got {len(bounds)}")
    rows = []
    passed = True
    for alpha in sorted(table.coeffs, key=lambda a: (sum(a), a)):
        norm = float(np.linalg.norm(table.coeffs[alpha]))
        bound = float(bounds[sum(alpha)]) / multi_factorial(alpha)
        bad = norm > bound * (1.0 + 1e-12)
        passed = passed and not bad
        rows.append(EnvelopeRow(alpha=alpha, coeff_norm=norm,
                                bound=bound, violated=bad))
    return EnvelopeReport(rows=tuple(rows), passed=passed)


def tail_bound(m_next: float, k: int, rho: float) -> float:
    """Cauchy-style remainder bound M * rho^(k+1) / (k+1)!."""
    if rho <= 0:
        raise ValueError("radius must be positive")
    if m_next < 0:
        raise ValueError("derivative bound must be non-negative")
    return m_next * rho ** (k + 1) / math.factorial(k + 1)
