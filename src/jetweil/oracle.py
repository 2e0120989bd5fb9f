"""Independent reference implementations used to validate the engine.

Three oracles: exact sparse-polynomial expansion for polynomial programs,
central finite differences, and a schedule that rebuilds mixed directional
derivatives from first-order passes alone.  The schedule's pass count is
the combinatorial baseline the one-pass lifted evaluation is compared
against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedOrderError, UnsupportedPrimitiveError
from .jets import DerivativeTable, SeedSpec
from .modes import eval_dual
from .slp import Node, PrimitiveKind, Program, eval_generic, eval_primal
from .weil import make_shape, multi_factorial

_POLY_OPS = {PrimitiveKind.ADD, PrimitiveKind.SUB, PrimitiveKind.MUL,
             PrimitiveKind.NEG, PrimitiveKind.CONST, PrimitiveKind.POW_CONST}


class SparsePoly:
    """Multivariate polynomial as a map exponent-tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], float] | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c != 0.0:
                    self.terms[e] = c

    @classmethod
    def constant(cls, n: int, c: float) -> "SparsePoly":
        return cls(n, {(0,) * n: float(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1.0})

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return SparsePoly(self.n, terms)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        terms: dict[tuple[int, ...], float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, 0.0) + ca * cb
        return SparsePoly(self.n, terms)

    def pow_int(self, k: int) -> "SparsePoly":
        out = SparsePoly.constant(self.n, 1.0)
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, alpha: Sequence[int]) -> "SparsePoly":
        out = self
        for i, order in enumerate(alpha):
            for _ in range(order):
                terms: dict[tuple[int, ...], float] = {}
                for e, c in out.terms.items():
                    if e[i] > 0:
                        ne = list(e)
                        ne[i] -= 1
                        terms[tuple(ne)] = terms.get(tuple(ne), 0.0) + c * e[i]
                out = SparsePoly(self.n, terms)
        return out

    def evaluate(self, x: Sequence[float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            term = c
            for xi, ei in zip(x, e):
                if ei:
                    term *= xi ** ei
            total += term
        return total

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)


class _PolySemantics:
    def __init__(self, n: int):
        self.n = n

    def constant(self, c: float) -> SparsePoly:
        return SparsePoly.constant(self.n, c)

    def apply(self, node: Node, args):
        op = node.op
        if op not in _POLY_OPS:
            raise UnsupportedPrimitiveError(
                f"{op.value} is not a polynomial primitive")
        if op is PrimitiveKind.ADD:
            return args[0] + args[1]
        if op is PrimitiveKind.SUB:
            return args[0] - args[1]
        if op is PrimitiveKind.MUL:
            return args[0] * args[1]
        if op is PrimitiveKind.NEG:
            return -args[0]
        if op is PrimitiveKind.POW_CONST:
            if node.const != round(node.const) or node.const < 0:
                raise UnsupportedPrimitiveError(
                    "symbolic path needs non-negative integer exponents")
            return args[0].pow_int(int(round(node.const)))
        raise UnsupportedPrimitiveError(op.value)


def symbolic_eval(prog: Program) -> list[SparsePoly]:
    """Exact polynomial expansion of each output; polynomial primitives only."""
    sem = _PolySemantics(prog.n_inputs)
    inputs = [SparsePoly.variable(prog.n_inputs, i)
              for i in range(prog.n_inputs)]
    return eval_generic(prog, inputs, sem)


def symbolic_partial(poly: SparsePoly, alpha: Sequence[int],
                     x: Sequence[float]) -> float:
    """Exact alpha-th partial derivative evaluated at x."""
    return poly.partial(alpha).evaluate(x)


def _central_weights(order: int) -> np.ndarray:
    """Stencil weights for d^order/dx^order, offsets -order..order, O(h^2)."""
    w = np.array([1.0])
    base = np.array([0.5, 0.0, -0.5])  # offsets +1, 0, -1 before flipping
    for _ in range(order):
        w = np.convolve(w, base)
    return w[::-1]  # ascending offsets -order..order


def finite_difference(prog: Program, x: Sequence[float],
                      alpha: Sequence[int],
                      h: float | None = None) -> np.ndarray:
    """Central-difference estimate of the alpha mixed partial, O(h^2)."""
    order = sum(alpha)
    if order > 4:
        raise UnsupportedOrderError(
            f"stencil order {order} > 4 is numerically useless in 64-bit")
    if h is None:
        h = (2.0 ** -52) ** (1.0 / (order + 2)) * (1.0 + float(np.linalg.norm(x)))
    axes = [i for i, a in enumerate(alpha) if a > 0]
    weight_sets = [_central_weights(alpha[i]) for i in axes]
    total = np.zeros(len(prog.outputs))
    for offsets in itertools.product(*(range(-alpha[i], alpha[i] + 1)
                                       for i in axes)):
        weight = 1.0
        for ws, off, i in zip(weight_sets, offsets, axes):
            weight *= ws[off + alpha[i]]
        if weight == 0.0:
            continue
        point = list(map(float, x))
        for off, i in zip(offsets, axes):
            point[i] += off * h
        total += weight * np.asarray(eval_primal(prog, point))
    return total / h ** order


@dataclass(frozen=True)
class ScheduleCount:
    p: int
    k: int
    passes: int


@dataclass(frozen=True)
class ScheduleDiagnostics:
    max_condition: float
    max_residual: float
    ill_conditioned: bool


# tuned truncation/roundoff compromises for the two pass layouts
_DOUBLE_STEP = {2: 1.2e-5, 3: 1.6e-3}
_CENTER_STEP = {2: 1.1e-4, 3: 9e-5}


def _ray_set(p: int, k: int) -> list[tuple[float, ...]]:
    """Unit-normalized combination directions, one per degree-k monomial.

    Normalizing keeps every ray's high-order directional derivatives on
    the same scale, so one step size serves all rays.
    """
    out = []
    for beta in itertools.product(range(k + 1), repeat=p):
        if sum(beta) == k:
            nrm = math.sqrt(sum(b * b for b in beta))
            out.append(tuple(b / nrm for b in beta))
    return out


def _fit_double(vals: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Closed-form cubic Hermite at tau = +1, -1 split by parity.

    Solving the 4x4 system with a generic least-squares routine loses the
    tiny high-order coefficients to solver error relative to the O(|f|)
    value rows; the parity decomposition keeps each coefficient tied to
    the smallest data combination that determines it.  In particular b2
    comes from the slope rows alone.
    """
    ev = 0.5 * (vals[0] + vals[1])
    ov = 0.5 * (vals[0] - vals[1])
    es = 0.5 * (slopes[0] + slopes[1])
    os_ = 0.5 * (slopes[0] - slopes[1])
    b2 = 0.5 * os_
    b3 = 0.5 * (es - ov)
    b1 = 0.5 * (3.0 * ov - es)
    b0 = ev - b2
    return np.stack([b0, b1, b2, b3])


def nested_jvp_schedule(prog: Program, x: Sequence[float],
                        directions: Sequence[Sequence[float]], k: int,
                        step: float | None = None,
                        ) -> tuple[DerivativeTable, ScheduleCount,
                                   ScheduleDiagnostics]:
    """Recover mixed directional derivatives of order <= k from
    first-order passes only.

    Every pass is one dual-number evaluation (a point and a single tangent
    direction).  Passes are spent on rays t -> x + t * (sum_j c_j v_j):
    polynomial fits along each ray give directional derivatives, and a
    polarization linear system per order turns ray derivatives into mixed
    ones.  The total number of passes is exactly C(p+k, k).
    """
    x = [float(v) for v in x]
    dirs = [np.asarray(d, dtype=float) for d in directions]
    p = len(dirs)
    if k < 1:
        raise ValueError("order k must be >= 1")
    budget = math.comb(p + k, k)
    m = len(prog.outputs)
    passes = 0

    def ray_pass(point_shift: np.ndarray, tangent: np.ndarray):
        nonlocal passes
        passes += 1
        pt = [xi + si for xi, si in zip(x, point_shift)]
        y, dy = eval_dual(prog, pt, list(tangent))
        return np.asarray(y), np.asarray(dy)

    zero = np.zeros(len(x))
    entries: dict[tuple[int, ...], np.ndarray] = {}
    max_cond = 0.0
    max_resid = 0.0

    if k == 1:
        y, _ = ray_pass(zero, zero)
        entries[(0,) * p] = y
        for j in range(p):
            alpha = tuple(1 if i == j else 0 for i in range(p))
            _, dy = ray_pass(zero, dirs[j])
            entries[alpha] = dy
        count = ScheduleCount(p=p, k=k, passes=passes)
        assert passes == budget
        return (_schedule_table(x, dirs, k, entries), count,
                ScheduleDiagnostics(0.0, 0.0, False))

    rays = _ray_set(p, k)

    # pass layout: either pure double rays (when the budget is exactly 2R),
    # or center passes plus round-robin ray nodes.
    double_only = budget == 2 * len(rays)
    if step is not None:
        s = step
    elif double_only:
        s = _DOUBLE_STEP.get(k, 5e-3)
    else:
        s = _CENTER_STEP.get(k, 2e-3)
    ray_data: list[dict] = []
    center_value = None
    center_jvps = None
    if double_only:
        for c in rays:
            w = sum(cj * vj for cj, vj in zip(c, dirs))
            nodes, vals, slopes = [], [], []
            for tau in (1.0, -1.0):
                y, dy = ray_pass(tau * s * w, w)
                nodes.append(tau)
                vals.append(y)
                slopes.append(s * dy)
            ray_data.append({"c": c, "tau": np.array(nodes),
                             "vals": np.array(vals),
                             "slopes": np.array(slopes), "center": False})
    else:
        y0, _ = ray_pass(zero, zero)
        center_value = np.asarray(y0)
        center_jvps = []
        for j in range(p):
            _, dy = ray_pass(zero, dirs[j])
            center_jvps.append(np.asarray(dy))
        remaining = budget - 1 - p
        node_sequence = [float((-1) ** i * (i // 2 + 1))
                         for i in range(remaining)]
        counts = [0] * len(rays)
        for i in range(remaining):
            counts[i % len(rays)] += 1
        for c, n_nodes in zip(rays, counts):
            w = sum(cj * vj for cj, vj in zip(c, dirs))
            nodes, vals, slopes = [], [], []
            for tau in node_sequence[:n_nodes]:
                y, dy = ray_pass(tau * s * w, w)
                nodes.append(tau)
                vals.append(y)
                slopes.append(s * dy)
            ray_data.append({"c": c, "tau": np.array(nodes),
                             "vals": np.array(vals) if vals else
                             np.zeros((0, m)),
                             "slopes": np.array(slopes) if slopes else
                             np.zeros((0, m)), "center": True})
    assert passes == budget, (passes, budget)

    if k >= 4:
        # per-ray data no longer supports degree-k fits within the pass
        # budget; fall back to one joint multivariate fit (count-exact,
        # best-effort accuracy).
        entries, cond = _global_fit(ray_data, center_value, center_jvps,
                                    p, m, k, s)
        if center_value is not None:
            entries[(0,) * p] = center_value
            for j in range(p):
                alpha = tuple(1 if i == j else 0 for i in range(p))
                entries[alpha] = center_jvps[j]
        count = ScheduleCount(p=p, k=k, passes=passes)
        diags = ScheduleDiagnostics(max_condition=cond, max_residual=0.0,
                                    ill_conditioned=cond > 1e8)
        return _schedule_table(x, dirs, k, entries), count, diags

    # per-ray univariate fits -> directional derivatives h^(l)(0), l = 0..k.
    # For k <= 3 each ray carries one or two nodes; both cases have exact
    # closed-form solves, which matters because the interesting coefficients
    # are many orders of magnitude below the value data.
    ray_derivs: list[np.ndarray | None] = []
    for rd in ray_data:
        tau, vals, slopes = rd["tau"], rd["vals"], rd["slopes"]
        if rd["center"]:
            # fold in the exact center data by eliminating b0 and b1
            c = rd["c"]
            b0 = center_value
            b1 = s * sum(cj * dj for cj, dj in zip(c, center_jvps))
            vals = vals - b0[None, :] - np.outer(tau, b1)
            slopes = slopes - b1[None, :]
            if len(tau) >= 2:
                # slope rows alone determine b2 and b3 by parity, keeping
                # the O(|f|) value-row roundoff out of them entirely
                b2 = 0.25 * (slopes[0] - slopes[1])
                b3 = (slopes[0] + slopes[1]) / 6.0
            else:
                b2 = 3.0 * vals[0] - slopes[0]
                b3 = slopes[0] - 2.0 * vals[0]
            b = np.stack([b0, b1, b2, b3])
        else:
            b = _fit_double(vals, slopes)
        # b_l = h^(l)(0) s^l / l!
        derivs = np.array([b[l] * math.factorial(l) / s ** l
                           for l in range(k + 1)])
        ray_derivs.append(derivs)

    # order 0 and 1
    if center_value is not None:
        entries[(0,) * p] = center_value
        for j in range(p):
            alpha = tuple(1 if i == j else 0 for i in range(p))
            entries[alpha] = center_jvps[j]
    else:
        vals0 = np.array([d[0] for d in ray_derivs if d is not None])
        entries[(0,) * p] = vals0.mean(axis=0)
        rows, rhs = [], []
        for rd, d in zip(ray_data, ray_derivs):
            if d is None:
                continue
            rows.append(list(rd["c"]))
            rhs.append(d[1])
        sol, cond, resid = _solve_polarization(np.array(rows, dtype=float),
                                               np.array(rhs))
        max_cond = max(max_cond, cond)
        max_resid = max(max_resid, resid)
        for j in range(p):
            alpha = tuple(1 if i == j else 0 for i in range(p))
            entries[alpha] = sol[j]

    # orders 2..k via polarization systems
    for order in range(2, k + 1):
        monos = [a for a in itertools.product(range(order + 1), repeat=p)
                 if sum(a) == order]
        rows, rhs = [], []
        for rd, d in zip(ray_data, ray_derivs):
            if d is None or len(d) <= order:
                continue
            c = rd["c"]
            row = [math.factorial(order) / multi_factorial(a)
                   * math.prod(cj ** aj for cj, aj in zip(c, a))
                   for a in monos]
            rows.append(row)
            rhs.append(d[order])
        a_mat = np.array(rows)
        sol, cond, resid = _solve_polarization(a_mat, np.array(rhs))
        max_cond = max(max_cond, cond)
        max_resid = max(max_resid, resid)
        for a, val in zip(monos, sol):
            entries[a] = val

    count = ScheduleCount(p=p, k=k, passes=passes)
    diags = ScheduleDiagnostics(max_condition=max_cond,
                                max_residual=max_resid,
                                ill_conditioned=max_cond > 1e8)
    return _schedule_table(x, dirs, k, entries), count, diags


def _global_fit(ray_data, center_value, center_jvps, p: int, m: int,
                k: int, s: float):
    """Joint multivariate Hermite least squares over every issued pass."""
    gammas = [g for g in itertools.product(range(k + 1), repeat=p)
              if sum(g) <= k]
    rows, rhs = [], []

    def monomial_rows(c, tau):
        val_row, slope_row = [], []
        for g in gammas:
            cg = math.prod(cj ** gj for cj, gj in zip(c, g))
            d = sum(g)
            val_row.append(tau ** d * cg)
            slope_row.append(d * tau ** (d - 1) * cg if d > 0 else 0.0)
        return val_row, slope_row

    if center_value is not None:
        vr, _ = monomial_rows((0,) * p, 0.0)
        rows.append(vr)
        rhs.append(center_value)
        for j, dy in enumerate(center_jvps):
            c = tuple(1 if i == j else 0 for i in range(p))
            _, sr = monomial_rows(c, 0.0)
            rows.append(sr)
            rhs.append(s * dy)
    for rd in ray_data:
        for tau, val, slope in zip(rd["tau"], rd["vals"], rd["slopes"]):
            vr, sr = monomial_rows(rd["c"], float(tau))
            rows.append(vr)
            rhs.append(val)
            rows.append(sr)
            rhs.append(slope)
    a_mat = np.array(rows)
    b_mat = np.array(rhs).reshape(len(rhs), m)
    sol, *_ = np.linalg.lstsq(a_mat, b_mat, rcond=None)
    cond = float(np.linalg.cond(a_mat))
    entries = {}
    for g, b in zip(gammas, sol):
        entries[g] = b * multi_factorial(g) / s ** sum(g)
    return entries, cond


def _solve_polarization(a_mat: np.ndarray, rhs: np.ndarray):
    if a_mat.size == 0 or a_mat.shape[0] < a_mat.shape[1]:
        raise ValueError("polarization system is underdetermined; "
                         "not enough usable rays")
    sol, _, _, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    cond = float(np.linalg.cond(a_mat))
    resid = float(np.linalg.norm(a_mat @ sol - rhs))
    return sol, cond, resid


def _schedule_table(x, dirs, k, entries) -> DerivativeTable:
    p = len(dirs)
    shape = make_shape((k,) * p) if p else make_shape((k,))
    spec_dirs = tuple(tuple(float(c) for c in d) for d in dirs)
    coeffs = {a: np.asarray(v) / multi_factorial(a)
              for a, v in entries.items()}
    return DerivativeTable(shape=shape, base=tuple(x),
                           directions=spec_dirs,
                           entries={a: np.asarray(v)
                                    for a, v in entries.items()},
                           coeffs=coeffs)
