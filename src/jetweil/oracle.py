"""Independent reference implementations used to validate the engine.

Three oracles: exact sparse-polynomial expansion for polynomial programs,
central finite differences, and a schedule that rebuilds mixed directional
derivatives from first-order passes alone, in one of two pass layouts
chosen by (p, k).  The schedule's pass count is the combinatorial baseline
the one-pass lifted evaluation is compared against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatchError, NumericOverflowError,
                     UnsupportedOrderError, UnsupportedPrimitiveError)
from .jets import DerivativeTable, SeedSpec
from .modes import eval_dual
from .slp import (Node, PrimitiveKind, Program, check_finite, eval_generic,
                  eval_primal)
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
    _check_lengths(poly.n, x, [alpha], "alpha")
    return poly.partial(alpha).evaluate(x)


def _check_lengths(n: int, x, vectors, what: str = "direction") -> None:
    """DimensionMismatchError unless the point and each vector have length n,
    worded as ``eval_primal`` and ``SeedSpec`` word it; ValueError for an
    alpha with a negative entry."""
    if len(x) != n:
        raise DimensionMismatchError(f"program takes {n} inputs, got {len(x)}")
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatchError(
                f"{what} length {len(v)} != input dimension {n}")
        if what == "alpha" and min(v, default=0) < 0:
            raise ValueError(f"alpha entries must be >= 0, got {tuple(v)}")


@lru_cache(maxsize=None)
def _central_weights(order: int) -> tuple[float, ...]:
    """Stencil weights for d^order/dx^order, offsets -order..order, O(h^2).
    They are dyadic, so every one is exact."""
    w = np.array([1.0])
    base = np.array([0.5, 0.0, -0.5])  # offsets +1, 0, -1 before flipping
    for _ in range(order):
        w = np.convolve(w, base)
    return tuple(w[::-1].tolist())  # ascending offsets -order..order


def finite_difference(prog: Program, x: Sequence[float],
                      alpha: Sequence[int],
                      h: float | None = None) -> np.ndarray:
    """Central-difference estimate of the alpha mixed partial, O(h^2).

    The default step scales with 1 + the largest |x_i| the stencil moves:
    that cannot overflow, and huge coordinates it does not move leave the
    step, and so the moved coordinates' points, as they are."""
    _check_lengths(prog.n_inputs, x, [alpha], "alpha")
    order = sum(alpha)
    if order > 4:
        raise UnsupportedOrderError(
            f"stencil order {order} > 4 is numerically useless in 64-bit")
    # h ** order divides the sum: past underflow it would be a 0.0
    if h is not None and not (0 < h < math.inf and min(h, 1) ** order > 0):
        raise ValueError("h must be a positive finite number, with "
                         f"h ** {order} > 0, got {h!r}")
    axes = [i for i, a in enumerate(alpha) if a > 0]
    if h is None:
        h = (2.0 ** -52) ** (1.0 / (order + 2)) * (
            1.0 + max((abs(float(x[i])) for i in axes), default=0.0))
    weight_sets = [_central_weights(alpha[i]) for i in axes]
    total = [0.0] * len(prog.outputs)
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
        total = [t + weight * y
                 for t, y in zip(total, eval_primal(prog, point))]
    return np.array([t / h ** order for t in total])


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


@lru_cache(maxsize=None)
def _pass_plan(p: int, k: int):
    """What depends on (p, k) alone: whether the layout is double, the
    center passes' alphas, each ray as (c, its nodes tau), and each fit as
    (unknowns, matrix A, weights W, cond(A), order): a polarization system
    per order up to k = 3, from k = 4 the joint fit (order None).

    W is A's pseudo-inverse, cut at eps * max(A.shape) times the largest
    singular value as numpy's default least-squares cutoff is, so
    ``W @ rhs`` is the truncated minimum-norm least-squares solution; the
    cutoff matters at p = k = 4, where cond(A) is about 1e16.  The SVDs run
    here alone, once per (p, k) per process, on the process's BLAS threads."""
    rays = _ray_set(p, k)
    units = [tuple(int(i == j) for i in range(p)) for j in range(p)]
    double = k == p > 1
    if double:
        center, taus = [], [(1.0, -1.0)] * len(rays)
    else:
        # 1 + p passes at x (the value and the p first derivatives), then
        # the rest round-robin over the rays, at nodes +1, -1, +2, ... along
        # each: one or more per ray from k = 2 on, no ray at all at k = 1
        center = [(0,) * p] + units
        remaining = math.comb(p + k, k) - len(center)
        nodes = [float((-1) ** i * (i // 2 + 1)) for i in range(remaining)]
        rays = rays[:remaining]
        taus = [nodes[:len(range(r, remaining, len(rays)))]
                for r in range(len(rays))]
    fits = []
    if k >= 4:
        gammas = [g for g in itertools.product(range(k + 1), repeat=p)
                  if sum(g) <= k]

        def monomial_rows(c, tau):
            val_row, slope_row = [], []
            for g in gammas:
                cg = math.prod(cj ** gj for cj, gj in zip(c, g))
                d = sum(g)
                val_row.append(tau ** d * cg)
                slope_row.append(d * tau ** (d - 1) * cg if d > 0 else 0.0)
            return val_row, slope_row

        # a center pass gives the value row at x (alpha = 0) or the slope
        # row along one direction (alpha = e_j), both at tau = 0; a ray node
        # gives both rows
        rows = [monomial_rows(alpha, 0.0)[sum(alpha)] for alpha in center]
        for c, tau in zip(rays, taus):
            for t in tau:
                rows.extend(monomial_rows(c, t))
        fits.append((gammas, rows, None))
    else:
        # R = C(p+k-1, k) rays, at least as many as the monomials of any
        # order <= k
        for order in range(1 if double else 2, k + 1):
            monos = units if order == 1 else [
                a for a in itertools.product(range(order + 1), repeat=p)
                if sum(a) == order]
            fits.append((monos, [[math.factorial(order) / multi_factorial(a)
                                  * math.prod(cj ** aj for cj, aj in zip(c, a))
                                  for a in monos] for c in rays], order))
    plan = []
    for unknowns, rows, order in fits:
        a_mat = np.array(rows)
        w = np.linalg.pinv(a_mat, rcond=np.finfo(float).eps * max(a_mat.shape))
        plan.append((unknowns, a_mat, w, float(np.linalg.cond(a_mat)), order))
    return double, center, list(zip(rays, taus)), plan


def _fit_double(v0: float, v1: float, s0: float, s1: float):
    """Closed-form cubic Hermite at tau = +1, -1 split by parity, for one
    output's values v and tau-slopes s at the two nodes.

    Solving the 4x4 system with a generic least-squares routine loses the
    tiny high-order coefficients to solver error relative to the O(|f|)
    value rows; the parity decomposition keeps each coefficient tied to
    the smallest data combination that determines it.  In particular b2
    comes from the slope rows alone.
    """
    ev = 0.5 * (v0 + v1)
    ov = 0.5 * (v0 - v1)
    es = 0.5 * (s0 + s1)
    os_ = 0.5 * (s0 - s1)
    b2 = 0.5 * os_
    return ev - b2, 0.5 * (3.0 * ov - es), b2, 0.5 * (es - ov)


def _fit_center(b0: float, b1: float, tau, vals, slopes):
    """The cubic along a center-layout ray for one output, b0 and b1 known."""
    if len(tau) >= 2:
        # slope rows alone determine b2 and b3 by parity, keeping the
        # O(|f|) value-row roundoff out of them entirely
        s0, s1 = slopes[0] - b1, slopes[1] - b1
        return b0, b1, 0.25 * (s0 - s1), (s0 + s1) / 6.0
    v0, s0 = vals[0] - b0 - tau[0] * b1, slopes[0] - b1
    return b0, b1, 3.0 * v0 - s0, s0 - 2.0 * v0


def nested_jvp_schedule(prog: Program, x: Sequence[float],
                        directions: Sequence[Sequence[float]], k: int,
                        step: float | None = None,
                        ) -> tuple[DerivativeTable, ScheduleCount,
                                   ScheduleDiagnostics]:
    """Recover mixed directional derivatives of order <= k from
    first-order passes only.

    Every pass is one dual-number evaluation (a point and a single tangent
    direction), and there are exactly C(p+k, k) of them.  They are spent on
    the R = C(p+k-1, k) rays t -> x + t * (sum_j c_j v_j), in one of two
    layouts:

    - *double* (k = p >= 2, where C(p+k, k) = 2R): two passes per ray, at
      t = +s and -s;
    - *center* (every other p, k): 1 + p passes at x (the value and the p
      first derivatives), then the rest of the budget on the rays in turn;
      k = 1 spends the whole budget at x.

    Up to k = 3 a closed-form fit along each ray gives its directional
    derivatives, and a polarization linear system per order turns them into
    mixed ones; from k = 4 one joint least-squares fit over all passes does.
    Each fit applies fixed weights of (p, k) (``_pass_plan``), and the
    diagnostics report the largest residual norm over the fits.  Measured
    against ``taylor_eval`` on safe programs the worst relative gap is about
    1e-8 for the double layout and for the center layout at k = 2, about
    1e-3 for the center layout at k = 3, 1e-2 at k = 4 and 1 to 10 at
    k = 5; at p = k = 4 the joint matrix is rank-deficient (cond 1.2e16,
    ``ill_conditioned``) and the gap reaches 1e9.

    The double layout has no pass at x: each is s away, 1.2e-5 at k = 2,
    where a function that changes on a smaller scale differs.  For
    (recip x)^2 * y at x = (1.05e-103, 1), k = 2, the entries are finite,
    the value 3.0e205 against 9.1e205; ``max_residual`` is 4.535e205,
    ``ill_conditioned`` False, and nothing warns.

    Raises ValueError for k < 1, no direction or a bad ``step``,
    DimensionMismatchError for a point or direction of the wrong length,
    and NumericOverflowError when a pass's value or tangent is non-finite,
    as ``jvp`` does, or when an entry is: from k = 4 the joint fit's scaling
    by alpha! / s^|alpha| can overflow after every pass was finite.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if len(directions) == 0:
        raise ValueError("nested_jvp_schedule needs at least one direction")
    # s ** k divides the fits: past underflow it would be a 0.0
    if step is not None and not (0.0 < step < math.inf
                                 and min(step, 1.0) ** k > 0.0):
        raise ValueError("step must be a positive finite number, with "
                         f"step ** {k} > 0, got {step!r}")
    _check_lengths(prog.n_inputs, x, directions)
    x = [float(v) for v in x]
    dirs = [[float(v) for v in d] for d in directions]
    p = len(dirs)
    double, center_alphas, rays, fits = _pass_plan(p, k)
    passes = 0

    def ray_pass(point: list[float], tangent: list[float]):
        nonlocal passes
        passes += 1
        y, dy = eval_dual(prog, point, tangent)
        return y, check_finite(prog, dy, prog.outputs, "tangent")

    # the center passes as {alpha: outputs}; x + 0.0 reads -0.0 as 0.0
    center: dict[tuple[int, ...], list[float]] = {}
    if center_alphas:
        at_x = [xi + 0.0 for xi in x]
        center[center_alphas[0]] = ray_pass(at_x, [0.0] * len(x))[0]
        for u, d in zip(center_alphas[1:], dirs):
            center[u] = ray_pass(at_x, d)[1]
    s = step if step is not None else (
        _DOUBLE_STEP.get(k, 5e-3) if double else _CENTER_STEP.get(k, 2e-3))
    # one (c, tau, values, slopes) per ray, a ray pass sitting at
    # x + tau * s * w; slopes are derivatives in tau
    ray_data = []
    for c, taus in rays:
        w = [0.0] * len(x)
        for cj, d in zip(c, dirs):
            w = [wi + cj * vi for wi, vi in zip(w, d)]
        got = [ray_pass([xi + t * s * wi for xi, wi in zip(x, w)], w)
               for t in taus]
        ray_data.append((c, taus, [y for y, _ in got],
                         [[s * v for v in dy] for _, dy in got]))
    assert passes == math.comb(p + k, k), passes

    entries = {}
    if k >= 4:
        # too few nodes per ray for degree-k fits: one joint multivariate
        # Hermite fit over every pass instead (count-exact, best-effort
        # accuracy), whose right-hand side is s ** |alpha| * y for each
        # center pass, then each ray node's values and slopes
        rhs = [[s ** sum(alpha) * v for v in y] for alpha, y in center.items()]
        for _, _, ys, slopes in ray_data:
            for y, slope in zip(ys, slopes):
                rhs += (y, slope)
        rhs_of = {None: rhs}
    else:
        # per-ray univariate fits -> directional derivatives h^(l)(0),
        # l = 0..k, as ray_derivs[ray][output][l].  Each ray carries one or
        # two nodes; both cases have exact closed-form solves, which matters
        # because the interesting coefficients are many orders of magnitude
        # below the value data.
        ray_derivs = []
        for c, tau, ys, slopes in ray_data:
            if double:
                bs = [_fit_double(*a) for a in zip(*ys, *slopes)]
            else:
                # b1 = s * sum_j c_j * (the derivative along v_j)
                acc = [0.0] * len(ys[0])
                for cj, u in zip(c, center_alphas[1:]):
                    acc = [a + cj * v for a, v in zip(acc, center[u])]
                bs = [_fit_center(b0, s * a, tau, vals, sls)
                      for b0, a, vals, sls in zip(center[center_alphas[0]],
                                                  acc, zip(*ys), zip(*slopes))]
            # b_l = h^(l)(0) s^l / l!
            ray_derivs.append([[b[l] * math.factorial(l) / s ** l
                                for l in range(k + 1)] for b in bs])
        # the polarization systems' right-hand sides, one per order
        rhs_of = {order: [[d[order] for d in r] for r in ray_derivs]
                  for _, _, _, _, order in fits}
        # with no pass at x, the value is the rays' mean and order 1 is
        # polarized from the rays, as orders 2..k are in both layouts.  The
        # mean is numpy's sum, whose order (pairwise over one output's
        # rays) a left fold would not keep
        if double:
            values = np.array([[d[0] for d in r] for r in ray_derivs])
            entries[(0,) * p] = (np.add.reduce(values, axis=0)
                                 / len(ray_derivs)).tolist()
    resids = []
    for unknowns, a_mat, w, _, order in fits:
        sol, resid = _apply_fit(a_mat, w, rhs_of[order])
        resids.append(resid)
        if order is None:
            sol = [[b * multi_factorial(g) / s ** sum(g) for b in row]
                   for g, row in zip(unknowns, sol)]
        entries.update(zip(unknowns, sol))
    entries.update(center)
    max_cond = max((cond for _, _, _, cond, _ in fits), default=0.0)
    # a NaN residual reads NaN, which max() could drop
    max_resid = (math.nan if any(map(math.isnan, resids))
                 else max(resids, default=0.0))
    return (_schedule_table(x, dirs, k, entries), ScheduleCount(p, k, passes),
            ScheduleDiagnostics(max_cond, max_resid, max_cond > 1e8))


def _apply_fit(a_mat: np.ndarray, w: np.ndarray, rhs):
    """The fit's solution ``W @ rhs`` as rows of floats, and the residual's
    norm ||A sol - rhs||, scaled by ``math.hypot`` so that no square
    overflows."""
    rhs = np.array(rhs)
    sol = w @ rhs
    return sol.tolist(), math.hypot(*(a_mat @ sol - rhs).ravel().tolist())


def _schedule_table(x, dirs, k, entries) -> DerivativeTable:
    """The rows of the C(p+k, k) alphas with |alpha| <= k, the first ones in
    the graded order of the box (k,)^p."""
    shape = make_shape((k,) * len(dirs))
    n = math.comb(len(dirs) + k, k)
    alphas = shape.graded()[1][:n]
    raw = np.array([entries[a] for a in alphas])
    if not np.isfinite(raw).all():
        r, col = np.argwhere(~np.isfinite(raw))[0]
        raise NumericOverflowError(
            f"schedule entry {alphas[r]} of output {col} is not finite")
    m, e = shape.factorials()
    return DerivativeTable(shape=shape, base=tuple(x),
                           directions=tuple(map(tuple, dirs)),
                           raw=np.ldexp(raw / m[:n, None], -e[:n, None]))
