"""Randomized verification suites shared by the CLI and the test suite.

Each suite runs `count` deterministic instances from a seed and reports
the worst residual plus a violation count.  Tolerances are the module
contracts: duality and functoriality at 1e-10, polynomial exactness at
1e-12 relative, stability and envelope/truncation bounds as strict
inequalities.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .jets import (SeedSpec, basis_seed, coefficient_envelope,
                   directional_taylor, tail_bound, taylor_eval)
from .modes import compose_vjp_check, pairing_residual
from .oracle import symbolic_eval, symbolic_partial
from .slp import Node, PrimitiveKind, Program, eval_primal, random_program
from .stability import stability_bound


@dataclass(frozen=True)
class CheckResult:
    suite: str
    count: int
    tolerance: float
    max_residual: float
    violations: int
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite, "count": self.count,
            "tolerance": self.tolerance, "max_residual": self.max_residual,
            "violations": self.violations, "passed": self.passed,
            "notes": self.notes,
        }


def check_duality(count: int = 1000, seed: int = 0) -> CheckResult:
    """pairing_residual on random safe programs (adjoint pairing probe)."""
    rng = random.Random(seed)
    worst = 0.0
    tol = 1e-10
    bad = 0
    for i in range(count):
        prog = random_program(seed=seed * 100003 + i,
                              depth=rng.randint(1, 50),
                              n_inputs=rng.randint(1, 8))
        x = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
        v = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
        omega = [rng.uniform(-1.0, 1.0) for _ in prog.outputs]
        r = pairing_residual(prog, x, v, omega)
        worst = max(worst, r)
        bad += r > tol
    return CheckResult("duality", count, tol, worst, bad, bad == 0)


def check_functoriality(count: int = 500, seed: int = 0) -> CheckResult:
    """compose_vjp_check on composable random pairs (chain rule probe)."""
    rng = random.Random(seed)
    worst = 0.0
    tol = 1e-10
    bad = 0
    for i in range(count):
        f = random_program(seed=seed * 7919 + 2 * i,
                           depth=rng.randint(1, 25),
                           n_inputs=rng.randint(1, 4))
        g = random_program(seed=seed * 7919 + 2 * i + 1,
                           depth=rng.randint(1, 25), n_inputs=1)
        x = [rng.uniform(-1.0, 1.0) for _ in range(f.n_inputs)]
        omega = [rng.uniform(-1.0, 1.0) for _ in g.outputs]
        r = compose_vjp_check(f, g, x, omega)
        worst = max(worst, r)
        bad += r > tol
    return CheckResult("functoriality", count, tol, worst, bad, bad == 0)


_POLY_BINARY = [PrimitiveKind.ADD, PrimitiveKind.SUB, PrimitiveKind.MUL]


def random_polynomial_program(seed: int, n_inputs: int = 2,
                              max_degree: int = 6,
                              depth: int = 12) -> Program:
    """Random SLP over polynomial primitives with bounded total degree."""
    rng = random.Random(seed)
    nodes: list[Node] = []
    degrees = [1] * n_inputs    # total degree carried per slot

    def pick() -> int:
        return rng.randrange(n_inputs + len(nodes))

    for _ in range(depth):
        roll = rng.random()
        if roll < 0.12:
            nodes.append(Node(PrimitiveKind.CONST, (),
                              round(rng.uniform(-2.0, 2.0), 3)))
            degrees.append(0)
        elif roll < 0.22:
            a = pick()
            nodes.append(Node(PrimitiveKind.NEG, (a,)))
            degrees.append(degrees[a])
        elif roll < 0.34:
            a = pick()
            e = rng.randint(2, 3)
            if degrees[a] * e > max_degree:
                nodes.append(Node(PrimitiveKind.NEG, (a,)))
                degrees.append(degrees[a])
            else:
                nodes.append(Node(PrimitiveKind.POW_CONST, (a,), float(e)))
                degrees.append(degrees[a] * e)
        else:
            a, b = pick(), pick()
            op = rng.choice(_POLY_BINARY)
            if op is PrimitiveKind.MUL and degrees[a] + degrees[b] > max_degree:
                op = rng.choice([PrimitiveKind.ADD, PrimitiveKind.SUB])
            nodes.append(Node(op, (a, b)))
            degrees.append(degrees[a] + degrees[b]
                           if op is PrimitiveKind.MUL
                           else max(degrees[a], degrees[b]))
    return Program(n_inputs=n_inputs, nodes=tuple(nodes),
                   outputs=(n_inputs + depth - 1,))


def check_exactness(count: int = 200, seed: int = 0) -> CheckResult:
    """taylor_eval vs the symbolic oracle on polynomial programs."""
    rng = random.Random(seed)
    worst = 0.0
    tol = 1e-12
    bad = 0
    checked = 0
    for i in range(count):
        n = rng.randint(1, 4)
        prog = random_polynomial_program(seed=seed * 30011 + i, n_inputs=n,
                                         max_degree=6,
                                         depth=rng.randint(4, 14))
        poly = symbolic_eval(prog)[0]
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        var_deg = [max((e[j] for e in poly.terms), default=0)
                   for j in range(n)]
        caps = tuple(max(min(d, 6), 1) for d in var_deg)
        spec = basis_seed(x, 1)
        spec = SeedSpec(base=spec.base, directions=spec.directions, caps=caps)
        table = taylor_eval(prog, spec)
        for alpha, got in zip(table.alphas, table.values[:, 0].tolist()):
            exact = symbolic_partial(poly, alpha, x)
            r = abs(got - exact) / max(1.0, abs(exact))
            worst = max(worst, r)
            bad += r > tol
            checked += 1
    return CheckResult("exactness", count, tol, worst, bad, bad == 0,
                       notes={"partials_checked": checked})


def check_stability(count: int = 100, seed: int = 0,
                    delta_const: float = 4.0) -> CheckResult:
    """Observed pullback norm against the multiplicative product bound."""
    rng = random.Random(seed)
    worst_margin = 0.0
    bad = 0
    for i in range(count):
        prog = random_program(seed=seed * 104729 + i,
                              depth=rng.randint(1, 40),
                              n_inputs=rng.randint(1, 6))
        x = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
        omega = [rng.uniform(-1.0, 1.0) for _ in prog.outputs]
        rep = stability_bound(prog, x, omega, delta_const=delta_const)
        if rep.observed_norm > rep.product_bound:
            bad += 1
        if rep.product_bound > 0:
            worst_margin = max(worst_margin,
                               rep.observed_norm / rep.product_bound)
    return CheckResult("stability", count, 0.0, worst_margin, bad, bad == 0,
                       notes={"metric": "max observed/bound ratio"})


def _sin_prog() -> Program:
    return Program(1, (Node(PrimitiveKind.SIN, (0,)),), (1,))


def _exp_prog() -> Program:
    return Program(1, (Node(PrimitiveKind.EXP, (0,)),), (1,))


def check_envelope(count: int = 50, seed: int = 0) -> CheckResult:
    """Coefficient envelope |c_a| <= M_|a| / a! for exp and sin seeds."""
    rng = random.Random(seed)
    bad = 0
    worst = 0.0
    for i in range(count):
        k = rng.randint(2, 6)
        x0 = rng.uniform(-0.5, 0.5)
        v = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        if i % 2 == 0:
            prog, m = _sin_prog(), 1.0
        else:
            prog, m = _exp_prog(), math.exp(x0)
        spec = SeedSpec(base=(x0,), directions=((v,),), caps=(k,))
        table = taylor_eval(prog, spec)
        report = coefficient_envelope(table, [m] * (k + 1))
        bad += not report.passed
        for row in report.rows:
            if row.bound > 0:
                worst = max(worst, row.coeff_norm / row.bound)
    return CheckResult("envelope", count, 0.0, worst, bad, bad == 0,
                       notes={"metric": "max coeff/bound ratio"})


def check_truncation(count: int = 50, seed: int = 0) -> CheckResult:
    """Measured Taylor remainder against the Cauchy tail bound."""
    rng = random.Random(seed)
    bad = 0
    worst = 0.0
    for i in range(count):
        k = rng.randint(1, 5)
        rho = rng.uniform(0.05, 0.5)
        x0 = rng.uniform(-0.5, 0.5)
        v = rng.choice([-1.0, 1.0])
        if i % 2 == 0:
            prog, m_next = _sin_prog(), 1.0
        else:
            prog, m_next = _exp_prog(), math.exp(x0 + rho)
        coeffs = directional_taylor(prog, [x0], [v], k)
        partial = sum(c * rho ** l for l, c in enumerate(coeffs))
        actual = eval_primal(prog, [x0 + rho * v])[0]
        remainder = abs(actual - partial)
        bound = tail_bound(m_next, k, rho)
        if remainder > bound:
            bad += 1
        if bound > 0:
            worst = max(worst, remainder / bound)
    return CheckResult("truncation", count, 0.0, worst, bad, bad == 0,
                       notes={"metric": "max remainder/bound ratio"})


SUITES = {
    "duality": check_duality,
    "functoriality": check_functoriality,
    "exactness": check_exactness,
    "stability": check_stability,
    "envelope": check_envelope,
    "truncation": check_truncation,
}


def run_suite(name: str, count: int | None = None, seed: int = 0,
              **kwargs) -> CheckResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if count is None:
        return fn(seed=seed, **kwargs)
    return fn(count=count, seed=seed, **kwargs)
