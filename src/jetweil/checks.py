"""Randomized verification suites shared by the CLI and the test suite.

A suite is one instance function and one `SUITES` row, which holds its
default count and tolerance; `run_suite` runs `count` deterministic
instances from a seed and reports the worst residual plus a violation
count.  The bound suites compare strictly, at tolerance 0.0.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass

from .jets import (SeedSpec, coefficient_envelope, directional_taylor,
                   tail_bound, taylor_eval)
from .modes import compose_vjp_check, pairing_residual
from .oracle import symbolic_eval, symbolic_partial
from .slp import Node, PrimitiveKind, Program, eval_primal, random_program
from .stability import stability_bound


@dataclass(frozen=True)
class CheckResult:
    """One suite's verdict.  For the bound suites (stability, envelope,
    truncation) ``max_residual`` is the largest observed/bound ratio."""

    suite: str
    count: int
    tolerance: float
    max_residual: float
    violations: int
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _duality(rng, seed, i, tol):
    """pairing_residual on random safe programs (adjoint pairing probe)."""
    prog = random_program(seed=seed * 100003 + i,
                          depth=rng.randint(1, 50),
                          n_inputs=rng.randint(1, 8))
    x = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
    v = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
    omega = [rng.uniform(-1.0, 1.0) for _ in prog.outputs]
    r = pairing_residual(prog, x, v, omega)
    return [(r, r > tol)]


def _functoriality(rng, seed, i, tol):
    """compose_vjp_check on composable random pairs (chain rule probe)."""
    f = random_program(seed=seed * 7919 + 2 * i,
                       depth=rng.randint(1, 25),
                       n_inputs=rng.randint(1, 4))
    g = random_program(seed=seed * 7919 + 2 * i + 1,
                       depth=rng.randint(1, 25), n_inputs=1)
    x = [rng.uniform(-1.0, 1.0) for _ in range(f.n_inputs)]
    omega = [rng.uniform(-1.0, 1.0) for _ in g.outputs]
    r = compose_vjp_check(f, g, x, omega)
    return [(r, r > tol)]


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
            op = rng.choice([PrimitiveKind.ADD, PrimitiveKind.SUB,
                             PrimitiveKind.MUL])
            if op is PrimitiveKind.MUL and degrees[a] + degrees[b] > max_degree:
                op = rng.choice([PrimitiveKind.ADD, PrimitiveKind.SUB])
            nodes.append(Node(op, (a, b)))
            degrees.append(degrees[a] + degrees[b]
                           if op is PrimitiveKind.MUL
                           else max(degrees[a], degrees[b]))
    return Program(n_inputs=n_inputs, nodes=tuple(nodes),
                   outputs=(n_inputs + depth - 1,))


def _exactness(rng, seed, i, tol):
    """taylor_eval vs the symbolic oracle on polynomial programs."""
    n = rng.randint(1, 4)
    prog = random_polynomial_program(seed=seed * 30011 + i, n_inputs=n,
                                     max_degree=6, depth=rng.randint(4, 14))
    poly = symbolic_eval(prog)[0]
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    var_deg = [max((e[j] for e in poly.terms), default=0) for j in range(n)]
    caps = tuple(max(min(d, 6), 1) for d in var_deg)
    dirs = tuple(tuple(float(i == j) for i in range(n)) for j in range(n))
    table = taylor_eval(prog, SeedSpec(base=x, directions=dirs, caps=caps))
    exact = [symbolic_partial(poly, alpha, x) for alpha in table.alphas]
    rs = [abs(got - e) / max(1.0, abs(e))
          for got, e in zip(table.values[:, 0].tolist(), exact)]
    return [(r, r > tol) for r in rs]


def _ratio(observed: float, bound: float) -> tuple[float, bool]:
    """(observed/bound, observed > bound); a zero bound adds no residual."""
    return (observed / bound if bound > 0 else 0.0), observed > bound


def _stability(rng, seed, i, tol, delta_const: float = 4.0):
    """Observed pullback norm against the multiplicative product bound."""
    prog = random_program(seed=seed * 104729 + i,
                          depth=rng.randint(1, 40),
                          n_inputs=rng.randint(1, 6))
    x = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
    omega = [rng.uniform(-1.0, 1.0) for _ in prog.outputs]
    rep = stability_bound(prog, x, omega, delta_const=delta_const)
    return [_ratio(rep.observed_norm, rep.product_bound)]


# the one-node programs sin x and exp x, built once for every instance
_SIN, _EXP = (Program(1, (Node(kind, (0,)),), (1,))
              for kind in (PrimitiveKind.SIN, PrimitiveKind.EXP))


def _envelope(rng, seed, i, tol):
    """Coefficient envelope |c_a| <= M_|a| / a! for exp and sin seeds; one
    violation an instance, and a NaN row ratio skipped, as in run_suite."""
    k = rng.randint(2, 6)
    x0 = rng.uniform(-0.5, 0.5)
    v = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
    prog, m = (_SIN, 1.0) if i % 2 == 0 else (_EXP, math.exp(x0))
    spec = SeedSpec(base=(x0,), directions=((v,),), caps=(k,))
    report = coefficient_envelope(taylor_eval(prog, spec), [m] * (k + 1))
    ratios = [r.coeff_norm / r.bound for r in report.rows if r.bound > 0]
    return [(functools.reduce(max, ratios, 0.0), not report.passed)]


def _truncation(rng, seed, i, tol):
    """Measured Taylor remainder against the Cauchy tail bound."""
    k = rng.randint(1, 5)
    rho = rng.uniform(0.05, 0.5)
    x0 = rng.uniform(-0.5, 0.5)
    v = rng.choice([-1.0, 1.0])
    prog, m_next = (_SIN, 1.0) if i % 2 == 0 else (_EXP, math.exp(x0 + rho))
    partial = 0.0  # a left fold: sum() of floats compensates from 3.12
    for l, c in enumerate(directional_taylor(prog, [x0], [v], k).tolist()):
        partial += c * rho ** l
    remainder = abs(eval_primal(prog, [x0 + rho * v])[0] - partial)
    return [_ratio(remainder, tail_bound(m_next, k, rho))]


# name -> (default count, tolerance, instance); instance(rng, seed, i, tol,
# **kwargs) lists instance i's (residual, violated) pairs, drawn from rng
SUITES = {
    "duality": (1000, 1e-10, _duality),
    "functoriality": (500, 1e-10, _functoriality),
    "exactness": (200, 1e-12, _exactness),
    "stability": (100, 0.0, _stability),
    "envelope": (50, 0.0, _envelope),
    "truncation": (50, 0.0, _truncation),
}


def run_suite(name: str, count: int | None = None, seed: int = 0,
              **kwargs) -> CheckResult:
    """Run `count` instances of suite `name` (None: the suite's default)
    from one generator seeded with `seed`; `kwargs` go to each instance."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}")
    default, tol, instance = SUITES[name]
    count = default if count is None else count
    rng = random.Random(seed)
    worst, bad = 0.0, 0
    for i in range(count):
        for r, violated in instance(rng, seed, i, tol, **kwargs):
            worst = max(worst, r)
            bad += violated
    return CheckResult(name, count, tol, worst, bad, bad == 0)


check_duality = functools.partial(run_suite, "duality")
check_functoriality = functools.partial(run_suite, "functoriality")
check_exactness = functools.partial(run_suite, "exactness")
check_stability = functools.partial(run_suite, "stability")
check_envelope = functools.partial(run_suite, "envelope")
check_truncation = functools.partial(run_suite, "truncation")
