"""Multiplicative backward-stability accounting for reverse sweeps.

Each sweep step gets an adjoint-Lipschitz constant and a relative-error
term derived from the primitive's condition number at the recorded primal;
their product bounds the computed pullback norm.  Fan-out is counted as an
explicit duplication step of norm sqrt(r), which is what makes the product
inequality literally checkable on arbitrary DAGs.  Partial derivatives and
condition numbers come from the rule table ``slp.PRIMITIVES``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modes import record_tape, reverse_sweep
# KAPPA_CAP, the cap of the rules' condition numbers, is re-exported
from .slp import KAPPA_CAP, PRIMITIVES, UNIT_ROUNDOFF, Node, Program


def adjoint_lipschitz(node: Node, primal_operands: Sequence[float]) -> float:
    """Operator norm of the local adjoint map: the 2-norm of the partials.

    Raises DomainError where the partials do not exist (``log`` at -1,
    ``sqrt`` at 0) and OverflowError where they overflow.
    """
    return math.hypot(*PRIMITIVES[node.op].partials(primal_operands,
                                                    node.const))


def condition_estimate(node: Node,
                       primal_operands: Sequence[float]) -> tuple[float, bool]:
    """Relative condition number of the primitive; (value, capped-flag)."""
    return PRIMITIVES[node.op].kappa(primal_operands, node.const)


@dataclass(frozen=True)
class StabilityRow:
    kind: str              # "primitive" or "fan"
    node: int | None       # node index, or duplicated slot for fan rows
    lipschitz: float       # effective step constant entering the product
    local_norm: float      # raw local adjoint norm (primitive rows)
    kappa: float
    delta: float
    capped: bool


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]
    product_bound: float
    observed_norm: float
    first_order_error: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"kind": r.kind, "node": r.node,
                      "lipschitz": r.lipschitz, "local_norm": r.local_norm,
                      "kappa": r.kappa, "delta": r.delta, "capped": r.capped}
                     for r in self.rows],
            "product_bound": self.product_bound,
            "observed_norm": self.observed_norm,
            "first_order_error": self.first_order_error,
        }


def _fanout_counts(prog: Program) -> Counter:
    uses: Counter = Counter()
    for node in prog.nodes:
        for r in node.operands:
            uses[r] += 1
    for r in prog.outputs:
        uses[r] += 1
    return uses


def stability_bound(prog: Program, x: Sequence[float],
                    omega: Sequence[float],
                    delta_const: float = 4.0) -> StabilityReport:
    """Run a reverse sweep and assemble the multiplicative norm bound.

    Each primitive contributes max(local adjoint norm, 1): the sweep step
    acts as identity on every other live adjoint, so sub-unit local norms
    cannot shrink the whole state.  Each slot read r >= 2 times contributes
    a duplication step of norm sqrt(r).
    """
    tape = record_tape(prog, x)
    grad = reverse_sweep(tape, omega)
    observed = float(np.linalg.norm(grad))

    rows: list[StabilityRow] = []
    product = 1.0
    delta_sum = 0.0
    for k in range(prog.n_nodes - 1, -1, -1):
        node = prog.nodes[k]
        args = [tape.primals[r] for r in node.operands]
        local = adjoint_lipschitz(node, args)
        kappa, capped = condition_estimate(node, args)
        delta = delta_const * UNIT_ROUNDOFF * kappa
        eff = max(local, 1.0)
        product *= (1.0 + delta) * eff
        delta_sum += delta
        rows.append(StabilityRow(kind="primitive", node=k, lipschitz=eff,
                                 local_norm=local, kappa=kappa, delta=delta,
                                 capped=capped))
    for slot, count in sorted(_fanout_counts(prog).items()):
        if count < 2:
            continue
        delta = delta_const * UNIT_ROUNDOFF
        eff = math.sqrt(count)
        product *= (1.0 + delta) * eff
        delta_sum += delta
        rows.append(StabilityRow(kind="fan", node=slot, lipschitz=eff,
                                 local_norm=eff, kappa=1.0, delta=delta,
                                 capped=False))
    bound = product * float(np.linalg.norm(omega))
    return StabilityReport(rows=tuple(rows), product_bound=bound,
                           observed_norm=observed,
                           first_order_error=delta_sum)
