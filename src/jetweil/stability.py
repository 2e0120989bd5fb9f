"""Multiplicative backward-stability accounting for reverse sweeps.

Each sweep step gets an adjoint-Lipschitz constant and a relative-error
term derived from the primitive's condition number at the recorded primal;
their product bounds the computed pullback norm.  Fan-out is counted as an
explicit duplication step of norm sqrt(r), which is what makes the product
inequality literally checkable on arbitrary DAGs.  Partial derivatives come
from the tape, condition numbers from the rule table ``slp.PRIMITIVES``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .modes import record_tape, reverse_sweep
# KAPPA_CAP, the cap of the rules' condition numbers, is re-exported
from .slp import KAPPA_CAP, PRIMITIVES, UNIT_ROUNDOFF, Node, Program


def condition_estimate(node: Node,
                       primal_operands: Sequence[float]) -> tuple[float, bool]:
    """Relative condition number of the primitive; (value, capped-flag)."""
    return PRIMITIVES[node.op].kappa(primal_operands, node.const)


class StabilityRow(NamedTuple):
    """One step of the product: a named tuple, immutable and built without
    a frozen dataclass's per-field ``object.__setattr__``."""

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
            "rows": [r._asdict() for r in self.rows],
            "product_bound": self.product_bound,
            "observed_norm": self.observed_norm,
            "first_order_error": self.first_order_error,
        }


def _fanout_counts(prog: Program) -> Counter:
    """The reads of each slot by live nodes and outputs: a node no output
    reads sends back an adjoint of 0, so its reads duplicate nothing."""
    uses = Counter(chain.from_iterable(
        node.operands for _, node, _ in prog.steps))
    uses.update(prog.outputs)
    return uses


def stability_bound(prog: Program, x: Sequence[float],
                    omega: Sequence[float],
                    delta_const: float = 4.0) -> StabilityReport:
    """Run a reverse sweep and assemble the multiplicative norm bound.

    Each primitive contributes max(local adjoint norm, 1): the sweep step
    acts as identity on every other live adjoint, so sub-unit local norms
    cannot shrink the whole state.  Each slot read r >= 2 times contributes
    a duplication step of norm sqrt(r).  Only live nodes (``Program.steps``)
    have rows: the sweep skips the others.
    """
    tape = record_tape(prog, x)
    # hypot cannot overflow on the way, where np.linalg.norm's dot product
    # does past about 1.3e154
    observed = math.hypot(*reverse_sweep(tape, omega))

    rows: list[StabilityRow] = []
    product = 1.0
    delta_sum = 0.0
    for k, node, _ in reversed(prog.steps):
        args = [tape.primals[r] for r in node.operands]
        local = math.hypot(*tape.partials[k])
        kappa, capped = condition_estimate(node, args)
        delta = delta_const * UNIT_ROUNDOFF * kappa
        eff = max(local, 1.0)
        product *= (1.0 + delta) * eff
        delta_sum += delta
        rows.append(StabilityRow("primitive", k, eff, local, kappa, delta,
                                 capped))
    for slot, count in sorted(_fanout_counts(prog).items()):
        if count < 2:
            continue
        delta = delta_const * UNIT_ROUNDOFF
        eff = math.sqrt(count)
        product *= (1.0 + delta) * eff
        delta_sum += delta
        rows.append(StabilityRow("fan", slot, eff, eff, 1.0, delta, False))
    bound = product * math.hypot(*omega)
    return StabilityReport(rows=tuple(rows), product_bound=bound,
                           observed_norm=observed,
                           first_order_error=delta_sum)
