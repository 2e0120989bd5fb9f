"""First-order forward (pushforward) and reverse (pullback) engines.

Forward mode propagates value/tangent pairs through the program; reverse
mode records primal intermediates on a tape and accumulates adjoints along
a reverse sweep.  ``pairing_residual`` probes the duality between the two,
``compose_vjp_check`` probes functoriality under syntactic composition.
Values and partial derivatives come from the rule table ``slp.PRIMITIVES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import instrument
from .errors import DimensionMismatchError, DomainError
from .slp import (PRIMITIVES, Node, Program, check_finite, eval_primal,
                  node_error, primal_slots)


def eval_dual(prog: Program, x: Sequence[float],
              v: Sequence[float]) -> tuple[list[float], list[float]]:
    """One forward sweep with a single tangent; returns (outputs, tangents).

    Values follow primal_slots, checks included.
    """
    if len(x) != prog.n_inputs or len(v) != prog.n_inputs:
        raise DimensionMismatchError("point/tangent length mismatch")
    vals = [float(a) for a in x]
    dots = [float(a) for a in v]
    try:
        for k, node in enumerate(prog.nodes):
            rule = PRIMITIVES[node.op]
            args = [vals[r] for r in node.operands]
            value = rule.value(args, node.const)
            parts = rule.partials(args, node.const)
            if not math.isfinite(value):
                raise OverflowError
            vals.append(value)
            dots.append(sum((p * dots[r] for p, r in zip(parts, node.operands)),
                            0.0))
    except (DomainError, OverflowError) as err:
        raise node_error(err, node, k) from None
    return ([vals[r] for r in prog.outputs],
            [dots[r] for r in prog.outputs])


def jvp(prog: Program, x: Sequence[float], v: Sequence[float]) -> list[float]:
    """Jacobian-vector product J_f(x) v without materializing the Jacobian.

    Raises NumericOverflowError when an output's tangent is non-finite.
    """
    return check_finite(prog, eval_dual(prog, x, v)[1], prog.outputs,
                        "tangent")


@dataclass
class Tape:
    """Recorded primal intermediates plus one adjoint accumulator per slot."""

    program: Program
    primals: list[float]
    adjoints: list[float] = field(default_factory=list)

    def __post_init__(self):
        instrument.counters["tape_allocations"] += 1
        if not self.adjoints:
            self.adjoints = [0.0] * len(self.primals)


def record_tape(prog: Program, x: Sequence[float]) -> Tape:
    return Tape(program=prog, primals=primal_slots(prog, x))


def reverse_sweep(tape: Tape, omega: Sequence[float]) -> list[float]:
    """Accumulate adjoints from a seed covector; returns input adjoints."""
    prog = tape.program
    if len(omega) != prog.n_outputs:
        raise DimensionMismatchError(
            f"covector length {len(omega)} != {prog.n_outputs} outputs")
    adj = tape.adjoints
    for w, r in zip(omega, prog.outputs):
        adj[r] += float(w)
    try:
        for k in range(prog.n_nodes - 1, -1, -1):
            node = prog.nodes[k]
            u_bar = adj[prog.n_inputs + k]
            args = [tape.primals[r] for r in node.operands]
            parts = PRIMITIVES[node.op].partials(args, node.const)
            for p, r in zip(parts, node.operands):
                adj[r] += p * u_bar
    except (DomainError, OverflowError) as err:
        raise node_error(err, node, k) from None
    return adj[:prog.n_inputs]


def vjp(prog: Program, x: Sequence[float],
        omega: Sequence[float]) -> list[float]:
    """Vector-Jacobian product J_f(x)^T omega via tape and reverse sweep.

    Raises NumericOverflowError when an input's adjoint is non-finite.
    """
    tape = record_tape(prog, x)
    return check_finite(prog, reverse_sweep(tape, omega),
                        range(prog.n_inputs), "adjoint")


def pairing_residual(prog: Program, x: Sequence[float], v: Sequence[float],
                     omega: Sequence[float]) -> float:
    """Normalized defect of <J^T omega, v> == <omega, J v>."""
    forward = float(np.dot(omega, jvp(prog, x, v)))
    backward = float(np.dot(vjp(prog, x, omega), v))
    return abs(backward - forward) / max(1.0, abs(forward))


def compose_programs(f: Program, g: Program) -> Program:
    """Syntactic composition g(f(.)) by inlining f ahead of g."""
    if f.n_outputs != g.n_inputs:
        raise DimensionMismatchError(
            f"f has {f.n_outputs} outputs but g takes {g.n_inputs} inputs")

    def remap(ref: int) -> int:
        if ref < g.n_inputs:
            return f.outputs[ref]
        return f.n_slots + (ref - g.n_inputs)

    g_nodes = tuple(
        Node(n.op, tuple(remap(r) for r in n.operands), n.const)
        for n in g.nodes)
    return Program(n_inputs=f.n_inputs, nodes=f.nodes + g_nodes,
                   outputs=tuple(remap(r) for r in g.outputs))


def compose_vjp_check(f: Program, g: Program, x: Sequence[float],
                      omega: Sequence[float]) -> float:
    """Relative gap between pullback through g∘f and chained pullbacks."""
    composed = compose_programs(f, g)
    direct = np.asarray(vjp(composed, x, omega))
    y = eval_primal(f, x)
    chained = np.asarray(vjp(f, x, vjp(g, y, omega)))
    scale = max(1.0, float(np.linalg.norm(direct)))
    return float(np.linalg.norm(direct - chained)) / scale
