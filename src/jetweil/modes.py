"""First-order forward (pushforward) and reverse (pullback) engines.

``record_tape`` linearizes the program once, with one ``linear`` rule call
(``slp.PRIMITIVES``) per live node, in the forward walk ``eval_primal``
takes with the ``value`` rules; ``tangent_sweep`` and ``reverse_sweep``
run that tape forward and back along ``Program.steps`` without calling a
rule.  ``pairing_residual`` probes the duality between the two on one tape,
which ``vjp_and_pairing`` also takes the gradient from; ``compose_vjp_check``
probes functoriality under syntactic composition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .slp import Node, Program, _forward_walk, check_finite, eval_primal


@dataclass
class Tape:
    """The primal of every slot, and each node's partials in its operands:
    the linear map every sweep runs through, both ways, along
    ``Program.steps``.  A node no output reads has None for both."""

    program: Program
    primals: list[float | None]
    partials: list[tuple[float, ...] | None]


def record_tape(prog: Program, x: Sequence[float]) -> Tape:
    """The tape at x.  Raises, through ``node_error``, at the first live
    node in forward order whose value or partials fail."""
    return Tape(prog, *_forward_walk(prog, x, True))


def tangent_sweep(tape: Tape, v: Sequence[float]) -> list[float]:
    """Push one tangent forward along the tape; returns output tangents."""
    prog, partials = tape.program, tape.partials
    if len(v) != prog.n_inputs:
        raise DimensionMismatchError("point/tangent length mismatch")
    n = prog.n_inputs
    dots = [float(a) for a in v] + [None] * prog.n_nodes
    for k, node, _ in prog.steps:
        # a left fold from 0.0: sum()'s bits, signed zeros included
        parts, ops = partials[k], node.operands
        if len(ops) == 2:
            dots[n + k] = (0.0 + parts[0] * dots[ops[0]]
                           + parts[1] * dots[ops[1]])
        else:
            dots[n + k] = 0.0 + parts[0] * dots[ops[0]] if ops else 0.0
    return [dots[r] for r in prog.outputs]


def reverse_sweep(tape: Tape, omega: Sequence[float]) -> list[float]:
    """Pull one covector back along the tape; returns input adjoints.

    The adjoints are accumulated in a fresh list, so a tape can be swept
    with any number of covectors.
    """
    prog, partials = tape.program, tape.partials
    if len(omega) != prog.n_outputs:
        raise DimensionMismatchError(
            f"covector length {len(omega)} != {prog.n_outputs} outputs")
    n = prog.n_inputs
    adj = [0.0] * prog.n_slots
    for w, r in zip(omega, prog.outputs):
        adj[r] += float(w)
    for k, node, _ in reversed(prog.steps):
        parts, ops, u_bar = partials[k], node.operands, adj[n + k]
        if ops:
            adj[ops[0]] += parts[0] * u_bar
            if len(ops) == 2:
                adj[ops[1]] += parts[1] * u_bar
    return adj[:n]


def _tangent_exponent(tape: Tape, v: Sequence[float]) -> int:
    """The least m >= 0 for which a bound through the partials keeps every
    tangent of the sweep along v * 2**-m below 2**1023: with |a| < 2**e(a)
    (``math.frexp``), a node's tangent is below 2**(max e(p) + e(d) + 1)
    over its partials p and operand tangents d, the 1 for a sum of two.
    A zero counts as below 1, which only loosens the bound, and so does a
    node no output reads, whose tangent the sweep never makes."""
    prog = tape.program
    n = prog.n_inputs
    exps = [math.frexp(a)[1] for a in v] + [0] * prog.n_nodes
    for k, node, _ in prog.steps:
        ops = node.operands
        exps[n + k] = max((math.frexp(p)[1] + exps[op]
                           for p, op in zip(tape.partials[k], ops)),
                          default=0) + (len(ops) == 2)
    return max(0, max(exps) - 1023)


def eval_dual(prog: Program, x: Sequence[float],
              v: Sequence[float]) -> tuple[list[float], list[float]]:
    """One forward sweep with a single tangent; returns (outputs, tangents).
    Fails as record_tape does."""
    tape = record_tape(prog, x)
    return [tape.primals[r] for r in prog.outputs], tangent_sweep(tape, v)


def jvp(prog: Program, x: Sequence[float], v: Sequence[float]) -> list[float]:
    """Jacobian-vector product J_f(x) v without materializing the Jacobian.

    Raises NumericOverflowError when an output's tangent is non-finite.
    """
    return check_finite(prog, eval_dual(prog, x, v)[1], prog.outputs,
                        "tangent")


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
    """Normalized defect of <J^T omega, v> == <omega, J v>, both sides swept
    along one tape."""
    return vjp_and_pairing(prog, x, omega, v)[1]


def vjp_and_pairing(prog: Program, x: Sequence[float], omega: Sequence[float],
                    v: Sequence[float]) -> tuple[list[float], float]:
    """``vjp`` and ``pairing_residual`` along v, from one tape; the adjoint
    is checked before the tangent.  Where J v is non-finite but J^T omega
    is not, the probe is v * 2**-m, which keeps every tangent finite
    (``_tangent_exponent``), swept once more."""
    tape = record_tape(prog, x)
    jt_omega = check_finite(prog, reverse_sweep(tape, omega),
                            range(prog.n_inputs), "adjoint")
    jv = tangent_sweep(tape, v)
    if not all(map(math.isfinite, jv)):
        m = _tangent_exponent(tape, v)
        v = [math.ldexp(a, -m) for a in v]
        jv = tangent_sweep(tape, v)
    jv = check_finite(prog, jv, prog.outputs, "tangent")
    forward = float(np.dot(omega, jv))
    backward = float(np.dot(jt_omega, v))
    return jt_omega, abs(backward - forward) / max(1.0, abs(forward))


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
    direct = vjp(composed, x, omega)
    y = eval_primal(f, x)
    chained = vjp(f, x, vjp(g, y, omega))
    # hypot cannot overflow on the way, as np.linalg.norm's dot product can
    scale = max(1.0, math.hypot(*direct))
    return math.hypot(*(d - c for d, c in zip(direct, chained))) / scale
