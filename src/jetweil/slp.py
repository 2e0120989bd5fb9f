"""Straight-line program IR, primitive rule table, text parser, and generic
topological evaluator.

A program is a branch-free list of primitive nodes over input slots and
earlier nodes.  Evaluation is parameterized by a scalar semantics, so the
same walk performs plain evaluation, coefficient-array lifting, dual-number
forward mode, tape recording, and symbolic expansion.

``PRIMITIVES`` defines each primitive once: its checked value, its partial
derivatives, its condition number and its lift to the truncated coefficient
algebra.  Forward, reverse, stability and lifted evaluation all look their
rules up there.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from . import weil
from .errors import (DomainError, DimensionMismatchError, NumericOverflowError,
                     ParseError)


class PrimitiveKind(str, Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    TANH = "tanh"
    SQRT = "sqrt"
    RECIP = "recip"
    POW_CONST = "pow"
    CONST = "const"


ARITY = {
    PrimitiveKind.ADD: 2, PrimitiveKind.SUB: 2, PrimitiveKind.MUL: 2,
    PrimitiveKind.DIV: 2, PrimitiveKind.NEG: 1, PrimitiveKind.EXP: 1,
    PrimitiveKind.LOG: 1, PrimitiveKind.SIN: 1, PrimitiveKind.COS: 1,
    PrimitiveKind.TANH: 1, PrimitiveKind.SQRT: 1, PrimitiveKind.RECIP: 1,
    PrimitiveKind.POW_CONST: 1, PrimitiveKind.CONST: 0,
}

UNIT_ROUNDOFF = 2.0 ** -53
KAPPA_CAP = 1.0 / UNIT_ROUNDOFF


@dataclass(frozen=True)
class Rule:
    """One primitive's rules, each called as ``rule(operands, constant)``:
    the checked value, the partial derivatives (DomainError where they do
    not exist), the condition number with its capped flag, and the lift to
    ``weil`` values.  A lift looks its kernel up in ``weil`` at each call,
    so rebinding a kernel there reaches every node; ``const`` has no lift,
    since each semantics builds constants itself."""

    value: Callable
    partials: Callable
    kappa: Callable
    lift: Callable | None


def _capped(k: float) -> tuple[float, bool]:
    return min(k, KAPPA_CAP), k >= KAPPA_CAP


def _sum_kappa(a, s: float) -> tuple[float, bool]:
    num = abs(a[0]) + abs(a[1])
    if s == 0:
        return (KAPPA_CAP, True) if num > 0 else (1.0, False)
    return _capped(num / abs(s))


def _log_value(a, c):
    if a[0] <= 0:
        raise DomainError("log requires a positive argument", a[0])
    return math.log(a[0])


def _log_partials(a, c):
    if a[0] <= 0:
        raise DomainError("log requires a positive argument", a[0])
    return (1.0 / a[0],)


def _log_kappa(a, c):
    la = math.log(a[0])
    return (KAPPA_CAP, True) if la == 0 else _capped(abs(1.0 / la))


def _sin_kappa(a, c):
    s = math.sin(a[0])
    if s == 0:
        return (1.0, False) if a[0] == 0 else (KAPPA_CAP, True)
    return _capped(abs(a[0] * math.cos(a[0]) / s))


def _cos_kappa(a, c):
    co = math.cos(a[0])
    if co == 0:
        return KAPPA_CAP, True
    return _capped(abs(a[0] * math.sin(a[0]) / co))


def _tanh_partials(a, c):
    t = math.tanh(a[0])
    return (1.0 - t * t,)


def _tanh_kappa(a, c):
    if a[0] == 0:
        return 1.0, False
    t = math.tanh(a[0])
    return _capped(abs(a[0] * (1.0 - t * t) / t))


def _sqrt_value(a, c):
    if a[0] < 0:
        raise DomainError("sqrt of a negative argument", a[0])
    return math.sqrt(a[0])


def _sqrt_partials(a, c):
    if a[0] <= 0:
        raise DomainError("sqrt derivative needs a positive argument", a[0])
    return (0.5 / math.sqrt(a[0]),)


def _recip_value(a, c):
    if a[0] == 0:
        raise DomainError("reciprocal of zero", a[0])
    return 1.0 / a[0]


def _recip_partials(a, c):
    if a[0] == 0:
        raise DomainError("reciprocal of zero", a[0])
    if a[0] * a[0] == 0:
        raise OverflowError("derivative of recip past the float range")
    return (-1.0 / (a[0] * a[0]),)


def _pow_value(a, e):
    x = a[0]
    if e != round(e) and x <= 0:
        raise DomainError("fractional power of a non-positive argument", x)
    if e < 0 and x == 0:
        raise DomainError("negative power of zero", x)
    return x ** e


def _pow_partials(a, e):
    x = a[0]
    if e == 0:
        return (0.0,)
    if x == 0 and e < 1:
        raise DomainError("power derivative singular at zero", x)
    return (e * x ** (e - 1),)


def _unary_lift(kind: str) -> Callable:
    return lambda a, c: weil.weil_unary(kind, a[0])


def _kappa_one(a, c):
    return 1.0, False


PRIMITIVES: dict[PrimitiveKind, Rule] = {
    PrimitiveKind.CONST: Rule(
        value=lambda a, c: c, partials=lambda a, c: (),
        kappa=lambda a, c: (0.0, False), lift=None),
    PrimitiveKind.ADD: Rule(
        value=lambda a, c: a[0] + a[1], partials=lambda a, c: (1.0, 1.0),
        kappa=lambda a, c: _sum_kappa(a, a[0] + a[1]),
        lift=lambda a, c: weil.weil_add(a[0], a[1])),
    PrimitiveKind.SUB: Rule(
        value=lambda a, c: a[0] - a[1], partials=lambda a, c: (1.0, -1.0),
        kappa=lambda a, c: _sum_kappa(a, a[0] - a[1]),
        lift=lambda a, c: weil.weil_sub(a[0], a[1])),
    PrimitiveKind.MUL: Rule(
        value=lambda a, c: a[0] * a[1], partials=lambda a, c: (a[1], a[0]),
        kappa=_kappa_one, lift=lambda a, c: weil.weil_mul(a[0], a[1])),
    PrimitiveKind.NEG: Rule(
        value=lambda a, c: -a[0], partials=lambda a, c: (-1.0,),
        kappa=_kappa_one, lift=lambda a, c: weil.weil_neg(a[0])),
    PrimitiveKind.EXP: Rule(
        value=lambda a, c: math.exp(a[0]),
        partials=lambda a, c: (math.exp(a[0]),),
        kappa=lambda a, c: (abs(a[0]), False), lift=_unary_lift("exp")),
    PrimitiveKind.LOG: Rule(
        value=_log_value, partials=_log_partials, kappa=_log_kappa,
        lift=_unary_lift("log")),
    PrimitiveKind.SIN: Rule(
        value=lambda a, c: math.sin(a[0]),
        partials=lambda a, c: (math.cos(a[0]),),
        kappa=_sin_kappa, lift=_unary_lift("sin")),
    PrimitiveKind.COS: Rule(
        value=lambda a, c: math.cos(a[0]),
        partials=lambda a, c: (-math.sin(a[0]),),
        kappa=_cos_kappa, lift=_unary_lift("cos")),
    PrimitiveKind.TANH: Rule(
        value=lambda a, c: math.tanh(a[0]), partials=_tanh_partials,
        kappa=_tanh_kappa, lift=_unary_lift("tanh")),
    PrimitiveKind.SQRT: Rule(
        value=_sqrt_value, partials=_sqrt_partials,
        kappa=lambda a, c: (0.5, False), lift=_unary_lift("sqrt")),
    PrimitiveKind.RECIP: Rule(
        value=_recip_value, partials=_recip_partials, kappa=_kappa_one,
        lift=lambda a, c: weil.weil_recip(a[0])),
    PrimitiveKind.POW_CONST: Rule(
        value=_pow_value, partials=_pow_partials,
        kappa=lambda a, e: (abs(e), False),
        lift=lambda a, e: weil.weil_unary("pow", a[0], exponent=e)),
}

@dataclass(frozen=True)
class Node:
    op: PrimitiveKind
    operands: tuple[int, ...]
    const: float | None = None

    def __post_init__(self):
        if len(self.operands) != ARITY[self.op]:
            raise ValueError(
                f"{self.op.value} expects {ARITY[self.op]} operands, "
                f"got {len(self.operands)}")


@dataclass(frozen=True)
class Program:
    """Validated straight-line program; slot k of a node is n_inputs + k."""

    n_inputs: int
    nodes: tuple[Node, ...]
    outputs: tuple[int, ...]
    names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for k, node in enumerate(self.nodes):
            limit = self.n_inputs + k
            for ref in node.operands:
                if not 0 <= ref < limit:
                    raise ValueError(
                        f"node {k} references slot {ref}, only {limit} defined")
            if node.op is PrimitiveKind.DIV:
                raise ValueError("div must be desugared before construction")
            if node.op in (PrimitiveKind.CONST, PrimitiveKind.POW_CONST) \
                    and node.const is None:
                raise ValueError(f"{node.op.value} node needs a constant payload")
        n_slots = self.n_inputs + len(self.nodes)
        for ref in self.outputs:
            if not 0 <= ref < n_slots:
                raise ValueError(f"output references undefined slot {ref}")
        if not self.names:
            names = [f"x{i}" for i in range(self.n_inputs)]
            names += [f"t{k}" for k in range(len(self.nodes))]
            object.__setattr__(self, "names", tuple(names))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def n_slots(self) -> int:
        return self.n_inputs + len(self.nodes)

    @cached_property
    def dead_after(self) -> tuple[tuple[int, ...], ...]:
        """For each node k, the node slots no later node or output reads.

        A slot nothing reads dies at the node that makes it.  Input slots
        are never listed: they belong to the caller.  Cached on the program,
        so the table lives exactly as long as the program does.
        """
        last = {}
        for k, node in enumerate(self.nodes):
            last[self.n_inputs + k] = k
            for ref in node.operands:
                last[ref] = k
        for ref in self.outputs:
            last.pop(ref, None)
        dead: list[list[int]] = [[] for _ in self.nodes]
        for ref, k in last.items():
            if ref >= self.n_inputs:
                dead[k].append(ref)
        return tuple(map(tuple, dead))


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _desugar_div(op: PrimitiveKind, refs: list[int], const, n_inputs: int,
                 nodes: list[Node]) -> Node:
    if op is PrimitiveKind.DIV:
        nodes.append(Node(PrimitiveKind.RECIP, (refs[1],)))
        return Node(PrimitiveKind.MUL,
                    (refs[0], n_inputs + len(nodes) - 1), None)
    return Node(op, tuple(refs), const)


def parse_program(text: str) -> Program:
    """Parse the one-statement-per-line program format."""
    lines = text.splitlines()
    stmts: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            stmts.append((lineno, body.split()))
    if not stmts:
        raise ParseError("empty program", 1)

    lineno, first = stmts[0]
    if first[0] != "input":
        raise ParseError("program must start with an 'input' line", lineno)
    scope: dict[str, int] = {}
    for name in first[1:]:
        if not _IDENT.match(name):
            raise ParseError(f"bad input name {name!r}", lineno)
        if name in scope:
            raise ParseError(f"duplicate name {name!r}", lineno)
        scope[name] = len(scope)
    n_inputs = len(scope)
    names = list(first[1:])

    lineno_out, last = stmts[-1]
    if last[0] != "output":
        raise ParseError("program must end with an 'output' line", lineno_out)

    nodes: list[Node] = []

    def slot_count() -> int:
        return n_inputs + len(nodes)

    for lineno, toks in stmts[1:-1]:
        if toks[0] in ("input", "output"):
            raise ParseError(f"{toks[0]!r} line out of place", lineno)
        if len(toks) < 3 or toks[1] != "=":
            raise ParseError("expected 'name = op args...'", lineno)
        name = toks[0]
        if not _IDENT.match(name):
            raise ParseError(f"bad name {name!r}", lineno)
        if name in scope:
            raise ParseError(f"duplicate name {name!r}", lineno)
        try:
            op = PrimitiveKind(toks[2])
        except ValueError:
            raise ParseError(f"unknown primitive {toks[2]!r}", lineno) from None
        args = toks[3:]
        const = None
        if op is PrimitiveKind.CONST:
            if len(args) != 1 or not _NUMBER.match(args[0]):
                raise ParseError("const takes one numeric literal", lineno)
            const = float(args[0])
            args = []
        elif op is PrimitiveKind.POW_CONST:
            if len(args) != 2 or not _NUMBER.match(args[1]):
                raise ParseError("pow takes an operand and a numeric exponent",
                                 lineno)
            const = float(args[1])
            args = args[:1]
        if len(args) != ARITY[op]:
            raise ParseError(
                f"{op.value} expects {ARITY[op]} operands, got {len(args)}",
                lineno)
        refs = []
        for arg in args:
            if arg not in scope:
                raise ParseError(f"undefined name {arg!r}", lineno)
            refs.append(scope[arg])
        node = _desugar_div(op, refs, const, n_inputs, nodes)
        if op is PrimitiveKind.DIV:
            names.append(f"{name}__recip")
        nodes.append(node)
        names.append(name)
        scope[name] = slot_count() - 1

    outputs = []
    for arg in last[1:]:
        if arg not in scope:
            raise ParseError(f"undefined name {arg!r}", lineno_out)
        outputs.append(scope[arg])
    if not outputs:
        raise ParseError("output line names no values", lineno_out)
    return Program(n_inputs=n_inputs, nodes=tuple(nodes),
                   outputs=tuple(outputs), names=tuple(names))


def pretty_print(prog: Program) -> str:
    lines = ["input " + " ".join(prog.names[:prog.n_inputs])]
    for k, node in enumerate(prog.nodes):
        name = prog.names[prog.n_inputs + k]
        if node.op is PrimitiveKind.CONST:
            rhs = f"const {node.const!r}"
        elif node.op is PrimitiveKind.POW_CONST:
            rhs = f"pow {prog.names[node.operands[0]]} {node.const!r}"
        else:
            rhs = node.op.value + "".join(
                f" {prog.names[r]}" for r in node.operands)
        lines.append(f"{name} = {rhs}")
    lines.append("output " + " ".join(prog.names[r] for r in prog.outputs))
    return "\n".join(lines) + "\n"


def eval_generic(prog: Program, inputs: Sequence, semantics):
    """Evaluate nodes in topological order under the supplied semantics.

    Liveness: the evaluator drops its reference to a node's value right
    after the last node that reads it (``Program.dead_after``), so a lifted
    pass holds only the values still to be read.  Outputs and the caller's
    inputs are kept.
    """
    if len(inputs) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(inputs)}")
    slots = list(inputs)
    # values go straight into slots: a local would keep a released value
    # alive while the next node runs
    for k, (node, dead) in enumerate(zip(prog.nodes, prog.dead_after)):
        if node.op is PrimitiveKind.CONST:
            slots.append(semantics.constant(node.const))
        else:
            try:
                slots.append(semantics.apply(
                    node, [slots[r] for r in node.operands]))
            except DomainError as err:
                err.node = k
                raise
        for r in dead:
            slots[r] = None
    return [slots[r] for r in prog.outputs]


def node_error(err: Exception, node: Node, k: int) -> Exception:
    """What a first-order mode raises when node k fails with err: a
    DomainError gets the node index, and an OverflowError (which the modes
    also raise for a non-finite value) becomes NumericOverflowError."""
    if isinstance(err, DomainError):
        err.node = k
        return err
    return NumericOverflowError(
        f"overflow at node {k} ({node.op.value})", node=k)


def check_finite(prog: Program, values: list[float], slots: Sequence[int],
                 what: str) -> list[float]:
    """values, or NumericOverflowError naming the slot of the first
    non-finite one.  Checked once on the result, not per node."""
    for value, slot in zip(values, slots):
        if not math.isfinite(value):
            node = slot - prog.n_inputs if slot >= prog.n_inputs else None
            where = f"node {node}" if node is not None else f"input {slot}"
            raise NumericOverflowError(f"non-finite {what} at {where}",
                                       node=node)
    return values


def primal_slots(prog: Program, x: Sequence[float]) -> list[float]:
    """Every slot's value: the inputs, then each node in turn."""
    if len(x) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(x)}")
    slots = [float(v) for v in x]
    try:
        for k, node in enumerate(prog.nodes):
            value = PRIMITIVES[node.op].value(
                [slots[r] for r in node.operands], node.const)
            if not math.isfinite(value):
                raise OverflowError
            slots.append(value)
    except (DomainError, OverflowError) as err:
        raise node_error(err, node, k) from None
    return slots


def eval_primal(prog: Program, x: Sequence[float]) -> list[float]:
    slots = primal_slots(prog, x)
    return [slots[r] for r in prog.outputs]


_SAFE_WEIGHTS = [
    (PrimitiveKind.ADD, 0.18),
    (PrimitiveKind.SUB, 0.10),
    (PrimitiveKind.MUL, 0.14),
    (PrimitiveKind.SIN, 0.16),
    (PrimitiveKind.COS, 0.10),
    (PrimitiveKind.TANH, 0.18),
    (PrimitiveKind.EXP, 0.08),
    (PrimitiveKind.NEG, 0.06),
]

_UNSAFE_EXTRA = [
    (PrimitiveKind.LOG, 0.05),
    (PrimitiveKind.SQRT, 0.05),
    (PrimitiveKind.RECIP, 0.05),
    (PrimitiveKind.POW_CONST, 0.05),
]


def _weighted_choice(rng: random.Random, table):
    total = sum(w for _, w in table)
    r = rng.random() * total
    for op, w in table:
        r -= w
        if r <= 0:
            return op
    return table[-1][0]


def random_program(seed: int, depth: int, n_inputs: int = 2,
                   safe: bool = True) -> Program:
    """Deterministic pseudo-random program; safe mode avoids partial primitives.

    Safe mode emits only primitives total on the reals, with exp arguments
    pre-scaled by a small constant so bounded inputs cannot overflow.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    table = _SAFE_WEIGHTS if safe else _SAFE_WEIGHTS + _UNSAFE_EXTRA
    nodes: list[Node] = []

    def pick_slot() -> int:
        n = n_inputs + len(nodes)
        # bias toward recent slots so values keep circulating
        off = min(int(abs(rng.gauss(0.0, 4.0))), n - 1)
        return n - 1 - off

    for _ in range(depth):
        op = _weighted_choice(rng, table)
        if op is PrimitiveKind.EXP and safe:
            nodes.append(Node(PrimitiveKind.CONST, (), 0.25))
            nodes.append(Node(PrimitiveKind.MUL,
                              (pick_slot(), n_inputs + len(nodes) - 1)))
            nodes.append(Node(PrimitiveKind.EXP,
                              (n_inputs + len(nodes) - 1,)))
            continue
        if op is PrimitiveKind.POW_CONST:
            nodes.append(Node(op, (pick_slot(),), float(rng.randint(2, 3))))
        elif ARITY[op] == 2:
            nodes.append(Node(op, (pick_slot(), pick_slot())))
        else:
            nodes.append(Node(op, (pick_slot(),)))
    return Program(n_inputs=n_inputs, nodes=tuple(nodes),
                   outputs=(n_inputs + len(nodes) - 1,))
