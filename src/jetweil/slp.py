"""Straight-line program IR, text parser, and generic topological evaluator.

A program is a branch-free list of primitive nodes over input slots and
earlier nodes.  Evaluation is parameterized by a scalar semantics, so the
same walk performs plain evaluation, coefficient-array lifting, dual-number
forward mode, tape recording, and symbolic expansion.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

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


class RealSemantics:
    """Plain 64-bit evaluation with domain checks."""

    def constant(self, c: float):
        return c

    def apply(self, node: Node, args):
        op = node.op
        if op is PrimitiveKind.ADD:
            return args[0] + args[1]
        if op is PrimitiveKind.SUB:
            return args[0] - args[1]
        if op is PrimitiveKind.MUL:
            return args[0] * args[1]
        if op is PrimitiveKind.NEG:
            return -args[0]
        if op is PrimitiveKind.EXP:
            return math.exp(args[0])
        if op is PrimitiveKind.LOG:
            if args[0] <= 0:
                raise DomainError("log requires a positive argument", args[0])
            return math.log(args[0])
        if op is PrimitiveKind.SIN:
            return math.sin(args[0])
        if op is PrimitiveKind.COS:
            return math.cos(args[0])
        if op is PrimitiveKind.TANH:
            return math.tanh(args[0])
        if op is PrimitiveKind.SQRT:
            if args[0] < 0:
                raise DomainError("sqrt of a negative argument", args[0])
            return math.sqrt(args[0])
        if op is PrimitiveKind.RECIP:
            if args[0] == 0:
                raise DomainError("reciprocal of zero", args[0])
            return 1.0 / args[0]
        if op is PrimitiveKind.POW_CONST:
            e = node.const
            a = args[0]
            if e != round(e) and a <= 0:
                raise DomainError("fractional power of a non-positive argument", a)
            if e < 0 and a == 0:
                raise DomainError("negative power of zero", a)
            return a ** e
        raise ValueError(f"unhandled primitive {op}")


def eval_generic(prog: Program, inputs: Sequence, semantics):
    """Evaluate nodes in topological order under the supplied semantics."""
    if len(inputs) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(inputs)}")
    slots = list(inputs)
    for k, node in enumerate(prog.nodes):
        if node.op is PrimitiveKind.CONST:
            value = semantics.constant(node.const)
        else:
            args = [slots[r] for r in node.operands]
            try:
                value = semantics.apply(node, args)
            except DomainError as err:
                err.node = k
                raise
        slots.append(value)
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


def primal_slots(prog: Program, x: Sequence[float]) -> list[float]:
    """Every slot's value: the inputs, then each node in turn."""
    if len(x) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(x)}")
    real = RealSemantics().apply
    slots = [float(v) for v in x]
    try:
        for k, node in enumerate(prog.nodes):
            value = (node.const if node.op is PrimitiveKind.CONST
                     else real(node, [slots[r] for r in node.operands]))
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
