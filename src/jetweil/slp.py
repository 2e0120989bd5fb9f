"""Straight-line program IR, primitive rule table, text parser, and generic
topological evaluator.

A program is a branch-free list of primitive nodes over input slots and
earlier nodes.  Evaluation is parameterized by a scalar semantics, so the
same walk performs plain evaluation, coefficient-array lifting, dual-number
forward mode, tape recording, and symbolic expansion.

``PRIMITIVES`` defines each primitive once: its checked value, its value
with its partial derivatives, its condition number and its lift to the
truncated coefficient algebra.  Primal, tape, stability and lifted
evaluation all look their rules up there.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .errors import (DomainError, DimensionMismatchError, NumericOverflowError,
                     ParseError)


class PrimitiveKind(str, Enum):
    # hash as the spelling, in C: Enum.__hash__ is a Python-level call, and
    # every rule, arity and lift lookup hashes a kind
    __hash__ = str.__hash__

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
    """One primitive's rules: the checked value, the linearization ``(value,
    partials)`` (the value's checks, then DomainError where the partials do
    not exist) and the condition number with its capped flag, each called
    as ``rule(operands, constant)``, and the lift to the truncated
    coefficient algebra, ``lift(kernels, operands, constant)``.  A lift is
    written once against the kernel interface (``const``, ``add``, ``sub``,
    ``neg``, ``mul``, ``unary``, ``recip``) of ``weil.NumpyKernels`` and
    ``weil.FloatKernels``, so the same rule lifts coefficient arrays and
    coefficient lists; ``const`` has no lift, since each semantics builds
    constants itself."""

    value: Callable
    linear: Callable
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


def _tanh_kappa(a, c):
    if a[0] == 0:
        return 1.0, False
    t = math.tanh(a[0])
    return _capped(abs(a[0] * (1.0 - t * t) / t))


def _sqrt_value(a, c):
    if a[0] < 0:
        raise DomainError("sqrt of a negative argument", a[0])
    return math.sqrt(a[0])


def _sqrt_linear(a, c):
    y = _sqrt_value(a, c)
    if a[0] <= 0:
        raise DomainError("sqrt derivative needs a positive argument", a[0])
    return y, (0.5 / y,)


def _recip_value(a, c):
    if a[0] == 0:
        raise DomainError("reciprocal of zero", a[0])
    return 1.0 / a[0]


def _recip_linear(a, c):
    y = _recip_value(a, c)
    if a[0] * a[0] == 0:
        raise OverflowError("derivative of recip past the float range")
    return y, (-1.0 / (a[0] * a[0]),)


def _pow_value(a, e):
    x = a[0]
    if e != round(e) and x <= 0:
        raise DomainError("fractional power of a non-positive argument", x)
    if e < 0 and x == 0:
        raise DomainError("negative power of zero", x)
    return x ** e


def _pow_linear(a, e):
    y = _pow_value(a, e)
    x = a[0]
    if e == 0:
        return y, (0.0,)
    # x = 0 gets here only with an integer e >= 1: _pow_value refused the rest
    return y, (e * x ** (e - 1),)


def _unary_lift(kind: str) -> Callable:
    return lambda k, a, c: k.unary(kind, a[0])


def _kappa_one(a, c):
    return 1.0, False


PRIMITIVES: dict[PrimitiveKind, Rule] = {
    PrimitiveKind.CONST: Rule(
        value=lambda a, c: c, linear=lambda a, c: (c, ()),
        kappa=lambda a, c: (0.0, False), lift=None),
    PrimitiveKind.ADD: Rule(
        value=lambda a, c: a[0] + a[1],
        linear=lambda a, c: (a[0] + a[1], (1.0, 1.0)),
        kappa=lambda a, c: _sum_kappa(a, a[0] + a[1]),
        lift=lambda k, a, c: k.add(a[0], a[1])),
    PrimitiveKind.SUB: Rule(
        value=lambda a, c: a[0] - a[1],
        linear=lambda a, c: (a[0] - a[1], (1.0, -1.0)),
        kappa=lambda a, c: _sum_kappa(a, a[0] - a[1]),
        lift=lambda k, a, c: k.sub(a[0], a[1])),
    PrimitiveKind.MUL: Rule(
        value=lambda a, c: a[0] * a[1],
        linear=lambda a, c: (a[0] * a[1], (a[1], a[0])),
        kappa=_kappa_one, lift=lambda k, a, c: k.mul(a[0], a[1])),
    PrimitiveKind.NEG: Rule(
        value=lambda a, c: -a[0], linear=lambda a, c: (-a[0], (-1.0,)),
        kappa=_kappa_one, lift=lambda k, a, c: k.neg(a[0])),
    PrimitiveKind.EXP: Rule(
        value=lambda a, c: math.exp(a[0]),
        linear=lambda a, c: (y := math.exp(a[0]), (y,)),
        kappa=lambda a, c: (abs(a[0]), False), lift=_unary_lift("exp")),
    PrimitiveKind.LOG: Rule(
        value=_log_value, kappa=_log_kappa, lift=_unary_lift("log"),
        linear=lambda a, c: (_log_value(a, c), (1.0 / a[0],))),
    PrimitiveKind.SIN: Rule(
        value=lambda a, c: math.sin(a[0]),
        linear=lambda a, c: (math.sin(a[0]), (math.cos(a[0]),)),
        kappa=_sin_kappa, lift=_unary_lift("sin")),
    PrimitiveKind.COS: Rule(
        value=lambda a, c: math.cos(a[0]),
        linear=lambda a, c: (math.cos(a[0]), (-math.sin(a[0]),)),
        kappa=_cos_kappa, lift=_unary_lift("cos")),
    PrimitiveKind.TANH: Rule(
        value=lambda a, c: math.tanh(a[0]),
        linear=lambda a, c: (t := math.tanh(a[0]), (1.0 - t * t,)),
        kappa=_tanh_kappa, lift=_unary_lift("tanh")),
    PrimitiveKind.SQRT: Rule(
        value=_sqrt_value, linear=_sqrt_linear,
        kappa=lambda a, c: (0.5, False), lift=_unary_lift("sqrt")),
    PrimitiveKind.RECIP: Rule(
        value=_recip_value, linear=_recip_linear, kappa=_kappa_one,
        lift=lambda k, a, c: k.recip(a[0])),
    PrimitiveKind.POW_CONST: Rule(
        value=_pow_value, linear=_pow_linear,
        kappa=lambda a, e: (abs(e), False),
        lift=lambda k, a, e: k.unary("pow", a[0], e)),
}

@dataclass(frozen=True, slots=True)
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
        # kinds held in locals: reading an Enum member off its class costs
        # about as much as the rest of a node's checks
        div = PrimitiveKind.DIV
        with_payload = (PrimitiveKind.CONST, PrimitiveKind.POW_CONST)
        limit = self.n_inputs
        for k, node in enumerate(self.nodes):
            for ref in node.operands:
                if not 0 <= ref < limit:
                    raise ValueError(
                        f"node {k} references slot {ref}, only {limit} defined")
            if node.op is div:
                raise ValueError("div must be desugared before construction")
            if node.op in with_payload:
                if node.const is None:
                    raise ValueError(
                        f"{node.op.value} node needs a constant payload")
                if not math.isfinite(node.const):
                    raise ValueError(f"{node.op.value} node has a non-finite "
                                     f"payload {node.const!r}")
            limit += 1
        if not self.outputs:
            raise ValueError("program has no outputs")
        for ref in self.outputs:
            if not 0 <= ref < limit:
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
    def steps(self) -> tuple[tuple[int, Node, tuple[int, ...]], ...]:
        """``(k, node, dead)`` for each live node k, in forward order: the
        nodes every mode walks.  A node is live when some output reads it,
        directly or through later nodes; any other node is in no step, so no
        mode computes it, and a domain error or overflow there raises
        nowhere; its slot holds None.

        ``dead`` lists the node slots no later live node or output reads,
        so that they can be released once node k is done.  Input slots are
        never listed: they belong to the caller.
        """
        nodes, n = self.nodes, self.n_inputs
        read = set(self.outputs)
        steps = []
        for k in range(len(nodes) - 1, -1, -1):
            if n + k in read:
                dead = ()
                for r in nodes[k].operands:
                    if r not in read:
                        read.add(r)
                        if r >= n:
                            dead += (r,)
                steps.append((k, nodes[k], dead))
        steps.reverse()
        return tuple(steps)

    @cached_property
    def peak_live(self) -> int:
        """Most values eval_generic holds at once: the inputs, and each
        live node's value until its last reader is done (``steps``)."""
        live = peak = self.n_inputs
        for _, _, dead in self.steps:
            live += 1
            peak = max(peak, live)
            live -= len(dead)
        return peak


# the parser builds each Node without ``__post_init__``'s arity check,
# which it has made: the fields go through the slots' own setters
_new_node = object.__new__
_set_op, _set_operands, _set_const = (
    Node.op.__set__, Node.operands.__set__, Node.const.__set__)


def _unchecked_program(n_inputs: int, nodes: tuple[Node, ...],
                       outputs: tuple[int, ...],
                       names: tuple[str, ...]) -> Program:
    """A Program without ``__post_init__``'s checks, for the parser, which
    has made them all: the fields go straight into the instance dict."""
    prog = object.__new__(Program)
    prog.__dict__.update(n_inputs=n_inputs, nodes=nodes, outputs=outputs,
                         names=names)
    return prog


# the primitives whose last token is a numeric literal, and their usage
_LITERAL_USAGE = {
    "const": "const takes one numeric literal",
    "pow": "pow takes an operand and a numeric exponent",
}
# every primitive's spelling in the program text, with its operand count
# and its literal's usage (None for the rest)
_SYNTAX = {kind.value: (kind, ARITY[kind], _LITERAL_USAGE.get(kind.value))
           for kind in PrimitiveKind}
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")


def parse_program(text: str) -> Program:
    """Parse the one-statement-per-line program format.  Errors come from
    the first statement, the last, those between in order, then the names
    on the output line.  The parser checks what ``Node`` and ``Program``
    would, so it builds both unchecked."""
    rows = text.splitlines()
    lines = ([row.partition("#")[0].split() for row in rows] if "#" in text
             else [row.split() for row in rows])
    first = 0
    while first < len(lines) and not lines[first]:
        first += 1
    if first == len(lines):
        raise ParseError("empty program", 1)
    last = len(lines) - 1
    while not lines[last]:
        last -= 1

    if lines[first][0] != "input":
        raise ParseError("program must start with an 'input' line", first + 1)
    scope: dict[str, int] = {}
    for name in lines[first][1:]:
        # on a token, isidentifier() and isascii() is [A-Za-z_][A-Za-z0-9_]*
        if not (name.isidentifier() and name.isascii()):
            raise ParseError(f"bad input name {name!r}", first + 1)
        if name in scope:
            raise ParseError(f"duplicate name {name!r}", first + 1)
        scope[name] = len(scope)
    n_inputs = len(scope)
    if lines[last][0] != "output":
        raise ParseError("program must end with an 'output' line", last + 1)

    div, recip, mul = PrimitiveKind.DIV, PrimitiveKind.RECIP, PrimitiveKind.MUL
    nodes: list[Node] = []
    for lineno in range(first + 2, last + 1):
        toks = lines[lineno - 1]
        if not toks:
            continue
        name = toks[0]
        if name == "input" or name == "output":
            raise ParseError(f"{name!r} line out of place", lineno)
        if len(toks) < 3 or toks[1] != "=":
            raise ParseError("expected 'name = op args...'", lineno)
        if not (name.isidentifier() and name.isascii()):
            raise ParseError(f"bad name {name!r}", lineno)
        if name in scope:
            raise ParseError(f"duplicate name {name!r}", lineno)
        try:
            op, arity, usage = _SYNTAX[toks[2]]
        except KeyError:
            raise ParseError(f"unknown primitive {toks[2]!r}", lineno) from None
        const = None
        if usage is not None:
            if len(toks) != 4 + arity or not _NUMBER.match(toks[-1]):
                raise ParseError(usage, lineno)
            const = float(toks[-1])
            if not math.isfinite(const):
                raise ParseError(
                    f"literal {toks[-1]!r} is not a finite float64", lineno)
        elif len(toks) != 3 + arity:
            raise ParseError(
                f"{op.value} expects {arity} operands, got {len(toks) - 3}",
                lineno)
        try:
            if arity == 2:
                refs = (scope[toks[3]], scope[toks[4]])
            else:
                refs = (scope[toks[3]],) if arity else ()
        except KeyError as err:
            raise ParseError(f"undefined name {err.args[0]!r}",
                             lineno) from None
        if op is div:
            # the reciprocal's slot is an ordinary defined name
            recip_name = f"{name}__recip"
            if recip_name in scope:
                raise ParseError(f"duplicate name {recip_name!r}", lineno)
            scope[recip_name] = len(scope)
            node = _new_node(Node)
            _set_op(node, recip)
            _set_operands(node, refs[1:])
            _set_const(node, None)
            nodes.append(node)
            op, refs = mul, (refs[0], scope[recip_name])
        scope[name] = len(scope)
        node = _new_node(Node)
        _set_op(node, op)
        _set_operands(node, refs)
        _set_const(node, const)
        nodes.append(node)

    try:
        outputs = tuple(scope[arg] for arg in lines[last][1:])
    except KeyError as err:
        raise ParseError(f"undefined name {err.args[0]!r}", last + 1) from None
    if not outputs:
        raise ParseError("output line names no values", last + 1)
    return _unchecked_program(n_inputs, tuple(nodes), outputs, tuple(scope))


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
    """Evaluate the live nodes (``Program.steps``) in topological order
    under the supplied semantics; a node no output reads keeps None.

    The evaluator drops its reference to a node's value right after the
    last live node that reads it, so a lifted pass holds only the values
    still to be read.  Outputs and the caller's inputs are kept.  The
    semantics needs ``constant(c)`` and ``apply(node, args)``.
    """
    if len(inputs) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(inputs)}")
    n = prog.n_inputs
    slots = list(inputs) + [None] * prog.n_nodes
    # values go straight into slots: a local would keep a dropped value
    # alive while the next node runs
    for k, node, dead in prog.steps:
        if node.op is PrimitiveKind.CONST:
            slots[n + k] = semantics.constant(node.const)
        else:
            try:
                slots[n + k] = semantics.apply(
                    node, [slots[r] for r in node.operands])
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


def _forward_walk(prog: Program, x: Sequence[float],
                  linear: bool) -> tuple[list, list | None]:
    """The checked forward walk of the live nodes at x: ``(values,
    partials)``, with the ``value`` rules and no partials, or with the
    ``linear`` rules and each node's partials, by node index.  A node no
    output reads has None in both.  Raises, through ``node_error``, at the
    first node whose value (or partials) fail."""
    if len(x) != prog.n_inputs:
        raise DimensionMismatchError(
            f"program takes {prog.n_inputs} inputs, got {len(x)}")
    n = prog.n_inputs
    vals = [float(a) for a in x] + [None] * prog.n_nodes
    partials = [None] * prog.n_nodes if linear else None
    # unrolled by arity, here and in the sweeps: cheaper than a zip per node
    try:
        for k, node, _ in prog.steps:
            ops = node.operands
            if len(ops) == 2:
                args = [vals[ops[0]], vals[ops[1]]]
            else:
                args = [vals[ops[0]]] if ops else ()
            rule = PRIMITIVES[node.op]
            if linear:
                value, partials[k] = rule.linear(args, node.const)
            else:
                value = rule.value(args, node.const)
            if not math.isfinite(value):
                raise OverflowError
            vals[n + k] = value
    except (DomainError, OverflowError) as err:
        raise node_error(err, node, k) from None
    return vals, partials


def eval_primal(prog: Program, x: Sequence[float]) -> list[float]:
    """The outputs, by the checked value rules alone, at the live nodes."""
    vals = _forward_walk(prog, x, False)[0]
    return [vals[r] for r in prog.outputs]


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
    # a left fold: from CPython 3.12 sum() of floats is compensated, which
    # moves the unsafe table's total by one ulp
    total = 0.0
    for _, w in table:
        total += w
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
