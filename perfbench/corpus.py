"""Program generators and independent reference evaluators for the benchmark.

Every generator is driven by a ``random.Random`` made from the workload
seed, so one seed always yields the same programs and points.  Programs are
emitted as text in jetweil's one-statement-per-line format: the text is
what the CLI and ``parse_program`` receive, and it is also what the
reference evaluator here reads, so the reference shares no code with the
engine it checks.
"""
from __future__ import annotations

import cmath
import math
import random

# Domain-edge requests: (primitive line, input value).  On each of them the
# well-behaved answer is a numeric error (exit code 3 from the CLI, or
# DomainError / NumericOverflowError from the library), never a traceback,
# a complex number or NaN/Infinity in JSON.
EDGE_CASES = (
    ("exp", "y = exp x", 1000.0),
    ("pow0.5", "y = pow x 0.5", -4.0),
    ("sqrt", "y = sqrt x", -4.0),
    ("log", "y = log x", -1.0),
    ("recip", "y = recip x", 0.0),
)


def edge_program(line: str) -> str:
    return f"input x\n{line}\noutput y\n"


# primitive mix of jetweil's random_program(safe=True)
SAFE_WEIGHTS = (("add", 0.18), ("sub", 0.10), ("mul", 0.14), ("sin", 0.16),
                ("cos", 0.10), ("tanh", 0.18), ("exp", 0.08), ("neg", 0.06))
SAFE_BOUND = 4.0


def _node(op: str, a, b=None):
    """Apply op to (bound, complex value) pairs; exp is pre-scaled by 0.25."""
    (ba, va), (bb, vb) = a, b or a
    if op == "add":
        return ba + bb, va + vb
    if op == "sub":
        return ba + bb, va - vb
    if op == "mul":
        return ba * bb, va * vb
    if op == "neg":
        return ba, -va
    if op == "exp":
        return math.exp(0.25 * ba), cmath.exp(0.25 * va)
    return 1.0, _COMPLEX[op](va)


def safe_random_text(rng: random.Random, n_nodes: int, n_inputs: int) -> str:
    """Safe random program with exactly n_nodes nodes.

    It uses the primitive mix of jetweil's safe ``random_program``, with
    ``exp`` arguments pre-scaled by 0.25, but makes a program's cost depend
    on its size and not on luck.  ``random_program`` often builds values
    whose jets are exactly constant (``sub t t``, ``add t (neg t)``,
    functions of a constant, saturated ``tanh``); the lifted kernels skip
    zero coefficients, so its programs of one size differ six-fold in cost.
    Here the count of each primitive is apportioned from the weights, and
    operands are redrawn until the new value
    - stays within [-SAFE_BOUND, SAFE_BOUND] for all inputs in [-1, 1]
      (interval bound), and
    - still depends on the inputs: the generator carries each value at a
      random point with a complex-step perturbation, and a zero imaginary
      part marks a constant jet.
    """
    draws = round(n_nodes / (1.0 + 2 * dict(SAFE_WEIGHTS)["exp"]))
    ops = [op for op, w in SAFE_WEIGHTS for _ in range(round(w * draws))]
    rng.shuffle(ops)
    live = [f"x{i}" for i in range(n_inputs)]
    state = {x: (1.0, complex(rng.uniform(-1.0, 1.0), 1e-20))
             for x in live}
    lines = _header(n_inputs)
    count = 0
    for op in ops + ["add"] * n_nodes:
        if count == n_nodes:
            break
        if op == "exp" and count + 3 > n_nodes:
            op = "add"
        for _ in range(16):
            a, b = _recent(rng, live), _recent(rng, live)
            new = _node(op, state[a], state[b])
            if new[0] <= SAFE_BOUND and new[1].imag != 0.0:
                break
        else:   # the sine of a live value is live and bounded
            op, a = "sin", live[-1]
            new = _node(op, state[a])
        name = f"t{count}"
        if op == "exp":
            lines += [f"c{name} = const 0.25", f"s{name} = mul {a} c{name}",
                      f"{name} = exp s{name}"]
            count += 3
        else:
            args = f"{a} {b}" if op in ("add", "sub", "mul") else a
            lines.append(f"{name} = {op} {args}")
            count += 1
        live.append(name)
        state[name] = new
    lines.append(f"output {live[-1]}")
    return "\n".join(lines) + "\n"


def _header(n_inputs: int) -> list[str]:
    return ["input " + " ".join(f"x{i}" for i in range(n_inputs))]


def _recent(rng: random.Random, names: list[str]) -> str:
    # bias toward recent slots, like jetweil's own generators
    return names[len(names) - 1 - min(int(abs(rng.gauss(0.0, 4.0))),
                                      len(names) - 1)]


def linear_text(rng: random.Random, n_nodes: int, n_inputs: int) -> str:
    """The ``linear`` family: add/sub/neg/const only.

    Its lifted cost is linear in the coefficient dimension, so it isolates
    the cheap element-wise kernels and the evaluator's dispatch.
    """
    names = [f"x{i}" for i in range(n_inputs)]
    lines = _header(n_inputs)
    for k in range(n_nodes):
        r = rng.random()
        if r < 0.55:
            rhs = f"add {_recent(rng, names)} {_recent(rng, names)}"
        elif r < 0.80:
            rhs = f"sub {_recent(rng, names)} {_recent(rng, names)}"
        elif r < 0.95:
            rhs = f"neg {_recent(rng, names)}"
        else:
            rhs = f"const {rng.uniform(-1.0, 1.0)!r}"
        lines.append(f"t{k} = {rhs}")
        names.append(f"t{k}")
    lines.append(f"output t{n_nodes - 1}")
    return "\n".join(lines) + "\n"


# Seeding contract of the mul-heavy family: |x_i| + sum_j |v_ji| <= MUL_RADIUS.
MUL_RADIUS = 1.25
_MUL_CAP = 1e40


def mulheavy_text(rng: random.Random, n_nodes: int, n_inputs: int) -> str:
    """Mul-heavy programs whose lifted values provably stay finite.

    Each node is a product of a recent value and an earlier one, a mean of
    two values (``add``/``sub`` then ``mul`` with ``const 0.5``) or a
    constant in [-1, 1].  The generator carries for every node a majorant
    M: with the inputs seeded inside the polydisc of radius MUL_RADIUS
    (see the contract above), every Taylor coefficient of the node is at
    most M in modulus (M(a*b) = M(a) M(b), M(mean) <= max).  A product
    whose majorant would pass 1e40 multiplies by 0.5 instead, so no
    coefficient can overflow.  jetweil's own ``bench_program("mul")`` has
    no such bound and is already non-finite at 100 nodes with caps (1)^6.
    """
    names = [f"x{i}" for i in range(n_inputs)]
    varying = list(names)   # values that depend on the inputs
    bound = {n: MUL_RADIUS for n in names}
    bound["half"] = 0.5
    lines = _header(n_inputs) + ["half = const 0.5"]
    count = 1
    while count < n_nodes:
        name = f"t{len(names)}"
        r = rng.random()
        # the kernels loop over the first factor's coefficients and skip the
        # zero ones, so a constant first factor would make a cheap product
        a, b = _recent(rng, varying), rng.choice(names)
        if bound[a] * bound[b] > _MUL_CAP:
            b = "half"
        if r < 0.70 or count + 2 > n_nodes:
            lines.append(f"{name} = mul {a} {b}")
            bound[name] = bound[a] * bound[b]
            count += 1
        elif r < 0.90:
            op = "add" if r < 0.82 or a == b else "sub"
            lines.append(f"s{name} = {op} {a} {b}")
            lines.append(f"{name} = mul s{name} half")
            bound[name] = max(bound[a], bound[b])
            count += 2
        else:
            c = rng.uniform(-1.0, 1.0)
            lines.append(f"{name} = const {c!r}")
            bound[name] = abs(c)
            count += 1
        names.append(name)
        if not lines[-1].startswith(f"{name} = const"):
            varying.append(name)
    lines.append(f"output {varying[-1]}")
    return "\n".join(lines) + "\n"


def polynomial_text(rng: random.Random, n_inputs: int, n_nodes: int,
                    max_degree: int) -> str:
    """Random polynomial program of bounded total degree.

    Only add/sub/mul/neg/const/pow with integer exponents, so the symbolic
    oracle can expand it exactly.
    """
    names = [f"x{i}" for i in range(n_inputs)]
    degree = {n: 1 for n in names}
    lines = _header(n_inputs)
    for k in range(n_nodes):
        name = f"t{k}"
        roll = rng.random()
        a, b = rng.choice(names), rng.choice(names)
        if roll < 0.10:
            lines.append(f"{name} = const {round(rng.uniform(-2.0, 2.0), 3)!r}")
            degree[name] = 0
        elif roll < 0.20:
            lines.append(f"{name} = neg {a}")
            degree[name] = degree[a]
        elif roll < 0.32 and 2 * degree[a] <= max_degree:
            e = 2 if 3 * degree[a] > max_degree else rng.randint(2, 3)
            lines.append(f"{name} = pow {a} {float(e)!r}")
            degree[name] = degree[a] * e
        elif degree[a] + degree[b] <= max_degree and roll < 0.75:
            lines.append(f"{name} = mul {a} {b}")
            degree[name] = degree[a] + degree[b]
        else:
            op = "add" if roll < 0.88 else "sub"
            lines.append(f"{name} = {op} {a} {b}")
            degree[name] = max(degree[a], degree[b])
        names.append(name)
    lines.append(f"output t{n_nodes - 1}")
    return "\n".join(lines) + "\n"


def program_text(prog) -> str:
    """Print a jetweil ``Program`` as text, for the evaluator below."""
    names = [f"x{i}" for i in range(prog.n_inputs)]
    lines = _header(prog.n_inputs)
    for k, node in enumerate(prog.nodes):
        args = [names[a] for a in node.operands]
        if node.const is not None:
            args.append(repr(float(node.const)))
        names.append(f"t{k}")
        lines.append(f"t{k} = {node.op.value} {' '.join(args)}")
    lines.append("output " + " ".join(names[s] for s in prog.outputs))
    return "\n".join(lines) + "\n"


def overflows(text: str, x) -> bool:
    """Whether a value of the program leaves the float range at x."""
    try:
        return not all(map(math.isfinite, evaluate(text, x)))
    except OverflowError:
        return True


# -- independent reference evaluator ---------------------------------------

_REAL = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "tanh": math.tanh, "sqrt": math.sqrt,
}
_COMPLEX = {
    "exp": cmath.exp, "log": cmath.log, "sin": cmath.sin, "cos": cmath.cos,
    "tanh": cmath.tanh, "sqrt": cmath.sqrt,
}


def evaluate(text: str, x, funcs=_REAL) -> list:
    """Evaluate program text directly, without jetweil's parser or IR."""
    env: dict = {}
    outputs: list = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "input":
            if len(toks) - 1 != len(x):
                raise ValueError("input count mismatch")
            env.update(zip(toks[1:], x))
            continue
        if toks[0] == "output":
            outputs = [env[t] for t in toks[1:]]
            continue
        name, _, op, *args = toks
        if op == "const":
            env[name] = float(args[0])
            continue
        if op == "pow":
            env[name] = env[args[0]] ** float(args[1])
            continue
        vals = [env[a] for a in args]
        if op == "add":
            env[name] = vals[0] + vals[1]
        elif op == "sub":
            env[name] = vals[0] - vals[1]
        elif op == "mul":
            env[name] = vals[0] * vals[1]
        elif op == "neg":
            env[name] = -vals[0]
        elif op == "recip":
            env[name] = 1.0 / vals[0]
        else:
            env[name] = funcs[op](vals[0])
    return outputs


def complex_step_jvp(text: str, x, v, h: float = 1e-30) -> list[float]:
    """J(x) v by the complex-step method: exact to rounding, no cancellation."""
    z = [complex(xi, h * vi) for xi, vi in zip(x, v)]
    return [out.imag / h for out in evaluate(text, z, _COMPLEX)]


def second_directional(text: str, x, u, v, h: float = 2e-6) -> float:
    """u^T H(x) v of the first output: a central difference along u of the
    complex-step J v.  Its error is about h^2 |D^3 f| / 6 + eps |J v| / h;
    on the benchmark's programs it stays near 1e-9."""
    def jv(sign: float) -> float:
        return complex_step_jvp(
            text, [xi + sign * h * ui for xi, ui in zip(x, u)], v)[0]
    return (jv(1.0) - jv(-1.0)) / (2.0 * h)
