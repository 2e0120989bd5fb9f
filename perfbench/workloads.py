"""The three request workloads and the independent check of every reply.

A workload is a list of requests made from the seed.  Each request has a
``run`` callable, the operation that is timed, and a ``check`` that
compares the reply with reference results computed during set-up from
code paths other than the one timed.  Requests are laid out as a fixed
grid of cells (program family and size, cap vector, batch size, ...) that
is the same on every seed.  The programs come from the fixed CORPUS_SEED;
the workload seed draws the points, directions, cotangents and check-suite
seeds, and the order of the requests.  A lifted pass costs the same at
every point, so a run's work does not depend on the seed, while every
reply still has to be checked afresh.

Domain-edge requests (``edge=True``) ask for a value outside a primitive's
domain; so does a ``check`` whose suite evaluates a value past the float
range.  The correct reply is a numeric error: exit code 3 from the CLI,
with nothing but strict JSON on stdout and no exception escaping.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corpus

# Program structure is the same on every seed: with programs drawn from
# the workload seed, throughput moved by up to 10% from seed to seed.
CORPUS_SEED = 0

# Relative tolerances, scaled by max(1, |reference|).
TOL_EXACT = 1e-12     # same arithmetic up to summation order
TOL_NESTED = 1e-5     # nested_jvp_schedule fits order 2 from first-order rays
TOL_SECOND = 1e-7     # central difference of complex-step J v, step 2e-6
TOL_FD = 1e-6         # central differences with h ~ eps^(1/3)
TOL_FORWARD = 1e-10   # two exact-to-rounding first-order methods
TOL_PAIRING = 1e-10   # the duality suite's bound on the adjoint pairing


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the reply is right
    edge: bool = False


@dataclass
class Workload:
    schedule: list[Request]   # the closed loop cycles through this list
    warmup: list[Request]     # run once during set-up, never timed
    trace_count: int          # leading requests replayed by a traced pass


def _gap(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(jw, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``jetweil`` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = jw.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_numeric_error(reply) -> str | None:
    code, out, _ = reply
    if code != 3:
        return f"exit {code}, expected 3"
    if out.strip():
        strict_json(out)
    return None


class _Files:
    """Program files for CLI requests, one per request, under the work dir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        path = self.workdir / f"p{self.count}.jw"
        self.count += 1
        path.write_text(text)
        return str(path)


def _edge_requests(jw, files: _Files, commands: tuple[str, ...],
                   kinds=tuple(k for k, _, _ in corpus.EDGE_CASES)
                   ) -> list[Request]:
    out = []
    for command in commands:
        for kind, line, value in corpus.EDGE_CASES:
            if kind not in kinds:
                continue
            argv = [command, files.write(corpus.edge_program(line)),
                    f"--x={value!r}"]
            if command == "taylor":
                argv += ["--dirs=1.0", "--caps=2"]
            argv.append("--json")
            out.append(Request(f"{command} edge {kind}@{value:g}",
                               lambda argv=argv: run_cli(jw, argv),
                               _check_numeric_error, edge=True))
    return out


def _spread(regular: list[Request], edges: list[Request]) -> list[Request]:
    """Insert the edge requests at evenly spaced positions."""
    out = list(regular)
    for k, req in enumerate(edges):
        out.insert(len(regular) * (k + 1) // (len(edges) + 1) + k, req)
    return out


# -- taylor-scalar ---------------------------------------------------------

SCALAR_SIZES = (20, 50, 120, 300)
SCALAR_CAPS = (tuple((k,) for k in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15))
               + tuple((k, k) for k in (1, 2, 3, 4))
               + tuple((1,) * p for p in (4, 5, 6)))
# 300-node programs take only cap vectors of dimension <= 9 and (k,k,k)
# only 20-node ones, so that one pass stays near 3 s: the host's slow
# spells last tens of seconds, and a run needs many sends of each request
# for its fastest one to fall outside them
LONG_MAX_DIM = 9
SHORT_SIZES = (20,)
SHORT_CAPS = tuple((k, k, k) for k in (1, 2, 3, 4))
POLY_INPUTS = (1, 2, 3, 4) * 7
SCALAR_CHECKS = 2   # requests per lifted check suite


def _taylor_argv(path: str, x, dirs, caps) -> list[str]:
    return ["taylor", path, f"--x={_csv(x)}",
            "--dirs=" + ";".join(_csv(d) for d in dirs),
            "--caps=" + ",".join(str(c) for c in caps), "--json"]


def _check_table(refs: dict, dim: int):
    def check(reply) -> str | None:
        code, out, _ = reply
        if code != 0:
            return f"exit {code}"
        entries = {tuple(e["alpha"]): e["value"]
                   for e in strict_json(out)["entries"]}
        if len(entries) != dim:
            return f"{len(entries)} entries, expected {dim}"
        for alpha, (ref, tol) in refs.items():
            got = entries[alpha][0]
            if _gap(got, ref) > tol:
                return f"entry {alpha}: {got!r} vs reference {ref!r}"
        return None
    return check


def _scalar_request(jw, files: _Files, shapes: random.Random,
                    rng: random.Random, size: int,
                    caps: tuple[int, ...]) -> Request:
    n = shapes.randint(1, 4)
    text = corpus.safe_random_text(shapes, size, n)
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    dirs = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in caps]
    prog = jw.slp.parse_program(text)
    p = len(caps)
    # order 0 from the text evaluator, order 1 from forward mode, order 2
    # from differences of complex-step products J v
    refs = {(0,) * p: (corpus.evaluate(text, x)[0], TOL_EXACT)}
    for i, j in itertools.combinations_with_replacement(range(p), 2):
        alpha = tuple((i == m) + (j == m) for m in range(p))
        if all(a <= c for a, c in zip(alpha, caps)):
            refs[alpha] = (corpus.second_directional(text, x, dirs[i],
                                                     dirs[j]), TOL_SECOND)
    for j, v in enumerate(dirs):
        alpha = tuple(int(i == j) for i in range(p))
        refs[alpha] = (jw.modes.jvp(prog, x, v)[0], TOL_EXACT)
    argv = _taylor_argv(files.write(text), x, dirs, caps)
    return Request(f"taylor n={size} caps={caps}",
                   lambda: run_cli(jw, argv),
                   _check_table(refs, math.prod(c + 1 for c in caps)))


def _poly_request(jw, files: _Files, shapes: random.Random,
                  rng: random.Random, n: int) -> Request:
    text = corpus.polynomial_text(shapes, n, shapes.randint(4, 14),
                                  max_degree=6)
    prog = jw.slp.parse_program(text)
    [poly] = jw.oracle.symbolic_eval(prog)
    caps = tuple(max(1, min(4, max((e[j] for e in poly.terms), default=0)))
                 for j in range(n))
    dirs = [[float(i == j) for i in range(n)] for j in range(n)]
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    refs = {alpha: (jw.oracle.symbolic_partial(poly, alpha, x), TOL_EXACT)
            for alpha in np.ndindex(*(c + 1 for c in caps))}
    argv = _taylor_argv(files.write(text), x, dirs, caps)
    return Request(f"taylor polynomial caps={caps}",
                   lambda: run_cli(jw, argv),
                   _check_table(refs, math.prod(c + 1 for c in caps)))


def taylor_scalar(jw, seed: int, workdir: Path) -> Workload:
    shapes, rng = random.Random(CORPUS_SEED), random.Random(seed)
    files = _Files(workdir)
    cells = [(s, c) for s in SCALAR_SIZES for c in SCALAR_CAPS
             if s < 300 or math.prod(k + 1 for k in c) <= LONG_MAX_DIM]
    cells += [(s, c) for s in SHORT_SIZES for c in SHORT_CAPS]
    cells += [("poly", n) for n in POLY_INPUTS]
    regular = [_poly_request(jw, files, shapes, rng, caps) if size == "poly"
               else _scalar_request(jw, files, shapes, rng, size, caps)
               for size, caps in cells]
    # the check suites that lift, as CLI requests, and about 3% of the
    # requests on a domain edge
    regular += [_check_request(jw, suite, CHECK_COUNTS[suite],
                               rng.randrange(10 ** 6))
                for suite in LIFTED_SUITES for _ in range(SCALAR_CHECKS)]
    rng.shuffle(regular)
    schedule = _spread(regular, _edge_requests(
        jw, files, ("taylor",), kinds=("exp", "pow0.5", "recip")))
    warm = random.Random(seed + 1)
    warmup = [_scalar_request(jw, files, warm, warm, 5, c)
              for c in SCALAR_CAPS + SHORT_CAPS]
    warmup += [_check_request(jw, suite, 2, seed) for suite in LIFTED_SUITES]
    return Workload(schedule, warmup, trace_count=len(schedule))


# -- first-order -----------------------------------------------------------

FIRST_SIZES = (10, 30, 60, 120)
FIRST_OPS = ("eval_primal", "jvp", "vjp", "stability_bound",
             "nested_jvp_schedule", "grad --check")
FIRST_ROUNDS = 10


def _first_request(jw, files: _Files, shapes: random.Random,
                   rng: random.Random, size: int, op: str) -> Request:
    n = shapes.randint(1, 4)
    text = corpus.safe_random_text(shapes, size, n)
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    prog = jw.slp.parse_program(text)
    label = f"{op} n={size}"
    if op == "eval_primal":
        ref = corpus.evaluate(text, x)[0]

        def run():
            return jw.slp.eval_primal(jw.slp.parse_program(text), x)

        def check(out):
            return None if _gap(out[0], ref) <= TOL_EXACT else \
                f"{out[0]!r} vs reference {ref!r}"
        return Request(label, run, check)
    if op == "jvp":
        v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        ref = corpus.complex_step_jvp(text, x, v)[0]

        def run():
            return jw.modes.jvp(jw.slp.parse_program(text), x, v)

        def check(out):
            return None if _gap(out[0], ref) <= TOL_FORWARD else \
                f"{out[0]!r} vs complex step {ref!r}"
        return Request(label, run, check)
    if op == "nested_jvp_schedule":
        dirs = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(2)]
        spec = jw.jets.SeedSpec(tuple(x), tuple(map(tuple, dirs)), (2, 2))
        exact = jw.jets.taylor_eval(prog, spec)
        refs = {a: float(exact.entry(a)[0]) for a in exact.entries
                if sum(a) <= 2}

        def run():
            return jw.oracle.nested_jvp_schedule(jw.slp.parse_program(text),
                                                 x, dirs, 2)

        def check(out):
            table, count, _ = out
            if count.passes != math.comb(2 + 2, 2):
                return f"{count.passes} passes, expected 6"
            for alpha, ref in refs.items():
                got = float(table.entry(alpha)[0])
                if _gap(got, ref) > TOL_NESTED:
                    return f"entry {alpha}: {got!r} vs lifted {ref!r}"
            return None
        return Request(label, run, check)
    # vjp, stability_bound and grad --check share the finite-difference
    # gradient; the CLI pulls back the cotangent 1
    w = 1.0 if op == "grad --check" else rng.uniform(-1.0, 1.0)
    grad = [w * float(jw.oracle.finite_difference(
        prog, x, tuple(int(i == j) for i in range(n)))[0]) for j in range(n)]
    if op == "grad --check":
        argv = ["grad", files.write(text), f"--x={_csv(x)}", "--check",
                f"--seed={rng.randrange(10 ** 6)}", "--json"]
        fd_limit = TOL_FD * max(1.0, *map(abs, grad))

        def check(reply):
            code, out, _ = reply
            if code != 0:
                return f"exit {code}"
            payload = strict_json(out)
            for got, ref in zip(payload["gradient"], grad):
                if _gap(got, ref) > TOL_FD:
                    return f"{got!r} vs finite difference {ref!r}"
            residual = payload["check"]["pairing_residual"]
            if not residual <= TOL_PAIRING:
                return f"pairing residual {residual!r}"
            if not payload["check"]["fd_max_abs_diff"] <= fd_limit:
                return f"fd_max_abs_diff {payload['check']['fd_max_abs_diff']!r}"
            return None
        return Request(label, lambda: run_cli(jw, argv), check)
    if op == "vjp":
        def run():
            return jw.modes.vjp(jw.slp.parse_program(text), x, [w])

        def check(out):
            for got, ref in zip(out, grad):
                if _gap(got, ref) > TOL_FD:
                    return f"{got!r} vs finite difference {ref!r}"
            return None
        return Request(label, run, check)
    norm = math.hypot(*grad)

    def run():
        return jw.stability.stability_bound(jw.slp.parse_program(text), x, [w])

    def check(rep):
        if not math.isfinite(rep.product_bound):
            return "non-finite bound"
        if rep.observed_norm > rep.product_bound:
            return "observed norm above the bound"
        if _gap(rep.observed_norm, norm) > TOL_FD:
            return f"norm {rep.observed_norm!r} vs finite difference {norm!r}"
        return None
    return Request(label, run, check)


def first_order(jw, seed: int, workdir: Path) -> Workload:
    shapes, rng = random.Random(CORPUS_SEED), random.Random(seed)
    files = _Files(workdir)
    edges = _edge_requests(jw, files, ("eval", "grad"))
    cells = [(s, op) for s in FIRST_SIZES for op in FIRST_OPS]
    schedule = []
    for r in range(FIRST_ROUNDS):
        round_ = [_first_request(jw, files, shapes, rng, s, op)
                  for s, op in cells]
        rng.shuffle(round_)
        # one check suite that does not lift and one CLI request on a
        # domain edge per round
        suite = SCALAR_SUITES[r % len(SCALAR_SUITES)]
        schedule += _spread(round_, [
            _check_request(jw, suite, CHECK_COUNTS[suite],
                           rng.randrange(10 ** 6)),
            edges[r % len(edges)]])
    per_round = len(cells) + 2
    return Workload(schedule, schedule[:per_round], trace_count=per_round)


# -- taylor-batched --------------------------------------------------------

# program sizes keep one pass near 2.5 s, for the reason given at
# LONG_MAX_DIM; a pass's cost per node is what the batch size sets
BATCH_FAMILIES = (("random", 20), ("linear", 50), ("mulheavy", 30))
BATCH_CAPS = ((1, 1), (1, 1, 1), (1,) * 4, (1,) * 5, (1,) * 6, (2, 2),
              (2, 2, 2))
BATCH_SIZES = (128, 512, 2048)
BATCH_INPUTS = 3
BATCH_ROUNDS = 2


def _batched_request(jw, shapes: random.Random, rng: random.Random,
                     family: str, size: int, caps: tuple[int, ...],
                     batch: int) -> Request:
    n, p = BATCH_INPUTS, len(caps)
    gen = np.random.default_rng(rng.randrange(2 ** 32))
    if family == "mulheavy":
        text = corpus.mulheavy_text(shapes, size, n)
        # inside the polydisc the family's finiteness bound is stated for
        x = gen.choice([-1.0, 1.0], (n, batch)) * gen.uniform(0.9, 1.1,
                                                              (n, batch))
        reach = (corpus.MUL_RADIUS - 1.1) / p
        v = gen.uniform(-reach, reach, (p, n, batch))
    else:
        text = (corpus.linear_text(shapes, size, n) if family == "linear"
                else corpus.safe_random_text(shapes, size, n))
        x = gen.uniform(-1.0, 1.0, (n, batch))
        v = gen.uniform(-1.0, 1.0, (p, n, batch))
    prog = jw.slp.parse_program(text)
    shape = jw.weil.make_shape(caps)
    inputs = []
    for i in range(n):
        coeffs = np.zeros((shape.dim, batch))
        coeffs[0] = x[i]
        for j, stride in enumerate(shape.strides):
            coeffs[stride] = v[j, i]
        inputs.append(jw.weil.WeilValue(shape, coeffs))
    # one column against batch-1 taylor_eval and forward mode
    col = rng.randrange(batch)
    base = [float(x[i, col]) for i in range(n)]
    dirs = [[float(v[j, i, col]) for i in range(n)] for j in range(p)]
    table = jw.jets.taylor_eval(
        prog, jw.jets.SeedSpec(tuple(base), tuple(map(tuple, dirs)), caps))
    ref = np.array([table.coeffs[a][0] for a in shape.multi_indices()])
    first = [jw.modes.jvp(prog, base, d)[0] for d in dirs]

    def run():
        return jw.slp.eval_generic(
            prog, inputs, jw.jets.WeilSemantics(shape, batch_shape=(batch,)))

    def check(outputs) -> str | None:
        coeffs = outputs[0].coeffs
        if not np.isfinite(coeffs).all():
            return "non-finite coefficient"
        got = coeffs[:, col]
        gap = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        if gap.max() > TOL_EXACT:
            return f"column {col} off batch-1 taylor_eval by {gap.max():.3g}"
        for stride, jv in zip(shape.strides, first):
            if _gap(float(got[stride]), jv) > TOL_FORWARD:
                return f"order-1 coefficient {got[stride]!r} vs jvp {jv!r}"
        return None
    return Request(f"batched {family} caps={caps} B={batch}", run, check)


def taylor_batched(jw, seed: int, workdir: Path) -> Workload:
    shapes, rng = random.Random(CORPUS_SEED), random.Random(seed)
    cells = [(f, s, c, b) for f, s in BATCH_FAMILIES for c in BATCH_CAPS
             for b in BATCH_SIZES]
    schedule = []
    for _ in range(BATCH_ROUNDS):
        round_ = [_batched_request(jw, shapes, rng, *cell) for cell in cells]
        rng.shuffle(round_)
        schedule += round_
    warm = random.Random(seed + 1)
    warmup = [_batched_request(jw, warm, warm, "linear", 5, c, b)
              for c in BATCH_CAPS for b in BATCH_SIZES]
    return Workload(schedule, warmup, trace_count=len(cells))


# -- check requests --------------------------------------------------------

# `jetweil check <suite>`: the suites that evaluate only first-order modes
# run on first-order, those that lift run on taylor-scalar.  Instance counts
# make one check cost about as much as a median request of its workload.
SCALAR_SUITES = ("duality", "functoriality", "stability")
LIFTED_SUITES = ("exactness", "envelope", "truncation")
CHECK_COUNTS = {"duality": 7, "functoriality": 4, "stability": 4,
                "exactness": 20, "envelope": 50, "truncation": 85}


def _suite_points(jw, suite: str, count: int, seed: int):
    """(program texts, point) of each instance of a suite that evaluates
    ``random_program``, drawn as ``jetweil.checks`` draws them.

    A functoriality instance yields f, then g applied to f's output.
    """
    rng = random.Random(seed)

    def draw(prog_seed: int, max_depth: int, max_inputs: int):
        depth = rng.randint(1, max_depth)
        n = rng.randint(1, max_inputs) if max_inputs > 1 else 1
        return corpus.program_text(jw.slp.random_program(
            seed=prog_seed, depth=depth, n_inputs=n)), n

    for i in range(count):
        if suite == "duality":
            text, n = draw(seed * 100003 + i, 50, 8)
            texts, draws = [text], 2 * n + 1   # x, v, omega
        elif suite == "stability":
            text, n = draw(seed * 104729 + i, 40, 6)
            texts, draws = [text], n + 1       # x, omega
        elif suite == "functoriality":
            f, n = draw(seed * 7919 + 2 * i, 25, 4)
            g, _ = draw(seed * 7919 + 2 * i + 1, 25, 1)
            texts, draws = [f, g], n + 1       # x, omega
        else:
            return
        values = [rng.uniform(-1.0, 1.0) for _ in range(draws)]
        yield texts, values[:n]


def _reaches_edge(jw, suite: str, count: int, seed: int) -> bool:
    """Whether an instance of the suite leaves the float range.

    ``random_program(safe=True)`` does not bound its values: nested
    ``exp`` and ``pow`` can pass 1e308 on inputs in [-1, 1], where
    ``math.exp`` raises.  The check is then a domain-edge request.
    """
    for texts, x in _suite_points(jw, suite, count, seed):
        for text in texts:
            if corpus.overflows(text, x):
                return True
            x = corpus.evaluate(text, x)
    return False


def _check_request(jw, suite: str, count: int, seed: int) -> Request:
    argv = ["check", suite, "--count", str(count), "--seed", str(seed),
            "--json"]
    if _reaches_edge(jw, suite, count, seed):
        return Request(f"check {suite} x{count} edge",
                       lambda: run_cli(jw, argv), _check_numeric_error,
                       edge=True)
    first_reply: list[str] = []

    def check(reply) -> str | None:
        code, out, _ = reply
        if code != 0:
            return f"exit {code}"
        [result] = strict_json(out[out.index("{"):])["results"]
        if (result["suite"], result["count"]) != (suite, count):
            return f"reported {result['suite']} x{result['count']}"
        if not result["passed"] or result["violations"]:
            return f"{result['violations']} violations"
        # tolerance 0 marks the bound suites, whose residual is a ratio to
        # the bound; the envelope suite allows it 1e-12 of rounding slack
        limit = result["tolerance"] or 1.0 + 1e-12
        if not result["max_residual"] <= limit:
            return f"max_residual {result['max_residual']!r} above {limit!r}"
        if first_reply and out != first_reply[0]:
            return "output differs from the first run of the same request"
        first_reply[:] = [out]
        return None
    return Request(f"check {suite} x{count}", lambda: run_cli(jw, argv),
                   check)


WORKLOADS = {
    "taylor-scalar": taylor_scalar,
    "taylor-batched": taylor_batched,
    "first-order": first_order,
}
