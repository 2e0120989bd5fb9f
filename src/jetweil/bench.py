"""Scaling benchmark: lifted evaluation cost versus coefficient-array size.

The claim under test is that one lifted pass costs O(dim W) per primitive
for the cheap primitive family.  Per-node interpreter overhead would mask
that entirely at small dims, so timing runs evaluate a batch of seeds at
once: every primitive then touches Theta(dim * batch) memory and the numpy
kernel cost dominates.

Two generated program families keep the convolution caveat visible:
multiplication of two full coefficient arrays is not O(dim) under the
dense truncated-convolution kernel, so the mul-heavy slope is reported
but never gated.
"""
from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .jets import WeilSemantics
from .oracle import nested_jvp_schedule
from .slp import Node, PrimitiveKind, Program, eval_generic
from .weil import WeilValue, make_shape

DEFAULT_DIMS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class BenchRun:
    dim: int
    caps: tuple[int, ...]
    t_min: float
    t_median: float
    repetitions: int
    peak_coeff_bytes: int


@dataclass(frozen=True)
class BenchReport:
    program_id: str
    family: str
    q: int
    mode: str                    # "weil" or "nested"
    runs: tuple[BenchRun, ...]
    slope: float
    intercept: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


_LINEAR_TABLE = [
    (PrimitiveKind.ADD, 0.55),
    (PrimitiveKind.SUB, 0.25),
    (PrimitiveKind.NEG, 0.15),
    (PrimitiveKind.CONST, 0.05),
]

_MUL_TABLE = [
    (PrimitiveKind.MUL, 0.60),
    (PrimitiveKind.ADD, 0.30),  # and the draws past 0.9
]


def bench_program(family: str, q: int = 500, n_inputs: int = 2,
                  seed: int = 0) -> Program:
    """Fixed-size generated program for one of the two benchmark families.

    "linear" draws from add/sub/neg/const, the family whose lifted cost is
    linear in dim W; "mul" is dominated by full coefficient products.  Its
    slots carry majorants of sum |c_alpha| / 64**|alpha| (submultiplicative;
    below 1 for ``_batched_seed``'s inputs in up to 6 directions), and a node
    whose majorant would pass 1e40 multiplies a by the slot of the least one
    instead, so every coefficient stays below 1e40 * 64**6.  It has no
    sub, which can cancel exactly ((x + t) - (t + x)), and every product
    the 0 reaches keeps it.
    """
    if family == "linear":
        table = _LINEAR_TABLE
    elif family == "mul":
        table = _MUL_TABLE
    else:
        raise ValueError(f"unknown benchmark family {family!r}")
    rng = random.Random(seed)
    nodes: list[Node] = []
    bound = [0.8 + 6 / 64] * n_inputs  # the mul family's majorants

    def pick() -> int:
        n = n_inputs + len(nodes)
        return n - 1 - min(int(abs(rng.gauss(0.0, 5.0))), n - 1)

    while len(nodes) < q:
        r = rng.random()
        acc = 0.0
        op = table[-1][0]
        for cand, w in table:
            acc += w
            if r < acc:
                op = cand
                break
        if op is PrimitiveKind.CONST:
            nodes.append(Node(op, (), rng.uniform(-1.0, 1.0)))
        elif op is PrimitiveKind.NEG:
            nodes.append(Node(op, (pick(),)))
        else:
            a, b = pick(), pick()
            if family == "mul":
                m = (bound[a] * bound[b] if op is PrimitiveKind.MUL
                     else bound[a] + bound[b])
                if m > 1e40:
                    op = PrimitiveKind.MUL
                    b = min(range(len(bound)), key=bound.__getitem__)
                    m = bound[a] * bound[b]
                bound.append(m)
            nodes.append(Node(op, (a, b)))
    return Program(n_inputs=n_inputs, nodes=tuple(nodes),
                   outputs=(n_inputs + q - 1,))


def _batched_seed(prog: Program, shape, batch: int,
                  rng: random.Random) -> list[WeilValue]:
    out = []
    for _ in range(prog.n_inputs):
        coeffs = np.zeros((shape.dim, batch))
        coeffs[0] = rng.uniform(0.2, 0.8)
        for j, stride in enumerate(shape.strides):
            coeffs[stride] = rng.uniform(-1.0, 1.0)
        out.append(WeilValue(shape, coeffs))
    return out


def fit_slope(dims: Sequence[int],
              times: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope/intercept of log(time) against log(dim)."""
    slope, intercept = np.polyfit(np.log(np.asarray(dims, dtype=float)),
                                  np.log(np.asarray(times, dtype=float)), 1)
    return float(slope), float(intercept)


def run_weil_bench(prog: Program, family: str,
                   dims: Sequence[int] = DEFAULT_DIMS,
                   repetitions: int = 5, warmup: int = 2,
                   batch: int = 2048, seed: int = 0) -> BenchReport:
    """Time one lifted pass per cap vector; caps are [1]*p with 2^p = dim.
    The dims are timed interleaved: ``warmup`` rounds, then ``repetitions``
    rounds of one pass per dim, so that a burst of host load falls on every
    dim alike."""
    if len(set(dims)) < 5:
        raise ValueError("cap schedule must yield at least 5 distinct dims")
    rng = random.Random(seed)
    cells = []
    for dim in dims:
        p = int(dim).bit_length() - 1
        if 2 ** p != dim:
            raise ValueError(f"benchmark dims must be powers of two, got {dim}")
        shape = make_shape((1,) * p)
        cells.append((shape, _batched_seed(prog, shape, batch, rng),
                      WeilSemantics(shape, batch_shape=(batch,)), []))
    for rep in range(warmup + repetitions):
        for _, inputs, sem, times in cells:
            t0 = time.perf_counter()
            eval_generic(prog, inputs, sem)
            t1 = time.perf_counter()
            if rep >= warmup:
                times.append(t1 - t0)
    runs = [BenchRun(dim=shape.dim, caps=shape.caps,
                     t_min=min(times), t_median=float(np.median(times)),
                     repetitions=repetitions,
                     peak_coeff_bytes=prog.peak_live * shape.dim * batch * 8)
            for shape, _, _, times in cells]
    slope, intercept = fit_slope([r.dim for r in runs],
                                 [r.t_median for r in runs])
    return BenchReport(
        program_id=f"{family}-q{prog.n_nodes}-seed{seed}",
        family=family, q=prog.n_nodes, mode="weil",
        runs=tuple(runs), slope=slope, intercept=intercept,
        meta=_meta(repetitions, batch))


def run_nested_bench(prog: Program, x: Sequence[float],
                     directions: Sequence[Sequence[float]], k: int,
                     repetitions: int = 5, warmup: int = 2) -> dict:
    """Pass count and wall time of the first-order baseline schedule."""
    times = []
    count = None
    for rep in range(warmup + repetitions):
        t0 = time.perf_counter()
        _, count, _ = nested_jvp_schedule(prog, x, directions, k)
        t1 = time.perf_counter()
        if rep >= warmup:
            times.append(t1 - t0)
    return {
        "mode": "nested",
        "p": count.p,
        "k": count.k,
        "passes": count.passes,
        "t_min": min(times),
        "t_median": float(np.median(times)),
        "repetitions": repetitions,
    }


def _meta(repetitions: int, batch: int) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "precision": "float64",
        "repetitions": repetitions,
        "batch": batch,
    }
