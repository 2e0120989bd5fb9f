"""Command-line surface: eval, grad, taylor, check, bench.

Exit codes: 0 success, 1 check or bench violation, 2 usage/parse error,
3 numeric/domain error.  All reports are JSON; given --seed the output is
byte-stable apart from timing fields.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

import numpy as np

from .bench import (DEFAULT_DIMS, bench_program, run_nested_bench,
                    run_weil_bench)
from .checks import SUITES, run_suite
from .errors import (DomainError, JetweilError, NumericOverflowError,
                     ParseError, ShapeTooLargeError)
from .jets import SeedSpec, coefficient_envelope, tail_bound, taylor_eval
from .modes import pairing_residual, vjp
from .oracle import finite_difference
from .slp import eval_primal, parse_program, random_program
from .weil import DEFAULT_MAX_DIM

SLOPE_WINDOW = (0.8, 1.3)


def _floats(text: str) -> list[float]:
    """The CSV values, refusing NaN (it fails no comparison) and inf."""
    out = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite value in {text!r}")
    return out


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _dirs(text: str) -> list[list[float]]:
    return [_floats(part) for part in text.split(";") if part.strip()]


def _load(path: str):
    with open(path) as fh:
        return parse_program(fh.read())


def _resolve_max_dim(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("JETWEIL_MAX_DIM")
    return int(env) if env else DEFAULT_MAX_DIM


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_eval(args) -> int:
    prog = _load(args.program)
    outputs = eval_primal(prog, _floats(args.x))
    if args.json:
        _emit({"outputs": outputs})
    else:
        print(" ".join(repr(v) for v in outputs))
    return 0


def cmd_grad(args) -> int:
    prog = _load(args.program)
    x = _floats(args.x)
    if args.omega is not None:
        omega = _floats(args.omega)
    elif prog.n_outputs == 1:
        omega = [1.0]
    else:
        print("error: program has multiple outputs; pass --omega",
              file=sys.stderr)
        return 2
    grad = vjp(prog, x, omega)
    payload: dict = {"gradient": grad}
    if args.check:
        rng = random.Random(args.seed)
        v = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
        residual = pairing_residual(prog, x, v, omega)
        fd_diff = 0.0
        for i in range(prog.n_inputs):
            alpha = tuple(1 if j == i else 0 for j in range(prog.n_inputs))
            est = float(np.dot(omega, finite_difference(prog, x, alpha)))
            fd_diff = max(fd_diff, abs(est - grad[i]))
        payload["check"] = {"pairing_residual": residual,
                            "fd_max_abs_diff": fd_diff}
    if args.json:
        _emit(payload)
    else:
        print(" ".join(repr(v) for v in grad))
        if args.check:
            print(f"pairing_residual {payload['check']['pairing_residual']!r}")
            print(f"fd_max_abs_diff {payload['check']['fd_max_abs_diff']!r}")
    return 0


def cmd_taylor(args) -> int:
    prog = _load(args.program)
    spec = SeedSpec(base=tuple(_floats(args.x)),
                    directions=tuple(tuple(d) for d in _dirs(args.dirs)),
                    caps=tuple(_ints(args.caps)))
    table = taylor_eval(prog, spec, max_dim=_resolve_max_dim(args.max_dim))
    payload = table.to_json_dict()
    if args.envelope:
        report = coefficient_envelope(table, _floats(args.envelope))
        payload["envelope"] = report.to_json_dict()
    if args.tail:
        m_next, rho = _floats(args.tail)
        k = sum(spec.caps)
        payload["tail_bound"] = {"m_next": m_next, "rho": rho, "k": k,
                                 "value": tail_bound(m_next, k, rho)}
    _emit(payload)
    if args.envelope and not payload["envelope"]["passed"]:
        return 1
    return 0


def cmd_check(args) -> int:
    if not (math.isfinite(args.delta_const) and args.delta_const >= 0.0):
        raise ValueError("--delta-const must be finite and >= 0")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    results = []
    for name in names:
        kwargs = ({"delta_const": args.delta_const} if name == "stability"
                  else {})
        res = run_suite(name, count=args.count, seed=args.seed, **kwargs)
        row = res.to_json_dict()
        del row["notes"]
        results.append(row)
        failed = failed or not res.passed
        print(f"{name}: count={res.count} "
              f"max_residual={res.max_residual:.3e} "
              f"violations={res.violations} "
              f"{'PASS' if res.passed else 'FAIL'}")
    if args.json:
        _emit({"results": results})
    return 1 if failed else 0


def _bench_family(family: str, args) -> dict:
    prog = bench_program(family, q=args.q, seed=args.seed)
    batch = args.batch if family == "linear" else max(args.batch // 4, 128)
    report = run_weil_bench(prog, family, dims=tuple(args.dims),
                            repetitions=args.repetitions, batch=batch,
                            seed=args.seed)
    return report.to_json_dict()


def cmd_bench(args) -> int:
    families = ["linear", "mul"] if args.family == "both" else [args.family]
    reports = [_bench_family(f, args) for f in families]

    nested_prog = random_program(seed=args.seed, depth=20, n_inputs=2)
    nested = run_nested_bench(nested_prog, [0.3, 0.4],
                              [(1.0, 0.0), (0.0, 1.0)], k=2,
                              repetitions=args.repetitions)
    payload = {"reports": reports, "nested": nested,
               "slope_window": list(SLOPE_WINDOW)}
    violation = False
    for rep in reports:
        if rep["family"] == "linear":
            ok = SLOPE_WINDOW[0] <= rep["slope"] <= SLOPE_WINDOW[1]
            rep["slope_in_window"] = ok
            violation = violation or not ok
        else:
            # convolution cost caveat: reported, never gated
            rep["slope_in_window"] = None
    _emit(payload)
    return 1 if violation else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jetweil",
        description="higher-order automatic differentiation over "
                    "truncated coefficient algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a program")
    p_eval.add_argument("program")
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_grad = sub.add_parser("grad", help="reverse-mode gradient")
    p_grad.add_argument("program")
    p_grad.add_argument("--x", required=True)
    p_grad.add_argument("--omega")
    p_grad.add_argument("--check", action="store_true")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--json", action="store_true")
    p_grad.set_defaults(fn=cmd_grad)

    p_taylor = sub.add_parser("taylor", help="mixed derivative table")
    p_taylor.add_argument("program")
    p_taylor.add_argument("--x", required=True)
    p_taylor.add_argument("--dirs", required=True)
    p_taylor.add_argument("--caps", required=True)
    p_taylor.add_argument("--envelope")
    p_taylor.add_argument("--tail")
    p_taylor.add_argument("--max-dim", type=int, default=None)
    p_taylor.add_argument("--json", action="store_true")
    p_taylor.set_defaults(fn=cmd_taylor)

    p_check = sub.add_parser("check", help="randomized verification suites")
    p_check.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_check.add_argument("--count", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--delta-const", type=float, default=4.0)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_bench = sub.add_parser("bench", help="scaling benchmark")
    p_bench.add_argument("--family", choices=["linear", "mul", "both"],
                         default="both")
    p_bench.add_argument("--q", type=int, default=500)
    p_bench.add_argument("--dims", type=_ints, default=DEFAULT_DIMS)
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.add_argument("--batch", type=int, default=2048)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


# Options taking a CSV vector, whose value may begin with a minus sign.
_VECTOR_OPTIONS = ("--x", "--dirs", "--omega", "--envelope", "--tail")


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """Rewrite ``--x -0.5,0.3`` as ``--x=-0.5,0.3``.

    argparse reads a value that starts with '-' and is not a plain negative
    number as an option, and then reports the vector option as missing its
    argument.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _VECTOR_OPTIONS and nxt.startswith("-"):
            try:
                _dirs(nxt)
            except ValueError:
                pass
            else:
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_vectors(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ShapeTooLargeError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except (DomainError, NumericOverflowError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, JetweilError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
