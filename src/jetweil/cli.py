"""Command-line surface: eval, grad, taylor, check, bench.

Exit codes: 0 success, 1 check or bench violation, 2 usage/parse error or
a closed stdout, 3 numeric/domain error.  All reports are JSON; given --seed
the output is byte-stable apart from timing fields.
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
from .jets import (SeedSpec, check_envelope_args, coefficient_envelope,
                   tail_bound, taylor_eval)
from .modes import vjp, vjp_and_pairing
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
    """Print ``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    A taylor table's ``entries`` go through one ``%`` template per row,
    spliced in where json.dumps writes the rest of the payload with entries
    None: with ``indent`` set, json runs its pure-Python encoder, which spent
    most of its time on the per-entry dicts.  A line that starts with two
    spaces and a quote holds a top-level key, so the splice is exact.
    """
    if "entries" not in payload:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    text = json.dumps(dict(payload, entries=None), indent=2, sort_keys=True)
    entries = payload["entries"]
    row = _entry_template(len(entries[0]["alpha"]), len(entries[0]["coeff"]))
    rows = ",\n".join([row % (*e["alpha"], *e["coeff"], *e["value"])
                       for e in entries])
    print(text.replace('\n  "entries": null',
                       '\n  "entries": [\n' + rows + "\n  ]", 1))


@functools.lru_cache(maxsize=None)
def _entry_template(p: int, m: int) -> str:
    """One entry of p alpha indices (%d) and m outputs (%r: float.__repr__,
    which json uses for finite floats; a table holds no others), laid out
    as json.dumps(indent=2, sort_keys=True) lays out a top-level list."""
    def field(key: str, spec: str, n: int) -> str:
        return (f'      "{key}": [\n' + ",\n".join([f"        {spec}"] * n)
                + "\n      ]")
    return ("    {\n" + ",\n".join([field("alpha", "%d", p),
                                     field("coeff", "%r", m),
                                     field("value", "%r", m)]) + "\n    }")


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
    payload: dict = {}
    if args.check:
        rng = random.Random(args.seed)
        v = [rng.uniform(-1.0, 1.0) for _ in range(prog.n_inputs)]
        grad, residual = vjp_and_pairing(prog, x, omega, v)
        fd_diff = 0.0
        for i in range(prog.n_inputs):
            alpha = tuple(1 if j == i else 0 for j in range(prog.n_inputs))
            est = float(np.dot(omega, finite_difference(prog, x, alpha)))
            fd_diff = max(fd_diff, abs(est - grad[i]))
        payload["check"] = {"pairing_residual": residual,
                            "fd_max_abs_diff": fd_diff}
    else:
        grad = vjp(prog, x, omega)
    payload["gradient"] = grad
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
    tail = _floats(args.tail) if args.tail else None
    if tail is not None and len(tail) != 2:
        raise ValueError("--tail takes M,rho")
    bounds = _floats(args.envelope) if args.envelope else None
    if bounds is not None:
        check_envelope_args(spec.directions, spec.caps, bounds)
    # the tail bound needs no table: computed before the pass, its usage
    # errors exit 2 even where the pass would fail
    if tail is not None:
        m_next, rho = tail
        k = sum(spec.caps)
        tail_json = {"m_next": m_next, "rho": rho, "k": k,
                     "value": tail_bound(m_next, k, rho)}
    table = taylor_eval(prog, spec, max_dim=_resolve_max_dim(args.max_dim))
    payload = table.to_json_dict()
    if bounds is not None:
        payload["envelope"] = coefficient_envelope(table, bounds).to_json_dict()
    if tail is not None:
        payload["tail_bound"] = tail_json
    _emit(payload)
    if bounds is not None and not payload["envelope"]["passed"]:
        return 1
    return 0


def cmd_check(args) -> int:
    if not (math.isfinite(args.delta_const) and args.delta_const >= 0.0):
        raise ValueError("--delta-const must be finite and >= 0")
    if args.count is not None and args.count < 1:
        raise ValueError("--count must be >= 1")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        kwargs = ({"delta_const": args.delta_const} if name == "stability"
                  else {})
        res = run_suite(name, count=args.count, seed=args.seed, **kwargs)
        results.append(res.to_json_dict())
        # with --json, stdout holds only the JSON document
        print(f"{name}: count={res.count} "
              f"max_residual={res.max_residual:.3e} "
              f"violations={res.violations} "
              f"{'PASS' if res.passed else 'FAIL'}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        _emit({"results": results})
    return 0 if all(r["passed"] for r in results) else 1


def _bench_family(family: str, args) -> dict:
    prog = bench_program(family, q=args.q, seed=args.seed)
    batch = args.batch if family == "linear" else max(args.batch // 4, 128)
    report = run_weil_bench(prog, family, dims=tuple(args.dims),
                            repetitions=args.repetitions, batch=batch,
                            seed=args.seed)
    return report.to_json_dict()


def cmd_bench(args) -> int:
    for flag in ("repetitions", "batch", "q"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
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


def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each command: the
    ``choices`` of the action that ``add_subparsers`` returns."""
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
    return parser, sub.choices


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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass where argv
    starts with a command: the same namespace, or the same exit and text.
    Any other argv (no command, an unknown one, a top-level -h, or arguments
    its command does not take) goes to the top-level parser, which reports
    it."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # two routes, one result: a command's own parser where argv starts
        # with a command, else the top-level parser (see _parse_args)
        args = _parse_args(_attach_negative_vectors(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout raises here
        return code
    except BrokenPipeError:
        # stdout was closed early (``| head``): point it at devnull, so the
        # flush at exit finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
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
