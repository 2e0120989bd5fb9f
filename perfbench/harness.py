"""Closed-loop measurement, traced passes and the metrics built from them.

One client sends the next request only after the previous reply arrived
and was checked.  The timed region is the request alone; checking the
reply happens outside it.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import Counter

from tracer import Tracer
from workloads import Request


MIN_PASSES = 3


class Tally:
    """Latencies and failures of the requests of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.best: dict[int, float] = {}   # request index -> fastest send
        self.ok = 0
        self.failures: Counter = Counter()   # (label, reason) -> count
        self.wellposed_failures = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def send(self, req: Request, index: int = -1) -> float:
        """Send one request, check its reply, return its latency."""
        start = time.perf_counter()
        try:
            reply, error = req.run(), None
        except Exception as exc:   # an escaping exception is a failed request
            reply, error = None, f"raised {type(exc).__name__}"
        latency = time.perf_counter() - start
        if error is None:
            try:
                error = req.check(reply)
            except Exception as exc:   # a malformed reply fails its check
                error = f"bad reply: {type(exc).__name__}: {exc}"
        self.latencies.append(latency)
        self.best[index] = min(latency, self.best.get(index, math.inf))
        if error is None:
            self.ok += 1
        else:
            self.failures[req.label, error] += 1
            self.wellposed_failures += not req.edge
        return latency

    def send_pass(self, requests: list[Request]) -> float:
        """Send every request once; returns the time spent in requests."""
        return sum(self.send(req, i) for i, req in enumerate(requests))


def closed_loop(schedule: list[Request], seconds: float) -> Tally:
    """Send the whole schedule again and again until ``seconds`` have passed.

    Every run sends complete passes, at least MIN_PASSES of them, so each
    request is timed at several moments of the run.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        tally.send_pass(schedule)
        passes += 1
    return tally


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics over each request's fastest send in the run.

    The host this was built on alternates between a fast state and one
    about 1.5 times slower, for seconds at a time.  A request's fastest
    of at least MIN_PASSES sends, spread over the run, is taken in the
    fast state unless the whole run is slow, so medians and quantiles
    over requests stay steady where those over every send would not.
    """
    best = sorted(tally.best.values())
    ok_frac = tally.ok / tally.attempted
    return {
        "ops_per_s": (ok_frac * len(best) / sum(best), "1/s"),
        "latency_p50_s": (_rank(best, 0.50), "s"),
        "latency_p90_s": (_rank(best, 0.90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (ok_frac, "frac"),
    }


# -- per-layer metrics from traced passes ----------------------------------

_UNITS = {"calls": "count", "self_s": "s", "bytes": "computed_byte",
          "madds": "computed_madd"}
_SUITES = ("duality", "functoriality", "exactness", "stability", "envelope",
           "truncation")
LAYERS = (
    [("weil.weil_mul.horner", ("calls", "self_s", "bytes", "madds")),
     ("weil.weil_mul.node", ("calls", "self_s", "bytes", "madds"))]
    + [(f"weil.weil_unary.{k}", ("calls", "self_s"))
       for k in ("exp", "log", "sin", "cos", "tanh", "sqrt", "pow")]
    + [("weil.weil_recip", ("calls", "self_s")),
       ("weil.weil_pow_int", ("calls", "self_s")),
       ("weil.linear", ("calls", "self_s", "bytes"))]
    + [(name, ("calls", "self_s")) for name in (
        "jets.WeilSemantics.apply", "slp.eval_generic", "jets.seed",
        "jets.taylor_eval", "jets.DerivativeTable.to_json_dict", "cli._emit",
        "cli.main", "slp.parse_program", "slp.eval_primal", "modes.eval_dual",
        "modes.record_tape", "modes.reverse_sweep",
        "stability.stability_bound", "oracle.nested_jvp_schedule",
        "oracle.symbolic_eval", "oracle.finite_difference")]
    + [(f"checks.run_suite.{s}", ("calls", "self_s")) for s in _SUITES]
)
TRACE_METRICS = [(f"{layer}.{field}", _UNITS[field])
                 for layer, fields in LAYERS for field in fields]
TRACE_METRICS += [("trace.overhead_frac", "frac"), ("trace.requests", "count")]


class TracedRun:
    """Alternate plain and traced passes over the same fixed requests.

    Counts come from the first traced pass and must repeat exactly in
    every later one; self times are medians over the traced passes; the
    overhead is the traced pass time over the plain one, minus one.
    """

    def __init__(self, package, requests: list[Request]):
        self.package = package
        self.requests = requests
        self.tally = Tally()
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.summaries: list[dict] = []
        self.first: Tracer | None = None

    def _traced_pass(self, tracer: Tracer) -> float:
        busy = 0.0
        for i, req in enumerate(self.requests):
            tracer.request = i
            busy += self.tally.send(req, i)
        return busy

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.plain.append(self.tally.send_pass(self.requests))
            with Tracer(self.package) as tracer:
                self.traced.append(self._traced_pass(tracer))
            self.summaries.append(tracer.summary())
            self.first = self.first or tracer
            if time.perf_counter() >= deadline:
                return

    def counts_repeat(self) -> bool:
        def counts(summary):
            return {name: {k: v for k, v in row.items() if k != "self_s"}
                    for name, row in summary.items()}
        return all(counts(s) == counts(self.summaries[0])
                   for s in self.summaries[1:])

    def metrics(self) -> dict:
        first = self.summaries[0]
        out = {}
        for layer, fields in LAYERS:
            for field in fields:
                if field == "self_s":
                    value = statistics.median(
                        s.get(layer, {}).get("self_s", 0.0)
                        for s in self.summaries)
                else:
                    value = first.get(layer, {}).get(field, 0)
                out[f"{layer}.{field}"] = (value, _UNITS[field])
        overhead = (statistics.median(self.traced)
                    / statistics.median(self.plain) - 1.0)
        out["trace.overhead_frac"] = (overhead, "frac")
        out["trace.requests"] = (len(self.requests), "count")
        return out
