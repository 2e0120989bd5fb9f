"""Tests of the benchmark's own machinery.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import numpy as np

import corpus
import harness
import run
import workloads
from tracer import Tracer


def _traced_counts(jw, requests) -> dict:
    with Tracer(jw.package) as tracer:
        for i, req in enumerate(requests):
            tracer.request = i
            req.run()
    return {name: {k: v for k, v in row.items() if k != "self_s"}
            for name, row in tracer.summary().items()}


def test_counts_repeat_exactly_for_one_seed(jw, workdir):
    reqs = workloads.taylor_scalar(jw, 7, workdir).schedule[:12]
    first = _traced_counts(jw, reqs)
    assert first == _traced_counts(jw, reqs)
    assert first["weil.weil_mul.horner"]["calls"] > 0


def test_first_order_makes_no_weil_calls(jw, workdir):
    wl = workloads.first_order(jw, 7, workdir)
    counts = _traced_counts(jw, wl.schedule[:wl.trace_count])
    assert [name for name in counts if name.startswith("weil.")] == []
    # every request but the check suite parses its program once, the CLI
    # requests included
    assert counts["slp.parse_program"]["calls"] == wl.trace_count - 1
    assert counts["checks.run_suite.duality"]["calls"] == 1
    assert counts["oracle.finite_difference"]["calls"] > 0


def test_tracer_patches_every_binding_and_restores_it(jw):
    mul, apply = jw.weil.weil_mul, jw.jets.WeilSemantics.apply
    assert jw.jets.weil_mul is mul and jw.package.weil_mul is mul
    with Tracer(jw.package):
        assert jw.weil.weil_mul is not mul
        assert jw.jets.weil_mul is jw.weil.weil_mul
        assert jw.package.weil_mul is jw.weil.weil_mul
        assert jw.jets.WeilSemantics.apply is not apply
    assert jw.weil.weil_mul is mul and jw.jets.weil_mul is mul
    assert jw.package.weil_mul is mul
    assert jw.jets.WeilSemantics.apply is apply


def test_horner_and_node_multiplications_are_told_apart(jw):
    prog = jw.slp.parse_program("input x\ny = sin x\nz = mul y x\noutput z")
    spec = jw.jets.SeedSpec((0.3,), ((1.0,),), (3,))
    with Tracer(jw.package) as tracer:
        jw.jets.taylor_eval(prog, spec)
    rows = tracer.summary()
    # Horner recomposition of sin at total degree 3 makes 3 products
    assert rows["weil.weil_mul.horner"]["calls"] == 3
    assert rows["weil.weil_mul.node"]["calls"] == 1
    # caps (3,): pairs (a, b) with a + b <= 3 number 4 * 5 / 2 = 10
    assert rows["weil.weil_mul.node"]["madds"] == 10
    assert rows["weil.weil_mul.horner"]["bytes"] == 3 * 4 * 8


def test_self_times_add_up_to_the_outermost_spans(jw, workdir):
    reqs = workloads.taylor_scalar(jw, 3, workdir).schedule[:4]
    with Tracer(jw.package) as tracer:
        for req in reqs:
            req.run()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans
                if parent < 0)
    total = sum(row["self_s"] for row in tracer.summary().values())
    assert abs(total - roots) <= 1e-9 * max(1.0, roots)


def test_reference_evaluator_matches_the_engine(jw):
    rng = random.Random(11)
    for size in (5, 40, 120):
        n = rng.randint(1, 4)
        text = corpus.safe_random_text(rng, size, n)
        prog = jw.slp.parse_program(text)
        assert prog.n_nodes == size
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        assert corpus.evaluate(text, x) == jw.slp.eval_primal(prog, x)
        ref = corpus.complex_step_jvp(text, x, v)[0]
        got = jw.modes.jvp(prog, x, v)[0]
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        w = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        ref = corpus.second_directional(text, x, v, w)
        table = jw.jets.taylor_eval(
            prog, jw.jets.SeedSpec(tuple(x), (tuple(v), tuple(w)), (1, 1)))
        got = float(table.entry((1, 1))[0])
        assert abs(got - ref) <= workloads.TOL_SECOND * max(1.0, abs(ref))


def test_mulheavy_programs_stay_finite_inside_their_polydisc(jw):
    rng = random.Random(5)
    gen = np.random.default_rng(5)
    caps, batch, n = (1,) * 6, 64, 3
    shape = jw.weil.make_shape(caps)
    for _ in range(5):
        text = corpus.mulheavy_text(rng, 120, n)
        prog = jw.slp.parse_program(text)
        assert prog.n_nodes == 120
        inputs = []
        for _ in range(n):
            coeffs = np.zeros((shape.dim, batch))
            coeffs[0] = gen.uniform(-1.1, 1.1, batch)
            for stride in shape.strides:
                coeffs[stride] = gen.uniform(-0.025, 0.025, batch)
            inputs.append(jw.weil.WeilValue(shape, coeffs))
        [out] = jw.slp.eval_generic(
            prog, inputs, jw.jets.WeilSemantics(shape, batch_shape=(batch,)))
        assert np.isfinite(out.coeffs).all()


def test_linear_and_polynomial_generators(jw):
    rng = random.Random(2)
    assert jw.slp.parse_program(corpus.linear_text(rng, 50, 3)).n_nodes == 50
    for _ in range(20):
        prog = jw.slp.parse_program(corpus.polynomial_text(rng, 3, 12, 6))
        [poly] = jw.oracle.symbolic_eval(prog)
        assert poly.total_degree() <= 6


def test_edge_replies_are_judged_by_exit_code_and_strict_json():
    check = workloads._check_numeric_error
    assert check((3, "", "numeric error: overflow")) is None
    assert check((0, '{"value": 1.0}', "")) == "exit 0, expected 3"
    try:
        workloads.strict_json('{"value": NaN}')
    except ValueError:
        pass
    else:
        raise AssertionError("NaN accepted")


def test_checks_past_the_float_range_are_edge_requests(jw):
    # an instance of each of these checks evaluates exp past 709.8
    assert workloads._check_request(jw, "duality", 50, 606683).edge
    assert workloads._check_request(jw, "stability", 32, 99857).edge
    assert not workloads._check_request(jw, "duality", 50, 606682).edge
    points = list(workloads._suite_points(jw, "functoriality", 32, 5))
    assert len(points) == 32
    assert all(len(texts) == 2 for texts, _ in points)


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = harness.Tally()
    fake.latencies, fake.best, fake.ok = [0.1], {0: 0.1}, 1
    e2e = harness.end_to_end(fake, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        harness.TRACE_METRICS


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "first-order",
         "--seed", "4", "--seconds", "0.2", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in harness.TRACE_METRICS]


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copytree(run.ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "first-order",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
