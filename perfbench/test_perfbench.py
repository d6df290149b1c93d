"""Self-tests of the benchmark harness; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import client  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _argv_list(workload, seed, n_rounds=12):
    it = workloads.rounds(workload, seed)
    return [workloads.key(r) for _ in range(n_rounds) for r in next(it)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_fixes_the_argv_list(workload):
    assert _argv_list(workload, 7) == _argv_list(workload, 7)
    # also across interpreters with different string hashing
    code = (
        "import json, sys; sys.path.insert(0, %r); import test_perfbench as t; "
        "print(json.dumps(t._argv_list(%r, 7)))" % (HERE, workload)
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert json.loads(out.stdout.splitlines()[-1]) == _argv_list(workload, 7)
    assert _argv_list(workload, 7) != _argv_list(workload, 8)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_two_seeds_do_comparable_work(workload):
    def kinds(seed):
        it = workloads.rounds(workload, seed)
        return sorted(tuple(r[:2]) for _ in range(6) for r in next(it))

    def work(seed):
        it = workloads.rounds(workload, seed)
        return sum(workloads.computed_work(r) for _ in range(6) for r in next(it))

    # every round sends the same commands; parameters and order differ
    assert kinds(1) == kinds(2)
    a, b = work(1), work(2)
    assert abs(a - b) / max(a, b) < 0.10


def test_every_catalogue_entry_has_a_reference():
    digests = reference.load()
    for workload in workloads.WORKLOADS:
        for request in workloads.catalogue(workload):
            assert workloads.key(request) in digests


def test_computed_work_counts():
    assert workloads.double_factorial_odd(4) == 105
    assert [workloads.involutions(n) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert workloads.compose_terms(10, 2) == 5 * 11 * 12 // 2
    assert workloads.compose_terms(10, 0) == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    req = tracer.begin_request("r1")
    outer = tracer.enter("genfunc.f", "genfunc")
    clock.now = 1.0
    inner = tracer.enter("series.Series.compose", "series")
    clock.now = 4.0
    tracer.leave(inner)
    inner = tracer.enter("series.Series.compose", "series")  # merged with the first
    clock.now = 6.0
    tracer.leave(inner)
    clock.now = 7.0
    tracer.leave(outer)
    clock.now = 7.5
    tracer.end_request(req)

    names = tracer.by_name()
    assert names["series.Series.compose"] == (2, 5.0, 5.0)
    assert names["genfunc.f"] == (1, 7.0, 2.0)
    assert names["request:r1"] == (1, 7.5, 0.5)
    layers = tracer.layer_totals()
    assert layers["series"] == (2, 5.0)
    assert layers["genfunc"] == (1, 2.0)
    node = tracer.nodes[tracer.index[(tracer.index[(0, "genfunc.f")], "series.Series.compose")]]
    assert (node.start, node.end, node.request) == (1.0, 6.0, "r1")


def test_span_stack_must_nest():
    tracer = spans.Tracer(FakeClock())
    a = tracer.enter("a", "cli")
    tracer.enter("b", "cli")
    with pytest.raises(RuntimeError):
        tracer.leave(a)


def test_instrumentation_wraps_imported_names_and_restores():
    from chordgenus import asymptotics, genfunc, series

    originals = (genfunc.genus_polynomial, asymptotics.genus_polynomial, series.Poly.__mul__)
    spans.clear_caches()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    inst.install()
    try:
        assert asymptotics.genus_polynomial is genfunc.genus_polynomial
        assert genfunc.genus_polynomial is not originals[0]
        frame = tracer.begin_request("r")
        asymptotics.leading_constant(3)
        tracer.end_request(frame)
    finally:
        inst.restore()
    assert (genfunc.genus_polynomial, asymptotics.genus_polynomial, series.Poly.__mul__) == originals
    names = tracer.by_name()
    assert "asymptotics.leading_constant" in names
    assert "genfunc.genus_polynomial" in names
    # P_1 is the base record; P_2 and P_3 each take one pipeline step, timed
    # although the step is called from inside its own layer
    assert tracer.counters["genfunc.pg_steps"] == 2
    assert names["genfunc._pipeline_step"][0] == 2
    # a call from leading_constant into genfunc opens a span; the Poly
    # arithmetic inside the pipeline is the series layer
    layers = tracer.layer_totals()
    assert layers["genfunc"][0] >= 3 and layers["series"][0] > 0


def test_canonical_drops_only_the_runtime_line():
    doc = {
        "metadata": {"command": "poly", "parameters": {}, "runtime_seconds": "0.012", "version": "0.1.0"},
        "payload": {"coefficients": ["0", "1"]},
    }
    fast = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    doc["metadata"]["runtime_seconds"] = "9.999"
    slow = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "runtime_seconds" not in client.canonical(fast)
    assert client.canonical(fast) == client.canonical(slow)
    assert client.digest(fast) == client.digest(slow)
    doc["payload"]["coefficients"] = ["0", "2"]
    assert client.digest(json.dumps(doc, indent=2, sort_keys=True) + "\n") != client.digest(fast)
    assert client.canonical('{"n": 5}\n') == '{"n": 5}\n'
    with pytest.raises(client.RequestFailed):
        client.digest("")


def test_tail_takes_the_highest_rung_with_ten_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0, 10)
    assert run.tail(lat * 3)[0] == 95.0
    assert run.tail(lat[:15])[0] == 50.0
