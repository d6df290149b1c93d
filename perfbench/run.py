"""chordgenus benchmark: one closed-loop client, requests sent in-process.

Run from the repository root:

    python3 perfbench/run.py --workload mm-series --seed 1 --seconds 35 --trace 0

The client sends the rounds of ``workloads.py`` one request at a time, each
after the previous one has answered, until ``--seconds`` have passed and the
current round is complete.  Every answer is reduced to a digest and compared
with ``reference.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it sends rounds untraced for a third of the time,
then the same rounds with every layer entry point wrapped (``spans.py``),
then the same rounds untraced again, emptying the package's caches before
each pass.  Spans are written to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ORDER_CAP_ENV = "CHORDGENUS_ORDER_CAP"
SETUP_FIRST = 3  # set-up probes before the first round
SETUP_MAX = 15  # then one after each round, up to this many
SETUP_MIN = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
CALIB_LOOPS = 1_000_000
# Each request and each set-up probe runs between two short host probes.
# Its time is scaled by PROBE_REFERENCE_S over their mean, so that time is
# in seconds of a host on which the probe takes PROBE_REFERENCE_S: about its
# uncontended time on the 2-core x86-64 machine (Python 3.11) used to define
# this benchmark.  On that machine the probe's time swings by up to 1.7x
# within a minute, from other load on its cores, and request times swing
# with it; the scaling removes most of that swing from run-to-run spread.
PROBE_LOOPS = 20_000
PROBE_REFERENCE_S = 0.0016
OUT_DIR = "perfbench_out"

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from chordgenus import cli\n"
    "cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def calibrate(loops: int = CALIB_LOOPS) -> float:
    """Wall time of a fixed pure-Python loop that never touches chordgenus."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scale(before: float) -> float:
    """Factor from wall seconds to reference-host seconds for the interval
    that started after a probe of ``before`` seconds and ends now."""
    return PROBE_REFERENCE_S * 2 / (before + calibrate(PROBE_LOOPS))


def probe_setup(root: str) -> tuple[float, float]:
    """(wall, reference-host) seconds from starting a fresh interpreter until
    it has built the parser."""
    env = {k: v for k, v in os.environ.items() if k not in (ORDER_CAP_ENV, "PYTHONPATH")}
    before = calibrate(PROBE_LOOPS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
    finally:
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed, elapsed * host_scale(before)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, requests beyond it) at the highest ladder rung
    that leaves at least TAIL_MIN_BEYOND requests above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


class Pass:
    """Outcome of sending rounds of requests.

    ``latencies`` and ``busy`` are in reference-host seconds (``host_scale``);
    ``wall_latencies`` and ``wall_busy`` are as the clock read them.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.completed = 0
        self.failed = 0
        self.rounds = 0
        self.busy = 0.0
        self.wall_busy = 0.0
        self.failed_at: list[int] = []
        self.payload_bytes = 0
        self.seen: Counter = Counter()
        self.errors: list[str] = []


def drive(batches, reference, seconds=None, max_rounds=None, tracer=None, between_rounds=None) -> Pass:
    from client import digest, send
    from workloads import key

    out = Pass()
    started = time.perf_counter()
    for batch in batches:
        for request in batch:
            k = key(request)
            out.seen[k] += 1
            before = calibrate(PROBE_LOOPS)
            frame = tracer.begin_request(f"{len(out.latencies)}:{k}") if tracer else None
            t0 = time.perf_counter()
            try:
                text = send(request)
                error = None
            except Exception as exc:  # a failing request is counted, not fatal
                text, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_request(frame)
            scaled = dt * host_scale(before)
            out.busy += scaled
            out.wall_busy += dt
            out.wall_latencies.append(dt)
            if error is None:
                out.payload_bytes += len(text)
                if digest(text) != reference.get(k):
                    error = "payload differs from the reference"
            out.latencies.append(scaled)
            if error is None:
                out.completed += 1
            else:
                out.failed += 1
                out.failed_at.append(len(out.latencies) - 1)
                if len(out.errors) < 5:
                    out.errors.append(f"{k}: {error}")
        out.rounds += 1
        if between_rounds:
            between_rounds()
        if max_rounds is not None:
            if out.rounds >= max_rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    # a failure misses every latency limit: count it as taking the whole pass
    for i in out.failed_at:
        out.latencies[i] = out.busy
        out.wall_latencies[i] = out.wall_busy
    return out


def end_to_end(run: Pass, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    attempted = run.completed + run.failed
    p, tail_value, beyond = tail(run.latencies)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "latency_p50_s": (statistics.median(run.latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_rps": (run.completed / run.busy, "1/s"),
        "ops_ok_frac": (run.completed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency_tail_s is p{p:g} of {attempted} requests ({beyond} beyond it)",
        f"ops_failed_frac = {run.failed / attempted:.6f} ratio ({run.failed} of {attempted})",
        "wall clock, before host scaling: "
        f"setup_s {statistics.median(w for w, _ in setup):.6g} s, "
        f"latency_p50_s {statistics.median(run.wall_latencies):.6g} s, "
        f"latency_tail_s {tail(run.wall_latencies)[1]:.6g} s, "
        f"throughput_rps {run.completed / run.wall_busy:.6g} 1/s",
        "host scale (reference / measured), median over requests: "
        f"{statistics.median(n / w for n, w in zip(run.latencies, run.wall_latencies)):.4f}",
    ]
    return metrics, notes


def per_layer(tracer, traced: Pass, untraced_busy: float, cache: tuple[int, int]) -> dict:
    from spans import LAYERS

    names = tracer.by_name()

    def total(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_time(prefix):
        return sum(v[2] for n, v in names.items() if n.startswith(prefix))

    c = tracer.counters
    compose = names.get("series.Series.compose", (0, 0.0, 0.0))[2]
    biseries = self_time("series.BiSeries.")
    poly = self_time("series.Poly.") + self_time("series.poly_")
    layers = tracer.layer_totals()
    brute_self = layers["bruteforce"][1]
    metrics = {
        "series.compose_s": (compose, "s"),
        "series.compose_terms": (c["series.compose_terms"], "count"),
        "series.mul_div_s": (layers["series"][1] - compose - biseries - poly, "s"),
        "series.biseries_s": (biseries, "s"),
        "series.poly_s": (poly, "s"),
        "genfunc.mm_series_s": (total("genfunc.macromolecular_series"), "s"),
        "genfunc.pg_s": (total("genfunc._pipeline_step"), "s"),
        "genfunc.pg_steps": (c["genfunc.pg_steps"], "count"),
        "bruteforce.diagrams": (c["bruteforce.diagrams"], "count"),
        "bruteforce.diagrams_per_s": (
            c["bruteforce.diagrams"] / brute_self if brute_self > 0 else 0.0,
            "1/s",
        ),
        "asymptotics.sturm_chain_len": (c["asymptotics.sturm_chain_len"], "count"),
        "asymptotics.poly_evals": (c["asymptotics.poly_evals"], "count"),
        "asymptotics.bisect_steps": (c["asymptotics.bisect_steps"], "count"),
        "recurrences.table_cells": (c["recurrences.table_cells"], "count"),
        "cli.payload_bytes": (traced.payload_bytes, "B"),
        "verify.checks": (c["verify.checks"], "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layers[layer][0], "count")
        metrics[f"{layer}.self_s"] = (layers[layer][1], "s")
    metrics["trace_overhead_frac"] = (traced.busy / untraced_busy, "ratio")
    metrics["requests.traced"] = (traced.completed + traced.failed, "count")
    metrics["requests.repeated"] = (sum(v - 1 for v in traced.seen.values()), "count")
    metrics["cache.hits"] = (cache[0], "count")
    metrics["cache.misses"] = (cache[1], "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chordgenus", "__init__.py")):
        print("error: src/chordgenus not found; run from the repository root", file=sys.stderr)
        return 2
    # the default order cap applies; the package comes from this checkout only
    os.environ.pop(ORDER_CAP_ENV, None)
    sys.path.insert(0, src)

    from reference import load
    from workloads import WORKLOADS, rounds

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = load()

    calib_start = calibrate()
    import chordgenus.cli  # noqa: F401  (the client's own cold import)

    from spans import cache_stats

    if args.trace:
        from spans import Instrumentation, Tracer, clear_caches

        # untraced, traced, untraced again on the same rounds, each from cold
        # caches.  The first pass also absorbs the process's one-time warm-up
        # (about 0.3 s on the first request), so the overhead compares the
        # traced pass with the untraced pass after it.
        before = drive(rounds(args.workload, args.seed), reference, seconds=args.seconds / 3)
        clear_caches()
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        instrumentation.install()
        try:
            run = drive(
                rounds(args.workload, args.seed),
                reference,
                max_rounds=before.rounds,
                tracer=tracer,
            )
        finally:
            instrumentation.restore()
        cache = cache_stats()
        clear_caches()
        after = drive(rounds(args.workload, args.seed), reference, max_rounds=before.rounds)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        metrics = per_layer(tracer, run, after.busy, cache)
        notes = [f"spans written to {spans_path} ({len(tracer.nodes)} merged nodes)"]
        passes = (before, run, after)
        failed = sum(p.failed for p in passes)
        attempted = sum(p.completed + p.failed for p in passes)
        errors = [e for p in passes for e in p.errors]
    else:
        # set-up is probed between rounds, so its samples span the run's
        # changing host load instead of one moment of it
        setup = [probe_setup(root) for _ in range(SETUP_FIRST)]

        def probe_between_rounds():
            if len(setup) < SETUP_MAX:
                setup.append(probe_setup(root))

        run = drive(
            rounds(args.workload, args.seed),
            reference,
            seconds=args.seconds,
            between_rounds=probe_between_rounds,
        )
        while len(setup) < SETUP_MIN:
            setup.append(probe_setup(root))
        cache = cache_stats()
        metrics, notes = end_to_end(run, setup)
        failed = run.failed
        attempted = run.completed + run.failed
        errors = run.errors
    calib_end = calibrate()
    if args.trace:
        metrics["host.calib_s"] = ((calib_start + calib_end) / 2, "s")

    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{attempted} requests in {run.rounds} rounds, {failed} failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(
        f"  host.calib_s start {calib_start:.4f} s, end {calib_end:.4f} s; "
        f"repeated request keys {sum(v - 1 for v in run.seen.values())}; "
        f"lru_cache hits {cache[0]}, misses {cache[1]}"
    )
    for error in errors:
        print(f"  FAILED {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
