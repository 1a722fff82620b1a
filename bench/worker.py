"""One measured pass of a workload, in a fresh interpreter.

    python3 -m bench.worker --workload NAME --seed N --seconds S --trace 0|1 --src DIR [--spans FILE]

Builds the seeded operation list and its expected outcomes, imports
`uns` from --src, runs the list as one closed-loop caller, checks every
outcome, and prints one JSON object as its last line.  With --trace 1
the layers are wrapped first (see trace.py) and the per-layer counts
and self times are reported; spans go to --spans.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from . import reference, workloads
from .trace import CLOCK, Tracer, layer_metrics

CAP_FACTOR = 5  # a pass stops after CAP_FACTOR * --seconds, even if ops remain


def cli_call(run, argv: tuple):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue()


def probe(run, argv: tuple):
    """Outcome of one ledger probe: the exit code, or the exception name."""
    try:
        return cli_call(run, argv)[0]
    except Exception as err:
        return type(err).__name__


def tail(latencies_ns: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample, as (percentile, milliseconds)."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    k = max(0, n - 11)
    return 100.0 * (k + 1) / n, ordered[k] / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.seconds)

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import uns
    import uns.cli  # noqa: F401

    if not os.path.realpath(uns.__file__).startswith(src + os.sep):
        print(f"error: imported uns from {uns.__file__}, not from {src}", file=sys.stderr)
        return 2
    as_stream = sys.modules["uns.streams"].as_stream  # the cached original, for cache_info()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if wl.kind == "cli":
        run = uns.cli.run  # through the package, so a traced pass gets the wrapper
        call = lambda op: cli_call(run, op.args)  # noqa: E731
    else:
        memo = {}  # one exploration memo for the whole run
        call = lambda op: workloads.symbolic_call(uns, memo, op.args)  # noqa: E731

    kernel = reference.KERNELS[wl.reference]
    hits0 = as_stream.cache_info().hits
    latencies: list[int] = []
    failed: Counter = Counter()
    escaped = 0
    # Automatic collection would land a full pass over every cached period
    # on whichever call happens to trip it.  Instead each call is charged
    # for collecting the young garbage it left, inside its own timing.
    gc.collect()
    gc.disable()
    deadline = perf_counter() + CAP_FACTOR * args.seconds
    start = CLOCK()
    samples = [(0, reference.sample(kernel, CLOCK))]
    next_sample = CLOCK() + reference.INTERVAL_NS
    for i, op in enumerate(wl.ops):
        if CLOCK() >= next_sample:
            samples.append((i, reference.sample(kernel, CLOCK)))
            next_sample = CLOCK() + reference.INTERVAL_NS
        t0 = CLOCK()
        if tracer:
            tracer.op = i
            span = tracer.enter("bench", "op")
        try:
            outcome = call(op)
        except Exception as err:  # a failure of the program, counted, not fatal
            outcome = ("escaped", type(err).__name__)
            escaped += 1
        finally:
            gc.collect(1)
            if tracer:
                tracer.leave(span)
        latencies.append(CLOCK() - t0)
        if not op.check(outcome):
            failed[op.cls] += 1
        if perf_counter() > deadline:
            break
    samples.append((len(latencies), reference.sample(kernel, CLOCK)))
    loop = (CLOCK() - start) / 1e9
    gc.enable()
    factor = reference.factors(samples, reference.NOMINAL_NS[wl.reference])
    scaled = [t * f for t, f in zip(latencies, factor)]
    hits = as_stream.cache_info().hits - hits0

    attempted = len(latencies)
    busy = sum(latencies) / 1e9
    pct, tail_ms = tail(scaled)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "digest": wl.digest(),
        "planned": len(wl.ops),
        "attempted": attempted,
        "failed": sum(failed.values()),
        "failed_by_class": dict(failed),
        "escaped": escaped,
        "loop_s": loop,
        "busy_s": busy,
        "scaled_busy_s": sum(scaled) / 1e9,
        "throughput_ops": attempted / (sum(scaled) / 1e9),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "latency_tail_ms": tail_ms,
        "raw_throughput_ops": attempted / busy,
        "raw_latency_p50_ms": statistics.median(latencies) / 1e6,
        "reference_samples": samples,
        "latency_tail_pct": pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": [],
    }
    if tracer:
        own = loop - busy  # the loop's own time between operations
        layers, problems = layer_metrics(tracer, wl.layers, loop, own, factor)
        layers["streams.as_stream_hits"] = hits
        result["layers"] = layers
        result["problems"] = problems
        if args.spans:
            tracer.write(args.spans)
    if wl.probes and not args.trace:
        result["probes"] = [[cls, probe(run, argv), seed_outcome] for cls, argv, seed_outcome in wl.probes]
    result["correct"] = not result["failed"] and not result["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
