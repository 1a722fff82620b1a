"""Run one workload of the uns benchmark and print its metrics.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; `uns` is imported from its `src/`.
Every pass runs in a fresh interpreter:

  * set-up: SETUP_SAMPLES interpreters that only import `uns` and
    `uns.cli`, timed from just before the imports (interpreter start-up
    excluded); `setup_s` is their median;
  * the measured pass, untraced (bench/worker.py);
  * with --trace 1, the same operation list again with every layer
    wrapped; its time in calls over the untraced pass's is
    `trace.overhead_ratio`.

All times are CPU time of the measuring process (see trace.CLOCK),
scaled to a nominal machine speed by a reference kernel measured
alongside (see reference.py); the record keeps the unscaled figures.

Each metric is printed as `metric <name> <value> <unit>`, then the run's
facts as `info` lines; the last line is one JSON object with `correct`,
`attempted`, `failed` and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).  The full record, with the digest of the
input list, goes to .bench_runs/ in the checkout; a traced pass writes
its spans there too.  Exits 2 when the checkout holds no `src/uns`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole run, all passes included

sys.path.insert(0, str(ROOT))
from bench import reference  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_IMPORT = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.process_time_ns(); import uns, uns.cli; "
    "u = time.process_time_ns() - t; t = time.process_time_ns(); import {ref}; print(u, time.process_time_ns() - t)"
)


def _child(cmd: list[str], deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run deadline passed")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd[1:4]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(deadline: float) -> float:
    """Median import time of `uns` and `uns.cli` in fresh interpreters,
    each scaled by the reference import timed right after it in the same
    interpreter.  One untimed import first writes the bytecode cache."""
    cmd = [sys.executable, "-s", "-c", _IMPORT.format(src=str(SRC), ref=reference.IMPORT_SET)]
    _child(cmd, deadline)
    scaled = []
    for _ in range(SETUP_SAMPLES):
        took, ref = map(int, _child(cmd, deadline).split())
        scaled.append(took * reference.NOMINAL_IMPORT_NS / ref / 1e9)
    return statistics.median(scaled)


def measured_pass(args, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, "-s", "-m", "bench.worker", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(trace), "--src", str(SRC)]
    if trace:
        cmd += ["--spans", str(OUT / f"{args.workload}.spans.tsv")]
    return json.loads(_child(cmd, deadline))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the uns benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "uns" / "__init__.py").is_file():
        print(f"error: no uns package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = setup_seconds(deadline)
        plain = measured_pass(args, 0, deadline)
        traced = measured_pass(args, 1, deadline) if args.trace else None
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    end_to_end = {name: plain[name] for name in END_TO_END if name in plain}
    end_to_end["ok_share"] = 1 - plain["failed"] / plain["attempted"]
    end_to_end["setup_s"] = setup
    report = {"end_to_end": end_to_end, "untraced": plain}
    shown = dict(end_to_end)
    units = dict(END_TO_END)
    if traced:
        layers = dict(traced["layers"], **{"trace.overhead_ratio": traced["scaled_busy_s"] / plain["scaled_busy_s"]})
        report.update(per_layer=layers, traced=traced)
        shown.update(layers)
        units.update(PER_LAYER)
    for name, value in shown.items():
        print(f"metric {name} {value} {units[name]}")
    run = traced or plain
    print(f"info digest {plain['digest']}")
    print(f"info fail_share {plain['failed'] / plain['attempted']} failed {plain['failed_by_class']}")
    print(f"info latency_tail_ms is p{plain['latency_tail_pct']:.3f} of {plain['attempted']} samples")
    for cls, outcome, at_seed in plain.get("probes", ()):
        state = "as at the seed" if outcome == at_seed else "changed from the seed"
        print(f"info ledger {cls}: {outcome} ({state}, {at_seed})")
    for problem in run["problems"]:
        print(f"info trace problem: {problem}")
    correct = plain["correct"] and run["correct"] and plain["digest"] == run["digest"]
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1) + "\n")

    metrics = layers if traced else end_to_end
    names = PER_LAYER if traced else END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
