"""Fixed reference work that tracks how fast the machine runs right now.

The benchmark shares a machine whose speed moves by up to 2x over
seconds to minutes (other tenants), and different kinds of work slow
down by different amounts: interpreter- and memory-bound code more than
big-integer arithmetic.  So each workload has a kernel made of the same
kinds of work as its hot path (argument parsing; tuple-tree arithmetic;
long division, big-integer bit extraction and a big-integer series),
run between operations every INTERVAL_NS of work.  The kernels are
benchmark code that no change to `uns` can touch.  Every time the
benchmark reports is scaled by the kernel's NOMINAL_NS over its time
around the operation: the time the operation would have taken at the
kernel's nominal speed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
from contextlib import redirect_stderr

from . import oracles as O

REPEATS = 3  # a sample is the fastest of REPEATS back-to-back kernel runs
INTERVAL_NS = 100_000_000  # a sample after every 0.1 s of operations


def _cli_kernel():
    top = argparse.ArgumentParser(prog="ref")
    top.add_argument("--format", choices=("a", "b"), default="a")
    sub = top.add_subparsers(dest="command", required=True)
    for i in range(5):
        p = sub.add_parser(f"cmd{i}", help=f"command {i}")
        p.add_argument("value")
        p.add_argument("--to", choices=("x", "y", "z"), default="x")
        p.add_argument("-n", type=int, default=3)
    args = top.parse_args(["--format", "b", "cmd4", "(0)101.(01)", "-n", "5"])
    with redirect_stderr(io.StringIO()):
        try:
            top.parse_args(["cmd3", "--to", "w", "v"])
        except SystemExit:
            pass
    return json.dumps({"command": args.command, "value": O.decimal_text(O.right_value("01", "011"), 12)})


_ORD_A = ((O.OMEGA, 2), (O.ONE, 3), (O.ZERO, 1))
_ORD_B = ((((O.ONE, 1), (O.ZERO, 2)), 1), (O.ZERO, 4))
_CARD = ("hyper", ("fin", 3), ("fin", 2), ("choose", ("pow2", ("aleph", ((O.OMEGA, 1), (O.ZERO, 2))))))


def _symbolic_kernel():
    for _ in range(4):
        x = O.omul(O.oadd(_ORD_A, _ORD_B), _ORD_A)
        y = O.opow(_ORD_A, O.oadd(_ORD_B, O.nat(2)))
        O.ocmp(x, y)
        O.oformat(y)
        O.cnormalize(_CARD, 4096)
    return y


def _stream_kernel():
    pre, per = O.right_digits(O.Fraction(1, 2029))  # long division over a 2028-bit period
    v = math.isqrt((1 << 6144) // 3)
    bits = tuple((v >> (3071 - i)) & 1 for i in range(3072))
    one, total, power, j = 1 << 1200, 0, 5, 0
    while True:
        t = one // ((2 * j + 1) * power)
        if not t:
            break
        total += -t if j & 1 else t
        power *= 25
        j += 1
    return len(per) + len(bits) + total.bit_length()


KERNELS = {"cli": _cli_kernel, "symbolic": _symbolic_kernel, "stream": _stream_kernel}
# each kernel's time at the nominal speed: about its fastest time on the
# 2-core machine where the benchmark was written, in that machine's fast phase
NOMINAL_NS = {"cli": 830_000, "symbolic": 450_000, "stream": 1_150_000}

# Set-up time is scaled the same way, by the time of importing stdlib
# modules that neither `uns` nor the interpreter's start-up loads.
IMPORT_SET = "xml.dom.minidom, email.message, http.cookies, tomllib, configparser, csv, difflib, calendar"
NOMINAL_IMPORT_NS = 20_000_000


def sample(kernel, clock) -> int:
    """The fastest of REPEATS runs of the kernel, in ns."""
    best = None
    for _ in range(REPEATS):
        t = clock()
        kernel()
        took = clock() - t
        best = took if best is None or took < best else best
    return best


def factors(samples: list[tuple[int, int]], nominal: int) -> list[float]:
    """Per operation, nominal over the kernel's time around it.  `samples`
    holds (op index, kernel time) pairs, each taken just before that op,
    and a last one after the final op; an op's factor uses the mean of the
    samples on either side of it."""
    out = []
    for (start, before), (stop, after) in zip(samples, samples[1:]):
        out.extend([2 * nominal / (before + after)] * (stop - start))
    return out
