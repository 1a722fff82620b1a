"""Spans and counters at the boundaries of the six layers, recorded from
outside the library.

Every public function of a layer is wrapped once.  A wrapper opens a
span when it is entered from another layer (or from the benchmark) and
passes straight through when the caller is in its own layer, so a
layer's internal and recursive calls add no span and, for ordinals and
cardinals, not even a frame: their own module namespaces are left as
they are, and the wrappers go only into the namespaces of the other
modules, into the module objects one layer holds for another, and onto
the BitStream and descriptor classes.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter
from time import thread_time_ns

from .workloads import LAYERS

# names another layer imports inside a function body, which read them off
# the defining module at call time; neither is called by its own module
LAZY = (("bitseq", "encode_fraction"), ("ordinals", "parse_ordinal"))

NAME, LAYER, START, END, PARENT, OP = range(6)

# Every time in the benchmark is CPU time of the calling thread: on a
# shared machine it leaves out the time other tenants hold the core, and
# for this single-threaded, CPU-bound program it is otherwise the wall time.
CLOCK = thread_time_ns


class _LayerView:
    """Stands in for a layer module inside another layer: wrapped public
    functions, every other attribute from the module itself."""

    def __init__(self, module, overrides: dict):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, op]
        self.open: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._bits_frames: list[bool] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, CLOCK(), 0, self.open[-1] if self.open else -1, self.op])
        self.open.append(idx)
        return idx

    def leave(self, idx: int):
        self.spans[idx][END] = CLOCK()
        self.open.pop()

    def wrap(self, layer: str, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open and tracer.spans[tracer.open[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            idx = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if observe:
                    observe(tracer.counts, name, None, err)
                raise
            finally:
                tracer.leave(idx)
            if observe:
                observe(tracer.counts, name, result, None)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer of the imported `uns` package in place."""
        pkg = importlib.import_module("uns")
        mods = {layer: importlib.import_module(f"uns.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(layer, name, obj, _OBSERVERS.get(layer)))
        for ns in (pkg, *mods.values()):
            for name, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit and hit[0] is obj and (ns is pkg or obj.__module__ != ns.__name__):
                    setattr(ns, name, hit[1])
        for holder in (pkg, *mods.values()):
            for name, obj in list(vars(holder).items()):
                if isinstance(obj, types.ModuleType) and obj is not holder and obj in mods.values():
                    overrides = {
                        n: wrapped[id(o)][1] for n, o in vars(obj).items() if id(o) in wrapped and wrapped[id(o)][0] is o
                    }
                    setattr(holder, name, _LayerView(obj, overrides))
        for layer, name in LAZY:
            setattr(mods[layer], name, wrapped[id(getattr(mods[layer], name))][1])
        streams = mods["streams"]
        for meth in ("bits", "interval"):
            fn = getattr(streams.BitStream, meth)
            hooked = self._bits_hook(fn) if meth == "bits" else fn
            setattr(streams.BitStream, meth, self.wrap("streams", f"BitStream.{meth}", hooked))
        for cls in (streams.RationalStream, streams.PiOver4Stream, streams.SqrtStream, streams.DiagonalStream, streams.CustomStream):
            name = f"{cls.__name__}.prefix_bits"
            cls.prefix_bits = self.wrap("streams", name, self._prefix_hook(cls.prefix_bits))

    def _bits_hook(self, fn):
        """Counts every BitStream.bits call, and those its memo served."""
        frames, counts = self._bits_frames, self.counts

        @functools.wraps(fn)
        def bits(stream, n):
            frames.append(False)
            try:
                out = fn(stream, n)
            finally:
                recomputed = frames.pop()
            counts["streams.bits_calls"] += 1
            counts["streams.bits_out"] += len(out)
            counts["streams.bits_reused"] += not recomputed
            return out

        return bits

    def _prefix_hook(self, fn):
        frames, counts = self._bits_frames, self.counts

        @functools.wraps(fn)
        def prefix_bits(descriptor, n):
            counts["streams.prefix_computes"] += 1
            if frames:
                frames[-1] = True  # the innermost bits() call recomputes
            return fn(descriptor, n)

        return prefix_bits

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def check_nesting(self) -> list[str]:
        """Every span closed, inside its parent, with non-negative self time."""
        problems = []
        if self.open:
            problems.append(f"{len(self.open)} spans left open")
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                problems.append(f"span {i} ({s[NAME]}) never closed")
            elif s[PARENT] >= 0:
                p = self.spans[s[PARENT]]
                if not (s[PARENT] < i and p[START] <= s[START] and s[END] <= p[END]):
                    problems.append(f"span {i} ({s[NAME]}) escapes its parent")
        if any(t < 0 for t in self.self_times()):
            problems.append("negative self time")
        return problems[:5]

    def write(self, path: str):
        with open(path, "w") as out:
            out.write("op\tspan\tparent\tlayer\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                out.write(f"{s[OP]}\t{i}\t{s[PARENT]}\t{s[LAYER]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

RULES = ("finite", "GCH", "CBT", "CT", "AM")
COUNT_KEYS = (
    "cli.exit.0",
    "cli.exit.2",
    "cli.exit.3",
    "cli.exit.4",
    "cli.escaped",
    "bitseq.period_bits",
    "streams.bits_out",
    "streams.prefix_computes",
    "hyperops.result_bits",
    "ordinals.terms_out",
    *(f"cardinals.rule.{r}" for r in RULES),
    "cardinals.successors",
    "cardinals.stuck",
    "cardinals.budget_refused",
)


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, required: tuple, loop_s: float, loop_own_s: float, factor: list[float]):
    """Calls, self time and counters per layer, and the completeness
    problems found: a required layer without spans, spans that do not
    nest, or self times that do not add up to the time of the loop.
    Reported self times are scaled by their operation's speed factor;
    the completeness check uses the measured ones."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    scaled_ns: Counter = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span[LAYER]] += 1
        self_ns[span[LAYER]] += own
        scaled_ns[span[LAYER]] += own * factor[span[OP]]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = scaled_ns[layer] / 1e9
    out["bench.self_s"] = scaled_ns["bench"] / 1e9 + loop_own_s * sum(factor) / len(factor)
    c = tracer.counts
    out.update((key, c[key]) for key in COUNT_KEYS)
    out["streams.reuse_ratio"] = _share(c["streams.bits_reused"], c["streams.bits_calls"])
    out["hyperops.exceeded_share"] = _share(c["hyperops.exceeded"], c["hyperops.hyper_calls"])

    problems = tracer.check_nesting()
    missing = [layer for layer in required if not calls[layer]]
    if missing:
        problems.append(f"no spans from {', '.join(missing)}")
    total = sum(self_ns.values()) / 1e9 + loop_own_s
    if abs(total - loop_s) > 0.02 * loop_s:
        problems.append(f"self times add up to {total:.3f} s of the loop's {loop_s:.3f} s")
    return out, problems


# ---------------------------------------------------------------------------
# counters read off results and errors crossing a layer boundary


def _seq_digits(x) -> int:
    parts = (x.left, x.right) if hasattr(x, "left") and hasattr(x, "right") else (x,)
    total = 0
    for part in parts:
        bits = getattr(part, "bits", None)
        if hasattr(bits, "period"):
            total += len(bits.preperiod) + len(bits.period)
    return total


def _observe_cli(counts, name, result, err):
    if name != "run":
        return
    if err is not None:
        counts["cli.escaped"] += 1
    else:
        counts[f"cli.exit.{result}"] += 1


def _observe_bitseq(counts, name, result, err):
    if err is None:
        counts["bitseq.period_bits"] += _seq_digits(result)


def _observe_hyperops(counts, name, result, err):
    if name != "hyper" or err is not None:
        return
    counts["hyperops.hyper_calls"] += 1
    value = getattr(result, "value", None)
    if value is None:
        counts["hyperops.exceeded"] += 1
    else:
        counts["hyperops.result_bits"] += value.bit_length()


def _observe_ordinals(counts, name, result, err):
    terms = getattr(result, "terms", None)
    if err is None and isinstance(terms, tuple):
        counts["ordinals.terms_out"] += len(terms)


def _observe_cardinals(counts, name, result, err):
    if err is not None:
        kind = type(err).__name__
        if kind == "NoRuleError":
            counts["cardinals.stuck"] += 1
        elif kind == "FiniteBudgetError":
            counts["cardinals.budget_refused"] += 1
        return
    if name == "normalize_with_trace":
        for step in result[1]:
            counts[f"cardinals.rule.{step.rule}"] += 1
    elif name == "all_single_steps":
        counts["cardinals.successors"] += len(result)
        for rule, _ in result:
            counts[f"cardinals.rule.{rule}"] += 1


_OBSERVERS = {
    "cli": _observe_cli,
    "bitseq": _observe_bitseq,
    "hyperops": _observe_hyperops,
    "ordinals": _observe_ordinals,
    "cardinals": _observe_cardinals,
}
