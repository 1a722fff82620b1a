"""The package namespace and what each command loads.

`import uns` loads no layer: a layer, or a name the package exports from
one, is loaded on first use.  `uns.cli` loads core and the two lower
layers, and each command the layer it calls; argparse only for a usage
error or --help, json only for structured output, and fractions, with
decimal and numbers, only for a command that makes a rational: the
sequence commands and interval, not bits, diag or an upper layer's."""

import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uns
from uns import core

SRC = str(Path(uns.__file__).parent.parent)


def _python(*args, stdin=b""):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-s", *args], input=stdin, env=env, capture_output=True, timeout=60)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


# the CLI runs as __main__, so the modules it loads are the package, core
# and the two lower layers, and what each command adds
RATIONALS = {"fractions", "decimal", "numbers"}
LOADS = [
    (["convert", "(0)10011.(10)"], 0, RATIONALS),
    (["flip", "(1)."], 0, RATIONALS),
    (["complement", "(1)."], 0, RATIONALS),
    (["eval-left", "(01)"], 0, RATIONALS),
    (["bits", "1/3", "-n", "8"], 0, set()),
    (["diag", "1/3", "pi/4"], 0, set()),
    (["interval", ".110***"], 0, RATIONALS),
    (["hyper", "2", "2", "4"], 0, {"uns.hyperops"}),
    (["ord", "eval", "w^w + 1"], 0, {"uns.hyperops", "uns.ordinals"}),
    (["card", "normalize", "choose(aleph_2)"], 0, {"uns.hyperops", "uns.ordinals", "uns.cardinals"}),
    (["--format", "structured", "bits", "1/3"], 0, {"json"}),
    (["bits", "-n", "4"], 2, {"argparse"}),
    (["hyper", "2", "x", "3"], 2, {"argparse"}),
    (["--help"], 0, {"argparse"}),
]


@pytest.mark.parametrize("argv, code, added", LOADS, ids=[" ".join(argv) for argv, _, _ in LOADS])
def test_each_command_loads_only_the_layer_it_calls(argv, code, added):
    returncode, _out, err = _python("-v", "-m", "uns.cli", *argv)
    assert returncode == code, err[-2000:]
    loaded = set(re.findall(r"^import '([\w.]+)'", err, re.MULTILINE))
    watched = {m for m in loaded if m.partition(".")[0] == "uns" or m in ("argparse", "json", *RATIONALS)}
    assert watched == {"uns", "uns.core", "uns.bitseq", "uns.streams"} | added


def test_core_loads_no_other_package_module():
    code = "import sys, uns.core; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'uns'))"
    assert _python("-c", code) == (0, "uns uns.core\n", "")


def test_bitseq_loads_fraction_on_first_use():
    # read from outside, Fraction is fractions' own class, bound on the first
    # read; the first rational made binds it in core in its stand-in's place
    code = (
        "import sys; from uns import bitseq, core; assert 'fractions' not in sys.modules; "
        "from uns.bitseq import Fraction; import fractions; "
        "assert Fraction is fractions.Fraction is vars(bitseq)['Fraction'] is not vars(core)['_Fraction']; "
        "print(bitseq.decode_universal(bitseq.parse_universal('(0)10011.(10)'))); "
        "assert vars(core)['_Fraction'] is Fraction"
    )
    assert _python("-c", code) == (0, "59/3\n", "")


def test_a_first_use_stand_in_builds_on_a_call_or_an_attribute_read_only():
    namespace, built = {}, []

    def build(text):
        built.append(text)
        return re.compile(text)

    namespace["p"] = stand_in = core._FirstUse(namespace, "p", build, "a+")
    assert not hasattr(stand_in, "__wrapped__") and built == []  # a dunder lookup builds nothing
    assert stand_in.fullmatch("aa")[0] == "aa" and namespace["p"].pattern == "a+" and built == ["a+"]
    namespace["n"] = core._FirstUse(namespace, "n", lambda: int)
    assert namespace["n"]("7") == 7 and namespace["n"] is int
    with pytest.raises(AttributeError, match="'uns.bitseq' has no attribute 'Fractions'"):
        uns.bitseq.Fractions  # noqa: B018


def test_every_exported_name_is_its_layers_object():
    for name in uns.__all__:
        layer, own = uns._SOURCE[name]
        assert getattr(uns, name) is getattr(importlib.import_module(f"uns.{layer}"), own), name
        assert vars(uns)[name] is getattr(uns, name)  # bound: the next lookup is a plain read
    assert uns.compare_cardinals is uns.cardinals.compare and uns.compare_streams is uns.streams.compare


def test_dir_and_star_import_cover_the_exports():
    assert set(uns.__all__) | set(uns._EXPORTS) <= set(dir(uns))
    namespace = {}
    exec("from uns import *", namespace)
    assert {name: namespace[name] for name in uns.__all__} == {name: getattr(uns, name) for name in uns.__all__}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'uns' has no attribute 'no_such_name'"):
        uns.no_such_name  # noqa: B018
    assert not hasattr(uns, "Record")  # a layer's name the package does not export


def test_a_layer_resolves_after_a_plain_import():
    code = (
        "import sys, uns; before = sorted(m for m in sys.modules if m.startswith('uns.')); "
        "steps = uns.cardinals.all_single_steps; print(before, steps.__module__, uns.hyper.__module__)"
    )
    assert _python("-c", code) == (0, "[] uns.cardinals uns.hyperops\n", "")


def test_a_term_of_a_layer_not_yet_loaded_unpickles():
    ordinal = uns.parse_ordinal("w^(w^2 + 1)*3 + w + 7")
    cardinal = uns.parse_cardinal("choose(2^aleph_1)")
    code = (
        "import pickle, sys, uns; assert not any(m.startswith('uns.') for m in sys.modules); "
        "o, c = pickle.loads(sys.stdin.buffer.read()); print(uns.format_ordinal(o), uns.format_cardinal(c))"
    )
    found = _python("-c", code, stdin=pickle.dumps((ordinal, cardinal)))
    assert found == (0, f"{uns.format_ordinal(ordinal)} {uns.format_cardinal(cardinal)}\n", "")
