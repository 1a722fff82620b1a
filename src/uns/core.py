"""What every layer shares: Record, the base of every immutable value;
the bit budget and BudgetError, the base of every refusal; ParseError,
the base of every grammar's error; _memo, the one memo policy, least
recently used with 1024 entries per function; the package's two
crossings of decimal text, _int_str, which prints an integer or a
rational, and _read_int, which reads an integer.  Both work past the
interpreter's limit on integer text and leave it as it is; _show quotes
a value in an error message through _int_str, an integer, and each of a
rational's two, past a bound by its size.  And _post_order, the one walk
over values made of values, from a stack, so a value nested past the
interpreter's calls is printed (_text, which Record's repr uses),
pickled and rewritten; Record's == and hash walk from a stack too.

Start-up pays only for what a command reads.  _FirstUse stands in for a
name until its first use: Fraction, which brings decimal and numbers
along, is loaded on the first rational made, a regular expression is
compiled on its first match, and cli reads an upper layer off the
package on the first command that uses it.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from importlib import import_module
from operator import attrgetter

DEFAULT_BUDGET = 1 << 20  # bits
# the most digits d with 10^d below 2^DEFAULT_BUDGET, d log2(10) < DEFAULT_BUDGET;
# log2(10) < 3.321928095 gives the same d, as no integer lies between the quotients
BUDGET_DIGITS = DEFAULT_BUDGET * 10**9 // 3321928095

# The one memo policy of the package, least recently used past 1024 entries
# a function: ordinals.ord_pow, cardinals._entry, streams.as_stream and
# cli._shared_parser, each kept for its measured repeats (tests/test_layers).
# Typed, so 1, 1.0 and True stay apart on their way to ordinals._coerce.
_memo = lru_cache(maxsize=1024, typed=True)


class _FirstUse:
    """Stands in for namespace[name] until the name's first call or
    attribute read, which binds build(*args) there in its place and
    forwards the call or read to it.  A dunder lookup, such as
    hasattr(x, "__wrapped__"), builds nothing."""

    def __init__(self, namespace: dict, name: str, build, *args):
        self._namespace, self._name, self._build, self._args = namespace, name, build, args

    def _value(self):
        value = self._namespace[self._name] = self._build(*self._args)
        return value

    def __call__(self, *args, **kwargs):
        return self._value()(*args, **kwargs)

    def __getattr__(self, attr: str):
        if attr.startswith("__"):
            raise AttributeError(attr)
        return getattr(self._value(), attr)


# fractions.Fraction, loaded on the first rational made
_Fraction = _FirstUse(globals(), "_Fraction", lambda: import_module("fractions").Fraction)


class BudgetError(ValueError):
    """A refusal: the exact value asked for would not fit its bit budget."""


class ParseError(ValueError):
    """Raised when text does not follow its grammar."""


def _refuse_long_numerals(text: str):
    """Refuse, unread, a text holding a decimal numeral with more digits
    than any value within DEFAULT_BUDGET bits has."""
    if len(text) > BUDGET_DIGITS + 1:
        longest = max(map(len, re.findall(r"\d+", text)), default=0)
        if longest > BUDGET_DIGITS + 1:
            raise BudgetError(f"a {longest}-digit numeral exceeds the {DEFAULT_BUDGET}-bit budget")


class Record:
    """An immutable value whose fields are its class's __slots__.

    A direct subclass lists its fields in a __slots__ tuple, may give
    defaults to the trailing ones in _defaults, and validates a new
    instance in _check.  Records are equal when they are of one class and
    their fields are equal, and hash alike then; assigning a field raises
    AttributeError; pickling and copying rebuild through the constructor.
    A class that sets _interned builds its values itself, one object per
    value, and so may keep identity == and hash, as ordinals._Term does.

    == and hash walk the fields from a stack, into each field that is a
    record compared so, so a record of any depth compares and hashes.
    __init__ is compiled with the class from its field names, as
    dataclasses does, so its signature reads as the fields: a generic
    loop would cost every construction, and importing dataclasses (with
    inspect, ast and dis) every start-up more than the package's imports.
    """

    __slots__ = ()
    _defaults: dict = {}
    _interned = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__["__slots__"]
        # _fields, the fields as one tuple, is read at every node a walk
        # visits: a getter built once per class, not a generator per call
        get = attrgetter(*fields) if fields else lambda self: ()
        cls._fields = property(get if len(fields) != 1 else lambda self: (get(self),))
        if cls._interned:
            return
        params = [f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in fields]
        body = [f"    _set_{n}(self, {n})" for n in fields]
        if cls._check is not Record._check:
            body.append("    _check(self)")
        source = f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass") + "\n"
        ns = {"_defaults": cls._defaults, "_check": cls._check}
        ns.update((f"_set_{n}", cls.__dict__[n].__set__) for n in fields)
        exec(source, ns)
        cls.__init__ = ns["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _check(self):
        """Validation of a new instance, run once its fields are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # field by field, a field that is a record compared so walked in turn
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for x, y in zip(a._fields, b._fields):
                if x is y:
                    continue
                if type(x).__eq__ is Record.__eq__ and y.__class__ is x.__class__:
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        # the fields' hash, a record among them by its class in its place and
        # its fields after; not told apart by id, so sharing changes nothing
        items, stack = [], [self]
        while stack:
            for v in stack.pop()._fields:
                if type(v).__hash__ is Record.__hash__:
                    stack.append(v)
                    v = type(v)
                items.append(v)
        return hash(tuple(items))

    def __reduce__(self):
        # a flat table, kids first, of the values self is made of: any depth pickles and copies
        nodes = list(_post_order(self, _parts))
        at = {id(x): i for i, x in enumerate(nodes)}
        return _rebuilt, ([(x, None) if (p := _parts(x)) is None else (type(x), [at[id(v)] for v in p]) for x in nodes],)

    def __repr__(self) -> str:
        """The fields as name=value, each record, tuple or frozenset among
        them written so from the walk; past DEFAULT_BUDGET characters, the
        class and the number of records the value is made of."""
        try:
            return _text(self, _shown_kids, _shown_pieces, "repr")
        except BudgetError:
            return self._counted()

    def _counted(self) -> str:
        # a repr past the budget: the class and the number of records self is made of
        count = sum(isinstance(x, Record) for x in _post_order(self, _parts))
        return f"{type(self).__qualname__}(<{count} nodes>)"


def _post_order(root, kids):
    """Each node under root, and root, once and after the nodes kids(node)
    gives (None for none), told apart by id as root holds them all, from a
    stack of the nodes being walked, each with its kids still to see."""
    seen = {id(root)}
    stack = [(root, iter(kids(root) or ()))]
    while stack:
        node, rest = stack[-1]
        for kid in rest:
            if (i := id(kid)) not in seen:
                seen.add(i)
                stack.append((kid, iter(kids(kid) or ())))
                break
        else:
            stack.pop()
            yield node


def _parts(x):
    # a record's fields or a tuple's or frozenset's items, which pickling rebuilds it from; None for another value
    return x._fields if isinstance(x, Record) else x if type(x) in (tuple, frozenset) else None


def _rebuilt(table: list):
    # Record.__reduce__'s value: each record through its constructor, so _check runs and a term is interned
    built = []
    for x, places in table:
        if places is not None:
            parts = [built[i] for i in places]
            x = x(parts) if x in (tuple, frozenset) else x(*parts)
        built.append(x)
    return built[-1]


def _joined(head: str, values, tail: str, empty: str) -> list:
    # values between head and tail, ", " apart, or empty when there are none
    pieces = [head]
    for v in values:
        pieces += (v, ", ")
    pieces[-1:] = [tail] if values else [empty]
    return pieces


def _text(top, kids, pieces, what: str) -> str:
    """The text of top, where pieces(x), called for each node after the
    nodes kids(x), gives x's text as literal strings and those nodes.  A
    text past DEFAULT_BUDGET characters, as one writing a shared node at
    each place may be, is refused before it is written."""
    parts, size = {}, {}
    for x in _post_order(top, kids):
        parts[id(x)] = p = pieces(x)
        size[id(x)] = sum(len(q) if type(q) is str else size[id(q)] for q in p)
    if size[id(top)] > DEFAULT_BUDGET:
        raise BudgetError(f"a {_show(size[id(top)])}-character {what} exceeds the {DEFAULT_BUDGET}-character budget")
    out, stack = [], [top]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        else:
            stack += reversed(parts[id(x)])
    return "".join(out)


def _shown(v) -> bool:
    # written from the walk by Record.__repr__: a record that keeps it, a tuple, a frozenset
    return type(v) in (tuple, frozenset) or type(v).__repr__ is Record.__repr__


def _shown_kids(x) -> list:
    return [v for v in (x._fields if isinstance(x, Record) else x) if _shown(v)]


def _shown_pieces(x) -> list:
    # a record's fields as name=value, a tuple's or frozenset's items as
    # their own repr writes them, and any other value as _show quotes it
    if isinstance(x, Record):
        pieces = [f"{type(x).__qualname__}("]
        for i, (name, v) in enumerate(zip(x.__slots__, x._fields)):
            pieces += (f"{', ' if i else ''}{name}=", v if _shown(v) else _show(v))
        return pieces + [")"]
    values = [v if _shown(v) else _show(v) for v in x]
    if type(x) is tuple:
        return _joined("(", values, ",)" if len(x) == 1 else ")", "()")
    return _joined("frozenset({", values, "})", "frozenset()")


def _int_str(n: int | Fraction) -> str:
    """str(n) for an integer or a rational, also past the interpreter's
    digit limit: there an integer's digits come off in 512-digit chunks by
    divmod, and a rational prints as its numerator and, unless it is 1, its
    denominator, touching no global setting."""
    try:
        return str(n)
    except ValueError:
        pass
    n, den = n.numerator, n.denominator  # an integer's own: n and 1
    if den != 1:
        return f"{_int_str(n)}/{_int_str(den)}"
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks, unit = [], 10**512  # under 640, the least limit the interpreter accepts
    while n >= unit:
        n, r = divmod(n, unit)
        chunks.append(f"{r:0512d}")
    return sign + str(n) + "".join(reversed(chunks))


def _show(x, max_bits: int = 1 << 16) -> str:
    """x as an error message quotes it: repr(x), but an integer through
    _int_str up to max_bits bits and past that by its size, since its
    digits take time quadratic in their number to write, and a rational
    (its repr writes them with str) as Fraction(n, d), each integer so;
    fractions is looked up, not loaded, as no rational exists before."""
    if type(x) is int:
        return _quoted(x, max_bits)
    if isinstance(x, getattr(sys.modules.get("fractions"), "Fraction", ())):
        return f"{type(x).__name__}({_quoted(x.numerator, max_bits)}, {_quoted(x.denominator, max_bits)})"
    return repr(x)


def _quoted(n: int, max_bits: int) -> str:
    # an integer as _show quotes it
    return _int_str(n) if n.bit_length() <= max_bits else f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


_DECIMAL = _FirstUse(globals(), "_DECIMAL", re.compile, r"\s*([+-]?)(\d+)\s*")


def _read_int(text: str) -> int:
    """int(text), also past the interpreter's digit limit: there the digits
    are read in 512-digit chunks, joined pairwise, touching no global
    setting.  A numeral longer than any value within DEFAULT_BUDGET bits
    is refused unread."""
    _refuse_long_numerals(text)
    try:
        return int(text)
    except ValueError:
        m = _DECIMAL.fullmatch(text)
        if m is None:
            raise
    digits = m[2]
    # chunks least significant first, each pass joining neighbours: a
    # balanced tree of products, where one running total would be quadratic
    parts = [int(digits[max(0, i - 512) : i]) for i in range(len(digits), 0, -512)]
    unit = 10**512
    while len(parts) > 1:
        high = parts[1::2] + [0] * (len(parts) % 2)
        parts = [lo + hi * unit for lo, hi in zip(parts[::2], high)]
        unit *= unit
    return -parts[0] if m[1] == "-" else parts[0]
