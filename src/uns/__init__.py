"""Exact arithmetic on two-way periodic binary sequences, computable bit
streams, explosive integer operators, ordinals below eps_0, and a
symbolic cardinal rewriter.

`import uns` loads no layer.  A layer, or a name the package exports
from one, is loaded on first use (PEP 562) and then bound here, so each
later lookup is a plain attribute read."""

# each layer, with the names the package exports from it; public:own
# exports the layer's own name under another one
_EXPORTS = {
    "bitseq": """DEFAULT_BUDGET BudgetError LeftPart NotationError ParseError PeriodicBits RightPart
        UniversalRational canonicalize complement decode_left decode_right decode_universal
        encode_fraction encode_integer encode_left_rational encode_universal flip format_universal
        from_index_set normalize parse_universal to_index_set""",
    "streams": """PI_OVER_4 BitStream CustomStream DiagonalStream DyadicInterval PiOver4Stream
        RationalStream SqrtStream StarStringError StreamError as_stream diagonal parse_star_string
        parse_stream rational register_algorithm compare_streams:compare""",
    "hyperops": "Exact Exceeded hyper monotone_check",
    "ordinals": """EPSILON_0 OMEGA ONE ZERO Ordinal OrdinalBudgetError OrdinalParseError cardinality_of
        format_ordinal from_int fundamental omega_hyper omega_hyper_limit ord_add ord_cmp ord_mul
        ord_pow parse_ordinal""",
    "cardinals": """ALEPH_0 Aleph CardinalParseError Choose Comparison FiniteBudgetError FiniteCard
        HyperCard Infinitesimal NoRuleError Pow2 PureSet UnnormalizableError aleph
        attach_infinitesimal diagonal_witness format_cardinal fusion_facts nat_to_set
        parse_cardinal powerset set_to_nat unification_table compare_cardinals:compare
        normalize_cardinal:normalize normalize_with_trace""",
}
# public name -> (layer, the name in the layer)
_SOURCE = {
    public: (layer, own or public)
    for layer, names in _EXPORTS.items()
    for public, _, own in (name.partition(":") for name in names.split())
}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module  # here, so the namespace holds only the exports

    if name in _EXPORTS:  # the import binds the layer here itself
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer, own = _SOURCE[name]
    value = globals()[name] = getattr(import_module(f".{layer}", __name__), own)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
