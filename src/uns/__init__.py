"""Exact arithmetic on two-way periodic binary sequences, computable
bit streams, explosive integer operators, ordinals below eps_0, and a
symbolic cardinal rewriter."""

from .bitseq import (
    DEFAULT_BUDGET,
    BudgetError,
    LeftPart,
    NotationError,
    ParseError,
    PeriodicBits,
    RightPart,
    UniversalRational,
    canonicalize,
    complement,
    decode_left,
    decode_right,
    decode_universal,
    encode_fraction,
    encode_integer,
    encode_left_rational,
    encode_universal,
    flip,
    format_universal,
    from_index_set,
    normalize,
    parse_universal,
    to_index_set,
)
from .cardinals import (
    ALEPH_0,
    Aleph,
    CardinalParseError,
    Choose,
    Comparison,
    FiniteBudgetError,
    FiniteCard,
    HyperCard,
    Infinitesimal,
    NoRuleError,
    Pow2,
    PureSet,
    UnnormalizableError,
    aleph,
    attach_infinitesimal,
    diagonal_witness,
    format_cardinal,
    fusion_facts,
    nat_to_set,
    parse_cardinal,
    powerset,
    set_to_nat,
    unification_table,
)
from .cardinals import compare as compare_cardinals
from .cardinals import normalize as normalize_cardinal
from .cardinals import normalize_with_trace
from .hyperops import Exact, Exceeded, hyper, monotone_check
from .ordinals import (
    EPSILON_0,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalBudgetError,
    OrdinalParseError,
    cardinality_of,
    format_ordinal,
    from_int,
    fundamental,
    omega_hyper,
    omega_hyper_limit,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
)
from .streams import (
    PI_OVER_4,
    BitStream,
    CustomStream,
    DiagonalStream,
    DyadicInterval,
    PiOver4Stream,
    RationalStream,
    SqrtStream,
    StarStringError,
    StreamError,
    as_stream,
    diagonal,
    parse_star_string,
    parse_stream,
    rational,
    register_algorithm,
)
from .streams import compare as compare_streams

__version__ = "0.1.0"
