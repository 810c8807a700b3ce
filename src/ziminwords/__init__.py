"""Zimin patterns, higher-order counters, binary codings, avoidance searches.

The package follows the objects it computes with:

- words:     ranked symbols/words, occurrences, the tower function
- zimin:     Zimin patterns, type and index, matching, unavoidability
- counters:  Stockmeyer higher-order counters and their validation
- automata:  a small DFA algebra (regex, product, minimise, equivalence)
- coding:    the binary coding psi, the C/L/R/F languages, parses, contexts
- search:    exhaustive f(n, k) searches with certificates and bounds
- abelian:   abelian equivalence, abelian Zimin encounters, g(n, k), bounds
- oracles:   brute-force reference implementations used by the test suites
- verify:    executable lemma/theorem suites (also behind the CLI)
- cli:       the `ziminwords` command line front end
"""

from .words import (
    RankedSymbol,
    RankedWord,
    guarded_power,
    occurrences,
    sym,
    tau,
    tower,
)
from .zimin import (
    MorphismWitness,
    Pattern,
    encounters,
    is_unavoidable,
    matches,
    zimin_index,
    zimin_pattern,
    zimin_type,
)
from .counters import counter, counter_length, counter_stream, decode_counter
from .coding import (
    Parse,
    ParseContext,
    context_of,
    encoded_counter,
    is_simple,
    language_dfas,
    parse_occurrences,
    parse_of,
    parses,
    psi,
    psi_symbol,
)
from .search import (
    SearchCertificate,
    counter_witness_bounds,
    f_value,
    first_moment_threshold,
    longest_avoiding,
    match_count_enumerated,
    match_probability,
)
from .abelian import (
    AbelianAssignment,
    abelian_equiv,
    abelian_occurrence,
    encounters_abelian_zimin,
    g_lower_bound,
    g_upper_bound,
    g_upper_recurrence,
    g_value,
    parikh,
)
from .errors import MalformedCounterError, RegexSyntaxError, ResourceLimitError
from . import automata

__all__ = [
    "RankedSymbol",
    "RankedWord",
    "guarded_power",
    "occurrences",
    "sym",
    "tau",
    "tower",
    "MorphismWitness",
    "Pattern",
    "encounters",
    "is_unavoidable",
    "matches",
    "zimin_index",
    "zimin_pattern",
    "zimin_type",
    "counter",
    "counter_length",
    "counter_stream",
    "decode_counter",
    "Parse",
    "ParseContext",
    "context_of",
    "encoded_counter",
    "is_simple",
    "language_dfas",
    "parse_occurrences",
    "parse_of",
    "parses",
    "psi",
    "psi_symbol",
    "SearchCertificate",
    "counter_witness_bounds",
    "f_value",
    "first_moment_threshold",
    "longest_avoiding",
    "match_count_enumerated",
    "match_probability",
    "AbelianAssignment",
    "abelian_equiv",
    "abelian_occurrence",
    "encounters_abelian_zimin",
    "g_lower_bound",
    "g_upper_bound",
    "g_upper_recurrence",
    "g_value",
    "parikh",
    "MalformedCounterError",
    "RegexSyntaxError",
    "ResourceLimitError",
    "automata",
]
