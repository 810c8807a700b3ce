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

Submodules load on first use: importing the package loads none of them,
and ``ziminwords.zimin_index`` (or ``from ziminwords import zimin_index``)
imports ``zimin`` when it is first asked for, so a command pays only for
the modules it runs.
"""

import importlib

# each public name, by the submodule that defines it; the package also
# exports the submodule ``automata`` itself
_HOMES = {
    "words": (
        "RankedSymbol", "RankedWord", "guarded_power", "occurrences", "sym", "tau", "tower",
    ),
    "zimin": (
        "MorphismWitness", "Pattern", "encounters", "is_unavoidable", "matches",
        "zimin_index", "zimin_pattern", "zimin_type",
    ),
    "counters": ("counter", "counter_length", "counter_stream", "decode_counter"),
    "coding": (
        "Parse", "ParseContext", "context_of", "encoded_counter", "is_simple",
        "language_dfas", "parse_occurrences", "parse_of", "parses", "psi", "psi_symbol",
    ),
    "search": (
        "SearchCertificate", "counter_witness_bounds", "f_value", "first_moment_threshold",
        "longest_avoiding", "match_count_enumerated", "match_probability",
    ),
    "abelian": (
        "AbelianAssignment", "abelian_equiv", "abelian_occurrence", "encounters_abelian_zimin",
        "g_lower_bound", "g_upper_bound", "g_upper_recurrence", "g_value", "parikh",
    ),
    "errors": ("MalformedCounterError", "RegexSyntaxError", "ResourceLimitError"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "automata"]


def __getattr__(name):
    if name == "automata":
        return importlib.import_module(".automata", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
