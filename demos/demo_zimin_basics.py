#!/usr/bin/env python3
"""Tour of the core Zimin machinery: patterns, type, index, unavoidability.

Run:  python3 demos/demo_zimin_basics.py
"""

from ziminwords import (
    Pattern,
    encounters,
    is_unavoidable,
    matches,
    zimin_index,
    zimin_pattern,
    zimin_type,
)

print("== Zimin patterns ==")
for n in range(5):
    z = zimin_pattern(n)
    print(f"Z_{n} = {z or 'e'}   (length {len(z)})")

print("\n== matching and encountering ==")
w, p = "nana", Pattern.parse("xx")
witness = matches(w, p)
print(f"{w!r} matches {p}: x1 -> {witness.assignment[1]!r}")

got = encounters("banana", p)
print(f"'banana' encounters {p} at offset {got[0]} via {got[1].assignment}")

print("\n== Zimin type and index ==")
for w in ["aaab", "aba", "a" * 7 + "b" + "a" * 7, "baaabaaa", "bbaba"]:
    print(f"type({w!r}) = {zimin_type(w)},  index({w!r}) = {zimin_index(w)}")

print("\n== unavoidability (decided by free-letter deletions) ==")
for text in ["x", "xx", "xyx", "xyxzxyx", "x1 x2 x1 x2"]:
    p = Pattern.parse(text)
    print(f"{str(p):18s} unavoidable: {is_unavoidable(p)}")
