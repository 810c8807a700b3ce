"""Write pinned.json: the answers the benchmark checks every task against.

    PYTHONPATH=src python3 bench/pin.py

The answers were pinned from the commit that introduced the benchmark.  Do
not re-pin to make a changed program pass: a change that alters a
certificate, a witness or ``nodes_explored`` has changed behaviour.  The
order-4 checks of ``certify`` hold for every index, which this script
confirms on a sample before pinning.
"""

from __future__ import annotations

import json
import random

from workloads import F_DEEP_NODES, PINNED_PATH, SHALLOW_SEARCHES, UNAVOIDABLE_PATTERNS, search
from tracing import direct_call

from ziminwords.coding import encoded_counter
from ziminwords.counters import counter
from ziminwords.zimin import Pattern, is_unavoidable, zimin_index


def _same_for_all(values: list) -> int:
    if len(set(values)) != 1:
        raise SystemExit(f"expected one value for every index, found {sorted(set(values))}")
    return values[0]


def main() -> None:
    sample = [0, 2**16 - 1] + random.Random(0).sample(range(1, 2**16 - 1), 14)
    pinned = {
        "f_deep": {f"f(4,2)@{F_DEEP_NODES}": search("f", 4, 2, F_DEEP_NODES, direct_call)},
        "shallow_search": {label: search(kind, n, k, b, direct_call) for label, kind, n, k, b in SHALLOW_SEARCHES},
        "certify": {
            "order3_counters": [[list(s) for s in counter(i, 3)] for i in range(16)],
            "ranked_order4_zimin_index": _same_for_all([zimin_index(counter(i, 4)) for i in sample]),
            "encoded_order4_zimin_index": _same_for_all([zimin_index(encoded_counter(i, 4)) for i in sample[:4]]),
            "unavoidable": {p: is_unavoidable(Pattern.parse(p)) for p in UNAVOIDABLE_PATTERNS},
        },
    }
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
