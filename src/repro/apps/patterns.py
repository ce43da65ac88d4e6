"""Candidate-itemset expansion for the FPD pattern generator.

The paper's Frequent Pattern Detection application (Sec. V-A) counts
*maximal frequent patterns* over a sliding window of tweets.  Its
pattern-generator bolt expands each transaction into every candidate
itemset, which is :func:`candidate_itemsets`; the runnable FPD example
(``examples/frequent_pattern_detection.py``) counts those candidates
over a sliding window in its detector bolt.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List

from repro.utils.validation import check_positive_int


Itemset = FrozenSet[str]


def candidate_itemsets(
    transaction: Iterable[str], max_size: int
) -> List[Itemset]:
    """All non-empty sub-itemsets of ``transaction`` up to ``max_size``.

    This is the pattern generator's expansion: "candidates include an
    exponential number of possible non-empty combinations of items" —
    bounded in practice by the itemset-size cap.
    """
    check_positive_int("max_size", max_size)
    items = sorted(set(transaction))
    result: List[Itemset] = []
    for size in range(1, min(max_size, len(items)) + 1):
        result.extend(frozenset(c) for c in combinations(items, size))
    return result
