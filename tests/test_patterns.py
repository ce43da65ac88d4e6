"""Tests for the FPD pattern generator's candidate-itemset expansion."""

import pytest

from repro.apps.patterns import candidate_itemsets


class TestCandidateItemsets:
    def test_singletons_and_pairs(self):
        result = candidate_itemsets(["a", "b"], max_size=2)
        assert set(result) == {
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        }

    def test_size_cap(self):
        result = candidate_itemsets(["a", "b", "c"], max_size=1)
        assert all(len(s) == 1 for s in result)

    def test_duplicate_items_deduplicated(self):
        result = candidate_itemsets(["a", "a"], max_size=2)
        assert result == [frozenset({"a"})]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            candidate_itemsets(["a"], max_size=0)
