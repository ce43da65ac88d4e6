"""Tests for the Program 6 solver (minimum processors for Tmax)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleAllocationError
from repro.model import PerformanceModel
from repro.scheduler import min_processors_for_target
from repro.scheduler.exhaustive import exhaustive_min_processors


def model_from(lams, mus):
    names = [f"op{i}" for i in range(len(lams))]
    return PerformanceModel.from_measurements(
        names, lams, mus, external_rate=lams[0]
    )


class TestMinProcessorsForTarget:
    def test_meets_target(self, chain_model):
        allocation = min_processors_for_target(chain_model, 1.0)
        assert chain_model.expected_sojourn(list(allocation.vector)) <= 1.0

    def test_minimality_one_less_fails(self, chain_model):
        """Removing any single processor violates the target or stability."""
        tmax = 1.0
        allocation = min_processors_for_target(chain_model, tmax)
        floor = chain_model.min_allocation()
        for index, name in enumerate(chain_model.operator_names):
            if allocation[name] <= floor[index]:
                continue
            reduced = allocation.decrement(name)
            assert (
                chain_model.expected_sojourn(list(reduced.vector)) > tmax
            ), f"removing a processor from {name} still met the target"

    def test_matches_exhaustive_total(self, chain_model):
        tmax = 1.2
        greedy = min_processors_for_target(chain_model, tmax)
        best, _ = exhaustive_min_processors(chain_model, tmax)
        assert greedy.total == best.total

    def test_loose_target_returns_floor(self, chain_model):
        allocation = min_processors_for_target(chain_model, 1e9)
        assert list(allocation.vector) == chain_model.min_allocation()

    def test_impossible_target_raises(self, chain_model):
        # Below the pure-service-time floor no allocation works.
        with pytest.raises(InfeasibleAllocationError, match="floor"):
            min_processors_for_target(chain_model, 1e-9)

    def test_hard_limit_respected(self, chain_model):
        with pytest.raises(InfeasibleAllocationError):
            min_processors_for_target(
                chain_model, 0.51, hard_limit=chain_model.min_total_processors()
            )

    def test_rejects_non_positive_tmax(self, chain_model):
        with pytest.raises(ValueError):
            min_processors_for_target(chain_model, 0.0)

    def test_paper_vld_scenario(self, vld_like_topology):
        """Program 6 on the calibrated VLD: a Tmax between E[T](8:8:1) and
        E[T](10:11:1) needs more than 17 but at most 22 executors."""
        model = PerformanceModel.from_topology(vld_like_topology)
        e_17 = model.expected_sojourn([8, 8, 1])
        e_22 = model.expected_sojourn([10, 11, 1])
        tmax = (e_17 + e_22) / 2.0
        allocation = min_processors_for_target(model, tmax)
        assert 17 < allocation.total <= 22


@settings(max_examples=50, deadline=None)
@given(
    loads=st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=20.0),
            st.floats(min_value=0.5, max_value=10.0),
        ),
        min_size=1,
        max_size=3,
    ),
    tightness=st.floats(min_value=1.05, max_value=5.0),
)
def test_program6_meets_and_is_minimal_total(loads, tightness):
    """The greedy answer meets Tmax and no smaller total does (checked
    against exhaustive search over totals)."""
    lams = [lam for lam, _ in loads]
    mus = [mu for _, mu in loads]
    model = model_from(lams, mus)
    floor_value = model.expected_sojourn(
        [k + 30 for k in model.min_allocation()]
    )
    tmax = floor_value * tightness
    greedy = min_processors_for_target(model, tmax)
    assert model.expected_sojourn(list(greedy.vector)) <= tmax
    best, _ = exhaustive_min_processors(model, tmax, search_limit=greedy.total)
    assert best.total == greedy.total
