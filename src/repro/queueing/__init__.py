"""Queueing-theory substrate: Erlang M/M/k and open Jackson networks.

This package is the mathematical core the DRS performance model is built
on (paper Sec. III-B):

- :mod:`repro.queueing.erlang` — the M/M/k delay system: Erlang-C
  probability, expected sojourn time (the paper's Eq. 1-2), convexity
  helpers used by the greedy optimiser;
- :mod:`repro.queueing.jackson` — the open-queueing-network solution:
  traffic equations over arbitrary topologies (loops included) and the
  network-wide expected sojourn time (Eq. 3).
"""

from repro.queueing.erlang import (
    erlang_b,
    erlang_c,
    expected_sojourn_time,
    expected_waiting_time,
    expected_queue_length,
    min_servers,
    marginal_benefit,
    utilisation,
)
from repro.queueing.mgk import (
    expected_sojourn_time_gg,
    expected_waiting_time_gg,
    marginal_benefit_gg,
)
from repro.queueing.jackson import JacksonNetwork, OperatorLoad

__all__ = [
    "erlang_b",
    "erlang_c",
    "expected_sojourn_time",
    "expected_waiting_time",
    "expected_queue_length",
    "min_servers",
    "marginal_benefit",
    "utilisation",
    "expected_sojourn_time_gg",
    "expected_waiting_time_gg",
    "marginal_benefit_gg",
    "JacksonNetwork",
    "OperatorLoad",
]
