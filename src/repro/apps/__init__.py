"""The paper's evaluation applications, as workload models and real code.

- :mod:`repro.apps.vld` — Video Logo Detection: the spout -> SIFT
  extractor -> feature matcher -> matching aggregator chain of Fig. 4,
  with the paper's frame-rate distribution and per-frame feature-count
  variability;
- :mod:`repro.apps.fpd` — Frequent Pattern Detection: the two-spout
  (+/-) -> pattern generator -> detector (with feedback loop) ->
  reporter topology of Fig. 5;
- :mod:`repro.apps.synthetic` — the synthetic three-bolt chain used for
  the Fig. 8 underestimation study;
- :mod:`repro.apps.patterns` — the FPD pattern generator's
  candidate-itemset expansion;
- :mod:`repro.apps.sift` — a synthetic SIFT-like feature extraction and
  matching kernel (the VLD bolts' actual computation in the runnable
  examples);
- :mod:`repro.apps.tweets` — synthetic tweet stream generator (Zipf
  item popularity) standing in for the paper's Twitter dataset.
"""

from repro.apps.vld import VLDWorkload
from repro.apps.fpd import FPDWorkload
from repro.apps.synthetic import SyntheticChainWorkload

__all__ = ["VLDWorkload", "FPDWorkload", "SyntheticChainWorkload"]
