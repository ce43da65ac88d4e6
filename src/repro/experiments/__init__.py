"""Experiment drivers regenerating every table and figure of Sec. V.

Each module reproduces one artefact:

- :mod:`repro.experiments.fig6` — sojourn mean/std across allocations;
- :mod:`repro.experiments.fig7` — estimated vs measured sojourn;
- :mod:`repro.experiments.fig8` — underestimation vs bolt CPU time;
- :mod:`repro.experiments.fig9` — rebalancing timelines;
- :mod:`repro.experiments.fig10` — Tmax-driven machine scaling;
- :mod:`repro.experiments.table2` — DRS-layer computation overheads;
- :mod:`repro.experiments.baselines` — DRS vs baseline allocators
  (extension beyond the paper).

Every driver is a thin campaign builder over the scenario engine
(:mod:`repro.scenarios`): it declares its grid as a
:class:`~repro.campaigns.spec.CampaignSpec`, runs it through
:class:`~repro.campaigns.runner.CampaignRunner` (replications fan out
over worker processes) and shapes the merged results into its
paper-figure dataclasses.  The shared convenience layer (passive runs,
the DRS-to-simulator binding) lives in
:mod:`repro.experiments.harness`; ``passive_recommendation`` comes from
:mod:`repro.scenarios.binding`.
"""

from repro.experiments.harness import DRSBinding, run_passive
from repro.scenarios.binding import passive_recommendation

__all__ = ["run_passive", "passive_recommendation", "DRSBinding"]
