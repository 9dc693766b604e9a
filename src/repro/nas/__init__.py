"""Interval search: automated deformable-layer placement (paper §III-A-a).

* :class:`DualPathLayer` — the searchable regular/deformable site (Fig. 4c);
* :func:`gumbel_softmax` — Eq. 5 sampling;
* :class:`LatencyTable` — the on-device ``t(w_n)`` lookup;
* :func:`latency_penalty` — Eq. 6 (gradient per Eq. 8);
* :class:`IntervalSearch` — Algorithm 1 end to end;
* :func:`manual_interval_placement` — the YOLACT++ interval-3 baseline.
"""

from repro.nas.gumbel import anneal_tau, gumbel_softmax, sample_noise
from repro.nas.dual_path import DEFORM, REGULAR, DualPathLayer
from repro.nas.latency_table import (LatencyTable, LayerLatency,
                                     deform_latency_ms)
from repro.nas.penalty import (estimated_deform_latency, latency_penalty,
                               latency_penalty_gradient)
from repro.nas.search import (IntervalSearch, SearchConfig, SearchResult,
                              manual_interval_placement)

__all__ = [
    "gumbel_softmax", "anneal_tau", "sample_noise",
    "DualPathLayer", "REGULAR", "DEFORM",
    "LatencyTable", "LayerLatency", "deform_latency_ms",
    "latency_penalty", "latency_penalty_gradient",
    "estimated_deform_latency",
    "IntervalSearch", "SearchConfig", "SearchResult",
    "manual_interval_placement",
]
