"""The paper's analysis pipeline, recomputed from generated tables.

One module per paper artifact:

====================  ==========================================
Module                Paper artifact
====================  ==========================================
``national``          Figure 2 (daily national metric series)
``regional``          Figure 3 + Table 4 (oblast level)
``city``              Table 1 + Figure 4 (city level)
``paths``             Table 2 + Figure 9 (path diversity)
``asn_metrics``       Tables 3, 5, 6 (AS level)
``border``            Figure 5 (border-AS heatmap)
``casestudy``         Figure 6 (AS 199995 / Hurricane Electric)
``distros``           Figures 7-8 (metric distributions)
``report``            every section of ``repro report`` as text
====================  ==========================================

``report`` holds one function per section, the four extension sections
included; :func:`repro.full_report` and ``repro report`` run and render
them through :mod:`repro.runtime.experiments`, so both print the same
document.

Extension modules (the paper's future-work items): ``outages`` (date-level
anomaly detection), ``events_impact`` (event study), ``routing_churn``
(BGP-collector view), ``uncertainty`` (bootstrap cross-check of Table 1),
``protocol`` (CCA-mix validity), ``hopgeo`` (rDNS geolocation cross-check).

Every function here consumes only the generated NDT/traceroute tables (plus
the IP→AS trie and AS registry, the analogues of routeviews/whois data);
none reads the calibration targets.
"""

from repro.analysis.common import (
    METRICS,
    client_as_column,
    slice_period,
    slice_year,
    with_periods,
)
from repro.analysis.periods import PERIOD_NAMES, study_periods
from repro.traceroute.pathrecord import parse_as_path

__all__ = [
    "METRICS",
    "PERIOD_NAMES",
    "client_as_column",
    "parse_as_path",
    "slice_period",
    "slice_year",
    "study_periods",
    "with_periods",
]
