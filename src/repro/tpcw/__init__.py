"""TPC-W: the transactional web benchmark used as the performance metric.

The paper measures every experiment in WIPS (Web Interactions Per Second)
under the three TPC-W workload mixes of its Table 1 — Browsing (WIPSb),
Shopping (WIPS) and Ordering (WIPSo).  This package implements:

* the 14 web interactions and the exact Table 1 mix percentages
  (:mod:`repro.tpcw.interactions`),
* per-interaction *resource profiles* — how much static content, servlet
  CPU, database reads/writes each interaction generates
  (:mod:`repro.tpcw.profiles`),
* the item catalog at the paper's scale factor of 10,000 items with Zipf
  popularity (:mod:`repro.tpcw.catalog`),
* the closed-loop emulated-browser behaviour (:mod:`repro.tpcw.browser`),
* WIPS / WIPSb / WIPSo metric helpers (:mod:`repro.tpcw.metrics`).
"""
