"""Analytic performance backend.

The paper measures WIPS on a live testbed; we replace the testbed with a
closed queueing-network model solved by approximate Mean Value Analysis:

* :mod:`repro.model.base` — the backend interface (:class:`Scenario` in,
  :class:`Measurement` out) shared with the discrete-event backend,
* :mod:`repro.model.mva` — single-class Schweitzer AMVA with Seidmann's
  multi-server transformation, solved as the root of one population
  equation per network,
* :mod:`repro.model.pools` — M/M/c/K waiting/blocking corrections for the
  finite thread/connection pools (``maxProcessors``, ``acceptCount``,
  ``max_connections``…),
* :mod:`repro.model.demands` — assembles per-node station demands from the
  server models of :mod:`repro.cluster`,
* :mod:`repro.model.fluid` — the fluid/mean-field limit of that equation
  for very large N,
* :mod:`repro.model.hierarchy` — replica-group detection for hierarchical
  (one-representative-per-tier) aggregation,
* :mod:`repro.model.analytic` — the :class:`AnalyticBackend` fixed-point
  solver (its ``approximation=`` knob selects exact/fluid/hierarchical),
* :mod:`repro.model.noise` — the measurement-noise model.
"""
