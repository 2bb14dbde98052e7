"""The tuning layer: wiring Active Harmony to the cluster under test.

* :mod:`repro.tuning.iteration` — the measurement-iteration protocol of
  §III.A (warm up / measure / cool down; the Harmony server adjusts the
  configuration between iterations),
* :mod:`repro.tuning.session` — :class:`ClusterTuningSession`, which drives
  any :class:`~repro.harmony.scaling.TuningScheme` (default method,
  parameter duplication, parameter partitioning) against a backend,
* :mod:`repro.tuning.reconfig` — the §IV automatic cluster-reconfiguration
  algorithm (Table 5 / Figure 6).
"""
