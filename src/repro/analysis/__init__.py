"""Analysis of tuning runs and of the configuration space.

The paper notes (§III.A) that beyond raw speedups, "the Active Harmony
tuning process is also helpful for system administrators and developers to
identify those parameters that actually affect system performance" — it
found e.g. that Squid's ``cache_swap_low`` / ``cache_swap_high`` watermarks
are performance-neutral while thread counts and buffer sizes matter.

This package provides both directions of that insight:

* :mod:`repro.analysis.sensitivity` — direct one-at-a-time sweeps of each
  parameter on a backend (ground truth about the response surface),
* :mod:`repro.analysis.importance` — post-hoc importance estimates mined
  from a recorded :class:`~repro.harmony.history.TuningHistory` (what an
  administrator learns from the tuning run itself, without extra probes).
"""
