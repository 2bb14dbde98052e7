"""Request-level discrete-event backend.

Where the analytic backend (:mod:`repro.model`) solves a queueing network,
this backend *runs* the cluster: emulated-browser processes think and issue
interactions; page and image requests flow through proxy, application and
database server processes contending for CPU, disk, thread pools and
connection pools built on the :mod:`repro.sim` kernel.  It shares every
cost constant and cache/hit model with the analytic backend (both import
the same :mod:`repro.cluster` server models), so the two backends are two
*evaluations* of one substrate — the cross-validation tests assert they
agree on throughput within a tolerance.

Use it for validation and request-level detail (latency distributions,
queue dynamics); use the analytic backend for 200-iteration tuning sweeps.
"""
