"""Parallel experiment engine: independent runs fanned over workers.

Experiments in this repro decompose into independent *runs* — (scenario,
method, strategy, seed, iterations) tuples whose results are then
collated into figures and tables.  This package expresses that structure
explicitly: a :class:`~repro.parallel.plan.RunSpec` names one run and the
picklable function that performs it, and a
:class:`~repro.parallel.executor.ParallelExecutor` executes a batch of
specs under one of two engines (the ``--engine`` axis; by default
``inline`` at ``jobs=1`` and ``shared`` above):

* ``inline`` — in-process, serial, ``jobs`` ignored;
* ``shared`` — the persistent :class:`~repro.parallel.engine.SharedEngine`
  (a worker fleet reused across runs, whose workers start from the
  parent's cache entries and ship new ones home with their results,
  with a serial in-process path over the same cache at ``jobs=1``).

Every run carries its own seed (derived deterministically with
:func:`repro.util.rng.derive_seed`) and every cache is content-addressed
with deterministic values, so the same plan produces bit-identical
results at every ``--engine``/``--jobs`` setting; only wall-clock time
and cache hit rates change.
"""
