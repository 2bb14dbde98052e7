"""Crash-safe durability: write-ahead journals and a persistent store.

The engine-level robustness layer (docs/robustness.md, "Layer 2"):

* :mod:`repro.durability.framing` — the length+CRC framed append format
  every durable file shares, with torn-tail detection.
* :mod:`repro.durability.journal` — :class:`SessionJournal` /
  :class:`JournaledRunner` (per-measurement write-ahead logging for
  tuning sessions) and :class:`ExperimentJournal` (per-spec logging for
  fan-out experiments), powering ``repro tune --resume`` and
  ``repro experiment … --resume`` with bit-identical continuation.
* :mod:`repro.durability.diskstore` — :class:`StorePersistence`,
  checksummed atomic segments behind ``--store-path`` that let the
  shared engine's cache entries survive process death, with corruption
  quarantine.  The parent engine loads them into its memos at bring-up
  and flushes new entries after every run; fleet workers never touch
  the directory.
"""
