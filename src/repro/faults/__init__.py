"""Deterministic fault injection and resilience policies.

Everything here lives on a *virtual* timeline — ticks, one per
measurement — and every random choice is seeded, so a fault plan plus a
seed reproduces the same failure trajectory bit for bit.  See
``docs/robustness.md`` for the fault model and policy semantics.
"""
