"""Shared utilities: seeded RNG management, running statistics, units, tables.

These helpers are deliberately dependency-light; everything above them in
the stack (simulation kernel, tuner, cluster models) builds on this layer.
"""
