"""Deterministic random-number management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` obtained through these helpers, so that a
single experiment seed reproduces a run bit-for-bit.  Sub-streams are derived
by hashing a parent seed with a string *purpose* label, which keeps streams
independent without global sequencing (adding a new consumer never perturbs
existing streams).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "spawn_rng", "RngFactory"]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of labels.

    The derivation is a SHA-256 hash of the parent seed and the labels, so
    it is stable across processes and Python versions (unlike ``hash()``).

    Parameters
    ----------
    seed:
        Parent seed (any non-negative integer).
    labels:
        Arbitrary objects identifying the consumer (converted with ``repr``).

    Returns
    -------
    int
        A 64-bit seed suitable for :func:`numpy.random.default_rng`.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def spawn_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return a generator seeded from ``derive_seed(seed, *labels)``."""
    return np.random.default_rng(derive_seed(seed, *labels))


class RngFactory:
    """Factory producing independent named random streams from one root seed.

    Examples
    --------
    >>> f = RngFactory(42)
    >>> a = f.get("browser", 0)
    >>> b = f.get("browser", 1)
    >>> float(a.random()) != float(b.random())
    True
    >>> RngFactory(42).get("browser", 0).random() == \
        RngFactory(42).get("browser", 0).random()
    True
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def get(self, *labels: object) -> np.random.Generator:
        """Return a fresh generator for the stream identified by ``labels``."""
        return spawn_rng(self._seed, *labels)

    def child(self, *labels: object) -> "RngFactory":
        """Return a sub-factory rooted at the derived seed for ``labels``."""
        return RngFactory(derive_seed(self._seed, *labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed})"
