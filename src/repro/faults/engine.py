"""Engine-layer fault injection: failures of the *harness*, not the cluster.

PR 4's :class:`~repro.faults.plan.FaultPlan` models the system under test
misbehaving; an :class:`EngineFaultPlan` models the measurement machinery
itself breaking — a pool worker SIGKILLed mid-plan, the fleet refusing to
(re)build, a worker stalling past its (virtual) deadline, a store segment
torn mid-write by a crash.  Like everything else in the repo the schedule
is deterministic and clock-free: faults fire by *ordinal* (the Nth pooled
run, the Nth fleet build, the Nth segment write), so the same plan
reproduces the same failure trajectory bit for bit.

The responses under test form the degradation ladder:

* a killed worker ⇒ the shared fleet tears down, rebuilds, and retries
  the plan once (specs are idempotent, so a re-run is safe);
* a fleet that cannot be (re)built, or breaks again after its rebuild ⇒
  :class:`~repro.parallel.executor.ParallelExecutor` degrades
  shared → inline rather than aborting the run;
* a slow worker ⇒ the attempt is abandoned on the virtual timeline and
  the plan retried on the same fleet;
* a torn segment write ⇒ the next load quarantines the damaged entries
  (counted, never served) and keeps the rest.

Every response increments a counter on :class:`EngineResilienceStats`, so
chaos reports can show what the engine survived next to what the modeled
cluster survived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "EngineFaultInjector",
    "EngineFaultPlan",
    "EngineResilienceStats",
    "FleetUnavailableError",
    "active_injector",
    "install_engine_faults",
]


class FleetUnavailableError(RuntimeError):
    """The worker fleet could not be built or rebuilt.

    The signal that drives the degradation ladder: callers catch this and
    fall back to the next-simpler engine instead of failing the run.
    """


@dataclass(frozen=True)
class EngineFaultPlan:
    """A deterministic schedule of execution-engine failures.

    All indexes are 1-based ordinals of the corresponding operation
    since the injector was installed.
    """

    #: Pooled runs whose first attempt dies as if a worker was killed
    #: (surfaces as BrokenProcessPool; the fleet rebuilds and retries).
    kill_worker_runs: tuple[int, ...] = ()
    #: Number of initial fleet build attempts that fail outright.
    build_failures: int = 0
    #: Pooled runs whose first attempt stalls past the virtual deadline
    #: (abandoned and retried on the same fleet).
    slow_runs: tuple[int, ...] = ()
    #: Store segment writes that land torn (crash mid-write): the file
    #: appears, but its last frame is truncated.
    torn_store_writes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kill_worker_runs", tuple(sorted(self.kill_worker_runs))
        )
        object.__setattr__(self, "slow_runs", tuple(sorted(self.slow_runs)))
        object.__setattr__(
            self, "torn_store_writes", tuple(sorted(self.torn_store_writes))
        )
        for name in ("kill_worker_runs", "slow_runs", "torn_store_writes"):
            ordinals = getattr(self, name)
            if any(i < 1 for i in ordinals):
                raise ValueError(f"{name} ordinals are 1-based, got {ordinals}")
        if self.build_failures < 0:
            raise ValueError(
                f"build_failures must be >= 0, got {self.build_failures}"
            )
        overlap = set(self.kill_worker_runs) & set(self.slow_runs)
        if overlap:
            raise ValueError(
                f"runs {sorted(overlap)} scheduled as both killed and slow"
            )

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the plan."""
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self.kill_worker_runs,
                    self.build_failures,
                    self.slow_runs,
                    self.torn_store_writes,
                )
            ).encode()
        )
        return h.hexdigest()

    # -- JSON -----------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "kill_worker_runs": list(self.kill_worker_runs),
            "build_failures": self.build_failures,
            "slow_runs": list(self.slow_runs),
            "torn_store_writes": list(self.torn_store_writes),
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize the plan as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineFaultPlan":
        """Parse a plan mapping (strict: unknown keys are errors)."""
        if not isinstance(data, dict):
            raise ValueError(f"engine fault plan must be an object, got {data!r}")
        known = {
            "kill_worker_runs",
            "build_failures",
            "slow_runs",
            "torn_store_writes",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown engine fault plan keys: {sorted(unknown)}")
        return cls(
            kill_worker_runs=tuple(
                int(i) for i in data.get("kill_worker_runs", [])
            ),
            build_failures=int(data.get("build_failures", 0)),
            slow_runs=tuple(int(i) for i in data.get("slow_runs", [])),
            torn_store_writes=tuple(
                int(i) for i in data.get("torn_store_writes", [])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "EngineFaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"invalid engine fault plan JSON: {err}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "EngineFaultPlan":
        """Read a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        """Write the plan to a JSON file (atomically)."""
        from repro.util.serialization import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


@dataclass
class EngineResilienceStats:
    """What the engine survived (and how) under injected faults."""

    #: Pooled-run attempts lost to a killed worker.
    worker_kills: int = 0
    #: Fleet teardown+rebuild cycles after a kill.
    fleet_rebuilds: int = 0
    #: Pooled-run attempts abandoned to a slow-worker virtual timeout.
    slow_timeouts: int = 0
    #: Fleet build attempts that failed.
    build_failures: int = 0
    #: Degradations taken, in order (e.g. "shared->inline").
    degradations: list = field(default_factory=list)
    #: Store segments written torn by an injected crash.
    torn_writes: int = 0

    def as_dict(self) -> dict:
        """Counters as a flat mapping (for reports and JSON)."""
        return {
            "worker_kills": self.worker_kills,
            "fleet_rebuilds": self.fleet_rebuilds,
            "slow_timeouts": self.slow_timeouts,
            "build_failures": self.build_failures,
            "degradations": list(self.degradations),
            "torn_writes": self.torn_writes,
        }


class EngineFaultInjector:
    """Runtime state of an :class:`EngineFaultPlan`.

    The engine and executor consult the injector at each decision point;
    the injector counts the operation and answers whether the plan says
    it fails.  Ordinal counters are monotone, so a retried operation is a
    *new* ordinal — exactly like a real flaky environment, a retry can
    hit the next scheduled fault.
    """

    def __init__(self, plan: EngineFaultPlan) -> None:
        self.plan = plan
        self.stats = EngineResilienceStats()
        self._pool_runs = 0
        self._builds = 0
        self._segment_writes = 0

    # -- decision points -------------------------------------------------
    def on_build(self) -> bool:
        """Count a fleet build attempt; True means it fails."""
        self._builds += 1
        if self._builds <= self.plan.build_failures:
            self.stats.build_failures += 1
            return True
        return False

    def on_pool_run(self) -> Optional[str]:
        """Count a pooled-run attempt; returns ``"kill"``/``"slow"``/None."""
        self._pool_runs += 1
        if self._pool_runs in self.plan.kill_worker_runs:
            self.stats.worker_kills += 1
            return "kill"
        if self._pool_runs in self.plan.slow_runs:
            self.stats.slow_timeouts += 1
            return "slow"
        return None

    def on_segment_write(self) -> bool:
        """Count a store segment write; True means it lands torn."""
        self._segment_writes += 1
        if self._segment_writes in self.plan.torn_store_writes:
            self.stats.torn_writes += 1
            return True
        return False

    # -- responses (for the ladder's bookkeeping) -------------------------
    def record_rebuild(self) -> None:
        """A fleet teardown+rebuild cycle completed."""
        self.stats.fleet_rebuilds += 1

    def record_degradation(self, step: str) -> None:
        """One rung of the ladder was taken (e.g. ``"shared->inline"``)."""
        self.stats.degradations.append(step)


#: Process-global injector (installed via :func:`install_engine_faults`);
#: None means no engine faults are active.
_ACTIVE: Optional[EngineFaultInjector] = None


def install_engine_faults(
    plan: Optional[EngineFaultPlan],
) -> Optional[EngineFaultInjector]:
    """Install (or clear, with None) the process-global engine-fault plan.

    Returns the installed injector so callers can read its stats after
    the run.  Explicit injectors passed to the engine/executor take
    precedence; the global is the CLI's hook.
    """
    global _ACTIVE
    _ACTIVE = EngineFaultInjector(plan) if plan is not None else None
    return _ACTIVE


def active_injector() -> Optional[EngineFaultInjector]:
    """The process-global injector, if one is installed."""
    return _ACTIVE
