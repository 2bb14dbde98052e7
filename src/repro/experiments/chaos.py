"""Chaos experiment: fig7-style tuning under injected failures.

Three arms run on the *same* seed and the same cluster (the Figure 7(a)
layout — four proxies, two application nodes, two databases — under the
browsing mix):

``clean``
    Ordinary duplication-scheme tuning, no faults.  The reference.
``faulty``
    The same run under a :class:`~repro.faults.plan.FaultPlan` (by
    default: one application node crashes mid-run and recovers later,
    plus a low rate of random transient measurement failures) with *no*
    resilience machinery — failed measurements fall back to the
    worst-seen penalty and nothing reacts to the lost capacity.
``resilient``
    The same faulty run with a :class:`~repro.faults.resilience.
    ResiliencePolicy` (retry + backoff + quarantine + rollback) and the
    §IV :class:`~repro.tuning.reconfig_loop.ReconfigurationLoop`, which
    sees the surviving application node saturate and moves a proxy into
    the application tier until capacity recovers.

A fourth arm exercises the *engine* layer (PR 9): the resilient run is
repeated under a write-ahead journal and killed at iteration *k*; a
``--resume``-style replay must reproduce the uninterrupted trajectory
bit for bit.  Alongside it, a durable-store segment write is torn
mid-blob (the reload must quarantine it, never serve a bad entry) and a
fleet build is made to fail so the executor walks the degradation
ladder shared → inline.  Cluster faults break measurements;
engine faults break the machinery that runs them — the report shows
both layers side by side.

Reported: WIPS under failure for both faulty arms against the clean
reference, time-to-recover, retry/quarantine/rollback counters, and the
reconfiguration moves taken.  Every arm is seed-deterministic: same plan
+ seed ⇒ bit-identical trajectories (tested with exact ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import ExperimentConfig, make_backend
from repro.faults.backend import FaultyBackend
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.model.base import Scenario
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.reconfig import ReconfigPolicy
from repro.tuning.reconfig_loop import AppliedMove, ReconfigurationLoop
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.plot import line_chart
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = [
    "ChaosArm",
    "ChaosResult",
    "EngineChaosArm",
    "default_plan",
    "default_reconfig_policy",
    "run",
]

#: Recovery = rolling mean back above this fraction of the pre-fault mean.
RECOVERY_FRACTION = 0.9
#: Rolling-mean window (iterations) for the recovery detector.
RECOVERY_WINDOW = 5


def default_plan(iterations: int, seed: int = 0) -> FaultPlan:
    """The canonical chaos schedule for an ``iterations``-long run.

    One application node (``app0``) crashes at 40% of the run and
    recovers at 80%; on top, 2% of measurements fail transiently.
    """
    crash = max(1, int(iterations * 0.4))
    recover = max(crash + 1, int(iterations * 0.8))
    return FaultPlan.node_crash(
        "app0", at=crash, recover_at=recover, seed=seed, transient_rate=0.02
    )


def default_reconfig_policy() -> ReconfigPolicy:
    """Reconfiguration thresholds for the chaos cluster.

    Identical to the paper defaults except the disk low threshold: the
    browsing mix keeps proxy disks moderately busy serving static
    content (~0.55 utilization at equilibrium), which would disqualify
    every proxy from the lightly-loaded list L2 and leave the algorithm
    only the (expensive, stateful) database nodes to move.  Raising the
    disk LT to 0.65 restores the §IV intent: a proxy whose CPU and
    network are idle is a move candidate.
    """
    return ReconfigPolicy(
        low_thresholds={"cpu": 0.45, "disk": 0.65, "network": 0.45, "memory": 0.75}
    )


@dataclass(frozen=True)
class ChaosArm:
    """One arm's trajectory and counters."""

    label: str
    wips: tuple[float, ...]
    #: Injected-fault counters (empty for the clean arm).
    fault_stats: dict = field(default_factory=dict)
    #: Resilience-policy counters (empty when no policy ran).
    resilience_stats: dict = field(default_factory=dict)
    #: Reconfiguration moves executed (resilient arm only).
    moves: tuple[AppliedMove, ...] = ()


@dataclass(frozen=True)
class EngineChaosArm:
    """The engine-durability arm: kill/resume, torn store write, ladder."""

    label: str
    #: Trajectory of the killed-then-resumed resilient run.
    wips: tuple[float, ...]
    #: Iteration the journaled run was killed at.
    killed_at: int
    #: Committed measurements replayed from the journal on resume.
    replayed_steps: int
    #: Did the resumed trajectory equal the uninterrupted one exactly?
    bit_identical: bool
    #: :class:`~repro.faults.engine.EngineResilienceStats` counters.
    engine_stats: dict = field(default_factory=dict)
    #: Store entries quarantined when reloading after the torn write.
    store_quarantined: int = 0
    #: Entries that survived the torn write (served correctly).
    store_recovered: int = 0
    #: Ladder steps the executor took when fleet builds failed.
    degradations: tuple[str, ...] = ()
    #: Did the degraded (inline) run still return correct results?
    ladder_results_ok: bool = False


@dataclass(frozen=True)
class ChaosResult:
    """The three-arm comparison and its derived metrics."""

    clean: ChaosArm
    faulty: ChaosArm
    resilient: ChaosArm
    plan: FaultPlan
    crash_at: int
    recover_at: int
    #: Engine-layer durability arm (None when skipped).
    engine: Optional[EngineChaosArm] = None

    # -- derived metrics ------------------------------------------------
    @property
    def pre_fault_mean(self) -> float:
        """Clean-arm mean WIPS just before the crash tick."""
        window = self.clean.wips[max(0, self.crash_at - 10) : self.crash_at]
        return float(np.mean(window)) if window else 0.0

    def _under_failure(self, arm: ChaosArm) -> float:
        window = arm.wips[self.crash_at : self.recover_at]
        return float(np.mean(window)) if window else 0.0

    @property
    def clean_under_failure(self) -> float:
        """Clean-arm mean over the (would-be) failure window."""
        return self._under_failure(self.clean)

    @property
    def faulty_under_failure(self) -> float:
        """No-resilience mean WIPS while the node is down."""
        return self._under_failure(self.faulty)

    @property
    def resilient_under_failure(self) -> float:
        """Resilient-arm mean WIPS while the node is down."""
        return self._under_failure(self.resilient)

    @property
    def recovered(self) -> bool:
        """Did resilience + reconfiguration beat the do-nothing arm?"""
        return self.resilient_under_failure > self.faulty_under_failure

    @property
    def time_to_recover(self) -> Optional[int]:
        """Iterations after the crash until the resilient arm's rolling
        mean climbs back above ``RECOVERY_FRACTION`` × the pre-fault
        clean mean (None if it never does before the node returns)."""
        target = RECOVERY_FRACTION * self.pre_fault_mean
        wips = self.resilient.wips
        for t in range(self.crash_at + 1, min(self.recover_at, len(wips)) + 1):
            # Post-crash values only: averaging in healthy pre-crash
            # iterations would declare recovery before it happened.
            window = wips[max(self.crash_at, t - RECOVERY_WINDOW) : t]
            if window and float(np.mean(window)) >= target:
                return t - self.crash_at
        return None

    # -- rendering ------------------------------------------------------
    def to_table(self) -> Table:
        """The chaos report, one quantity per row."""
        table = Table(
            "Chaos: tuning under an injected node crash", ["Quantity", "Value"]
        )
        table.add_row("fault plan", self.plan.fingerprint()[:12])
        table.add_row("crash tick / recover tick", f"{self.crash_at} / {self.recover_at}")
        table.add_row("pre-fault WIPS (clean)", f"{self.pre_fault_mean:.1f}")
        table.add_row("WIPS under failure (clean ref)", f"{self.clean_under_failure:.1f}")
        table.add_row("WIPS under failure (no resilience)", f"{self.faulty_under_failure:.1f}")
        table.add_row("WIPS under failure (resilient)", f"{self.resilient_under_failure:.1f}")
        gain = (
            self.resilient_under_failure / self.faulty_under_failure - 1.0
            if self.faulty_under_failure
            else 0.0
        )
        table.add_row("resilient vs no-resilience", f"{gain:+.1%}")
        ttr = self.time_to_recover
        table.add_row(
            "time to recover",
            f"{ttr} iterations" if ttr is not None else "not before node returned",
        )
        rs = self.resilient.resilience_stats
        table.add_row(
            "retries / backoff ticks",
            f"{rs.get('retries', 0)} / {rs.get('backoff_ticks', 0)}",
        )
        table.add_row(
            "quarantined / rollbacks",
            f"{rs.get('quarantined', 0)} / {rs.get('rollbacks', 0)}",
        )
        fs = self.resilient.fault_stats
        table.add_row(
            "injected failures (transient/timeout)",
            f"{fs.get('transient_failures', 0)}/{fs.get('timeouts', 0)}",
        )
        if self.resilient.moves:
            for move in self.resilient.moves:
                d = move.decision
                table.add_row(
                    "reconfiguration",
                    f"moved {d.node_id} {d.from_role.value} -> {d.to_role.value} "
                    f"at iteration {move.applied_at}",
                )
        else:
            table.add_row("reconfiguration", "none")
        if self.engine is not None:
            e = self.engine
            table.add_row(
                "engine: killed at / replayed on resume",
                f"{e.killed_at} / {e.replayed_steps}",
            )
            table.add_row(
                "engine: resume bit-identical",
                "yes" if e.bit_identical else "NO",
            )
            table.add_row(
                "engine: store quarantined / recovered",
                f"{e.store_quarantined} / {e.store_recovered}",
            )
            ladder = " -> ".join(
                ("shared", *(s.split("->", 1)[1] for s in e.degradations))
            )
            table.add_row(
                "engine: degradation ladder",
                f"{ladder} ({'results ok' if e.ladder_results_ok else 'FAILED'})",
            )
        return table

    def chart(self, width: int = 80, height: int = 12) -> str:
        """ASCII chart of the resilient arm (| marks crash and recovery)."""
        return line_chart(
            list(self.resilient.wips),
            width=width,
            height=height,
            title="Chaos: resilient-arm WIPS (| = crash / recovery)",
            markers=[self.crash_at, self.recover_at],
        )


def _base_scenario(cfg: ExperimentConfig) -> Scenario:
    return Scenario(
        cluster=ClusterSpec.three_tier(4, 2, 2),
        mix=STANDARD_MIXES["browsing"],
        population=cfg.cluster_population,
    )


def _make_session(backend, scenario: Scenario, seed: int, **kwargs) -> ClusterTuningSession:
    return ClusterTuningSession(
        backend,
        scenario,
        scheme=make_scheme(scenario, "duplication"),
        seed=seed,
        speculate=False,
        **kwargs,
    )


def _probe_square(x: int) -> int:
    """Trivial pure spec body for the degradation-ladder probe."""
    return x * x


def _engine_arm(
    cfg: ExperimentConfig,
    plan: FaultPlan,
    policy: ResiliencePolicy,
    scenario: Scenario,
    seed: int,
    iterations: int,
    check_every: int,
    reference_wips: tuple[float, ...],
):
    """Run the engine-durability arm; returns (arm, injector stats).

    The reference trajectory is the resilient arm that just ran: the
    journaled run here uses the same seed, plan, and policy, so after a
    kill at iteration *k* and a resume, its full trajectory must equal
    the reference exactly.
    """
    import os
    import tempfile

    from repro.durability.diskstore import StorePersistence
    from repro.durability.journal import SessionJournal
    from repro.faults.engine import EngineFaultInjector, EngineFaultPlan
    from repro.parallel.executor import ParallelExecutor
    from repro.parallel.plan import RunSpec

    killed_at = max(3, iterations // 3)
    header = {
        "kind": "chaos-engine",
        "iterations": iterations,
        "seed": seed,
        "faults": plan.fingerprint(),
    }

    def journaled_loop(journal) -> ReconfigurationLoop:
        backend = FaultyBackend(make_backend(cfg), plan)
        session = _make_session(
            backend, scenario, seed, resilience=policy, journal=journal
        )
        return ReconfigurationLoop(
            session,
            policy=default_reconfig_policy(),
            check_every=check_every,
            cooldown=check_every,
            drain_delay=2,
        )

    with tempfile.TemporaryDirectory() as tmp:
        # Kill/resume: run to iteration k under a write-ahead journal,
        # then abandon everything — the moral equivalent of SIGKILL.
        path = os.path.join(tmp, "session.journal")
        journal = SessionJournal(path, header)
        loop = journaled_loop(journal)
        for _ in range(killed_at):
            loop.step()
        journal.close()

        # Resume: committed measurements replay from the journal (no
        # re-measuring), then the run continues live to the end.
        journal = SessionJournal(path, header, resume=True)
        loop = journaled_loop(journal)
        wips = tuple(loop.step().wips for _ in range(iterations))
        replayed = journal.replayed
        journal.close()

        # Durable store under a torn write: the second segment flush is
        # truncated mid-blob; the reload must quarantine it — drop and
        # count the bad entry, never serve it — while the intact first
        # segment survives.  The same injector then fails the fleet
        # build, so the executor walks shared → inline.
        injector = EngineFaultInjector(
            EngineFaultPlan(build_failures=1, torn_store_writes=(2,))
        )
        persist = StorePersistence(os.path.join(tmp, "store"), injector=injector)
        persist.flush({"alpha": 1.0})
        persist.flush({"alpha": 1.0, "beta": 2.0})  # torn mid-write
        reloaded = StorePersistence(os.path.join(tmp, "store"))
        recovered = reloaded.load()
        store_ok = all(recovered[k] == {"alpha": 1.0}[k] for k in recovered)

        specs = [
            RunSpec(("chaos-probe", i), _probe_square, {"x": i}) for i in range(3)
        ]
        executor = ParallelExecutor(2, engine="shared", faults=injector)
        results = executor.run(specs)
        ladder_ok = all(results[("chaos-probe", i)] == i * i for i in range(3))

    arm = EngineChaosArm(
        label="engine",
        wips=wips,
        killed_at=killed_at,
        replayed_steps=replayed,
        bit_identical=wips == reference_wips,
        engine_stats=injector.stats.as_dict(),
        store_quarantined=int(reloaded.stats()["quarantined"]),
        store_recovered=len(recovered) if store_ok else 0,
        degradations=tuple(executor.degradations),
        ladder_results_ok=ladder_ok,
    )
    return arm, injector.stats


def run(
    config: ExperimentConfig | None = None,
    plan: Optional[FaultPlan] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> ChaosResult:
    """Run the three chaos arms and derive the comparison metrics.

    Each arm gets its own backend (fault tick streams must not mix);
    all three share the seed, so the clean arm is the exact trajectory
    the faulty arms would have produced in a healthy cluster.
    """
    cfg = config or ExperimentConfig()
    iterations = max(cfg.iterations, 30)
    seed = derive_seed(cfg.seed, "chaos")
    plan = plan if plan is not None else default_plan(iterations, seed=cfg.seed)
    policy = resilience if resilience is not None else ResiliencePolicy()
    scenario = _base_scenario(cfg)
    crash = min(
        (e.at for e in plan.events if e.kind in ("crash", "flap")),
        default=iterations,
    )
    recover = min(
        (e.at for e in plan.events if e.kind == "recover"), default=iterations
    )

    # Arm 1: clean reference.
    clean_session = _make_session(make_backend(cfg), scenario, seed)
    clean_wips = [clean_session.step().wips for _ in range(iterations)]
    clean = ChaosArm("clean", tuple(clean_wips))

    # Arm 2: faults, no resilience (worst-seen penalty only, no reconfig).
    faulty_backend = FaultyBackend(make_backend(cfg), plan)
    faulty_session = _make_session(
        faulty_backend, scenario, seed, on_measure_error="penalize"
    )
    faulty_wips = [faulty_session.step().wips for _ in range(iterations)]
    faulty = ChaosArm(
        "faulty",
        tuple(faulty_wips),
        fault_stats=faulty_backend.stats.as_dict(),
    )

    # Arm 3: faults + resilience policy + reconfiguration loop.
    resilient_backend = FaultyBackend(make_backend(cfg), plan)
    resilient_session = _make_session(
        resilient_backend, scenario, seed, resilience=policy
    )
    check_every = max(5, iterations // 8)
    loop = ReconfigurationLoop(
        resilient_session,
        policy=default_reconfig_policy(),
        check_every=check_every,
        cooldown=check_every,
        drain_delay=2,
    )
    resilient_wips = [loop.step().wips for _ in range(iterations)]

    # Arm 4: engine durability (kill/resume + torn store write + ladder).
    # Its counters surface inside the resilient arm's resilience stats so
    # the report shows the measurement and machinery layers side by side.
    engine_arm, engine_stats = _engine_arm(
        cfg,
        plan,
        policy,
        scenario,
        seed,
        iterations,
        check_every,
        tuple(resilient_wips),
    )
    resilient_session.resilience_stats.absorb_engine(engine_stats)

    resilient = ChaosArm(
        "resilient",
        tuple(resilient_wips),
        fault_stats=resilient_backend.stats.as_dict(),
        resilience_stats=resilient_session.resilience_stats.as_dict(),
        moves=tuple(loop.moves),
    )

    return ChaosResult(
        clean=clean,
        faulty=faulty,
        resilient=resilient,
        plan=plan,
        crash_at=crash,
        recover_at=recover,
        engine=engine_arm,
    )
