"""The four benchmark workloads, built only from the program's public API.

Each workload receives a seed from the benchmark and nothing else: the
scenario, cluster and budgets are fixed here.  A workload object has three
phases, timed separately by ``unit.py``:

* ``setup()``: build the inputs the program needs (counted in ``setup_s``);
* ``timed()``: the measured work, first measurement call to final result;
* ``teardown()``: stop worker processes (untimed).

``jobs`` is the number of processes the timed phase keeps busy; the
probe readings around it use as many.  ``seed_label`` names the stream
the run's sub-seeds are drawn from.

``outcome()`` then checks the result and returns its digest, the quality
metrics and the measurement accounting.  Sizes below are the iteration
budgets that set each unit's length.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Mapping

#: Tuning iterations per Figure 4 session (the paper runs 200).
FIG4_ITERATIONS = 30
#: Tuning iterations of each wide-cluster session, and sessions per unit.
WIDE_ITERATIONS = 40
WIDE_SESSIONS = 4
#: Draws per re-measurement of a fixed configuration (the experiments' default).
REMEASURE_ITERATIONS = 20
#: Population of the wide-cluster session (the scale experiment's).
WIDE_POPULATION = 1_000_000
#: Population and time scale of the DES cross-check (the scale experiment's).
DES_POPULATION = 2000
DES_TIME_SCALE = 0.05
#: ``repro validate``'s agreement band for DES over analytic WIPS.
DES_BAND = (0.85, 1.15)


class CheckFailed(Exception):
    """A workload's output failed one of the benchmark's checks."""


def sub_seeds(seed: int, label: str, count: int) -> list[int]:
    """``count`` 31-bit seeds derived from ``seed``: a pure function of it."""
    return [
        int.from_bytes(
            hashlib.sha256(f"{seed}/{label}/{i}".encode()).digest()[:4], "little"
        )
        >> 1
        for i in range(count)
    ]


def digest(payload: object) -> str:
    """SHA-256 of a JSON-stable payload (floats round-trip exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def agreement_pct(measured: float, reference: float) -> float:
    """100 x (1 - |measured / reference - 1|)."""
    return 100.0 * (1.0 - abs(measured / reference - 1.0))


def _validate(cluster, configuration) -> None:
    """Raise CheckFailed unless ``configuration`` is legal for ``cluster``."""
    try:
        cluster.full_space().validate(configuration)
    except ValueError as exc:
        raise CheckFailed(f"tuned configuration is illegal: {exc}") from None
    violations = cluster.full_constraints().violations(configuration)
    if violations:
        raise CheckFailed(f"tuned configuration violates {violations}")


def _noise_free_wips(scenario, configuration, approximation: str) -> float:
    from repro.model.analytic import AnalyticBackend
    from repro.model.noise import NoiseModel

    backend = AnalyticBackend(
        approximation=approximation, noise=NoiseModel(0.0, 0.0, 0.0)
    )
    return backend.measure(scenario, configuration, seed=0).wips


class Fig4:
    """The Figure 4 / section III.A protocol through ``fig4.run``."""

    #: Label of the run's sub-seeds: ``fig4-fleet`` inherits it, so both
    #: fig4 workloads run the same plans at one ``--seed``.
    seed_label = "fig4-serial"

    def __init__(self, seed: int, profile: bool, jobs: int = 1, engine: str = "inline"):
        self.seed = seed
        self.jobs = jobs
        self.engine = engine

    def setup(self) -> None:
        from repro.experiments import fig4
        from repro.experiments.runner import ExperimentConfig

        self.fig4 = fig4
        self.config = ExperimentConfig(
            iterations=FIG4_ITERATIONS,
            seed=self.seed,
            baseline_iterations=REMEASURE_ITERATIONS,
            jobs=self.jobs,
            engine=self.engine,
            memoize=True,
            speculate=False,
        )

    def timed(self) -> None:
        self.result = self.fig4.run(self.config)

    def teardown(self) -> dict[str, float]:
        if self.engine != "shared":
            return {}
        from repro.parallel.engine import SharedEngine

        entries = SharedEngine.instance().stats()["store_entries"]
        SharedEngine.reset()
        return {"parallel.store.entries": entries}

    def outcome(self) -> dict:
        from repro.cluster.topology import ClusterSpec
        from repro.model.base import Scenario
        from repro.tpcw.interactions import STANDARD_MIXES

        result = self.result
        mixes = self.fig4.MIX_ORDER
        cluster = ClusterSpec.three_tier(1, 1, 1)
        agree = []
        for mix in mixes:
            best = result.best_configs[mix]
            _validate(cluster, best)
            scenario = Scenario(
                cluster=cluster,
                mix=STANDARD_MIXES[mix],
                population=self.config.population,
            )
            reference = _noise_free_wips(scenario, best, "exact")
            agree.append(agreement_pct(result.cross[(mix, mix)], reference))
        stats = result.cache_stats or {}
        attempted = stats.get("measurement_hits", 0) + stats.get("measurement_misses", 0)
        planned = len(mixes) * (REMEASURE_ITERATIONS + FIG4_ITERATIONS) + len(
            mixes
        ) ** 2 * REMEASURE_ITERATIONS
        if attempted != planned:
            raise CheckFailed(f"{attempted} measurements made, {planned} planned")
        program = {
            "cache.measure.hits": stats.get("measurement_hits", 0.0),
            "cache.measure.misses": stats.get("measurement_misses", 0.0),
            "cache.solution.hits": stats.get("solution_hits", 0.0),
            "cache.solution.misses": stats.get("solution_misses", 0.0),
        }
        if self.engine == "shared":
            # Every L1 miss of the shared engine's caches probes the store.
            program["parallel.store.misses"] = (
                program["cache.measure.misses"] + program["cache.solution.misses"]
            )
        return {
            "digest": digest(result.canonical_dict()),
            "gain_pct": 100.0 * statistics.fmean(result.improvement(m) for m in mixes),
            "agree_pct": statistics.fmean(agree),
            "attempted": int(attempted),
            "program": program,
        }


class Fig4Fleet(Fig4):
    """``fig4-serial``'s plan the way ``repro experiment fig4`` runs it on a
    2-CPU host: two workers on the persistent shared engine."""

    def __init__(self, seed: int, profile: bool):
        super().__init__(seed, profile, jobs=2, engine="shared")


class WideSpec:
    """The tuning arm of ``repro experiment scale`` with speculation on.

    One unit runs ``WIDE_SESSIONS`` independent sessions, each with its own
    seed and its own backend: one session's gain hinges on the random
    orientation of its initial simplex (about 30 % relative spread between
    seeds at 40 iterations), so a run needs a dozen sessions for a steady
    mean, and sharing a process amortizes start-up and probes over them.
    """

    seed_label = "wide-spec"
    jobs = 1

    def __init__(self, seed: int, profile: bool):
        self.seeds = sub_seeds(seed, "wide-spec-session", WIDE_SESSIONS)

    def setup(self) -> None:
        from repro.cluster.topology import ClusterSpec
        from repro.experiments import runner
        from repro.model.base import Scenario
        from repro.tpcw.interactions import STANDARD_MIXES
        from repro.tuning.session import ClusterTuningSession, make_scheme

        self.runner = runner
        self.cluster = ClusterSpec.wide()
        self.scenario = Scenario(
            cluster=self.cluster,
            mix=STANDARD_MIXES["shopping"],
            population=WIDE_POPULATION,
        )
        self.sessions = []
        for seed in self.seeds:
            backend = runner.make_backend(
                runner.ExperimentConfig(jobs=1, engine="inline", memoize=True)
            )
            session = ClusterTuningSession(
                backend,
                self.scenario,
                scheme=make_scheme(self.scenario, "duplication"),
                seed=seed,
                speculate=True,
            )
            self.sessions.append((seed, backend, session))

    def timed(self) -> None:
        self.results = []
        for seed, backend, session in self.sessions:
            baseline = session.measure_baseline(
                iterations=REMEASURE_ITERATIONS
            ).window_stats(0).mean
            session.run(WIDE_ITERATIONS)
            best = session.history.best_configuration()
            tuned = self.runner.remeasure(
                backend,
                self.scenario,
                best,
                seed=seed + 1,
                iterations=REMEASURE_ITERATIONS,
            ).mean
            self.results.append((baseline, best, tuned))

    def teardown(self) -> dict[str, float]:
        return {}

    def outcome(self) -> dict:
        planned = 2 * REMEASURE_ITERATIONS + WIDE_ITERATIONS
        gains, agree, histories = [], [], []
        program = dict.fromkeys(
            ("cache.measure.hits", "cache.measure.misses", "cache.solution.hits",
             "cache.solution.misses", "speculate.solves"),
            0.0,
        )
        spec_hits = spec_misses = planned_frontier = waste = 0
        for (_, backend, session), (baseline, best, tuned) in zip(
            self.sessions, self.results
        ):
            _validate(self.cluster, best)
            stats = backend.stats
            if stats.lookups != planned:
                raise CheckFailed(f"{stats.lookups} measurements made, {planned} planned")
            reference = _noise_free_wips(self.scenario, best, "auto")
            gains.append(100.0 * (tuned / baseline - 1.0))
            agree.append(agreement_pct(tuned, reference))
            histories.append(
                {
                    "history_wips": [r.performance for r in session.history.records],
                    "best_config": dict(sorted(best.items())),
                    "baseline": baseline,
                    "tuned": tuned,
                }
            )
            solution = backend.backend.solution_cache_stats
            speculation = session.speculation_stats
            program["cache.measure.hits"] += stats.hits
            program["cache.measure.misses"] += stats.misses
            program["cache.solution.hits"] += solution.hits
            program["cache.solution.misses"] += solution.misses
            program["speculate.solves"] += speculation.solves
            spec_hits += speculation.hits
            spec_misses += speculation.misses
            planned_frontier += speculation.planned
            waste += speculation.waste
        program["speculate.hit_ratio"] = spec_hits / max(spec_hits + spec_misses, 1)
        program["speculate.waste_ratio"] = waste / max(planned_frontier, 1)
        return {
            "digest": digest(histories),
            "gain_pct": statistics.fmean(gains),
            "agree_pct": statistics.fmean(agree),
            "attempted": planned * len(self.sessions),
            "program": program,
        }


class DesValidate:
    """The scale experiment's DES cross-check against noise-free exact MVA."""

    #: The DES measures the default configuration, so this workload tunes
    #: nothing; ``gain_pct`` reports this fixed value (see README.md).
    GAIN_NOT_APPLICABLE = 100.0
    seed_label = "des-validate"
    jobs = 1

    def __init__(self, seed: int, profile: bool):
        self.seed = seed
        self.profile = profile

    def setup(self) -> None:
        from repro.cluster.topology import ClusterSpec
        from repro.des.backend import SimulationBackend
        from repro.model.analytic import AnalyticBackend
        from repro.model.base import Scenario
        from repro.model.noise import NoiseModel
        from repro.tpcw.interactions import STANDARD_MIXES

        cluster = ClusterSpec.wide(4, 4, 2, name="wide-small")
        self.scenario = Scenario(
            cluster=cluster,
            mix=STANDARD_MIXES["shopping"],
            population=DES_POPULATION,
        )
        self.configuration = cluster.default_configuration()
        self.exact = AnalyticBackend(
            approximation="exact", noise=NoiseModel(0.0, 0.0, 0.0)
        )
        self.des = SimulationBackend(
            time_scale=DES_TIME_SCALE, replications=1, profile=self.profile
        )

    def timed(self) -> None:
        self.exact_wips = self.exact.measure(
            self.scenario, self.configuration, seed=self.seed
        ).wips
        self.des_wips = self.des.measure(
            self.scenario, self.configuration, seed=self.seed
        ).wips

    def teardown(self) -> dict[str, float]:
        return {}

    def outcome(self) -> dict:
        ratio = self.des_wips / self.exact_wips
        low, high = DES_BAND
        if not low <= ratio <= high:
            raise CheckFailed(f"DES/exact WIPS ratio {ratio:.4f} outside {DES_BAND}")
        solution = self.exact.solution_cache_stats
        return {
            "digest": digest(
                {"des": float.hex(self.des_wips), "exact": float.hex(self.exact_wips)}
            ),
            "gain_pct": self.GAIN_NOT_APPLICABLE,
            "agree_pct": agreement_pct(self.des_wips, self.exact_wips),
            "attempted": 2,
            "program": {
                "cache.solution.hits": float(solution.hits),
                "cache.solution.misses": float(solution.misses),
            },
        }


#: Workload name -> (class, sub-seeds per run).  Each sub-seed is one
#: unit; the counts fill a 25-second run on a 2-CPU host.
WORKLOADS: Mapping[str, tuple[type, int]] = {
    "fig4-serial": (Fig4, 7),
    "wide-spec": (WideSpec, 3),
    "des-validate": (DesValidate, 3),
    "fig4-fleet": (Fig4Fleet, 7),
}
