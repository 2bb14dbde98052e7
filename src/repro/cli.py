"""Command-line interface: ``python -m repro <command>``.

Commands:

``baseline``
    Measure the default configuration of a cluster/workload.
``tune``
    Run an Active Harmony tuning session; optionally persist the best
    configuration (JSON) and the full history (JSON Lines).
``sensitivity``
    One-at-a-time parameter sweeps on a scenario.
``experiment``
    Run one of the paper's experiment drivers and print its table(s).
``validate``
    Cross-check the analytic backend against the discrete-event backend.
``lint``
    Static determinism/reproducibility analysis (see docs/static_analysis.md);
    exits nonzero when any rule fires.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cluster.topology import ClusterSpec
from repro.durability.journal import JournalError
from repro.model.analytic import APPROXIMATIONS, AnalyticBackend
from repro.model.base import Scenario
from repro.parallel.engine import ENGINES
from repro.tpcw.interactions import STANDARD_MIXES
from repro.util.units import parse_count

__all__ = ["main", "build_parser"]

EXPERIMENTS = (
    "table1", "fig4", "fig5", "table4", "fig7", "sensitivity",
    "drift", "price", "chaos", "scale",
)

#: Experiments whose run plans fan out over many independent runs (the
#: ones ``--journal``/``--resume`` support).
FANOUT_EXPERIMENTS = frozenset({"fig4", "table4", "sensitivity", "scale"})


def _add_durability_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--journal", metavar="FILE",
        help=(
            "write-ahead journal: every committed measurement/run is "
            "appended (fsync'd, checksummed) so a killed run can be "
            "continued with --resume; refuses an existing journal"
        ),
    )
    group.add_argument(
        "--resume", metavar="FILE",
        help=(
            "resume a killed run from its journal: committed steps replay "
            "cache-hot (no re-measuring, no re-solving) and the run "
            "continues, bit-identical to an uninterrupted one"
        ),
    )
    parser.add_argument(
        "--store-path", metavar="DIR",
        help=(
            "durable shared-store directory (checksummed atomic segments): "
            "the --engine shared cache survives process death; corrupt "
            "entries are quarantined, never served"
        ),
    )
    parser.add_argument(
        "--engine-faults", metavar="PLAN.json",
        help=(
            "inject engine-layer faults from an EngineFaultPlan JSON file "
            "(worker kills, fleet build failures, slow workers, torn "
            "store writes; see docs/robustness.md)"
        ),
    )


def _apply_durability(args: argparse.Namespace) -> None:
    """Install the process-wide durability/fault options, if given."""
    if getattr(args, "store_path", None):
        from repro.parallel.engine import SharedEngine

        SharedEngine.configure(store_path=args.store_path)
    if getattr(args, "engine_faults", None):
        from repro.faults.engine import EngineFaultPlan, install_engine_faults

        install_engine_faults(EngineFaultPlan.load(args.engine_faults))


def _add_sanitize_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help=(
            "run with the concurrency sanitizer (equivalent to "
            "REPRO_SANITIZE=1): record lock orders, held-lock sets and "
            "cache coherence at runtime; findings are reported after the "
            "command and force a nonzero exit (see docs/static_analysis.md)"
        ),
    )


def _jobs_argument(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (or 0 for all cores), got {jobs}"
        )
    return jobs


def _population_argument(value: str) -> int:
    try:
        count = parse_count(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mix", choices=sorted(STANDARD_MIXES), default="shopping",
        help="TPC-W workload mix (default: shopping)",
    )
    parser.add_argument("--proxies", type=int, default=1, help="proxy-tier nodes")
    parser.add_argument("--apps", type=int, default=1, help="app-tier nodes")
    parser.add_argument("--dbs", type=int, default=1, help="database-tier nodes")
    parser.add_argument(
        "--population", type=_population_argument, default=750,
        metavar="N",
        help="emulated browsers; accepts k/m/g suffixes (default: 750)",
    )
    parser.add_argument(
        "--approximation", choices=APPROXIMATIONS, default="auto",
        help=(
            "MVA approximation level: auto picks fluid and/or hierarchical "
            "aggregation from population and cluster width; exact forces "
            "the per-node Schweitzer solve and refuses huge populations "
            "(default: auto)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")


def _scenario(args: argparse.Namespace) -> Scenario:
    cluster = ClusterSpec.three_tier(args.proxies, args.apps, args.dbs)
    return Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[args.mix],
        population=args.population,
    )


def _backend(args: argparse.Namespace, scenario: Scenario, **kwargs):
    """An :class:`AnalyticBackend` honouring ``--approximation``.

    Mode resolution runs eagerly so that ``--approximation exact`` with a
    huge ``--population`` dies with a parser error in milliseconds, not
    hours into an O(N) exact solve.
    """
    backend = AnalyticBackend(approximation=args.approximation, **kwargs)
    try:
        backend.resolve_modes(scenario.cluster, scenario.population)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    return backend


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro`` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automated Cluster-Based Web Service "
            "Performance Tuning' (HPDC 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="measure the default configuration")
    _add_scenario_arguments(p)
    p.add_argument("--repeats", type=int, default=10, help="noise repeats")

    p = sub.add_parser("tune", help="run a tuning session")
    _add_scenario_arguments(p)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument(
        "--method", choices=("default", "duplication", "partitioning"),
        default="default",
    )
    p.add_argument(
        "--strategy",
        choices=("simplex", "simplex-damped", "random", "coordinate"),
        default="simplex",
    )
    p.add_argument("--save-best", metavar="FILE", help="write best config JSON")
    p.add_argument(
        "--save-history", metavar="FILE", help="write history JSON Lines"
    )
    p.add_argument(
        "--speculate", action=argparse.BooleanOptionalAction, default=False,
        help=(
            "prefetch the strategy's lookahead frontier in batched solves "
            "(results are bit-identical; only wall-clock changes)"
        ),
    )
    p.add_argument(
        "--jobs", type=_jobs_argument, default=1, metavar="N",
        help=(
            "worker processes fanning out the speculative frontier "
            "(default 1; 0 = all cores; needs --speculate)"
        ),
    )
    p.add_argument(
        "--engine", choices=ENGINES, default=None,
        help=(
            "execution engine for speculative prefetch fan-out: inline "
            "(serial) or shared (persistent worker fleet + cross-run "
            "shared cache).  Default: shared when jobs > 1, inline "
            "otherwise; results are bit-identical at every setting"
        ),
    )
    p.add_argument(
        "--faults", metavar="PLAN.json",
        help="inject failures from a fault-plan JSON file (see docs/robustness.md)",
    )
    p.add_argument(
        "--resilience", action="store_true",
        help=(
            "handle failed measurements with the resilience policy "
            "(retry + backoff + quarantine) instead of raising"
        ),
    )
    _add_durability_arguments(p)
    _add_sanitize_argument(p)

    p = sub.add_parser("sensitivity", help="one-at-a-time parameter sweeps")
    _add_scenario_arguments(p)
    p.add_argument(
        "--params", help="comma-separated full parameter names (default: all)"
    )
    p.add_argument("--points", type=int, default=4)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--top", type=int, default=None, help="show only top N")

    p = sub.add_parser("experiment", help="run a paper experiment driver")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument(
        "--iterations", type=int, default=200,
        help="tuning iterations (paper protocol: 200)",
    )
    p.add_argument("--seed", type=int, default=17)
    p.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help=(
            "worker processes for independent runs (default: all cores; "
            "1 = the serial path; results are identical either way)"
        ),
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable measurement memoization (results are identical)",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default=None,
        help=(
            "execution engine for the run plan: inline (serial in-process) "
            "or shared (one persistent worker fleet reused across "
            "experiments over a cross-process shared cache; jobs=1 runs "
            "serially in-process over it).  Default: shared when "
            "jobs > 1, inline otherwise; results are bit-identical at "
            "every setting"
        ),
    )
    p.add_argument(
        "--speculate", action=argparse.BooleanOptionalAction, default=False,
        help=(
            "prefetch each tuning step's lookahead frontier in batched "
            "solves (results are bit-identical; only wall-clock changes)"
        ),
    )
    p.add_argument(
        "--profile", action="store_true",
        help=(
            "record simulator observability diagnostics (event counts, "
            "RNG draw accounting, per-phase wall-clock) in the DES arms; "
            "results are bit-identical either way"
        ),
    )
    p.add_argument(
        "--faults", metavar="PLAN.json",
        help=(
            "fault-plan JSON for the chaos experiment "
            "(default: crash one app node mid-run)"
        ),
    )
    p.add_argument(
        "--resilience", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "retry/quarantine/rollback policy for the chaos experiment's "
            "resilient arm (--no-resilience degrades it to penalty-only)"
        ),
    )
    _add_durability_arguments(p)
    _add_sanitize_argument(p)

    p = sub.add_parser(
        "validate", help="cross-check the analytic and DES backends"
    )
    _add_scenario_arguments(p)
    p.add_argument(
        "--time-scale", type=float, default=0.06,
        help="DES iteration scale (1.0 = the paper's 1200 s cycle)",
    )
    p.add_argument(
        "--replications", type=int, default=1,
        help=(
            "independent seed-derived DES replications merged by batch "
            "means (R>1 adds a confidence interval; default 1)"
        ),
    )
    p.add_argument(
        "--profile", action="store_true",
        help=(
            "print simulator observability diagnostics (event counts, "
            "RNG draw accounting, per-phase wall-clock)"
        ),
    )

    p = sub.add_parser(
        "lint", help="static determinism/reproducibility analysis"
    )
    p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: <root>/src)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="fmt", help="report format (default: text)",
    )
    p.add_argument(
        "--rules", action="store_true",
        help="list every rule with its documentation and exit",
    )
    p.add_argument(
        "--select", metavar="IDS",
        help=(
            "comma-separated rule ids or family prefixes to run "
            "(e.g. RPL003 or RPL1 for the whole concurrency family; "
            "default: all enabled)"
        ),
    )
    p.add_argument(
        "--ignore", metavar="IDS",
        help=(
            "comma-separated rule ids or family prefixes to skip "
            "(adds to pyproject ignores)"
        ),
    )
    p.add_argument(
        "--root", metavar="DIR", default=None,
        help="project root holding pyproject.toml (default: auto-detect)",
    )

    return parser


# ----------------------------------------------------------------------
def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.tuning.session import ClusterTuningSession

    scenario = _scenario(args)
    session = ClusterTuningSession(
        _backend(args, scenario), scenario, seed=args.seed
    )
    stats = session.measure_baseline(iterations=args.repeats).window_stats(0)
    print(
        f"{args.mix} mix, {scenario.cluster!r}, N={args.population}: "
        f"{stats.mean:.1f} WIPS (sd {stats.stddev:.2f}, {args.repeats} repeats)"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.parallel import resolve_jobs
    from repro.tuning.session import ClusterTuningSession, make_scheme
    from repro.util.serialization import save_configuration, save_history

    scenario = _scenario(args)
    _apply_durability(args)
    backend = _backend(args, scenario)
    resilience = None
    plan = None
    if args.faults:
        from repro.faults import FaultPlan, FaultyBackend

        plan = FaultPlan.load(args.faults)
        backend = FaultyBackend(backend, plan)
    if args.resilience:
        from repro.faults import ResiliencePolicy

        resilience = ResiliencePolicy()
    journal = None
    if args.journal or args.resume:
        from repro.durability.journal import SessionJournal

        # Everything that shapes the outcome stream goes in the header:
        # resuming under a different command line must fail loudly, not
        # silently diverge.
        header = {
            "kind": "tune",
            "mix": args.mix,
            "proxies": args.proxies,
            "apps": args.apps,
            "dbs": args.dbs,
            "population": args.population,
            "approximation": args.approximation,
            "seed": args.seed,
            "iterations": args.iterations,
            "method": args.method,
            "strategy": args.strategy,
            "faults": plan.fingerprint() if plan is not None else None,
            "resilience": bool(args.resilience),
        }
        journal = SessionJournal(
            args.resume or args.journal, header, resume=bool(args.resume)
        )
    session = ClusterTuningSession(
        backend,
        scenario,
        scheme=make_scheme(scenario, args.method),
        strategy=args.strategy,
        seed=args.seed,
        resilience=resilience,
        on_measure_error="penalize" if args.faults else "raise",
        speculate=args.speculate,
        speculate_jobs=resolve_jobs(args.jobs) if args.speculate else 1,
        speculate_engine=args.engine,
        journal=journal,
    )
    baseline = session.measure_baseline().window_stats(0)
    print(f"baseline: {baseline.mean:.1f} WIPS")
    session.run(args.iterations)
    if journal is not None and args.resume:
        # Bookkeeping goes to stderr: stdout must diff clean against an
        # uninterrupted run (the CI smoke job relies on that).
        print(
            f"resumed from {args.resume}: replayed {journal.replayed} "
            f"committed measurements, recorded {journal.recorded} new",
            file=sys.stderr,
        )
    if args.faults:
        fault_stats = backend.stats.as_dict()
        injected = ", ".join(f"{k}={v}" for k, v in fault_stats.items() if v)
        print(f"faults: {injected or 'none fired'}")
    if resilience is not None:
        rs = session.resilience_stats
        print(
            f"resilience: {rs.retries} retries, {rs.backoff_ticks} backoff "
            f"ticks, {rs.quarantined} quarantined, {rs.rollbacks} rollbacks"
        )
    best = session.history.best()
    print(
        f"best after {args.iterations} iterations: "
        f"{best.performance:.1f} WIPS at iteration {best.iteration} "
        f"({best.performance / baseline.mean - 1:+.1%})"
    )
    if args.save_best:
        save_configuration(session.best_configuration(), args.save_best)
        print(f"best configuration written to {args.save_best}")
    if args.save_history:
        save_history(session.history, args.save_history)
        print(f"history written to {args.save_history}")
    if journal is not None:
        journal.close()
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import sensitivity_report

    scenario = _scenario(args)
    names = args.params.split(",") if args.params else None
    report = sensitivity_report(
        _backend(args, scenario), scenario, names=names,
        points=args.points, repeats=args.repeats, seed=args.seed,
    )
    print(report.to_table(top=args.top))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig
    from repro.parallel import resolve_jobs

    _apply_durability(args)
    if (args.journal or args.resume) and args.name not in FANOUT_EXPERIMENTS:
        print(
            f"repro: error: --journal/--resume support the fan-out "
            f"experiments ({', '.join(sorted(FANOUT_EXPERIMENTS))}), "
            f"not {args.name!r}",
            file=sys.stderr,
        )
        return 2
    jobs = resolve_jobs(args.jobs)
    cfg = ExperimentConfig(
        iterations=args.iterations,
        seed=args.seed,
        jobs=jobs,
        memoize=not args.no_cache,
        speculate=args.speculate,
        profile=getattr(args, "profile", False),
        engine=args.engine,
        journal=args.resume or args.journal,
        resume=bool(args.resume),
    )
    if args.resume:
        print(f"resuming {args.name} from {args.resume}", file=sys.stderr)
    if args.name == "table1":
        from repro.experiments import table1

        print(table1.run().to_table())
    elif args.name == "fig4":
        from repro.experiments import fig4, table3

        result = fig4.run(cfg)
        print(result.to_matrix_table())
        print()
        print(result.to_improvement_table())
        print()
        print(table3.render(result))
    elif args.name == "fig5":
        from repro.experiments import fig5

        result = fig5.run(cfg)
        print(result.to_table())
    elif args.name == "table4":
        from repro.experiments import table4

        print(table4.run(cfg).to_table())
    elif args.name == "fig7":
        from repro.experiments import fig7

        a, b = fig7.run(cfg)
        print(a.to_table())
        print()
        print(b.to_table())
    elif args.name == "sensitivity":
        from repro.experiments import sensitivity

        result = sensitivity.run(cfg)
        print(result.to_table())
        print(result.cache_summary())
    elif args.name == "drift":
        from repro.experiments import drift

        result = drift.run(cfg)
        print(result.to_table())
        print()
        print(result.chart())
    elif args.name == "price":
        from repro.experiments import price_performance

        for mix in ("browsing", "ordering"):
            print(price_performance.run(cfg, mix_name=mix).to_table())
            print()
    elif args.name == "scale":
        from repro.experiments import scale

        result = scale.run(cfg)
        print(result.to_table())
        print()
        print(result.agreement_table())
        if result.des_profile:
            print()
            print("DES validation arm profile:")
            for key, value in result.des_profile.items():
                print(f"  {key[len('profile.'):]:<24} {value:,.6g}")
    elif args.name == "chaos":
        from repro.experiments import chaos
        from repro.faults import FaultPlan, ResiliencePolicy

        plan = FaultPlan.load(args.faults) if args.faults else None
        policy = None
        if not args.resilience:
            # Ablation: keep the reconfiguration loop but strip the
            # retry/quarantine/rollback machinery down to penalty-only.
            policy = ResiliencePolicy(
                max_retries=0, quarantine_after=0, rollback_after=0
            )
        result = chaos.run(cfg, plan=plan, resilience=policy)
        print(result.to_table())
        print()
        print(result.chart())
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.name)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.des.backend import SimulationBackend
    from repro.model.noise import NoiseModel

    scenario = _scenario(args)
    cfg = scenario.cluster.default_configuration()
    analytic = _backend(args, scenario, noise=NoiseModel(0.0, 0.0, 0.0))
    des = SimulationBackend(
        time_scale=args.time_scale,
        replications=args.replications,
        profile=args.profile,
    )
    m_ana = analytic.measure(scenario, cfg, seed=args.seed)
    m_des = des.measure(scenario, cfg, seed=args.seed)
    ratio = m_des.wips / m_ana.wips
    print(
        f"{args.mix} mix, N={args.population}: "
        f"DES {m_des.wips:.1f} WIPS vs analytic {m_ana.wips:.1f} WIPS "
        f"(ratio {ratio:.3f})"
    )
    ci = m_des.diagnostics.get("replication.wips_ci95")
    if ci is not None:
        count = int(m_des.diagnostics.get("replication.count", 0))
        print(
            f"{count} replications: "
            f"DES {m_des.wips:.1f} +/- {ci:.1f} WIPS (95% CI)"
        )
    if args.profile:
        print("profile:")
        for key in sorted(m_des.diagnostics):
            if key.startswith("profile."):
                value = m_des.diagnostics[key]
                print(f"  {key[len('profile.'):]:<24} {value:,.6g}")
    ok = 0.85 <= ratio <= 1.15
    print("backends agree within 15%" if ok else "DISAGREEMENT beyond 15%")
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from repro.lint import (
        ALL_RULES,
        Analyzer,
        find_root,
        format_json,
        format_rules,
        format_text,
        load_config,
        rules_by_id,
    )

    if args.rules:
        print(format_rules(ALL_RULES))
        return 0

    root = (
        pathlib.Path(args.root).resolve() if args.root else find_root()
    )
    config = load_config(root)
    known = set(rules_by_id())

    def parse_ids(raw: Optional[str]) -> Optional[frozenset[str]]:
        """Validate ``--select``/``--ignore`` tokens (ids or prefixes).

        A token is valid when it is a known rule id or a proper prefix
        of at least one (``RPL1`` selects the whole RPL1xx family).
        Unknown tokens are a usage error: exit code 2, message on
        stderr — distinct from exit 1 (findings), see docs.
        """
        if not raw:
            return None
        ids = frozenset(
            part.strip().upper() for part in raw.split(",") if part.strip()
        )
        unknown = {
            token
            for token in ids
            if not any(rule_id.startswith(token) for rule_id in known)
        }
        if unknown:
            print(
                f"repro lint: unknown rule ids or prefixes: "
                f"{', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return ids

    config = config.merged(
        select=parse_ids(args.select), ignore=parse_ids(args.ignore)
    )
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        src = root / "src"
        paths = [src if src.is_dir() else root]
    result = Analyzer(ALL_RULES, config).lint_paths(paths, root)
    print(format_json(result) if args.fmt == "json" else format_text(result))
    return 0 if result.ok else 1


_COMMANDS = {
    "baseline": _cmd_baseline,
    "tune": _cmd_tune,
    "sensitivity": _cmd_sensitivity,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    ``--sanitize`` (on the commands that execute measurements) turns on
    the runtime concurrency sanitizer for the whole command — same as
    running under ``REPRO_SANITIZE=1`` — then prints any runtime
    findings through the lint text reporter and forces exit code 1.
    """
    import os

    args = build_parser().parse_args(argv)
    sanitize = getattr(args, "sanitize", False)
    if sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    try:
        code = _COMMANDS[args.command](args)
    except JournalError as exc:
        # Journal misuse (fresh run over an existing file, resume without
        # one, header mismatch) is an operator error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if sanitize:
        from repro.lint import format_text, sanitizer
        from repro.lint.core import LintResult

        runtime = sanitizer.findings()
        print("sanitizer: " + ("FAIL" if runtime else "ok"), file=sys.stderr)
        if runtime:
            print(format_text(LintResult(runtime, files_checked=0)))
            code = code or 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
