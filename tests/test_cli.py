"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.util.serialization import load_configuration, load_history


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.mix == "shopping"
        assert args.iterations == 100
        assert args.method == "default"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "option",
        [["--store-path", "store"], ["--engine-faults", "plan.json"],
         ["--jobs", "2"], ["--engine", "inline"], ["--sanitize"]],
        ids=lambda option: option[0],
    )
    def test_engine_options_are_experiment_only(self, option, capsys):
        # tune measures in-process and never reaches the shared engine.
        build_parser().parse_args(["experiment", "fig4", *option])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", *option])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBaseline:
    def test_prints_wips(self, capsys):
        rc = main(["baseline", "--mix", "browsing", "--population", "300",
                   "--repeats", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "WIPS" in out
        assert "browsing" in out


class TestTune:
    def test_tunes_and_saves(self, tmp_path, capsys):
        best_path = tmp_path / "best.json"
        history_path = tmp_path / "run.jsonl"
        rc = main([
            "tune", "--mix", "browsing", "--iterations", "30",
            "--population", "750",
            "--save-best", str(best_path),
            "--save-history", str(history_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "best after 30 iterations" in out
        cfg = load_configuration(best_path)
        assert "proxy0.cache_mem" in cfg
        history = load_history(history_path)
        assert len(history) == 30

    def test_duplication_method_on_cluster(self, capsys):
        rc = main([
            "tune", "--method", "duplication", "--iterations", "10",
            "--proxies", "2", "--apps", "2", "--dbs", "2",
            "--population", "600",
        ])
        assert rc == 0

    def test_random_strategy(self, capsys):
        rc = main(["tune", "--strategy", "random", "--iterations", "10",
                   "--population", "400"])
        assert rc == 0


class TestSensitivity:
    def test_named_params(self, capsys):
        rc = main([
            "sensitivity", "--mix", "browsing", "--population", "750",
            "--params", "proxy0.cache_mem,proxy0.cache_swap_low",
            "--points", "3", "--repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache_mem" in out and "Effect size" in out


class TestExperiment:
    def test_table1(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        assert "Buy Confirm" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        rc = main(["experiment", "fig5", "--iterations", "20"])
        assert rc == 0
        assert "responsiveness" in capsys.readouterr().out


class TestValidate:
    def test_backends_agree(self, capsys):
        rc = main(["validate", "--population", "300", "--time-scale", "0.03"])
        out = capsys.readouterr().out
        assert "ratio" in out
        assert rc == 0


class TestFaultsCli:
    def test_chaos_is_a_known_experiment(self):
        args = build_parser().parse_args(["experiment", "chaos"])
        assert args.name == "chaos"
        assert args.resilience is True
        args = build_parser().parse_args(["experiment", "chaos", "--no-resilience"])
        assert args.resilience is False

    def test_tune_under_a_fault_plan(self, tmp_path, capsys):
        from repro.faults.plan import FaultEvent, FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            events=(FaultEvent("fail", 3, count=2),), seed=1
        ).save(plan_path)
        rc = main([
            "tune", "--iterations", "12", "--population", "500",
            "--faults", str(plan_path), "--resilience",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults:" in out and "resilience:" in out
        assert "best after 12 iterations" in out

    def test_chaos_experiment_reports_recovery(self, capsys):
        rc = main(["experiment", "chaos", "--iterations", "30", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "WIPS under failure (resilient)" in out
        assert "time to recover" in out
        assert "resume bit-identical" in out
        assert "degradation ladder" in out


class TestDurabilityCli:
    ARGS = ["tune", "--mix", "shopping", "--iterations", "8",
            "--population", "400"]

    def test_tune_journal_then_resume_is_stdout_identical(
        self, tmp_path, capsys
    ):
        rc = main(list(self.ARGS))
        assert rc == 0
        plain = capsys.readouterr().out
        journal = tmp_path / "run.journal"
        rc = main(self.ARGS + ["--journal", str(journal)])
        assert rc == 0
        assert capsys.readouterr().out == plain
        rc = main(self.ARGS + ["--resume", str(journal)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "resumed from" in captured.err

    @staticmethod
    def _cut(journal, outcomes):
        """Keep the header and the first ``outcomes`` frames, as if the
        run had been killed right after committing them."""
        from repro.durability.framing import scan_file, write_frames

        payloads = scan_file(journal).payloads
        assert len(payloads) > 1 + outcomes
        write_frames(journal, payloads[: 1 + outcomes])

    @pytest.mark.parametrize(
        "write_flags, resume_flags",
        [(["--speculate"], []), ([], ["--speculate"])],
        ids=["written-speculating", "resumed-speculating"],
    )
    def test_resume_ignores_speculate(
        self, tmp_path, capsys, write_flags, resume_flags
    ):
        # Speculation never shapes results, so the journal header leaves
        # it out: a run may be resumed with or without it.
        assert main(list(self.ARGS)) == 0
        plain = capsys.readouterr().out
        journal = tmp_path / "run.journal"
        assert main(self.ARGS + write_flags + ["--journal", str(journal)]) == 0
        assert capsys.readouterr().out == plain
        # A full journal replays every step; one cut three tuning steps
        # past the 10 baseline repeats replays those, then runs live.
        for cut, replayed in ((None, 18), (13, 13)):
            if cut is not None:
                self._cut(journal, cut)
            rc = main(self.ARGS + resume_flags + ["--resume", str(journal)])
            assert rc == 0
            captured = capsys.readouterr()
            assert captured.out == plain
            assert f"replayed {replayed} committed" in captured.err

    def test_fresh_run_refuses_an_existing_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        assert main(self.ARGS + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        rc = main(self.ARGS + ["--journal", str(journal)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_under_different_flags_fails_loudly(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        assert main(self.ARGS + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        rc = main([
            "tune", "--mix", "browsing", "--iterations", "8",
            "--population", "400", "--resume", str(journal),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_journal_rejected_for_non_fanout_experiment(
        self, tmp_path, capsys
    ):
        rc = main([
            "experiment", "chaos", "--journal", str(tmp_path / "c.journal"),
        ])
        assert rc == 2
        assert "fan-out" in capsys.readouterr().err


class TestScaleCli:
    def test_population_suffixes(self):
        args = build_parser().parse_args(["baseline", "--population", "2k"])
        assert args.population == 2000
        args = build_parser().parse_args(["baseline", "--population", "1m"])
        assert args.population == 1_000_000

    def test_population_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--population", "huge"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--population", "0"])

    def test_approximation_choice(self):
        args = build_parser().parse_args(
            ["baseline", "--approximation", "fluid"]
        )
        assert args.approximation == "fluid"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--approximation", "magic"])

    def test_scale_is_a_known_experiment(self):
        args = build_parser().parse_args(["experiment", "scale"])
        assert args.name == "scale"

    def test_baseline_with_fluid_approximation(self, capsys):
        rc = main(["baseline", "--population", "100k", "--repeats", "2"])
        assert rc == 0
        assert "N=100000" in capsys.readouterr().out
