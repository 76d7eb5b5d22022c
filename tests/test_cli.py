"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.results import ExperimentResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1", "E2"])
        assert args.experiments == ["E1", "E2"]
        assert not args.full

    def test_churn_options(self):
        args = build_parser().parse_args(
            ["churn", "--backend", "chord", "--lifetime", "50", "--nodes", "12"]
        )
        assert args.backend == "chord"
        assert args.lifetime == 50.0


class TestCommands:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_every_experiment_has_a_title(self):
        assert all(title for _run, title in ALL_EXPERIMENTS.values())

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "known: E1, E2" in capsys.readouterr().err

    def test_run_executes_experiment(self, capsys):
        assert main(["run", "e12"]) == 0
        out = capsys.readouterr().out
        assert "coordinator death" in out

    def test_churn_command_reports_metrics(self, capsys):
        code = main(
            ["churn", "--lifetime", "0", "--duration", "10", "--nodes", "10", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "violations:    0" in out


def _fake_e5(quick=True, seed=5):
    """Stands in for E5 so the name-handling test runs in milliseconds."""
    return ExperimentResult(experiment="E5", title="fake E5", columns=["x"], rows=[{"x": seed}])


@pytest.mark.parametrize("command", ["run", "trace", "sweep", "profile"])
def test_every_command_takes_the_same_experiment_names(command, monkeypatch, tmp_path, capsys):
    """``e05``, ``E5`` and ``5`` all name E5; an unknown name exits 2."""
    monkeypatch.setitem(ALL_EXPERIMENTS, "E5", (_fake_e5, "fake"))
    extra = {"trace": ["--out", str(tmp_path / "trace.jsonl")], "sweep": ["--seeds", "1"]}
    for name in ("e05", "E5", "5"):
        assert main([command, name, *extra.get(command, [])]) == 0
        assert "E5" in capsys.readouterr().out
    assert main([command, "E99", *extra.get(command, [])]) == 2
    assert "unknown experiment 'E99'" in capsys.readouterr().err
