"""Exit codes of the command-line verbs, run in-process through main(argv)."""
from pathlib import Path

from tribound.cli import CONFIRMED_EXIT, PASS_EXIT, UNEXPECTED_EXIT, main


def test_simulate_baseline_passes(tmp_path: Path, capsys):
    code = main(
        ["simulate", "--scenario", "baseline", "--duration", "10", "--out", str(tmp_path)]
    )
    assert code == PASS_EXIT == 0
    assert "verdict: all contracts held" in capsys.readouterr().out
    assert (tmp_path / "trace_baseline" / "steps.csv").is_file()


def test_counterexample_delta_zero_confirms(capsys):
    assert main(["counterexample", "delta_zero", "--duration", "20"]) == CONFIRMED_EXIT == 2
    assert "unbounded growth confirmed" in capsys.readouterr().out


def test_verify_two_seeds_passes(capsys):
    assert main(["verify", "--seeds", "2", "--duration", "10"]) == PASS_EXIT
    assert "replayed 2 seeds" in capsys.readouterr().out


def test_malformed_override_fails_without_traceback(capsys):
    assert main(["simulate", "--duration", "1", "--set", "n_agents"]) == UNEXPECTED_EXIT == 1
    err = capsys.readouterr().err
    assert err.startswith("error: override 'n_agents' is not of the form key=value")
    assert "Traceback" not in err
