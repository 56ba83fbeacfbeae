"""Exit codes of the command-line verbs, run in-process through main(argv)."""
import json
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


def test_bounds_passes(capsys):
    assert main(["bounds"]) == PASS_EXIT
    out = capsys.readouterr().out
    assert out.startswith("closed-form quantities at the configured operating point")
    assert "fast-rate stability threshold" in out


def test_bounds_with_huge_gain_ceiling_reports_instead_of_overflowing(capsys):
    # (peak drive * sigma_max) ** 2 would overflow; the threshold rounds to 0.
    assert main(["bounds", "--set", "sigma_max=1e200"]) == PASS_EXIT
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    line = next(
        row for row in captured.out.splitlines()
        if row.startswith("fast-rate stability threshold")
    )
    assert line.split()[-1] == "0"


def test_conditions_passes(capsys):
    assert main(["conditions"]) == PASS_EXIT
    assert capsys.readouterr().out.startswith("start-time admissibility conditions")


def test_sensitivity_passes(capsys):
    assert main(["sensitivity"]) == PASS_EXIT
    assert "exact sweep of the total bound" in capsys.readouterr().out


def test_counterexample_no_clamp_confirms(capsys):
    assert main(["counterexample", "no_clamp", "--duration", "10"]) == CONFIRMED_EXIT
    assert "per-tick cap violated as expected" in capsys.readouterr().out


def test_counterexample_slow_marl_confirms(capsys):
    assert main(["counterexample", "slow_marl", "--duration", "25"]) == CONFIRMED_EXIT
    assert "guarantee degrades as expected" in capsys.readouterr().out


def test_counterexample_crafted_margin_breach_confirms(capsys):
    argv = ["counterexample", "crafted_margin_breach", "--duration", "20"]
    assert main(argv) == CONFIRMED_EXIT
    assert "margin alarm fired as expected" in capsys.readouterr().out


def test_verify_exits_one_on_a_contract_breach(tmp_path: Path, capsys):
    """Without the clamp, NP-C1 fails while every ceiling still holds; the
    weight norms settle, so this is not the start-up transient."""
    argv = [
        "verify", "--duration", "10", "--seeds", "1",
        "--set", "enforce_clamp=false", "--out", str(tmp_path),
    ]
    assert main(argv) == UNEXPECTED_EXIT
    out = capsys.readouterr().out
    assert "verdict: at least one seed breached a ceiling or contract" in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["fail_total"] > 0
    assert out.startswith(
        f"replayed 1 seeds of scenario 'baseline'; {report['fail_total']} contract failures"
    )
    accumulation = report["checks"]["non_accumulation"]
    assert (accumulation["pass"], accumulation["fail"]) == (1, 0)
    # The breach is the contract failures alone: every ceiling holds.
    assert all(check["fail"] == 0 for check in report["checks"].values())


def _assert_clean_error(capsys, start: str) -> None:
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {start}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_missing_config_file_fails_without_traceback(tmp_path: Path, capsys):
    path = tmp_path / "absent.json"
    assert main(["bounds", "--config", str(path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"cannot read config file {str(path)!r}")


def test_directory_as_config_fails_without_traceback(tmp_path: Path, capsys):
    assert main(["bounds", "--config", str(tmp_path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"cannot read config file {str(tmp_path)!r}")


def test_non_utf8_config_fails_without_traceback(tmp_path: Path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"graph_topology": "r\xe9ng"}')
    assert main(["bounds", "--config", str(path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"config file {str(path)!r} is not UTF-8 text")


def test_bounds_rejects_non_integer_swarm_sizes(capsys):
    for value in ("abc", "10,x"):
        assert main(["bounds", "--n", value]) == UNEXPECTED_EXIT
        _assert_clean_error(
            capsys, f"--n expects comma-separated integers, got {value!r}"
        )


def test_bounds_rejects_an_empty_swarm_size_list(capsys):
    for value in (",", " , "):
        assert main(["bounds", "--n", value]) == UNEXPECTED_EXIT
        _assert_clean_error(capsys, f"--n names no swarm size, got {value!r}")


def test_simulate_without_ticks_has_no_evidence(capsys):
    assert main(["simulate", "--duration", "0"]) == UNEXPECTED_EXIT
    assert "verdict: no evidence" in capsys.readouterr().out


def test_verify_without_ticks_has_no_evidence(capsys):
    assert main(["verify", "--seeds", "1", "--duration", "0"]) == UNEXPECTED_EXIT
    assert "verdict: no evidence" in capsys.readouterr().out


def test_a_tick_count_numpy_cannot_allocate_fails_without_traceback(capsys):
    assert main(["simulate", "--set", "tau1=1e-300"]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, "1e+302 ticks x 30 agents: ")


def test_verify_exits_one_when_a_run_halts(capsys):
    """The trust region cannot fit a cap of 1e-300 and halts the run at
    t=2.8; simulate and verify both report that as unexpected."""
    overrides = ["--set", "delta_pi=1e-300", "--set", "tau2=0.2", "--set", "tau3=2.0"]
    assert main(["simulate", "--duration", "4", *overrides]) == UNEXPECTED_EXIT
    assert "halted early           yes" in capsys.readouterr().out
    assert main(["verify", "--seeds", "1", "--duration", "4", *overrides]) == UNEXPECTED_EXIT
    assert "verdict: at least one seed breached" in capsys.readouterr().out
