"""Golden fixture: sha256 of every saved trace file and of the verify report,
and of the exit code, stdout and --out JSON of every CLI verb.

A change that claims to leave behaviour alone must keep this test green. A
deliberate change of trace bytes or of the random-stream layout rewrites the
fixture in its own commit, declared in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

Before it rewrites the fixture, that command prints each case whose hashes
changed against the recorded ones, with the files that changed, so the
declaration can list them.

The hashes are pinned to the numeric stack they were recorded on: matrix
products, and every norm (model.row_norms sums its squares with BLAS dot),
go through BLAS, whose summation order depends on its version and on the
CPU kernels it selects. The fixture records that stack, and the test
skips, naming the difference, when it runs on another one.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tribound import SystemConfig, apply_overrides, engine, run, verify
from tribound.cli import main
from tribound.model import row_norms

FIXTURE = Path(__file__).with_name("golden_hashes.json")

# name -> (scenario, config overrides, duration in seconds)
CASES: dict[str, tuple[str, dict, float]] = {
    "baseline": ("baseline", {}, 20.0),
    "delta_zero": ("delta_zero", {}, 20.0),
    "no_clamp": ("no_clamp", {}, 10.0),
    "slow_marl": ("slow_marl", {}, 25.0),
    "crafted_margin_breach": ("crafted_margin_breach", {}, 20.0),
    # coordination and meta boundaries off the tick grid
    "off_grid_periods": ("baseline", {"tau1": 0.03, "tau2": 1.0, "tau3": 5.0}, 12.0),
    # meta boundaries between two coordination boundaries
    "meta_mid_cycle": ("crafted_margin_breach", {"tau2": 1.0, "tau3": 4.5}, 10.0),
    "encoder_squash": ("baseline", {"encoder_squash": True, "n_agents": 7}, 20.0),
    # several batches of fast ticks per coordination cycle
    "wide_swarm": ("baseline", {"n_agents": 300, "tau2": 0.2, "tau3": 2.0}, 2.0),
    "clamp_off": ("baseline", {"enforce_clamp": False}, 10.0),
    # the trust region cannot fit its cap at t=32, so the run halts there
    "halted": ("baseline", {"delta_pi": 1e-300}, 40.0),
    # every agent aggregates the whole swarm
    "complete_graph": ("baseline", {"graph_topology": "complete"}, 20.0),
}

# name -> CLI arguments, run with --out; durations as in tests/test_cli.py
CLI_CASES: dict[str, list[str]] = {
    "counterexample_delta_zero": ["counterexample", "delta_zero", "--duration", "20"],
    "counterexample_no_clamp": ["counterexample", "no_clamp", "--duration", "10"],
    # a cap this wide is never breached, so the expectation is not reproduced
    "counterexample_no_clamp_not_reproduced": [
        "counterexample", "no_clamp", "--duration", "10", "--set", "delta_np=1"
    ],
    "counterexample_slow_marl": ["counterexample", "slow_marl", "--duration", "25"],
    "counterexample_crafted_margin_breach": [
        "counterexample", "crafted_margin_breach", "--duration", "20"
    ],
    # reaches no meta boundary, so the handler reports that and exits 1
    "counterexample_crafted_margin_breach_short": [
        "counterexample", "crafted_margin_breach", "--duration", "10"
    ],
    "verify_two_seeds": ["verify", "--seeds", "2", "--duration", "10"],
    "simulate_baseline": ["simulate", "--duration", "20"],
    "simulate_no_clamp": ["simulate", "--scenario", "no_clamp", "--duration", "10"],
    "bounds_three_sizes": ["bounds", "--n", "10,30,100"],
    "conditions": ["conditions"],
    "sensitivity": ["sensitivity"],
}


def numeric_stack() -> dict[str, object]:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "cpu_simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
    }


def case_hashes(name: str, out_dir: Path) -> dict[str, str]:
    scenario, overrides, duration = CASES[name]
    config = apply_overrides(SystemConfig(), overrides)
    trace = run(scenario, config=config, duration=duration, keep_snapshots=True)
    trace.save(out_dir)
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }
    report = [dataclasses.asdict(check) for check in verify(trace).checks]
    hashes["verify"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    return hashes


def cli_hashes(name: str, out_dir: Path) -> dict[str, str]:
    """Exit code, and sha256 of stdout and of every file written to --out,
    keyed by its path relative to --out (simulate writes a subdirectory)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*CLI_CASES[name], "--out", str(out_dir)])
    hashes = {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }
    hashes["exit"] = str(code)
    hashes["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(FIXTURE.read_text())
    if recorded["numeric_stack"] != numeric_stack():
        pytest.skip(
            f"golden hashes recorded on {recorded['numeric_stack']}, "
            f"running on {numeric_stack()}"
        )
    return recorded


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_match_golden_fixture(name: str, golden: dict, tmp_path: Path):
    assert case_hashes(name, tmp_path) == golden["cases"][name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden_fixture(name: str, golden: dict, tmp_path: Path):
    assert cli_hashes(name, tmp_path) == golden["cli"][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_size_leaves_the_saved_trace_byte_identical(
    name: str, tmp_path: Path, monkeypatch
):
    """Runs on any numeric stack: it compares two runs, not the fixture."""
    want = case_hashes(name, tmp_path / "default")
    # A batch of 3 ticks at 30x64, and of 1 tick at 300x64.
    monkeypatch.setattr(engine, "_BATCH_BYTES", 3 * 30 * 64 * 8)
    assert case_hashes(name, tmp_path / "small") == want


def _checks_by_repr(trace) -> list[tuple]:
    """Each replay check, its floats by repr, so NaN and -0.0 compare too."""
    return [
        (c.check_id, c.passed, repr(c.worst), repr(c.bound), c.note)
        for c in verify(trace).checks
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_run_without_snapshots_verifies_the_same(name: str):
    """Runs on any numeric stack: the drift reductions a run records equal
    the largest row_norms change over the kept snapshots, or NaN in the
    unstable regime, which has no drift ceiling, and a run that keeps no
    snapshots verifies check by check the same."""
    scenario, overrides, duration = CASES[name]
    config = apply_overrides(SystemConfig(), overrides)
    kept = run(scenario, config=config, duration=duration, keep_snapshots=True)
    bare = run(scenario, config=config, duration=duration)
    assert kept.marl_records and bare.snap_weights is None
    assert _checks_by_repr(bare) == _checks_by_repr(kept)
    for field, snaps in (
        ("weight_drift", kept.snap_weights),
        ("embedding_drift", kept.snap_embeddings),
    ):
        changes = [row_norms(b - a).max() for a, b in zip(snaps, snaps[1:])]
        stable = kept.config.delta < 0.0
        want = repr(float(np.max(changes)) if stable else math.nan)
        assert repr(getattr(kept, field)) == repr(getattr(bare, field)) == want
    want = repr(max(float(row_norms(w).max()) for w in kept.snap_weights))
    assert repr(kept.snap_weight_norm) == repr(bare.snap_weight_norm) == want


def changed_hashes(old: dict, new: dict) -> list[str]:
    """One line per case whose hashes differ: the case and its changed files."""
    lines = []
    for section in ("cases", "cli"):
        before, after = old.get(section, {}), new[section]
        for name in sorted(before.keys() | after.keys()):
            was, now = before.get(name), after.get(name)
            if was is None or now is None:
                change = "added" if was is None else "removed"
                lines.append(f"{section}/{name}: {change}")
                continue
            files = sorted(
                key for key in was.keys() | now.keys() if was.get(key) != now.get(key)
            )
            if files:
                lines.append(f"{section}/{name}: {', '.join(files)}")
    return lines


def test_changed_hashes_names_each_changed_case_and_file():
    old = {
        "cases": {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"x.csv": "1"}},
        "cli": {"c": {"exit": "0", "stdout": "3"}, "gone": {"exit": "0"}},
    }
    new = {
        "cases": {"a": {"x.csv": "1", "y.csv": "9"}, "b": {"x.csv": "1"}},
        "cli": {"c": {"exit": "2", "stdout": "4"}, "fresh": {"exit": "0"}},
    }
    assert changed_hashes(old, new) == [
        "cases/a: y.csv",
        "cli/c: exit, stdout",
        "cli/fresh: added",
        "cli/gone: removed",
    ]
    assert changed_hashes(new, new) == []


def _record() -> None:
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = case_hashes(name, Path(tmp))
    cli = {}
    for name in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cli[name] = cli_hashes(name, Path(tmp))
    payload = {"numeric_stack": numeric_stack(), "cases": cases, "cli": cli}
    if FIXTURE.exists():
        recorded = json.loads(FIXTURE.read_text())
        if recorded["numeric_stack"] != payload["numeric_stack"]:
            print(
                f"numeric stack differs from the recorded {recorded['numeric_stack']}",
                file=sys.stderr,
            )
        changes = changed_hashes(recorded, payload)
        print(f"{len(changes)} case(s) changed against {FIXTURE.name}", file=sys.stderr)
        for line in changes:
            print(f"  {line}", file=sys.stderr)
    FIXTURE.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _record()
