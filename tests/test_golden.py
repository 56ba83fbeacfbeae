"""Golden fixture: sha256 of every saved trace file and of the verify report.

A change that claims to leave behaviour alone must keep this test green. A
deliberate change of trace bytes or of the random-stream layout rewrites the
fixture in its own commit, declared in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The hashes are pinned to the numeric stack they were recorded on: matrix
products go through BLAS, whose summation order depends on its version and
on the CPU kernels it selects. The fixture records that stack, and the test
skips, naming the difference, when it runs on another one.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tribound import SystemConfig, apply_overrides, run, verify

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
    # the trust region cannot fit its cap at t=28, so the run halts there
    "halted": ("baseline", {"delta_pi": 1e-300}, 30.0),
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
    trace = run(scenario, config=config, duration=duration)
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


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(FIXTURE.read_text())
    if recorded["numeric_stack"] != numeric_stack():
        pytest.skip(
            f"golden hashes recorded on {recorded['numeric_stack']}, "
            f"running on {numeric_stack()}"
        )
    return recorded["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_match_golden_fixture(name: str, golden: dict, tmp_path: Path):
    assert case_hashes(name, tmp_path) == golden[name]


def _record() -> None:
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = case_hashes(name, Path(tmp))
    payload = {"numeric_stack": numeric_stack(), "cases": cases}
    FIXTURE.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _record()
